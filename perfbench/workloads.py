"""The benchmark's three workloads, each driven through the public API.

A workload builds everything from its seed in :meth:`setup` (timed as
set-up, warm-up operation included), then the harness repeats
``prepare`` (untimed) → ``run`` (timed) → ``check`` (untimed).  ``work``
is what one operation accomplishes: environment steps for ``qat-train``
and ``collect``, requests for ``serve``.

Why these three (choosing-metrics: each planned optimisation gets a
workload where its layer carries most of the time, and one where it
carries none):

* ``qat-train`` is the number a user waits on: the learner (``rl.ddpg``,
  ``nn``, ``fixedpoint``) does most of the work, in both precision regimes.
* ``collect`` exercises the env kernel, rollout engine and replay buffer
  with float32 numerics, so the learner and the quantizer do no work there.
* ``serve`` runs the same ``nn``/``fixedpoint`` layers read-only (weights
  never change) behind the serving batcher, where ``qat-train`` rewrites
  the weights on every update.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.accelerator import TimingModel
from repro.envs import HalfCheetahEnv, VectorEnv
from repro.nn import make_numerics
from repro.platform import FixarPlatform, WorkloadSpec
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    GaussianNoise,
    QATController,
    QATSchedule,
    ReplayBuffer,
    RolloutEngine,
    TrainingConfig,
    save_agent,
    train,
)
from repro.serving import (
    PolicyServer,
    RequestQueue,
    ServingConfig,
    ServingReport,
    SyntheticLoadGenerator,
)

__all__ = ["WORKLOADS", "QatTrain", "Collect", "Serve"]

STATE_DIM = HalfCheetahEnv.STATE_DIM
ACTION_DIM = HalfCheetahEnv.ACTION_DIM
PAPER_HIDDEN = (400, 300)


def _weights_on_grid(agent) -> bool:
    """Online weights are finite and already on the weight grid."""
    project = agent.numerics.project_weight
    for network in (agent.actor, agent.critic):
        for weight in network.parameters().values():
            if not np.isfinite(weight).all() or not np.array_equal(project(weight), weight):
                return False
    return True


class QatTrain:
    """``train()`` with the paper's set-up and a mid-run 16-bit switch."""

    name = "qat-train"
    work_name = "train_steps_per_s"
    #: Nominal seconds of one traced operation, which sizes the traced run.
    trace_op_seconds = 6.0

    NUM_ENVS = 8
    BATCH = 64
    TOTAL_STEPS = 320
    WARMUP_STEPS = 64
    SWITCH_STEP = 160
    EVALUATION_INTERVAL = 160
    #: Evaluation episodes are shortened from the paper's 1000 steps so that
    #: evaluation keeps its share of a long training run.
    EVALUATION_STEPS = 300
    #: The warm-up run in set-up: a few updates, the switch and one evaluation.
    WARM_TOTAL_STEPS = 72

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.final_return = None
        self.numerics = None
        self.last_result = None

    def _build(self, total_steps: int, switch_step: int):
        seed = self.seed
        numerics = make_numerics("fixar-dynamic")
        agent = DDPGAgent(
            STATE_DIM,
            ACTION_DIM,
            DDPGConfig(hidden_sizes=PAPER_HIDDEN),
            numerics=numerics,
            rng=np.random.default_rng(seed),
        )
        controller = QATController(numerics, QATSchedule(num_bits=16, quantization_delay=switch_step))
        config = TrainingConfig(
            total_timesteps=total_steps,
            warmup_timesteps=self.WARMUP_STEPS,
            batch_size=self.BATCH,
            buffer_capacity=total_steps,
            evaluation_interval=self.EVALUATION_INTERVAL,
            evaluation_episodes=1,
            seed=seed,
            num_envs=self.NUM_ENVS,
        )
        # The evaluation env takes the first seed past the training envs.
        env = HalfCheetahEnv(seed=seed)
        eval_env = HalfCheetahEnv(seed=seed + self.NUM_ENVS, max_episode_steps=self.EVALUATION_STEPS)
        return env, agent, config, eval_env, controller

    def setup(self) -> None:
        env, agent, config, eval_env, controller = self._build(self.WARM_TOTAL_STEPS, self.WARMUP_STEPS)
        train(env, agent, config, eval_env=eval_env, qat_controller=controller)

    def prepare(self):
        return self._build(self.TOTAL_STEPS, self.SWITCH_STEP)

    def run(self, built):
        env, agent, config, eval_env, controller = built
        return train(env, agent, config, eval_env=eval_env, qat_controller=controller)

    def work(self, result) -> int:
        return result.total_timesteps

    def check(self, built, result) -> Tuple[List[str], int, int]:
        agent = built[1]
        failed = []
        if result.total_updates != self.TOTAL_STEPS - self.WARMUP_STEPS:
            failed.append("update count equals the steps past warmup")
        if result.qat_event is None or result.qat_event.timestep != self.SWITCH_STEP:
            failed.append("QAT switch fires at the configured step")
        if agent.numerics.activation_bits != 16:
            failed.append("activation bits read 16 after the switch")
        if len(result.curve.points) != self.TOTAL_STEPS // self.EVALUATION_INTERVAL:
            failed.append("every evaluation point is recorded")
        if not _weights_on_grid(agent):
            failed.append("online weights are finite and on the weight grid")
        final_return = result.curve.final_return
        if self.final_return is None:
            self.final_return = final_return
        if not math.isfinite(final_return) or final_return != self.final_return:
            failed.append("final return is finite and repeats exactly for the seed")
        self.numerics = agent.numerics
        self.last_result = result
        return failed, 1, None

    def named_values(self) -> Dict[str, Tuple[float, str]]:
        return {"final_return": (self.final_return, "return")}

    def layer_values(self) -> Dict[str, float]:
        event = self.last_result.qat_event if self.last_result is not None else None
        return {
            "rl.qat.switch_step": event.timestep if event is not None else 0,
            "nn.activation_bits.final": self.numerics.activation_bits if self.numerics else 0,
            "serving.flushes": 0,
            "serving.mean_batch": 0.0,
        }

    def learner_table(self, tracer) -> List[dict]:
        """Measured ms per update beside the modelled µs, per precision regime."""
        spec = WorkloadSpec.from_benchmark("HalfCheetah", hidden_sizes=PAPER_HIDDEN)
        model = TimingModel()
        modelled = {
            bits: model.timestep_breakdown(
                spec.actor_shapes,
                spec.critic_shapes,
                self.BATCH,
                half_precision=bits == 16,
                num_envs=self.NUM_ENVS,
            ).as_dict()
            for bits in (32, 16)
        }
        updates = {bits: calls for bits, (calls, _busy) in tracer.by_tag("rl.ddpg.update").items()}
        rows = []
        for phase in (*modelled[32].keys(), "soft_update"):
            measured = tracer.by_tag(f"rl.ddpg.{phase}")
            row = {"phase": phase}
            for bits in (32, 16):
                calls_busy = measured.get(bits)
                row[f"measured_{bits}_ms"] = (
                    calls_busy[1] / updates[bits] * 1e3 if calls_busy and updates.get(bits) else None
                )
                cycles = modelled[bits].get(phase)
                row[f"modelled_{bits}_us"] = (
                    cycles / model.config.clock_hz * 1e6 if cycles is not None else None
                )
            rows.append(row)
        return rows


class Collect:
    """``RolloutEngine.collect`` past warmup with float32 numerics."""

    name = "collect"
    work_name = "collect_steps_per_s"
    trace_op_seconds = 0.12

    NUM_ENVS = 16
    HIDDEN = (64, 48)
    WARMUP_STEPS = 256
    OP_STEPS = 4096
    SIGMA = 0.1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.engine = None
        self.modelled_seconds = 0.0
        self.steps = 0

    def setup(self) -> None:
        seed = self.seed
        agent = DDPGAgent(
            STATE_DIM,
            ACTION_DIM,
            DDPGConfig(hidden_sizes=self.HIDDEN),
            numerics=make_numerics("float32"),
            rng=np.random.default_rng(seed),
        )
        self.buffer = ReplayBuffer(self.OP_STEPS, STATE_DIM, ACTION_DIM, seed=seed)
        self.engine = RolloutEngine(
            VectorEnv.from_template(HalfCheetahEnv(seed=seed), self.NUM_ENVS, seed=seed),
            agent,
            buffer=self.buffer,
            noise=GaussianNoise(ACTION_DIM, self.SIGMA, seed=seed),
            warmup_timesteps=self.WARMUP_STEPS,
            rng=seed,
            platform=FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah", hidden_sizes=self.HIDDEN)),
        )
        self.engine.collect(self.WARMUP_STEPS)
        self.buffer.clear()
        self.engine.collect(self.OP_STEPS)

    def prepare(self):
        self.buffer.clear()
        return self.engine.total_env_steps

    def run(self, steps_before):
        return self.engine.collect(self.OP_STEPS)

    def work(self, stats) -> int:
        return stats.total_steps

    def check(self, steps_before, stats) -> Tuple[List[str], int, int]:
        failed = []
        n = len(self.buffer)
        if stats.total_steps != self.OP_STEPS or n != self.OP_STEPS:
            failed.append("the buffer holds every step")
        if self.engine.total_env_steps - steps_before != self.OP_STEPS:
            failed.append("the engine counts every step")
        # ReplayBuffer has no bulk read, so the stored rows are read directly.
        buffer = self.buffer
        actions = buffer._actions[:n]
        if not (np.abs(actions) <= 1.0).all():
            failed.append("actions lie in [-1, 1]")
        stored = (buffer._states[:n], actions, buffer._rewards[:n], buffer._next_states[:n])
        if not all(np.isfinite(array).all() for array in stored):
            failed.append("all transitions are finite")
        if not stats.modelled_platform_seconds > 0:
            failed.append("every lock-step is priced on the platform")
        self.modelled_seconds += stats.modelled_platform_seconds
        self.steps += stats.total_steps
        return failed, 1, None

    def named_values(self) -> Dict[str, Tuple[float, str]]:
        return {"collect_modelled_steps_per_s": (self.steps / self.modelled_seconds, "1/s")}

    def layer_values(self) -> Dict[str, float]:
        return {
            "rl.qat.switch_step": 0,
            "nn.activation_bits.final": self.engine.agent.numerics.activation_bits,
            "serving.flushes": 0,
            "serving.mean_batch": 0.0,
        }


class Serve:
    """A 16-bit checkpointed actor behind the dynamic batcher."""

    name = "serve"
    work_name = "serve_requests_per_s"
    trace_op_seconds = 0.44

    QPS = 2000.0
    NUM_REQUESTS = 2048
    BATCH_CAP = 8
    SLO_SECONDS = 0.02
    CALIBRATION_STATES = 256
    #: Offered rates at which the modelled p99 is reported.
    REPORT_RATES = (500.0, 1000.0, 2000.0, 4000.0)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.first_report = None
        self.flushes = 0
        self.served = 0

    def setup(self) -> None:
        seed = self.seed
        rng = np.random.default_rng(seed)
        numerics = make_numerics("fixar-dynamic")
        agent = DDPGAgent(
            STATE_DIM,
            ACTION_DIM,
            DDPGConfig(hidden_sizes=PAPER_HIDDEN),
            numerics=numerics,
            rng=rng,
        )
        # Observe an activation range, then switch to 16 bits before saving.
        agent.act_batch(rng.standard_normal((self.CALIBRATION_STATES, STATE_DIM)))
        QATController(numerics, QATSchedule(num_bits=16, quantization_delay=0)).on_timestep(0)
        path = save_agent(agent, self.out_dir / f"serve-seed{seed}.npz")
        try:
            self.server = PolicyServer.from_checkpoint(
                path,
                FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah", hidden_sizes=PAPER_HIDDEN)),
                ServingConfig(
                    num_requests=self.NUM_REQUESTS,
                    qps=self.QPS,
                    slo_seconds=self.SLO_SECONDS,
                    batch_cap=self.BATCH_CAP,
                    seed=seed,
                ),
            )
        finally:
            path.unlink()
        self.requests = SyntheticLoadGenerator(STATE_DIM, self.QPS, seed=seed).generate(self.NUM_REQUESTS)
        # The reference comes from the agent that was saved, so the check
        # also covers the checkpoint round trip.
        self.reference = agent.act_batch(np.stack([request.state for request in self.requests]))
        self.server.serve(self.requests)

    def prepare(self):
        return None

    def run(self, _prepared):
        return self.server.serve(self.requests)

    def work(self, result) -> int:
        return len(self.requests)

    def check(self, _prepared, result) -> Tuple[List[str], int, int]:
        report = result.report
        failed = []
        bad = np.zeros(self.NUM_REQUESTS, dtype=bool)
        answered = np.zeros(self.NUM_REQUESTS, dtype=int)
        for flush in report.flushes:
            answered[list(flush.request_ids)] += 1
        if not (answered == 1).all():
            failed.append("every request is answered once")
            bad |= answered != 1
        if result.actions.shape != self.reference.shape:
            failed.append("every request gets an action")
            bad[:] = True
        else:
            mismatch = (result.actions != self.reference).any(axis=1)
            if mismatch.any():
                failed.append("actions equal a direct act_batch bit for bit")
                bad |= mismatch
        late = np.asarray(report.latencies) > self.SLO_SECONDS
        if late.any():
            failed.append("modelled latency meets the SLO")
            bad |= late
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            failed.append("the modelled flush plan repeats exactly")
            bad[:] = True
        self.flushes += report.num_flushes
        self.served += report.num_requests
        return failed, self.NUM_REQUESTS, int(bad.sum())

    def _meets_slo(self, qps: float) -> Tuple[bool, float]:
        """Modelled p99 at an offered rate, and whether the SLO holds.

        The SLO holds when the p99 latency is within it and the backlog
        does not grow: the last request completes within one SLO of its
        arrival.
        """
        requests = SyntheticLoadGenerator(STATE_DIM, qps, seed=self.seed).generate(self.NUM_REQUESTS)
        queue = RequestQueue()
        queue.enqueue_many(requests)
        batcher = self.server.batcher
        report = ServingReport(
            num_requests=len(requests),
            batch_cap=batcher.batch_cap,
            slo_seconds=batcher.slo_seconds,
            timeout_seconds=batcher.timeout_seconds,
            flushes=tuple(batcher.plan(queue)),
        )
        backlog = report.makespan_seconds - requests[-1].arrival_seconds
        return report.p99_seconds <= self.SLO_SECONDS and backlog <= self.SLO_SECONDS, report.p99_seconds

    def max_qps(self, relative_precision: float = 1e-3) -> float:
        """Highest offered rate that meets the SLO, by bisection on the modelled clock."""
        service = self.server.platform.serving_round_seconds(self.BATCH_CAP)
        low, high = 1.0, 2.0 * self.BATCH_CAP / service
        if not self._meets_slo(low)[0]:
            return 0.0
        while high - low > relative_precision * low:
            middle = 0.5 * (low + high)
            if self._meets_slo(middle)[0]:
                low = middle
            else:
                high = middle
        return low

    def named_values(self) -> Dict[str, Tuple[float, str]]:
        values = {
            "serve_modelled_p99_ms": (self.first_report.p99_seconds * 1e3, "ms"),
            "serve_modelled_max_qps": (self.max_qps(), "1/s"),
        }
        for rate in self.REPORT_RATES:
            values[f"serve_modelled_p99_ms_at_{rate:g}_qps"] = (self._meets_slo(rate)[1] * 1e3, "ms")
        return values

    def layer_values(self) -> Dict[str, float]:
        return {
            "rl.qat.switch_step": 0,
            "nn.activation_bits.final": self.server.policy.actor.numerics.activation_bits,
            "serving.flushes": self.flushes,
            "serving.mean_batch": self.served / self.flushes if self.flushes else 0.0,
        }


WORKLOADS = {workload.name: workload for workload in (QatTrain, Collect, Serve)}
