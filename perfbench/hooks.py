"""Which public functions the traced run wraps, and the per-layer metrics.

Every layer boundary is wrapped from here, at class level, so the program
itself carries no tracing code.  The spans inside ``DDPGAgent.update`` are
named after the phases of ``TimingModel.timestep_breakdown`` by the
network or optimizer that is called and, for the critic, by call order
(first forward = ``critic_forward``, second = ``policy_q_forward``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

import repro.rl.scheduler as scheduler_module
from repro.envs import VectorEnv
from repro.fixedpoint import QFormat
from repro.nn import MLP, Adam, Linear
from repro.platform import FixarPlatform
from repro.rl import (
    ActorPolicy,
    DDPGAgent,
    GaussianNoise,
    ReplayBuffer,
    RolloutEngine,
    RoundScheduler,
)
from repro.serving import PolicyServer

from perfbench.spans import Tracer
from perfbench.stats import tail_percentile

__all__ = ["LEARNER_PHASES", "NETWORK_LAYERS", "PER_LAYER", "install", "layer_metrics"]

#: The learner phases, in ``TimingModel.timestep_breakdown`` order, plus the
#: target-network soft update the timing model does not price.
LEARNER_PHASES = (
    "critic_target_forward",
    "critic_forward",
    "critic_backward",
    "critic_weight_update",
    "actor_forward",
    "policy_q_forward",
    "policy_q_backward",
    "actor_backward",
    "actor_weight_update",
    "soft_update",
)
NETWORK_LAYERS = ("actor_fc0", "actor_fc1", "actor_out", "critic_fc0", "critic_fc1", "critic_out")
#: Percentiles a metric named ``p99`` may report (see ``stats.tail_percentile``).
P99_AND_BELOW = (99.0, 95.0, 90.0, 75.0, 50.0)

UPDATE = "rl.ddpg.update"


def _per_layer_spec() -> List[Tuple[str, str, str]]:
    spec = [
        ("trace.wall_s", "s", "lower"),
        ("fixedpoint.quantize.calls", "count", "lower"),
        ("fixedpoint.quantize.busy_s", "s", "lower"),
        ("fixedpoint.quantize.elements", "count", "lower"),
    ]
    spec += [(f"rl.ddpg.{phase}.ms", "ms", "lower") for phase in LEARNER_PHASES]
    for layer in NETWORK_LAYERS:
        spec += [(f"nn.layer.{layer}.fp_s", "s", "lower"), (f"nn.layer.{layer}.bp_s", "s", "lower")]
    spec += [
        ("rl.ddpg.update.calls", "count", "higher"),
        ("rl.ddpg.update.busy_s", "s", "lower"),
        ("rl.ddpg.update.self_s", "s", "lower"),
        ("rl.ddpg.update.p50_ms", "ms", "lower"),
        ("rl.ddpg.update.p99_ms", "ms", "lower"),
        ("rl.replay_buffer.sample.calls", "count", "higher"),
        ("rl.replay_buffer.sample.busy_s", "s", "lower"),
        ("rl.replay_buffer.add_batch_trusted.busy_s", "s", "lower"),
        ("rl.evaluation.evaluate.busy_s", "s", "lower"),
        ("rl.evaluation.env_steps", "count", "higher"),
        ("envs.vector.step.busy_s", "s", "lower"),
        ("envs.vector.step.p50_us", "us", "lower"),
        ("envs.vector.step.p99_us", "us", "lower"),
        ("rl.rollout.step.calls", "count", "higher"),
        ("rl.rollout.step.self_s", "s", "lower"),
        ("rl.rollout.step.p50_us", "us", "lower"),
        ("rl.rollout.step.p99_us", "us", "lower"),
        ("rl.noise.sample_batch.busy_s", "s", "lower"),
        ("rl.ddpg.act_batch.busy_s", "s", "lower"),
        ("rl.scheduler.run.busy_s", "s", "lower"),
        ("rl.qat.switch_step", "step", "higher"),
        ("nn.activation_bits.final", "bits", "lower"),
        ("platform.infer_batch.calls", "count", "lower"),
        ("platform.serving_round_seconds.calls", "count", "lower"),
        ("serving.server.serve.busy_s", "s", "lower"),
        ("serving.server.serve.self_s", "s", "lower"),
        ("rl.workers.act_batch.calls", "count", "higher"),
        ("rl.workers.act_batch.busy_s", "s", "lower"),
        ("rl.workers.act_batch.p50_ms", "ms", "lower"),
        ("rl.workers.act_batch.p99_ms", "ms", "lower"),
        ("serving.flushes", "count", "lower"),
        ("serving.mean_batch", "count", "higher"),
    ]
    return spec


#: ``(name, unit, better)`` of every per-layer metric a traced run prints.
PER_LAYER = _per_layer_spec()


class _LearnerPhases:
    """Names the calls made directly by ``DDPGAgent.update``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.agent = None
        self.critic_forwards = 0
        self.critic_backwards = 0

    def update(self, args):
        self.agent = args[0]
        self.critic_forwards = self.critic_backwards = 0
        self.tracer.tag = self.agent.numerics.activation_bits
        return UPDATE

    def _direct(self) -> bool:
        return self.tracer.top_name() == UPDATE

    def forward(self, args):
        if not self._direct():
            return None
        network = args[0]
        if network is self.agent.critic:
            self.critic_forwards += 1
            return "rl.ddpg.critic_forward" if self.critic_forwards == 1 else "rl.ddpg.policy_q_forward"
        if network is self.agent.actor:
            return "rl.ddpg.actor_forward"
        return "rl.ddpg.critic_target_forward"

    def backward(self, args):
        if not self._direct():
            return None
        if args[0] is self.agent.actor:
            return "rl.ddpg.actor_backward"
        self.critic_backwards += 1
        return "rl.ddpg.critic_backward" if self.critic_backwards == 1 else "rl.ddpg.policy_q_backward"

    def weight_update(self, args):
        if not self._direct():
            return None
        if args[0] is self.agent.critic_optimizer:
            return "rl.ddpg.critic_weight_update"
        return "rl.ddpg.actor_weight_update"

    def soft_update(self, args):
        return "rl.ddpg.soft_update" if self._direct() else None


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; ``tracer.restore()`` undoes it."""
    phases = _LearnerPhases(tracer)
    layer_names: Dict[Tuple[str, str], str] = {}

    def layer(direction):
        def name(args):
            key = (args[0].name, direction)
            span = layer_names.get(key)
            if span is None:
                span = layer_names[key] = f"nn.layer.{key[0]}.{direction}"
            return span

        return name

    def quantize(args):
        tracer.count("fixedpoint.quantize.elements", int(np.size(args[1])))
        return "fixedpoint.quantize"

    def evaluation_step(args):
        if tracer.top_name() == "rl.evaluation.evaluate":
            tracer.count("rl.evaluation.env_steps")
        return None

    tracer.patch(QFormat, "quantize", quantize)
    tracer.patch(Linear, "forward", layer("fp"))
    tracer.patch(Linear, "backward", layer("bp"))
    tracer.patch(DDPGAgent, "update", phases.update)
    tracer.patch(MLP, "forward", phases.forward)
    tracer.patch(MLP, "backward", phases.backward)
    tracer.patch(Adam, "step", phases.weight_update)
    tracer.patch(MLP, "soft_update_from", phases.soft_update)
    tracer.patch(DDPGAgent, "act", evaluation_step)
    tracer.patch(DDPGAgent, "act_batch", "rl.ddpg.act_batch")
    tracer.patch(ReplayBuffer, "sample", "rl.replay_buffer.sample")
    tracer.patch(ReplayBuffer, "add_batch_trusted", "rl.replay_buffer.add_batch_trusted")
    tracer.patch(scheduler_module, "evaluate_policy", "rl.evaluation.evaluate")
    tracer.patch(RoundScheduler, "run", "rl.scheduler.run")
    tracer.patch(VectorEnv, "step", "envs.vector.step")
    tracer.patch(RolloutEngine, "step", "rl.rollout.step")
    tracer.patch(GaussianNoise, "sample_batch", "rl.noise.sample_batch")
    tracer.patch(FixarPlatform, "infer_batch", "platform.infer_batch")
    tracer.patch(FixarPlatform, "serving_round_seconds", "platform.serving_round_seconds")
    tracer.patch(PolicyServer, "serve", "serving.server.serve")
    tracer.patch(ActorPolicy, "act_batch", "rl.workers.act_batch")


def layer_metrics(
    summary: Dict[str, dict], counters: Dict[str, int], wall_s: float, workload_values: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, list]]:
    """Every ``PER_LAYER`` metric, plus the percentile behind each tail.

    ``workload_values`` supplies what the spans cannot: the QAT switch
    step, the final activation width and the serving flush counts.
    Returns ``(values, tails)`` where ``tails[name] = [percentile, samples]``.
    """
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}

    def span(name):
        return summary.get(name, empty)

    tails: Dict[str, list] = {}

    def tail(metric, name, scale, percentiles):
        durations = span(name)["durations"]
        if not durations:
            return 0.0
        percentile, value, samples = tail_percentile(durations, percentiles)
        tails[metric] = [percentile, samples]
        return value * scale

    values: Dict[str, float] = {"trace.wall_s": wall_s}
    quantize = span("fixedpoint.quantize")
    values["fixedpoint.quantize.calls"] = quantize["calls"]
    values["fixedpoint.quantize.busy_s"] = quantize["busy_s"]
    values["fixedpoint.quantize.elements"] = counters.get("fixedpoint.quantize.elements", 0)
    updates = span(UPDATE)["calls"]
    for phase in LEARNER_PHASES:
        busy = span(f"rl.ddpg.{phase}")["busy_s"]
        values[f"rl.ddpg.{phase}.ms"] = busy / updates * 1e3 if updates else 0.0
    for layer in NETWORK_LAYERS:
        values[f"nn.layer.{layer}.fp_s"] = span(f"nn.layer.{layer}.fp")["busy_s"]
        values[f"nn.layer.{layer}.bp_s"] = span(f"nn.layer.{layer}.bp")["busy_s"]
    for prefix, name, scale in (
        ("rl.ddpg.update", UPDATE, 1e3),
        ("envs.vector.step", "envs.vector.step", 1e6),
        ("rl.rollout.step", "rl.rollout.step", 1e6),
        ("rl.workers.act_batch", "rl.workers.act_batch", 1e3),
    ):
        unit = "ms" if scale == 1e3 else "us"
        values[f"{prefix}.calls"] = span(name)["calls"]
        values[f"{prefix}.busy_s"] = span(name)["busy_s"]
        values[f"{prefix}.self_s"] = span(name)["self_s"]
        values[f"{prefix}.p50_{unit}"] = tail(f"{prefix}.p50_{unit}", name, scale, (50.0,))
        values[f"{prefix}.p99_{unit}"] = tail(f"{prefix}.p99_{unit}", name, scale, P99_AND_BELOW)
    for name in (
        "rl.replay_buffer.sample",
        "rl.replay_buffer.add_batch_trusted",
        "rl.evaluation.evaluate",
        "rl.noise.sample_batch",
        "rl.ddpg.act_batch",
        "rl.scheduler.run",
        "serving.server.serve",
        "platform.infer_batch",
        "platform.serving_round_seconds",
    ):
        values[f"{name}.calls"] = span(name)["calls"]
        values[f"{name}.busy_s"] = span(name)["busy_s"]
        values[f"{name}.self_s"] = span(name)["self_s"]
    values["rl.evaluation.env_steps"] = counters.get("rl.evaluation.env_steps", 0)
    values.update(workload_values)
    return {name: values[name] for name, _unit, _better in PER_LAYER}, tails
