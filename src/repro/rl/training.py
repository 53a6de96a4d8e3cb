"""The DDPG/TD3 training loop used by every Fig. 7 experiment.

One loop iteration corresponds to one platform timestep (paper Fig. 3): the
actor selects a (noisy) action for the current state, the environment
advances and returns the reward and next state, the transition is stored in
the replay buffer, and a random batch is used to update the critic and actor
networks.  A :class:`~repro.rl.qat.QATController` may be attached to switch
the activation precision at the quantization delay.

Since the vectorized-rollout refactor, :func:`train` drives a
:class:`~repro.rl.rollout.RolloutEngine` over a
:class:`~repro.envs.vector.VectorEnv`: each lock-step selects actions for
all ``num_envs`` environments with one batched actor inference, then runs
one agent update per collected environment step, so the update-to-data ratio
matches the scalar loop at every ``num_envs``.  With ``num_envs == 1`` the
loop consumes every RNG stream in exactly the scalar order —
:func:`train_scalar_reference` preserves the pre-refactor loop verbatim as
the oracle the regression tests compare against.

Since the round-scheduler refactor, the schedules themselves — sequential,
pipelined (``TrainingConfig.pipeline_depth`` / ``schedule="pipelined"``),
and throughput-weighted (``schedule="weighted"``) — live in
:mod:`repro.rl.scheduler`: :func:`train` and :func:`train_fleet` are thin
wrappers that build :class:`~repro.rl.scheduler.ScheduledGroup` s and run
them through a :class:`~repro.rl.scheduler.RoundScheduler`.  Every
schedule is emulated deterministically in one thread, the sequential
policy stays bit-exact with the pre-scheduler loop (and through it with
:func:`train_scalar_reference`), and ``pipeline_depth`` bounds the
staleness window exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..envs.base import Environment
from ..envs.registry import make as make_registered_env
from ..envs.vector import VectorEnv
from ..nn import DynamicFixedPointNumerics
from .ddpg import DDPGAgent
from .evaluation import LearningCurve, evaluate_policy
from .noise import GaussianNoise, NoiseProcess
from .precision import PRECISION_POLICIES, resolve_precision
from .qat import QATController, QATEvent
from .replay_buffer import ReplayBuffer
from .rollout import RolloutEngine
from .scheduler import (
    ASSIGNMENTS,
    RoundScheduler,
    ScheduledGroup,
    resolve_assignment,
    resolve_policy,
)
from .workers import AsyncCollector, CollectorWorker, HeteroFleet, parse_fleet_spec

#: Round-scheduling policies ``TrainingConfig.schedule`` accepts (``None``
#: resolves from ``pipeline_depth``; see :func:`repro.rl.scheduler.resolve_policy`).
SCHEDULES = ("sequential", "pipelined", "weighted", "adaptive")

#: Update-stream placements ``TrainingConfig.placement`` accepts (mirrors
#: :data:`repro.platform.PLACEMENTS` without importing the platform layer).
PLACEMENTS = ("colocated", "disaggregated")

__all__ = [
    "TrainingConfig",
    "TrainingResult",
    "FleetTrainingResult",
    "train",
    "train_fleet",
    "train_scalar_reference",
]


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of the training loop (paper defaults, scaled by the caller)."""

    #: Total environment timesteps (paper: 1,000,000).
    total_timesteps: int = 10_000
    #: Steps of uniform-random actions before the policy is used.
    warmup_timesteps: int = 1_000
    #: Replay batch size B sent to the accelerator each timestep.
    batch_size: int = 64
    #: Replay buffer capacity.
    buffer_capacity: int = 100_000
    #: Evaluate every this many timesteps (paper: 5000).
    evaluation_interval: int = 5_000
    #: Rollouts per evaluation (paper: 10).
    evaluation_episodes: int = 10
    #: Std-dev of Gaussian exploration noise added to actions.
    exploration_noise: float = 0.1
    #: Random seed for the loop (exploration, replay sampling).
    seed: Optional[int] = 0
    #: Environments rolled out in lock-step (1 = the paper's scalar loop).
    #: The loop runs whole lock-steps, so ``total_timesteps`` is rounded up
    #: to the next multiple of ``num_envs * num_workers`` (the actual count
    #: is reported in ``TrainingResult.total_timesteps``).
    num_envs: int = 1
    #: Collection workers, each owning its own ``VectorEnv`` of ``num_envs``
    #: environments (seeded ``seed + worker_id * num_envs + i``) and an actor
    #: replica.  ``train`` steps the workers in deterministic round-robin
    #: rounds in one process, so runs stay reproducible; with
    #: ``num_workers == 1`` the loop is bit-exact with the single-engine
    #: path.
    num_workers: int = 1
    #: Environment steps between actor-weight broadcasts to the worker
    #: replicas (ignored with ``num_workers == 1``, where the worker acts
    #: through the learner's own agent).
    sync_interval: int = 1
    #: Rounds the collector fleet may run ahead of the learner (the bounded
    #: staleness window of the pipelined schedule).  ``0`` is the sequential
    #: schedule — collect a round, then update on it — and stays bit-exact
    #: with the pre-pipeline loop.  With depth ``d`` the fleet collects round
    #: ``k+1 .. k+d`` while the learner is still consuming round ``k``, so
    #: collection acts on weights up to ``d`` rounds stale (weight broadcasts
    #: still honor ``sync_interval``); the learner drains the backlog at the
    #: end of the run, so the update-to-data ratio is unchanged.
    pipeline_depth: int = 0
    #: Heterogeneous fleet spec — ``"HalfCheetah:2,Hopper:2:8"`` or a
    #: parsed sequence of ``(benchmark, count)`` pairs / ``(benchmark,
    #: count, num_envs)`` triples (grammar in
    #: :func:`~repro.rl.workers.parse_fleet_spec`; a missing width defaults
    #: to ``num_envs``).  ``None`` (the default) is the homogeneous path
    #: driven by ``num_workers``.  When set, the spec determines the
    #: fleet's worker counts and per-benchmark lock-step widths,
    #: ``num_workers`` must stay at its default of 1, and training runs
    #: through :func:`train_fleet` (one learner agent and replay buffer per
    #: benchmark) instead of :func:`train`.
    fleet: Optional[Union[str, Sequence]] = None
    #: Round-scheduling policy: ``"sequential"``, ``"pipelined"``,
    #: ``"weighted"`` (throughput-weighted rounds — heterogeneous fleets
    #: with cheaper modelled host+inference chains collect extra lock-steps
    #: per round), or ``"adaptive"`` (weighted rounds that additionally
    #: re-price at precision-epoch boundaries).  ``None`` (the default)
    #: resolves from ``pipeline_depth`` — depth 0 is sequential, anything
    #: else pipelined — so every pre-existing configuration keeps its exact
    #: behavior.
    schedule: Optional[str] = None
    #: Accelerators in the device pool serving the run.  ``1`` (the
    #: default) is the single-platform path; ``> 1`` requires passing an
    #: :class:`~repro.platform.AcceleratorPool` of that size as the
    #: ``platform`` hook (the rl layer never constructs platform objects).
    #: Devices change only the modelled pricing and per-benchmark device
    #: affinity — the training numerics are identical at every pool size.
    devices: int = 1
    #: Where the learners' update streams run: ``"colocated"`` (each
    #: group's updates share its collection device) or ``"disaggregated"``
    #: (the pool's last device is dedicated to updates; needs
    #: ``devices >= 2``).  Must match the pool's placement.
    placement: str = "colocated"
    #: Device-assignment policy for fleet groups: ``None`` /
    #: ``"round-robin"`` (spec-order dealing over the collection devices),
    #: ``"balanced"`` (greedy modelled-load balancing), or an explicit
    #: ``{benchmark: device}`` mapping (unknown benchmarks raise).  See
    #: :func:`repro.rl.scheduler.resolve_assignment`.
    assignment: Optional[Union[str, Mapping[str, int]]] = None
    #: Precision policy driving the run's quantization schedule:
    #: ``"global-switch"`` (Algorithm 1's single switch), ``"per-layer"``
    #: (a static per-layer bitwidth table), or ``"range-driven"``
    #: (range-statistic-driven per-layer switches) — the names registered
    #: in :data:`repro.rl.precision.PRECISION_POLICIES`.  ``None`` (the
    #: default) leaves precision to an explicitly passed ``qat_controller``
    #: (or runs un-switched).  Requires dynamic fixed-point numerics; the
    #: resolved policy is shared fleet-wide like the QAT controller.
    precision: Optional[str] = None
    #: Policy-specific spec string for ``precision`` (grammar per policy:
    #: ``[bits][@delay]`` for global-switch, ``pattern=bits[@delay],...``
    #: for per-layer, ``key=value,...`` for range-driven).
    precision_spec: Optional[str] = None

    def __post_init__(self) -> None:
        if self.total_timesteps <= 0:
            raise ValueError("total_timesteps must be positive")
        if self.warmup_timesteps < 0:
            raise ValueError("warmup_timesteps must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.buffer_capacity < self.batch_size:
            raise ValueError("buffer_capacity must be at least batch_size")
        if self.evaluation_interval <= 0:
            raise ValueError("evaluation_interval must be positive")
        if self.evaluation_episodes <= 0:
            raise ValueError("evaluation_episodes must be positive")
        if self.exploration_noise < 0:
            raise ValueError("exploration_noise must be non-negative")
        if self.num_envs <= 0:
            raise ValueError("num_envs must be positive")
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.sync_interval <= 0:
            raise ValueError("sync_interval must be positive")
        if self.pipeline_depth < 0:
            raise ValueError("pipeline_depth must be non-negative")
        if self.schedule is not None:
            if self.schedule not in SCHEDULES:
                raise ValueError(
                    f"schedule must be one of {SCHEDULES}, got {self.schedule!r}"
                )
            if self.schedule == "sequential" and self.pipeline_depth > 0:
                raise ValueError(
                    "schedule 'sequential' conflicts with pipeline_depth > 0; "
                    "use schedule='pipelined' (or leave schedule unset) for a "
                    "staleness window"
                )
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )
        if self.placement == "disaggregated" and self.devices < 2:
            raise ValueError(
                "disaggregated placement dedicates one device to the update "
                "streams, so it needs devices >= 2"
            )
        if isinstance(self.assignment, str) and self.assignment not in ASSIGNMENTS:
            raise ValueError(
                f"assignment must be one of {ASSIGNMENTS} or a "
                f"{{benchmark: device}} mapping, got {self.assignment!r}"
            )
        if self.precision is not None and self.precision not in PRECISION_POLICIES:
            raise ValueError(
                f"precision must be one of {sorted(PRECISION_POLICIES)}, "
                f"got {self.precision!r}"
            )
        if self.precision_spec is not None and self.precision is None:
            raise ValueError("precision_spec requires precision to be set")
        if self.fleet is not None:
            if self.num_workers != 1:
                raise ValueError(
                    "fleet and num_workers are alternative fleet sizings: the "
                    "spec's per-benchmark counts determine the workers, so "
                    "num_workers must stay at its default of 1"
                )
            # Surface grammar / unknown-benchmark errors at configuration
            # time rather than deep inside fleet construction.
            parse_fleet_spec(self.fleet)


@dataclass
class TrainingResult:
    """Everything a Fig. 7 experiment needs from one training run."""

    curve: LearningCurve
    episode_returns: List[float] = field(default_factory=list)
    qat_event: Optional[QATEvent] = None
    total_timesteps: int = 0
    total_updates: int = 0
    num_envs: int = 1
    num_workers: int = 1
    pipeline_depth: int = 0
    replay_buffer: Optional[ReplayBuffer] = None

    def summary(self) -> dict:
        info = self.curve.summary()
        info.update(
            {
                "episodes": len(self.episode_returns),
                "total_timesteps": self.total_timesteps,
                "total_updates": self.total_updates,
                "num_envs": self.num_envs,
                "num_workers": self.num_workers,
                "pipeline_depth": self.pipeline_depth,
                "quantization_switch_step": (
                    self.qat_event.timestep if self.qat_event else None
                ),
            }
        )
        return info


@dataclass
class FleetTrainingResult:
    """Outcome of one heterogeneous-fleet training run (:func:`train_fleet`).

    ``per_benchmark`` maps each benchmark's display name (spec order) to a
    full :class:`TrainingResult` — its learning curve, episode returns,
    replay buffer, and per-benchmark step/update counts; the aggregate
    fields describe the fleet round structure.  A shared QAT switch fires
    once for the whole fleet and is recorded on every per-benchmark result
    (the numerics object is shared).
    """

    per_benchmark: Dict[str, TrainingResult] = field(default_factory=dict)
    #: Resolved ``(benchmark_key, worker_count, num_envs)`` entries.
    fleet: List[Tuple[str, int, int]] = field(default_factory=list)
    total_timesteps: int = 0
    total_updates: int = 0
    num_envs: int = 1
    num_workers: int = 1
    pipeline_depth: int = 0
    #: Round-scheduling policy the run used (``sequential``/``pipelined``/
    #: ``weighted``).
    schedule: str = "sequential"
    #: Lock-steps each benchmark group ran per round, in spec order (all 1
    #: except under the throughput-weighted policy).
    weights: List[int] = field(default_factory=list)
    #: Accelerators in the device pool the run was priced on (1 = the
    #: single-platform path).
    devices: int = 1
    #: Update-stream placement (``colocated``/``disaggregated``).
    placement: str = "colocated"
    #: Resolved per-benchmark device affinity (empty without a pool).
    assignment: Dict[str, int] = field(default_factory=dict)

    @property
    def benchmarks(self) -> List[str]:
        """Display names of the fleet's benchmarks, in spec order."""
        return list(self.per_benchmark)

    @property
    def qat_event(self) -> Optional[QATEvent]:
        """The shared precision switch, if it fired (same on every result)."""
        for result in self.per_benchmark.values():
            if result.qat_event is not None:
                return result.qat_event
        return None

    def summary(self) -> dict:
        info = {
            "fleet": list(self.fleet),
            "total_timesteps": self.total_timesteps,
            "total_updates": self.total_updates,
            "num_envs": self.num_envs,
            "num_workers": self.num_workers,
            "pipeline_depth": self.pipeline_depth,
            "schedule": self.schedule,
            "weights": list(self.weights),
            "devices": self.devices,
            "placement": self.placement,
            "assignment": dict(self.assignment),
            "quantization_switch_step": (
                self.qat_event.timestep if self.qat_event else None
            ),
        }
        info["per_benchmark"] = {
            name: result.summary() for name, result in self.per_benchmark.items()
        }
        return info


def _resolve_vector_env(
    env: Union[Environment, VectorEnv], config: TrainingConfig
) -> VectorEnv:
    """The vector environment the rollout engine will drive.

    A :class:`VectorEnv` is used as-is.  A scalar environment is wrapped
    unchanged for ``num_envs == 1`` (preserving any custom instance the
    caller configured) and replicated into fresh ``seed + i`` siblings for
    ``num_envs > 1``.
    """
    if isinstance(env, VectorEnv):
        return env
    if config.num_envs == 1:
        return VectorEnv([env])
    return VectorEnv.from_template(env, config.num_envs, seed=config.seed)


@dataclass(frozen=True)
class _FleetGroupSpec:
    """Lightweight group descriptor the assignment policies price.

    Device assignment must be resolved *before* the fleet's workers (and
    their platform hooks) are constructed, so the policies see these spec
    descriptors instead of live :class:`ScheduledGroup` s — same duck shape
    (``key`` / ``num_workers`` / ``num_envs``).
    """

    key: str
    num_workers: int
    num_envs: int


def _resolve_device_pool(config: TrainingConfig, platform) -> bool:
    """Whether the platform hook is a device pool, validated against config.

    The rl layer never imports ``repro.platform``, so a pool is detected
    duck-typed (``collection_devices`` + ``device``).  ``config.devices`` /
    ``config.placement`` must agree with the pool actually passed — a
    config asking for 2 accelerators priced on a single platform (or vice
    versa) would silently report the wrong modelled numbers.
    """
    is_pool = hasattr(platform, "collection_devices") and hasattr(platform, "device")
    if config.devices > 1 and not is_pool:
        raise ValueError(
            "config.devices > 1 prices the run on a multi-accelerator pool; "
            "pass a repro.platform.AcceleratorPool of that size as the "
            "platform hook"
        )
    if is_pool:
        pool_devices = getattr(platform, "num_devices", 1)
        if pool_devices != config.devices:
            raise ValueError(
                f"config.devices={config.devices} does not match the "
                f"{pool_devices}-device pool passed as the platform hook"
            )
        pool_placement = getattr(platform, "placement", "colocated")
        if pool_placement != config.placement:
            raise ValueError(
                f"config.placement={config.placement!r} does not match the "
                f"pool's placement {pool_placement!r}"
            )
    return is_pool


def _resolve_evaluation_env(template: Environment, config: TrainingConfig):
    """Evaluation environment plus whether it is shared with training."""
    try:
        evaluation_env = type(template)()
        evaluation_env.seed(config.seed)
        return evaluation_env, False
    except TypeError:
        return template, True


def _resolve_precision_controller(config: TrainingConfig, agent: DDPGAgent, qat_controller):
    """The precision driver the round scheduler advances each timestep.

    An explicitly passed ``qat_controller`` always wins (``config.precision``
    set alongside it is a configuration conflict).  Otherwise
    ``config.precision`` resolves a registered
    :class:`~repro.rl.precision.PrecisionPolicy` over the agent's numerics,
    which must be dynamic fixed-point — precision policies drive its
    range trackers and quantizers.
    """
    if qat_controller is not None:
        if config.precision is not None:
            raise ValueError(
                "config.precision and an explicit qat_controller are "
                "alternative precision drivers; pass one or the other"
            )
        return qat_controller
    if config.precision is None:
        return None
    numerics = agent.numerics
    if not isinstance(numerics, DynamicFixedPointNumerics):
        raise ValueError(
            f"config.precision={config.precision!r} needs an agent built on "
            "DynamicFixedPointNumerics; got numerics "
            f"{type(numerics).__name__!r}"
        )
    return resolve_precision(config.precision, numerics, config.precision_spec)


def train(
    env: Union[Environment, VectorEnv],
    agent: DDPGAgent,
    config: TrainingConfig,
    *,
    eval_env: Optional[Environment] = None,
    qat_controller: Optional[QATController] = None,
    noise: Optional[NoiseProcess] = None,
    label: Optional[str] = None,
    progress_callback: Optional[Callable[[int, dict], None]] = None,
    platform=None,
    policy=None,
    profiler=None,
) -> TrainingResult:
    """Run the training loop through the vectorized rollout engine.

    Parameters
    ----------
    env:
        Training environment — a scalar :class:`Environment` (wrapped, and
        for ``config.num_envs > 1`` replicated into seeded siblings) or a
        ready-made :class:`VectorEnv`.
    agent:
        The DDPG (or TD3) agent to train in place.
    config:
        Loop configuration, including ``num_envs``.
    eval_env:
        Separate environment for evaluations.  By default a fresh instance
        of the training benchmark is created; when that is impossible the
        first training environment is shared, exactly like the scalar loop.
    qat_controller:
        Optional Algorithm 1 controller (or any
        :class:`~repro.rl.precision.PrecisionPolicy`) switching activation
        precision; ``config.precision`` resolves one by name instead.
    noise:
        Exploration noise process (defaults to Gaussian with the configured
        standard deviation).
    label:
        Learning-curve label (defaults to the agent's numeric regime name).
    progress_callback:
        Optional ``callback(timestep, metrics)`` invoked after each evaluation.
    platform:
        Optional :class:`~repro.platform.FixarPlatform` whose
        ``infer_batch`` prices each batched rollout inference (accumulated on
        the returned engine statistics); also the weighted schedule's cost
        oracle.
    policy:
        Optional explicit :class:`~repro.rl.scheduler.SchedulePolicy`
        overriding the one ``config.schedule`` / ``config.pipeline_depth``
        resolve to.
    profiler:
        Optional :class:`~repro.rl.profiling.StageTimers` accumulator wired
        through every collection engine and the shared replay buffer
        (the CLIs' ``--profile``).  Profiling only brackets the existing
        rollout stages with ``perf_counter`` reads — trajectories stay
        bit-identical.

    With ``num_envs == 1`` (and one worker) this reproduces
    :func:`train_scalar_reference` bit for bit under a fixed seed.  With N
    environments each lock-step collects N transitions with one batched
    inference and then performs one agent update per transition collected
    past warmup, keeping the update-to-data ratio of the scalar loop;
    evaluations fire whenever the global step counter crosses an
    ``evaluation_interval`` boundary, and ``total_timesteps`` rounds up to a
    whole number of rounds (the actual count lands in
    ``result.total_timesteps``).

    With ``config.num_workers > 1`` experience collection runs through an
    :class:`~repro.rl.workers.AsyncCollector` fleet: worker ``w`` owns a
    fresh ``VectorEnv`` of ``num_envs`` siblings of the (scalar) training
    environment seeded ``seed + w * num_envs + i``, acts through its own
    actor replica refreshed every ``config.sync_interval`` steps, and the
    workers are stepped round-robin (the deterministic synchronous mode), so
    the run is reproducible.  Warmup is split evenly across the fleet
    (``ceil(warmup_timesteps / num_workers)`` per worker), and the replicas
    share the learner's numerics object, so a QAT precision switch applies
    to collection immediately.

    With ``config.pipeline_depth > 0`` the loop runs the *pipelined*
    schedule: the fleet collects round ``k+1`` (through ``k+depth``) while
    the learner is still draining round ``k``'s transitions and running its
    updates, so on the modelled platform the two phases overlap
    (:meth:`~repro.platform.FixarPlatform.pipelined_round_seconds` prices a
    round as ``max(collection, update)`` instead of their sum).  The overlap
    is emulated deterministically in one thread, so runs stay reproducible;
    the visible semantic difference from the sequential schedule is bounded
    staleness — collection acts on actor weights up to ``pipeline_depth``
    rounds older than the learner's (broadcasts still honor
    ``sync_interval``), while updates see exactly the same replay data
    availability as the sequential schedule (round ``k``'s transitions are
    drained before round ``k``'s updates sample the buffer) and the
    remaining in-flight rounds are drained at the end of the run.  A
    training environment that would have to double as the evaluation
    environment is rejected under this schedule (the post-evaluation episode
    restarts cannot fire at the right point of the overlapped collection
    timeline) — pass an explicit ``eval_env``.  ``pipeline_depth == 0``
    remains bit-exact with the pre-pipeline loop and is the oracle the
    pipelined regression tests compare against.
    """
    if config.fleet is not None:
        raise ValueError(
            "config.fleet maps workers to multiple benchmarks, which needs "
            "one learner agent and replay buffer per benchmark — call "
            "train_fleet(agents, config) instead of train(env, agent, config)"
        )
    # A device pool drops in at the same hook: the engine's batched
    # inferences shard across the pool's collection devices through the
    # unchanged ``infer_batch`` joint (a 1-device pool is bit-exact with
    # the single platform).
    _resolve_device_pool(config, platform)
    qat_controller = _resolve_precision_controller(config, agent, qat_controller)
    rng = np.random.default_rng(config.seed)
    num_workers = config.num_workers

    if num_workers == 1:
        vec_env = _resolve_vector_env(env, config)
        num_envs = vec_env.num_envs
        evaluation_template = vec_env.envs[0]
    else:
        if isinstance(env, VectorEnv):
            raise ValueError(
                "num_workers > 1 replicates a scalar environment template "
                "into per-worker VectorEnvs; pass the scalar environment "
                "instead of a prebuilt VectorEnv"
            )
        if noise is not None:
            raise ValueError(
                "num_workers > 1 gives every worker an independent noise "
                "process; a single shared noise instance cannot be "
                "partitioned — configure exploration_noise instead"
            )
        num_envs = config.num_envs
        evaluation_template = env

    shares_training_env = False
    if eval_env is not None:
        evaluation_env = eval_env
    else:
        # Prefer a fresh instance of the same benchmark so evaluations do not
        # disturb the training episodes; fall back to sharing when the
        # environment cannot be default-constructed.
        evaluation_env, shares_training_env = _resolve_evaluation_env(
            evaluation_template, config
        )
    if num_workers > 1:
        # The workers step fresh replicas, never the template itself, so even
        # a "shared" template is safe to evaluate on: no in-flight training
        # episode is disturbed and no restart is needed.
        shares_training_env = False
    if policy is None:
        # A homogeneous run is one group, so weighted rounds are uniform and
        # never consult a fleet oracle; the hook may be a bare platform.
        policy = resolve_policy(config)
    if shares_training_env and policy.depth > 0:
        # Sharing the training env with evaluation forces an episode restart
        # after every evaluation, but under the pipelined schedule the fleet
        # has already collected up to ``pipeline_depth`` rounds past the
        # evaluated boundary — those rounds would continue the disturbed
        # episodes, diverging from the sequential schedule in ways beyond the
        # documented weight staleness.  Refuse instead of silently diverging.
        raise ValueError(
            "pipeline_depth > 0 cannot share the training environment with "
            "evaluation (the fleet collects past each evaluation boundary "
            "before the restart fires); pass an explicit eval_env"
        )
    buffer = ReplayBuffer(
        config.buffer_capacity, agent.state_dim, agent.action_dim, seed=config.seed
    )
    curve = LearningCurve(label or agent.numerics.name)
    result = TrainingResult(
        curve=curve,
        num_envs=num_envs,
        num_workers=num_workers,
        pipeline_depth=config.pipeline_depth,
        replay_buffer=buffer,
    )

    if num_workers == 1:
        # The single worker acts through the learner's own agent and noise —
        # the exact PR-1 engine path, which is what keeps this mode bit-exact
        # with train_scalar_reference at num_envs == 1.
        noise = noise or GaussianNoise(
            agent.action_dim, config.exploration_noise, seed=config.seed
        )
        engine = RolloutEngine(
            vec_env,
            agent,
            buffer=None,
            noise=noise,
            warmup_timesteps=config.warmup_timesteps,
            rng=rng,
            platform=platform,
        )
        workers = [CollectorWorker(0, engine, shared_agent=True)]
        source_agent = None  # broadcasts are pointless with a shared agent
    else:
        per_worker_warmup = -(-config.warmup_timesteps // num_workers)
        workers = [
            CollectorWorker.from_agent(
                worker_id,
                agent,
                env,
                num_envs,
                seed=config.seed,
                sigma=config.exploration_noise,
                warmup_timesteps=per_worker_warmup,
                platform=platform,
            )
            for worker_id in range(num_workers)
        ]
        source_agent = agent
    collector = AsyncCollector(
        workers, buffer, source_agent=source_agent, sync_interval=config.sync_interval
    )
    if profiler is not None:
        # One accumulator across the whole fleet: engines attribute the
        # rollout stages, the shared buffer attributes the drain writes.
        buffer.profiler = profiler
        for worker in workers:
            worker.engine.set_profiler(profiler)
    for worker in workers:
        worker.engine.reset()

    # All round/drain/update/evaluate bookkeeping lives in the scheduler
    # subsystem; this wrapper only adapts the single-benchmark result shape.
    group_key = str(getattr(evaluation_template, "name", "train")).lower()
    group = ScheduledGroup(
        key=group_key,
        benchmark=getattr(evaluation_template, "name", group_key),
        collector=collector,
        agent=agent,
        buffer=buffer,
        curve=curve,
        eval_env=evaluation_env,
    )

    on_evaluation = None
    if progress_callback is not None:

        def on_evaluation(evaluated_step: int, metrics: Dict[str, dict]) -> None:
            group_metrics = metrics[group.key]
            progress_callback(
                evaluated_step,
                {
                    "average_return": group_metrics["average_return"],
                    "episodes": group_metrics["episodes"],
                    "activation_bits": agent.numerics.activation_bits,
                },
            )

    scheduler = RoundScheduler(
        [group],
        policy,
        config,
        qat_controller=qat_controller,
        platform=platform,
        on_evaluation=on_evaluation,
        restart_shared_env=shares_training_env,
    )
    outcome = scheduler.run()

    result.qat_event = outcome.qat_event
    result.total_updates = outcome.total_updates
    result.episode_returns = collector.episode_returns
    result.total_timesteps = outcome.total_timesteps
    return result


def train_fleet(
    agents: Mapping[str, DDPGAgent],
    config: TrainingConfig,
    *,
    env_templates: Optional[Mapping[str, Environment]] = None,
    eval_envs: Optional[Mapping[str, Environment]] = None,
    qat_controller: Optional[QATController] = None,
    label: Optional[str] = None,
    progress_callback: Optional[Callable[[int, dict], None]] = None,
    platform=None,
    policy=None,
    profiler=None,
) -> FleetTrainingResult:
    """Train per-benchmark learners over one heterogeneous collector fleet.

    ``config.fleet`` names the fleet (grammar in
    :func:`~repro.rl.workers.parse_fleet_spec`): each spec entry
    ``benchmark:count`` contributes ``count`` workers, each stepping its own
    ``VectorEnv`` of ``config.num_envs`` environments of that benchmark.
    Worker ids are global in spec order, so every worker keeps the
    deterministic ``seed + worker_id * num_envs + i`` environment scheme and
    the ``(seed, worker_id, stream)`` noise/warmup streams of the
    homogeneous collector — a single-benchmark spec ``B:N`` is *bit-exact*
    with ``train(env, agent, config(num_workers=N))`` for ``N >= 2`` (the
    replica path; ``num_workers == 1`` takes the shared-agent fast path,
    which consumes the learner's own noise/warmup streams instead).

    Parameters
    ----------
    agents:
        One learner agent per fleet benchmark (names matched
        case-insensitively, no extras).  Each agent must match the
        benchmark's registered ``(state_dim, action_dim)``, and all agents
        must share **one numerics object** so a QAT precision switch applies
        to every benchmark's networks (and collection replicas) at once.
    config:
        Loop configuration; ``config.fleet`` must be set and
        ``config.num_workers`` left at 1.  ``total_timesteps`` rounds up to
        whole fleet rounds of ``num_envs * total_workers`` steps.
    env_templates:
        Optional per-benchmark template environments (workers step fresh
        seeded replicas); benchmarks without one use ``registry.make``.
    eval_envs:
        Optional per-benchmark evaluation environments; by default a fresh
        instance of each benchmark is created, exactly like :func:`train`.
    qat_controller:
        Optional shared Algorithm 1 controller (or any
        :class:`~repro.rl.precision.PrecisionPolicy`; ``config.precision``
        resolves one by name).  It counts fleet-wide environment steps, so
        precision switches land on the same global timestep as an
        equivalent homogeneous run.
    label:
        Learning-curve label prefix; each benchmark's curve is labelled
        ``"<label>/<benchmark>"`` (default: the shared numerics name).
    progress_callback:
        Optional ``callback(timestep, metrics)`` invoked after each
        evaluation boundary with per-benchmark
        ``{"average_return", "episodes"}`` metrics plus the shared
        ``"activation_bits"``.
    platform:
        Optional :class:`~repro.platform.AcceleratorPool` — the fleet
        pricing oracle (a bare :class:`~repro.platform.FixarPlatform` is
        rejected; wrap it as ``AcceleratorPool(platform)``).
        ``config.devices`` / ``config.placement`` must match the pool.  The
        per-benchmark device affinity is resolved through the
        :class:`~repro.rl.scheduler.DeviceAssignmentPolicy` the
        ``config.assignment`` knob selects, and each group's workers price
        their batched inferences on their assigned device, re-targeted to
        their own layer dimensions (``for_benchmark``) — the accounting
        :meth:`~repro.platform.AcceleratorPool.infer_fleet` aggregates.
        The pool is also the throughput-weighted schedule's cost oracle,
        and the resolved affinity lands in
        ``FleetTrainingResult.assignment``.  Devices change only the
        modelled pricing — training numerics are identical at every pool
        size.
    policy:
        Optional explicit :class:`~repro.rl.scheduler.SchedulePolicy`
        overriding the one ``config.schedule`` / ``config.pipeline_depth``
        resolve to (e.g. a :class:`ThroughputWeightedPolicy` with explicit
        weights).
    profiler:
        Optional :class:`~repro.rl.profiling.StageTimers` accumulator wired
        through every group's collection engines and replay buffer — one
        fleet-wide wall-clock breakdown, exactly like :func:`train`.

    The training schedule is the deterministic round schedule of
    :func:`train`, generalized across benchmark groups: each round, groups
    collect one lock-step per worker in spec order, then each group's
    learner runs one update per environment step its workers collected past
    warmup (sampling its own buffer), then evaluations fire at every crossed
    ``evaluation_interval`` boundary — one curve point per benchmark.  With
    ``config.pipeline_depth > 0`` the fleet runs up to that many rounds
    ahead of the learners, exactly like the homogeneous pipelined schedule.
    """
    if config.fleet is None:
        raise ValueError("train_fleet needs config.fleet; for homogeneous runs call train")
    fleet_spec = parse_fleet_spec(config.fleet, default_width=config.num_envs)

    numerics_objects = {id(agent.numerics) for agent in dict(agents).values()}
    if len(numerics_objects) > 1:
        raise ValueError(
            "fleet agents must share one numerics object (a QAT precision "
            "switch has to apply to every benchmark at once) — construct the "
            "agents with the same numerics instance"
        )
    if qat_controller is not None:
        controller_numerics = getattr(qat_controller, "numerics", None)
        if controller_numerics is not None and numerics_objects != {id(controller_numerics)}:
            raise ValueError(
                "qat_controller is bound to a different numerics object than "
                "the fleet's agents; share one instance across both"
            )
    first_agent = next(iter(dict(agents).values()))
    qat_controller = _resolve_precision_controller(config, first_agent, qat_controller)

    total_workers = sum(count for _, count, _width in fleet_spec)
    per_worker_warmup = -(-config.warmup_timesteps // total_workers)
    agents_by_key = {str(name).lower(): agent for name, agent in dict(agents).items()}
    platforms = None
    assignment_by_key: Dict[str, int] = {}
    is_pool = _resolve_device_pool(config, platform)
    if platform is not None and not is_pool:
        raise ValueError(
            "train_fleet prices fleet rounds on a device pool; pass "
            "AcceleratorPool(platform) instead of a bare platform"
        )
    if is_pool:
        # Resolve the per-benchmark device affinity once, up front (from
        # the spec descriptors — the workers are not built yet), then bind
        # it onto the pool so the weighted policy's oracle and every
        # fleet_* report price the round actually scheduled.
        assignment_policy = resolve_assignment(config, platform)
        descriptors = [
            _FleetGroupSpec(key, count, width if width else config.num_envs)
            for key, count, width in fleet_spec
        ]
        device_indices = assignment_policy.assign(descriptors, platform)
        assignment_by_key = {
            key: device
            for (key, _count, _width), device in zip(fleet_spec, device_indices)
        }
        platform = platform.with_assignment(assignment_by_key)
        # Each group's workers price their inferences on their *assigned*
        # device, re-targeted to their own layer dimensions.  Keys missing
        # from the agents mapping are skipped here so that
        # HeteroFleet.from_agents raises its (clearer) coverage error.
        platforms = {
            key: platform.device(assignment_by_key[key]).for_benchmark(
                key, hidden_sizes=tuple(agents_by_key[key].config.hidden_sizes)
            )
            for key, _count, _width in fleet_spec
            if key in agents_by_key
        }
    fleet = HeteroFleet.from_agents(
        fleet_spec,
        agents,
        num_envs=config.num_envs,
        buffer_capacity=config.buffer_capacity,
        seed=config.seed,
        sigma=config.exploration_noise,
        warmup_timesteps=per_worker_warmup,
        sync_interval=config.sync_interval,
        env_templates=env_templates,
        platforms=platforms,
    )
    if profiler is not None:
        for fleet_group in fleet.groups:
            fleet_group.buffer.profiler = profiler
            for worker in fleet_group.collector.workers:
                worker.engine.set_profiler(profiler)
    fleet.reset()

    eval_envs_by_key: Dict[str, Environment] = {}
    given_eval = {str(k).lower(): v for k, v in dict(eval_envs or {}).items()}
    templates_by_key = {str(k).lower(): v for k, v in dict(env_templates or {}).items()}
    for group in fleet.groups:
        if group.key in given_eval:
            eval_envs_by_key[group.key] = given_eval[group.key]
        else:
            template = templates_by_key.get(group.key)
            if template is None:
                # Never fall back to a live worker env: if the benchmark's
                # class cannot be default-constructed, _resolve_evaluation_env
                # would *share* the template, and sharing a worker's env would
                # let evaluations step in-flight training episodes.  A fresh
                # registry build is inert — no worker ever steps it — so even
                # the sharing fallback is safe, same as train(num_workers > 1)
                # with a caller-owned template.
                template = make_registered_env(group.key)
            eval_envs_by_key[group.key], _ = _resolve_evaluation_env(template, config)

    base_label = label
    if base_label is None:
        base_label = next(iter(agents_by_key.values())).numerics.name
    curves = {
        group.key: LearningCurve(f"{base_label}/{group.benchmark}")
        for group in fleet.groups
    }

    # The round schedule itself — sequential, pipelined, or throughput
    # weighted — lives in the scheduler subsystem; this wrapper only builds
    # the per-benchmark groups and adapts the result/callback shapes.
    groups = [
        ScheduledGroup(
            key=group.key,
            benchmark=group.benchmark,
            collector=group.collector,
            agent=group.agent,
            buffer=group.buffer,
            curve=curves[group.key],
            eval_env=eval_envs_by_key[group.key],
        )
        for group in fleet.groups
    ]
    display_names = {group.key: group.benchmark for group in fleet.groups}

    on_evaluation = None
    if progress_callback is not None:

        def on_evaluation(evaluated_step: int, metrics: Dict[str, dict]) -> None:
            activation_bits = next(
                iter(agents_by_key.values())
            ).numerics.activation_bits
            progress_callback(
                evaluated_step,
                {
                    "benchmarks": {
                        display_names[key]: key_metrics
                        for key, key_metrics in metrics.items()
                    },
                    "activation_bits": activation_bits,
                },
            )

    if policy is None:
        policy = resolve_policy(config, platform)
    scheduler = RoundScheduler(
        groups,
        policy,
        config,
        qat_controller=qat_controller,
        platform=platform,
        on_evaluation=on_evaluation,
    )
    outcome = scheduler.run()

    result = FleetTrainingResult(
        fleet=list(fleet.spec),
        total_timesteps=outcome.total_timesteps,
        total_updates=outcome.total_updates,
        num_envs=config.num_envs,
        num_workers=total_workers,
        pipeline_depth=config.pipeline_depth,
        schedule=policy.name,
        weights=list(outcome.weights),
        devices=config.devices,
        placement=config.placement,
        assignment=dict(assignment_by_key),
    )
    for group in fleet.groups:
        benchmark_result = TrainingResult(
            curve=curves[group.key],
            episode_returns=list(group.collector.episode_returns),
            qat_event=outcome.qat_event,
            total_timesteps=outcome.steps_by_key[group.key],
            total_updates=outcome.updates_by_key[group.key],
            num_envs=group.num_envs,
            num_workers=group.num_workers,
            pipeline_depth=config.pipeline_depth,
            replay_buffer=group.buffer,
        )
        # Keyed by display name (nice for reports); a factory whose env
        # display name collides with another group's falls back to the
        # unique registry key rather than silently overwriting a result.
        result_key = group.benchmark
        if result_key in result.per_benchmark:
            result_key = group.key
        result.per_benchmark[result_key] = benchmark_result
    return result


def train_scalar_reference(
    env: Environment,
    agent: DDPGAgent,
    config: TrainingConfig,
    *,
    eval_env: Optional[Environment] = None,
    qat_controller: Optional[QATController] = None,
    noise: Optional[NoiseProcess] = None,
    label: Optional[str] = None,
    progress_callback: Optional[Callable[[int, dict], None]] = None,
) -> TrainingResult:
    """The pre-vectorization scalar training loop, preserved verbatim.

    This is the behavioral oracle for the rollout-engine refactor: the
    regression tests assert that :func:`train` with ``num_envs == 1``
    reproduces this loop bit for bit (same learning curve, same episode
    returns, same replay-buffer contents, same final weights).  Production
    code should call :func:`train`.
    """
    rng = np.random.default_rng(config.seed)
    shares_training_env = False
    if eval_env is not None:
        evaluation_env = eval_env
    else:
        evaluation_env, shares_training_env = _resolve_evaluation_env(env, config)
    noise = noise or GaussianNoise(agent.action_dim, config.exploration_noise, seed=config.seed)
    buffer = ReplayBuffer(
        config.buffer_capacity, agent.state_dim, agent.action_dim, seed=config.seed
    )
    curve = LearningCurve(label or agent.numerics.name)
    result = TrainingResult(curve=curve, replay_buffer=buffer)

    observation = env.reset()
    episode_return = 0.0

    for timestep in range(config.total_timesteps):
        qat_event = None
        if qat_controller is not None:
            qat_event = qat_controller.on_timestep(timestep)
            if qat_event is not None:
                result.qat_event = qat_event

        # ----- Action selection ------------------------------------------ #
        if timestep < config.warmup_timesteps:
            action = rng.uniform(-1.0, 1.0, size=agent.action_dim)
        else:
            action = agent.act(observation, noise.sample())

        # ----- Environment interaction (host CPU side) -------------------- #
        next_observation, reward, done, _ = env.step(action)
        buffer.add(observation, action, reward, next_observation, done)
        episode_return += reward
        observation = next_observation

        if done:
            result.episode_returns.append(episode_return)
            episode_return = 0.0
            observation = env.reset()
            noise.reset()

        # ----- Agent update (accelerator side) ----------------------------- #
        if len(buffer) >= config.batch_size and timestep >= config.warmup_timesteps:
            agent.update(buffer.sample(config.batch_size))
            result.total_updates += 1

        # ----- Periodic evaluation ---------------------------------------- #
        if (timestep + 1) % config.evaluation_interval == 0:
            average_return = evaluate_policy(
                evaluation_env, agent, episodes=config.evaluation_episodes
            )
            curve.record(timestep + 1, average_return)
            if shares_training_env:
                # Evaluation consumed the shared environment's episode; start
                # a fresh training episode from a clean state.
                result.episode_returns.append(episode_return)
                episode_return = 0.0
                observation = env.reset()
                noise.reset()
            if progress_callback is not None:
                progress_callback(
                    timestep + 1,
                    {
                        "average_return": average_return,
                        "episodes": len(result.episode_returns),
                        "activation_bits": agent.numerics.activation_bits,
                    },
                )

    # If the run ended between evaluation points, add a final evaluation so
    # short smoke-test runs still produce a non-empty curve.
    if not curve.points:
        curve.record(
            config.total_timesteps,
            evaluate_policy(evaluation_env, agent, episodes=config.evaluation_episodes),
        )

    result.total_timesteps = config.total_timesteps
    return result
