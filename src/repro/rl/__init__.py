"""Deep reinforcement learning substrate (DDPG + quantization-aware training).

Contains the replay buffer, exploration noise processes, the DDPG agent with
explicit forward/backward/weight-update phases, Algorithm 1's QAT schedule
and controller, the training loop, and the evaluation protocol used by the
paper's Fig. 7 accuracy study.

Experience collection is built on the vectorized rollout subsystem: a
:class:`RolloutEngine` lock-steps a :class:`~repro.envs.VectorEnv`, selects
actions for all ``num_envs`` environments with one batched actor forward
pass, draws exploration noise in one batched call
(:meth:`NoiseProcess.sample_batch`), and inserts transitions with one
:meth:`ReplayBuffer.add_batch` write.  :func:`train` drives DDPG and TD3
through that engine for any ``num_envs`` (``num_envs == 1`` reproduces the
scalar loop — preserved as :func:`train_scalar_reference` — bit for bit).
Multi-worker collection builds on that seam: an :class:`AsyncCollector`
coordinates :class:`CollectorWorker` replicas (each owning its own
``VectorEnv`` + engine, seeded ``seed + worker_id * num_envs + i``) around
one shared replay buffer, stepped in deterministic round-robin rounds by
:func:`train` (``TrainingConfig.num_workers``).  A fleet can also span
*heterogeneous benchmarks* (``TrainingConfig.fleet``, e.g.
``"HalfCheetah:2,Hopper:2"``): :class:`HeteroFleet` groups the workers per
benchmark (own replay buffer and learner agent each, one shared numerics
object so QAT switches apply fleet-wide) and :func:`train_fleet` runs the
deterministic round schedule across the groups.  The round schedules
themselves live in the *scheduler subsystem* (:mod:`repro.rl.scheduler`):
a :class:`RoundScheduler` drives the collector groups through a pluggable
:class:`SchedulePolicy` — :class:`SequentialPolicy` (the bit-exact
historical loop), :class:`PipelinedPolicy` (bounded staleness: the fleet
collects round k+1 while the learner drains round k, priced by the
platform as ``max(collection, update)`` per round via
:meth:`~repro.platform.FixarPlatform.pipelined_round_seconds`), and
:class:`ThroughputWeightedPolicy` (heterogeneous benchmarks with cheaper
modelled host+inference chains collect extra lock-steps per round,
``AcceleratorPool.fleet_collection_round_seconds`` as cost oracle) —
selected by ``TrainingConfig.schedule``.  Activation precision is driven
by the *precision subsystem* (:mod:`repro.rl.precision`): a pluggable
:class:`PrecisionPolicy` — :class:`GlobalSwitchPolicy` (Algorithm 1's
single fleet-wide switch, bit-exact with :class:`QATController`),
:class:`PerLayerSchedulePolicy` (static per-layer bitwidth table), and
:class:`RangeDrivenPolicy` (switches each layer once its activation-range
statistics stabilise) — resolves to per-layer precision state on the
shared numerics object, which checkpoints save and the platform layer
prices through ``precision_state()``.  Future scaling layers (sharded
accelerators, multi-backend inference) should likewise slot in behind the
engine's ``act_batch``/``step`` seam rather than re-introducing
per-transition calls.
"""

from .checkpoint import checkpoint_metadata, load_agent_into, save_agent
from .ddpg import DDPGAgent, DDPGConfig, UpdateMetrics
from .evaluation import EvaluationPoint, LearningCurve, compare_curves, evaluate_policy
from .noise import DecayedNoise, GaussianNoise, NoiseProcess, OrnsteinUhlenbeckNoise
from .precision import (
    PRECISION_POLICIES,
    GlobalSwitchPolicy,
    LayerSwitch,
    PerLayerSchedulePolicy,
    PrecisionEvent,
    PrecisionPolicy,
    RangeDrivenPolicy,
    register_precision_policy,
    resolve_precision,
)
from .profiling import ROLLOUT_STAGES, StageTimers
from .qat import QATController, QATEvent, QATSchedule
from .replay_buffer import ReplayBuffer, TransitionBatch
from .rollout import RolloutEngine, RolloutStats, VectorTransitions
from .scheduler import (
    ASSIGNMENTS,
    AffinityAssignment,
    DeviceAssignmentPolicy,
    LoadBalancedAssignment,
    PipelinedPolicy,
    RoundRobinAssignment,
    RoundScheduler,
    ScheduledGroup,
    ScheduleOutcome,
    SchedulePolicy,
    SequentialPolicy,
    ThroughputWeightedPolicy,
    resolve_assignment,
    resolve_policy,
)
from .td3 import TD3Agent, TD3Config
from .training import (
    FleetTrainingResult,
    TrainingConfig,
    TrainingResult,
    train,
    train_fleet,
    train_scalar_reference,
)
from .workers import (
    ActorPolicy,
    AsyncCollector,
    AsyncCollectStats,
    CollectorWorker,
    FleetGroup,
    HeteroFleet,
    parse_fleet_spec,
    worker_env_seed,
)

__all__ = [
    "DDPGAgent",
    "DDPGConfig",
    "TD3Agent",
    "TD3Config",
    "UpdateMetrics",
    "save_agent",
    "load_agent_into",
    "checkpoint_metadata",
    "ReplayBuffer",
    "TransitionBatch",
    "NoiseProcess",
    "GaussianNoise",
    "OrnsteinUhlenbeckNoise",
    "DecayedNoise",
    "QATSchedule",
    "QATController",
    "QATEvent",
    "PrecisionPolicy",
    "PrecisionEvent",
    "LayerSwitch",
    "GlobalSwitchPolicy",
    "PerLayerSchedulePolicy",
    "RangeDrivenPolicy",
    "PRECISION_POLICIES",
    "register_precision_policy",
    "resolve_precision",
    "RolloutEngine",
    "RolloutStats",
    "VectorTransitions",
    "StageTimers",
    "ROLLOUT_STAGES",
    "RoundScheduler",
    "ScheduledGroup",
    "ScheduleOutcome",
    "SchedulePolicy",
    "SequentialPolicy",
    "PipelinedPolicy",
    "ThroughputWeightedPolicy",
    "resolve_policy",
    "DeviceAssignmentPolicy",
    "RoundRobinAssignment",
    "AffinityAssignment",
    "LoadBalancedAssignment",
    "ASSIGNMENTS",
    "resolve_assignment",
    "ActorPolicy",
    "AsyncCollector",
    "AsyncCollectStats",
    "CollectorWorker",
    "FleetGroup",
    "HeteroFleet",
    "parse_fleet_spec",
    "worker_env_seed",
    "TrainingConfig",
    "TrainingResult",
    "FleetTrainingResult",
    "train",
    "train_fleet",
    "train_scalar_reference",
    "evaluate_policy",
    "LearningCurve",
    "EvaluationPoint",
    "compare_curves",
]
