"""Command-line interface for the FIXAR reproduction.

Five sub-commands cover the common workflows:

* ``train``      — quantization-aware training on a benchmark (optionally
  saving a checkpoint), printing the learning curve;
* ``serve``      — policy serving through the dynamic batcher: a seeded
  synthetic load, an SLO-bounded flush plan priced on the platform model,
  and the modelled QPS/p50/p99 report (optionally restoring a checkpoint);
* ``throughput`` — the Fig. 8/9/10 throughput and efficiency report for a
  benchmark's workload;
* ``resources``  — the Table I resource report (with optional design-space
  overrides for core count and array geometry);
* ``compare``    — the Table II comparison against prior FPGA accelerators.

Installed as the ``fixar-repro`` console script; also runnable with
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .accelerator import AcceleratorConfig, PowerModel, ResourceModel, TimingModel
from .core import (
    FixarSystem,
    comparison_table,
    fixar_entry,
    format_breakdown,
    format_curve,
    format_series,
    format_table,
    smoke_test_config,
)
from .envs import BENCHMARK_SUITE
from .platform import (
    PAPER_BATCH_SIZES,
    AcceleratorPool,
    CpuGpuPlatform,
    FixarPlatform,
    WorkloadSpec,
)
from .rl import PRECISION_POLICIES, StageTimers, save_agent

__all__ = ["build_parser", "main"]

#: ``TrainingConfig`` fields whose CLI flag is not the mechanical
#: ``--field-name`` spelling.  The ``config-cli-parity`` lint rule reads
#: this mapping statically, so renaming a flag without updating it fails CI.
CONFIG_FLAG_ALIASES = {
    "total_timesteps": "--timesteps",
    "precision": "--precision-policy",
}

#: ``TrainingConfig`` fields deliberately not exposed as CLI flags, with
#: the reason.  The ``config-cli-parity`` lint rule treats these as the
#: documented exclusion list; removing a field's entry without adding its
#: flag fails CI, and stale entries are flagged too.
CONFIG_FIELDS_WITHOUT_FLAGS = {
    "warmup_timesteps": "derived from --timesteps by smoke_test_config (capped quarter of the budget)",
    "buffer_capacity": "derived from --timesteps by smoke_test_config (never smaller than the run)",
    "evaluation_interval": "derived from --timesteps by smoke_test_config (quarter-budget curve points)",
    "evaluation_episodes": "preset-owned: 3 episodes keep CI-scale runs fast, 10 is the paper preset",
    "exploration_noise": "paper constant (sigma 0.1); the presets own it across every regime",
}

#: ``ServingConfig`` fields whose ``serve`` flag is not the mechanical
#: ``--field-name`` spelling (same ``config-cli-parity`` contract as the
#: training pair above).
SERVING_FLAG_ALIASES = {
    "num_requests": "--requests",
    "slo_seconds": "--slo-ms",
}

#: ``ServingConfig`` fields deliberately not exposed as ``serve`` flags.
SERVING_FIELDS_WITHOUT_FLAGS = {
    "timeout_seconds": "derived from --slo-ms minus the batch-cap flush's service time (timeout-or-full)",
}


def _positive_int(value: str) -> int:
    """Argument type for counts that must be >= 1 (fail at the CLI boundary).

    Values below 1 used to surface as deep ``VectorEnv``/engine errors; the
    parser is the right place to reject them with a readable message.
    """
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {number}")
    return number


def _non_negative_int(value: str) -> int:
    """Argument type for counts that may be 0 (e.g. a disabled pipeline)."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if number < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {number}")
    return number


#: Valid ``--assignment`` forms, enumerated by the rejection message.
_ASSIGNMENT_CHOICES = ("round-robin", "balanced", "Benchmark=device,... mapping")


def _assignment_spec(value: str):
    """Argument type for ``--assignment``: policy name or affinity mapping.

    Accepts ``round-robin`` / ``balanced`` (the registered
    ``DeviceAssignmentPolicy`` names) or an explicit per-benchmark device
    mapping ``Benchmark=device,...`` (e.g. ``Hopper=0,HalfCheetah=1``).
    Rejections happen at the parser boundary and enumerate the valid
    choices, consistent with the positive-int validators above.
    """
    text = value.strip()
    if text in ("round-robin", "balanced"):
        return text
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"invalid assignment {value!r}; choose from "
            f"{', '.join(repr(choice) for choice in _ASSIGNMENT_CHOICES)}"
        )
    mapping = {}
    for raw_entry in text.split(","):
        entry = raw_entry.strip()
        name, separator, device = entry.partition("=")
        name = name.strip()
        device = device.strip()
        if not separator or not name or not device:
            raise argparse.ArgumentTypeError(
                f"invalid assignment entry {entry!r}; the mapping form is "
                "Benchmark=device,... (or choose 'round-robin'/'balanced')"
            )
        try:
            mapping[name] = int(device)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"device of assignment entry {entry!r} must be an integer "
                "device index (the mapping form is Benchmark=device,...)"
            ) from None
    return mapping


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="fixar-repro",
        description="FIXAR fixed-point deep reinforcement learning platform (reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser("train", help="run quantization-aware training")
    train.add_argument("--benchmark", choices=BENCHMARK_SUITE, default="HalfCheetah")
    train.add_argument("--timesteps", type=int, default=3_000)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument("--num-envs", type=_positive_int, default=1,
                       help="environments rolled out in lock-step with batched "
                            "actor inference (1 = the paper's scalar loop)")
    train.add_argument("--num-workers", type=_positive_int, default=1,
                       help="collection workers, each owning its own VectorEnv of "
                            "--num-envs environments (seeded seed + worker*num_envs + i) "
                            "and an actor replica refreshed every --sync-interval steps; "
                            "workers are scheduled deterministically so runs stay "
                            "reproducible (1 = the single-engine loop)")
    train.add_argument("--sync-interval", type=_positive_int, default=1,
                       help="environment steps between actor-weight broadcasts to "
                            "the collection workers (only meaningful with "
                            "--num-workers > 1)")
    train.add_argument("--pipeline-depth", type=_non_negative_int, default=0,
                       help="rounds the collector fleet may run ahead of the "
                            "learner (the pipelined training schedule's bounded "
                            "staleness window; 0 = the sequential schedule, "
                            "bit-exact with the pre-pipeline loop)")
    train.add_argument("--fleet", type=str, default=None, metavar="SPEC",
                       help="heterogeneous collector fleet spec "
                            "'Benchmark[:count[:num_envs]],...' (e.g. "
                            "'HalfCheetah:2:16,Hopper:2:8'): each entry "
                            "contributes count workers of that benchmark, "
                            "stepping num_envs environments in lock-step "
                            "(default: --num-envs), with one learner agent and "
                            "replay buffer per benchmark sharing one numerics "
                            "object / QAT schedule; overrides --benchmark and "
                            "replaces --num-workers as the fleet sizing")
    train.add_argument("--schedule",
                       choices=("sequential", "pipelined", "weighted", "adaptive"),
                       default=None,
                       help="round-scheduling policy (default: resolved from "
                            "--pipeline-depth — 0 is sequential, otherwise "
                            "pipelined); 'weighted' allocates extra collection "
                            "lock-steps per round to fleet benchmarks with "
                            "cheaper modelled host+inference chains (the "
                            "throughput-weighted schedule, priced on the "
                            "modelled platform); 'adaptive' additionally "
                            "re-prices those lock-step weights when a "
                            "precision switch changes the modelled platform "
                            "(pair with --precision-policy)")
    train.add_argument("--devices", type=_positive_int, default=1,
                       help="accelerators in the device pool serving the run "
                            "(1 = the single-FPGA path); fleet benchmark "
                            "groups are dealt over the pool's collection "
                            "devices (round-robin by default) and a wide "
                            "homogeneous batch shards across them — devices "
                            "change only the modelled pricing, never the "
                            "training numerics")
    train.add_argument("--placement", choices=("colocated", "disaggregated"),
                       default="colocated",
                       help="where the learners' update streams run: "
                            "'colocated' shares each group's collection "
                            "device, 'disaggregated' dedicates the pool's "
                            "last device to updates (needs --devices >= 2)")
    train.add_argument("--assignment", type=_assignment_spec, default=None,
                       metavar="POLICY|MAPPING",
                       help="device-assignment policy for fleet benchmark "
                            "groups on a --devices pool: 'round-robin' "
                            "(spec-order dealing, the default), 'balanced' "
                            "(greedy modelled-load balancing), or an "
                            "explicit affinity mapping 'Benchmark=device,...' "
                            "(e.g. 'Hopper=0,HalfCheetah=1'; unknown "
                            "benchmarks are rejected)")
    train.add_argument("--precision-policy", choices=sorted(PRECISION_POLICIES),
                       default=None,
                       help="precision policy replacing the built-in QAT "
                            "controller (fixar-dynamic regime only): "
                            "'global-switch' is Algorithm 1's single switch, "
                            "'per-layer' switches layers on a static "
                            "bitwidth table, 'range-driven' switches each "
                            "layer once its activation-range statistics "
                            "stabilize")
    train.add_argument("--precision-spec", type=str, default=None, metavar="SPEC",
                       help="spec string for --precision-policy "
                            "(global-switch: '[bits][@delay]'; per-layer: "
                            "'pattern=bits[@delay],...' matching layer names "
                            "like actor_fc0/critic_out by prefix; "
                            "range-driven: 'bits=16,interval=1000,"
                            "patience=2,tolerance=0.05' key=value pairs)")
    train.add_argument("--regime", default="fixar-dynamic",
                       choices=("float32", "fixed32", "fixed16", "fixar-dynamic"))
    train.add_argument("--hidden", type=int, nargs=2, default=(64, 48), metavar=("H1", "H2"))
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--checkpoint", type=str, default=None,
                       help="path to save the trained agent (.npz)")
    train.add_argument("--cosim", action="store_true",
                       help="co-simulate platform time alongside training")
    train.add_argument("--profile", action="store_true",
                       help="attach stage timers to the rollout hot path and "
                            "print the per-stage wall-clock breakdown after "
                            "training (trajectories stay bit-identical; see "
                            "benchmarks/reports/hotpath.txt for the "
                            "reference breakdown)")

    serve = subparsers.add_parser(
        "serve", help="serve a policy through the dynamic batcher (modelled)"
    )
    serve.add_argument("--benchmark", choices=BENCHMARK_SUITE, default="HalfCheetah")
    serve.add_argument("--checkpoint", type=str, default=None,
                       help="trained-agent checkpoint (.npz) to restore into "
                            "the server; omitted, a freshly initialised "
                            "--regime actor serves instead")
    serve.add_argument("--requests", type=_positive_int, default=512,
                       help="requests in the seeded synthetic trace")
    serve.add_argument("--qps", type=float, default=2000.0,
                       help="offered load: mean arrival rate of the "
                            "Poisson-like trace, in requests per modelled "
                            "second")
    serve.add_argument("--slo-ms", type=float, default=20.0,
                       help="latency SLO in milliseconds; the batcher's "
                            "flush timeout is derived as the SLO minus the "
                            "batch-cap flush's modelled service time")
    serve.add_argument("--batch-cap", type=_positive_int, default=8,
                       help="largest flush the dynamic batcher coalesces "
                            "(1 = sequential per-request serving)")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed of the load generator's trace (arrivals "
                            "and state vectors)")
    serve.add_argument("--devices", type=_positive_int, default=1,
                       help="accelerators in the serving pool; flushes "
                            "shard near-equally over the collection devices")
    serve.add_argument("--placement", choices=("colocated", "disaggregated"),
                       default="colocated",
                       help="pool placement (disaggregated reserves the "
                            "last device for update streams; needs "
                            "--devices >= 2)")
    serve.add_argument("--hidden", type=int, nargs=2, default=(64, 48),
                       metavar=("H1", "H2"),
                       help="actor hidden sizes when serving a fresh actor "
                            "(checkpoints carry their own shapes)")
    serve.add_argument("--regime", default="fixar-dynamic",
                       choices=("float32", "fixed32", "fixed16", "fixar-dynamic"),
                       help="numeric regime of a freshly initialised actor "
                            "(ignored with --checkpoint)")
    serve.add_argument("--profile", action="store_true",
                       help="time the actor forward passes behind the "
                            "batcher and print the wall-clock breakdown of "
                            "the serving run (the modelled latency report "
                            "is unchanged)")

    throughput = subparsers.add_parser("throughput", help="Fig. 8/9/10 throughput report")
    throughput.add_argument("--benchmark", choices=BENCHMARK_SUITE, default="HalfCheetah")
    throughput.add_argument("--batches", type=int, nargs="+", default=list(PAPER_BATCH_SIZES))
    throughput.add_argument("--cores", type=int, default=2)
    throughput.add_argument("--half-precision", action="store_true")

    resources = subparsers.add_parser("resources", help="Table I resource report")
    resources.add_argument("--cores", type=int, default=2)
    resources.add_argument("--array", type=int, nargs=2, default=(16, 16), metavar=("ROWS", "COLS"))

    compare = subparsers.add_parser("compare", help="Table II comparison with prior works")
    compare.add_argument("--use-paper-numbers", action="store_true",
                         help="use the paper's FIXAR row instead of the modelled one")
    return parser


def _command_train_fleet(args: argparse.Namespace) -> int:
    """The heterogeneous multi-benchmark branch of the train sub-command."""
    import numpy as np

    from .envs import benchmark_dimensions
    from .nn import DynamicFixedPointNumerics, make_numerics
    from .rl import (
        DDPGAgent,
        QATController,
        parse_fleet_spec,
        resolve_precision,
        train_fleet,
    )

    from dataclasses import replace

    try:
        fleet_spec = parse_fleet_spec(args.fleet)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    # Same reduced-scale hyper-parameters as the homogeneous train path, so
    # `--fleet Hopper:1` and `--benchmark Hopper` remain comparable runs.
    base = smoke_test_config(
        total_timesteps=args.timesteps,
        batch_size=args.batch_size,
        hidden_sizes=tuple(args.hidden),
    ).with_regime(args.regime)

    # One shared numerics object (and QAT schedule) across every benchmark's
    # agent — a precision switch must hit the whole fleet at once.
    numerics = make_numerics(base.numeric_regime, num_bits=base.qat.num_bits)
    rng = np.random.default_rng(args.seed)
    agents = {}
    for benchmark, _count, _width in fleet_spec:
        dims = benchmark_dimensions(benchmark)
        agents[benchmark] = DDPGAgent(
            dims["state_dim"],
            dims["action_dim"],
            base.ddpg,
            numerics=numerics,
            rng=rng,
        )
    qat_controller = None
    if isinstance(numerics, DynamicFixedPointNumerics):
        if args.precision_policy is not None:
            try:
                qat_controller = resolve_precision(
                    args.precision_policy, numerics, args.precision_spec
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        else:
            qat_controller = QATController(numerics, base.qat)
    elif args.precision_policy is not None:
        print(
            f"error: --precision-policy needs the fixar-dynamic regime, "
            f"got --regime {args.regime}",
            file=sys.stderr,
        )
        return 2

    try:
        config = replace(
            base.training,
            seed=args.seed,
            num_envs=args.num_envs,
            sync_interval=args.sync_interval,
            pipeline_depth=args.pipeline_depth,
            fleet=fleet_spec,
            schedule=args.schedule,
            devices=args.devices,
            placement=args.placement,
            assignment=args.assignment,
        )
    except ValueError as error:
        # Config validation errors name the offending knobs themselves
        # (e.g. the schedule/pipeline_depth conflict).
        print(f"error: {error}", file=sys.stderr)
        return 2
    platform = None
    if args.schedule in ("weighted", "adaptive") or args.devices > 1:
        # The throughput-weighted policy prices each benchmark's host +
        # inference chain on the device pool (the fleet oracle); without an
        # oracle it would degrade to round-robin weights.  A
        # multi-accelerator run also assigns benchmarks over the pool.
        platform = AcceleratorPool(
            FixarPlatform(
                WorkloadSpec.from_benchmark(
                    fleet_spec[0][0], hidden_sizes=tuple(args.hidden)
                )
            ),
            args.devices,
            placement=args.placement,
        )
    schedule = args.schedule or (
        f"pipelined depth {args.pipeline_depth}" if args.pipeline_depth else "sequential"
    )
    pool_text = (
        f", {args.devices}-device pool ({args.placement})"
        if args.devices > 1
        else ""
    )
    fleet_text = ",".join(
        f"{benchmark}:{count}" + ("" if width is None else f":{width}")
        for benchmark, count, width in fleet_spec
    )
    print(f"training {args.regime} on fleet {fleet_text} for {args.timesteps} timesteps "
          f"(batch {args.batch_size}, hidden {tuple(args.hidden)}, "
          f"{args.num_envs} env{'s' if args.num_envs != 1 else ''} per worker by "
          f"default, {schedule} schedule{pool_text})")

    profiler = StageTimers() if args.profile else None
    result = train_fleet(
        agents, config, qat_controller=qat_controller, label=args.regime,
        platform=platform, profiler=profiler,
    )
    if profiler is not None:
        print("wall-clock stage breakdown (fleet collection hot path):")
        print(profiler.table())
    if result.schedule == "weighted" and any(w != 1 for w in result.weights):
        allocation = ", ".join(
            f"{key}x{weight}" for (key, _c, _w), weight in zip(result.fleet, result.weights)
        )
        print(f"weighted rounds: lock-step allocation {allocation}")
    if args.devices > 1:
        affinity = ", ".join(
            f"{key}->dev{device}" for key, device in result.assignment.items()
        )
        print(f"device affinity: {affinity}")
    for benchmark, benchmark_result in result.per_benchmark.items():
        curve = benchmark_result.curve
        print(format_curve(curve.timesteps, curve.returns, label=f"{benchmark} reward curve"))
    if result.qat_event is not None:
        print(f"precision switch at t={result.qat_event.timestep} "
              f"(activations -> {result.qat_event.num_bits} bits, fleet-wide)")

    if args.checkpoint:
        base, extension = os.path.splitext(args.checkpoint)
        extension = extension or ".npz"
        for benchmark, agent in agents.items():
            path = save_agent(agent, f"{base}.{benchmark}{extension}")
            print(f"{benchmark} checkpoint written to {path}")
    return 0


def _command_train(args: argparse.Namespace) -> int:
    if args.cosim and args.num_envs != 1:
        print(
            "error: --cosim traces the scalar training loop and does not "
            "support --num-envs > 1 yet",
            file=sys.stderr,
        )
        return 2
    if args.cosim and args.num_workers != 1:
        print(
            "error: --cosim traces the scalar training loop and does not "
            "support --num-workers > 1",
            file=sys.stderr,
        )
        return 2
    if args.cosim and args.pipeline_depth != 0:
        print(
            "error: --cosim traces the sequential scalar training loop and "
            "does not support --pipeline-depth > 0",
            file=sys.stderr,
        )
        return 2
    if args.cosim and args.schedule not in (None, "sequential"):
        print(
            "error: --cosim traces the sequential scalar training loop and "
            f"does not support --schedule {args.schedule}",
            file=sys.stderr,
        )
        return 2
    if args.cosim and (
        args.devices != 1
        or args.placement != "colocated"
        or args.assignment is not None
    ):
        print(
            "error: --cosim traces the single-accelerator scalar training "
            "loop and does not support --devices > 1, --placement, or "
            "--assignment",
            file=sys.stderr,
        )
        return 2
    if args.cosim and args.precision_policy is not None:
        print(
            "error: --cosim traces the built-in QAT controller and does not "
            "support --precision-policy",
            file=sys.stderr,
        )
        return 2
    if args.cosim and args.profile:
        print(
            "error: --cosim replays a modelled platform trace, not the "
            "wall-clock hot path --profile instruments; drop one of the two",
            file=sys.stderr,
        )
        return 2
    if args.precision_policy is not None and args.regime != "fixar-dynamic":
        print(
            f"error: --precision-policy needs the fixar-dynamic regime, "
            f"got --regime {args.regime}",
            file=sys.stderr,
        )
        return 2
    if args.fleet is not None:
        if args.cosim:
            print(
                "error: --cosim traces the scalar training loop and does not "
                "support --fleet",
                file=sys.stderr,
            )
            return 2
        if args.num_workers != 1:
            print(
                "error: --fleet and --num-workers are alternative fleet "
                "sizings; the spec's per-benchmark counts determine the "
                "workers, so drop --num-workers",
                file=sys.stderr,
            )
            return 2
        return _command_train_fleet(args)
    config = smoke_test_config(
        benchmark=args.benchmark,
        total_timesteps=args.timesteps,
        batch_size=args.batch_size,
        hidden_sizes=tuple(args.hidden),
    ).with_regime(args.regime)
    try:
        config = config.with_training(
            seed=args.seed,
            num_envs=args.num_envs,
            num_workers=args.num_workers,
            sync_interval=args.sync_interval,
            pipeline_depth=args.pipeline_depth,
            schedule=args.schedule,
            devices=args.devices,
            placement=args.placement,
            assignment=args.assignment,
            precision=args.precision_policy,
            precision_spec=args.precision_spec,
        )
    except ValueError as error:
        # Config validation errors name the offending knobs themselves
        # (e.g. the schedule/pipeline_depth conflict).
        print(f"error: {error}", file=sys.stderr)
        return 2
    system = FixarSystem(config)
    schedule = args.schedule or (
        f"pipelined depth {args.pipeline_depth}" if args.pipeline_depth else "sequential"
    )
    pool_text = (
        f", {args.devices}-device pool ({args.placement})"
        if args.devices > 1
        else ""
    )
    print(f"training {args.regime} on {args.benchmark} for {args.timesteps} timesteps "
          f"(batch {args.batch_size}, hidden {tuple(args.hidden)}, "
          f"{args.num_workers} worker{'s' if args.num_workers != 1 else ''} x "
          f"{args.num_envs} env{'s' if args.num_envs != 1 else ''} in lock-step, "
          f"{schedule} schedule{pool_text})")

    if args.cosim:
        result = system.cosimulate()
        print("co-simulated platform trace:")
        for key, value in result.summary().items():
            print(f"  {key:24s} {value:12.3f}")
        if result.episode_returns:
            print(f"  final episode return     {result.episode_returns[-1]:12.1f}")
    else:
        profiler = StageTimers() if args.profile else None
        result = system.train(profiler=profiler)
        print(format_curve(result.curve.timesteps, result.curve.returns, label="reward curve"))
        if result.qat_event is not None:
            print(f"precision switch at t={result.qat_event.timestep} "
                  f"(activations -> {result.qat_event.num_bits} bits)")
        if profiler is not None:
            print("wall-clock stage breakdown (rollout collection hot path):")
            print(profiler.table())

    if args.checkpoint:
        path = save_agent(system.agent, args.checkpoint)
        print(f"checkpoint written to {path}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Serve a (checkpointed) policy through the dynamic batcher."""
    import numpy as np

    from .envs import benchmark_dimensions
    from .nn import make_numerics
    from .rl import DDPGAgent, DDPGConfig
    from .serving import (
        PolicyServer,
        ServingConfig,
        SyntheticLoadGenerator,
        restore_serving_agent,
    )

    try:
        config = ServingConfig(
            num_requests=args.requests,
            qps=args.qps,
            slo_seconds=args.slo_ms / 1e3,
            batch_cap=args.batch_cap,
            seed=args.seed,
            devices=args.devices,
            placement=args.placement,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if config.placement == "disaggregated" and config.devices < 2:
        print(
            "error: --placement disaggregated needs --devices >= 2 "
            "(the last device is reserved for update streams)",
            file=sys.stderr,
        )
        return 2

    dims = benchmark_dimensions(args.benchmark)
    if args.checkpoint:
        try:
            agent, _metadata = restore_serving_agent(args.checkpoint)
        except (OSError, KeyError, ValueError) as error:
            print(f"error: cannot restore {args.checkpoint}: {error}", file=sys.stderr)
            return 2
        if (agent.state_dim, agent.action_dim) != (
            dims["state_dim"],
            dims["action_dim"],
        ):
            print(
                f"error: checkpoint dimensions ({agent.state_dim}, "
                f"{agent.action_dim}) do not match benchmark "
                f"{args.benchmark} ({dims['state_dim']}, {dims['action_dim']})",
                file=sys.stderr,
            )
            return 2
        hidden_sizes = tuple(agent.config.hidden_sizes)
        source = args.checkpoint
    else:
        hidden_sizes = tuple(args.hidden)
        agent = DDPGAgent(
            dims["state_dim"],
            dims["action_dim"],
            DDPGConfig(hidden_sizes=hidden_sizes),
            numerics=make_numerics(args.regime),
            rng=np.random.default_rng(args.seed),
        )
        source = f"fresh {args.regime} actor"

    platform = FixarPlatform(
        WorkloadSpec.from_benchmark(args.benchmark, hidden_sizes=hidden_sizes)
    )
    if config.devices > 1:
        platform = AcceleratorPool(platform, config.devices, placement=config.placement)
    server = PolicyServer.from_agent(agent, platform, config)
    load = SyntheticLoadGenerator(
        state_dim=dims["state_dim"], qps=config.qps, seed=config.seed
    )
    profiler = None
    serve_wall_seconds = 0.0
    if args.profile:
        # The serving stack itself is barred from wall-clock reads (its
        # latency numbers are *modelled*, and the deterministic-oracles
        # lint keeps it that way), so instrumentation wraps the policy at
        # the CLI seam instead: every batched flush through the actor is
        # timed, the rest of the run is the batcher/bookkeeping remainder.
        from time import perf_counter

        profiler = StageTimers()
        server.policy.act_batch = profiler.wrap(
            server.policy.act_batch, "actor-forward"
        )
        serve_start = perf_counter()
        result = server.serve_load(load)
        serve_wall_seconds = perf_counter() - serve_start
    else:
        result = server.serve_load(load)
    report = result.report

    pool_text = (
        f", {config.devices}-device pool ({config.placement})"
        if config.devices > 1
        else ""
    )
    print(
        f"serving {args.benchmark} ({source}): {config.num_requests} requests "
        f"at {config.qps:g} QPS offered, cap {config.batch_cap}, "
        f"SLO {args.slo_ms:g} ms (flush timeout "
        f"{report.timeout_seconds * 1e3:.2f} ms{pool_text})"
    )
    print(f"  modelled QPS        {report.qps:12.1f}")
    print(f"  p50 / p99 latency   {report.p50_seconds * 1e3:7.3f} ms / "
          f"{report.p99_seconds * 1e3:.3f} ms")
    print(f"  max latency         {report.max_latency_seconds * 1e3:7.3f} ms")
    print(f"  mean batch size     {report.mean_batch_size:12.2f}")
    print(f"  PCIe per request    {report.pcie_bytes_per_request:12.1f} B")
    print(f"  SLO attainment      {report.slo_attainment * 100:11.1f}% "
          f"({report.slo_violations} violations)")
    if profiler is not None:
        print("wall-clock breakdown of the serving run (actor forward vs "
              "batcher remainder):")
        print(profiler.table(wall_seconds=serve_wall_seconds))
    return 0


def _command_throughput(args: argparse.Namespace) -> int:
    from .envs import make

    env = make(args.benchmark)
    platform = FixarPlatform(
        WorkloadSpec.from_environment(env),
        AcceleratorConfig().with_cores(args.cores),
        half_precision=args.half_precision,
    )
    baseline = CpuGpuPlatform()
    batches = tuple(args.batches)

    fixar_ips = {batch: platform.platform_ips(batch) for batch in batches}
    gpu_ips = {batch: baseline.ips(args.benchmark, batch) for batch in batches}
    print(f"benchmark {args.benchmark}, {args.cores} AAP cores, "
          f"{'half' if args.half_precision else 'full'} precision")
    print(format_series(fixar_ips, name="FIXAR platform IPS  "))
    print(format_series(gpu_ips, name="CPU-GPU platform IPS"))
    print(format_series({b: fixar_ips[b] / gpu_ips[b] for b in batches}, name="speedup", precision=2))
    print("accelerator-only:")
    print(format_series({b: platform.accelerator_ips(b) for b in batches}, name="  FIXAR IPS  "))
    print(format_series({b: platform.accelerator_ips_per_watt(b) for b in batches}, name="  FIXAR IPS/W"))
    for batch in batches:
        print(f"  breakdown batch {batch:4d}: " + format_breakdown(platform.timestep_breakdown(batch)))
    return 0


def _command_resources(args: argparse.Namespace) -> int:
    config = AcceleratorConfig().with_cores(args.cores).with_geometry(*args.array)
    model = ResourceModel(config)
    print(format_table(model.table(), title=f"Resource usage — {args.cores} cores, "
                                            f"{args.array[0]}x{args.array[1]} PEs"))
    print(f"fits Alveo U50: {model.fits_device()}")
    print(f"estimated board power: {PowerModel(config).average_watts():.1f} W")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    if args.use_paper_numbers:
        entry = fixar_entry()
    else:
        timing = TimingModel(AcceleratorConfig())
        workload = WorkloadSpec("HalfCheetah", 17, 6)
        peak = max(
            timing.accelerator_ips(workload.actor_shapes, workload.critic_shapes, batch)
            for batch in PAPER_BATCH_SIZES
        )
        power = PowerModel(AcceleratorConfig())
        entry = fixar_entry(
            peak_ips=peak,
            energy_efficiency=peak / power.average_watts(),
            dsp_count=ResourceModel(AcceleratorConfig()).total().dsp,
        )
    print(format_table(comparison_table(entry), title="Comparison with previous works"))
    return 0


_COMMANDS = {
    "train": _command_train,
    "serve": _command_serve,
    "throughput": _command_throughput,
    "resources": _command_resources,
    "compare": _command_compare,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
