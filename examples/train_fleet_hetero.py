#!/usr/bin/env python3
"""Domain scenario: one training run across a heterogeneous benchmark fleet.

FIXAR's adaptive parallelism exists because one accelerator must serve
workloads whose layer dimensions differ — and the paper evaluates across
HalfCheetah, Hopper, and Swimmer.  This example exercises exactly that
scenario in software: a **fleet spec** (default ``HalfCheetah:1,Hopper:1``)
maps collection workers to different registered benchmarks in a single run.
Each benchmark gets its own learner agent and replay buffer sized for its
``(state_dim, action_dim)``, while all agents share one numerics object and
one Algorithm 1 QAT schedule, so the precision switch lands fleet-wide at
the same timestep.

Worker ids are global across the fleet (spec order), and environments are
seeded by the worker's cumulative environment offset (``seed + env_offset +
i`` — exactly ``seed + worker_id * num_envs + i`` at uniform widths), so a
homogeneous spec such as ``Hopper:2`` reproduces ``--num-workers 2`` bit
for bit while a three-field spec like ``HalfCheetah:2:16,Hopper:2:8`` gives
each benchmark its own lock-step width.  ``--schedule weighted`` switches
the round scheduler to throughput-weighted rounds: the benchmark with the
cheaper modelled host+inference chain collects extra lock-steps per round.

The run also prices the fleet on the modelled platform: the single
accelerator (a 1-device ``AcceleratorPool``) serves back-to-back batched
inferences with *different* layer dimensions (``AcceleratorPool.infer_fleet``),
and the mixed-fleet training round is compared against the equivalent
homogeneous fleets.

Run:
    python examples/train_fleet_hetero.py [--fleet HalfCheetah:1,Hopper:1] \
        [--timesteps 2000] [--num-envs 4] [--pipeline-depth 1]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import format_curve
from repro.envs import benchmark_dimensions
from repro.nn import DynamicFixedPointNumerics
from repro.platform import AcceleratorPool, FixarPlatform, WorkloadSpec
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    QATController,
    QATSchedule,
    TrainingConfig,
    parse_fleet_spec,
    train_fleet,
)

HIDDEN_SIZES = (64, 48)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fleet", type=str, default="HalfCheetah:1,Hopper:1",
                        help="fleet spec 'Benchmark[:count[:num_envs]],...' "
                             "resolved against the benchmark registry "
                             "(case-insensitive); the third field is the "
                             "benchmark's lock-step width (default --num-envs)")
    parser.add_argument("--timesteps", type=int, default=2_000)
    parser.add_argument("--num-envs", type=int, default=4,
                        help="default environments per worker, rolled out in "
                             "lock-step (spec entries may override per benchmark)")
    parser.add_argument("--pipeline-depth", type=int, default=0,
                        help="rounds the fleet may run ahead of the learners")
    parser.add_argument("--schedule", choices=("sequential", "pipelined", "weighted"),
                        default=None,
                        help="round-scheduling policy (default: from "
                             "--pipeline-depth); 'weighted' gives cheaper "
                             "benchmarks extra lock-steps per round")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    fleet_spec = parse_fleet_spec(args.fleet, default_width=args.num_envs)
    total_workers = sum(count for _, count, _width in fleet_spec)
    print("=== Heterogeneous collector fleet ===")
    print(f"fleet: {', '.join(f'{b}:{c}:{w}' for b, c, w in fleet_spec)} "
          f"({total_workers} workers; widths are the per-benchmark num_envs)")

    # One shared numerics object: the QAT switch must hit every benchmark's
    # networks (and their collection replicas) at the same timestep.
    numerics = DynamicFixedPointNumerics(num_bits=16)
    rng = np.random.default_rng(args.seed)
    agents = {}
    for benchmark, _count, _width in fleet_spec:
        dims = benchmark_dimensions(benchmark)
        agents[benchmark] = DDPGAgent(
            dims["state_dim"],
            dims["action_dim"],
            DDPGConfig(hidden_sizes=HIDDEN_SIZES,
                       actor_learning_rate=1e-3, critic_learning_rate=1e-3),
            numerics=numerics,
            rng=rng,
        )
        print(f"  {benchmark:12s} state_dim {dims['state_dim']:3d}  "
              f"action_dim {dims['action_dim']:2d}")

    controller = QATController(
        numerics, QATSchedule(num_bits=16, quantization_delay=args.timesteps // 2)
    )
    config = TrainingConfig(
        total_timesteps=args.timesteps,
        warmup_timesteps=min(400, args.timesteps // 5),
        batch_size=64,
        buffer_capacity=max(args.timesteps, 10_000),
        evaluation_interval=max(250, args.timesteps // 8),
        evaluation_episodes=3,
        exploration_noise=0.15,
        seed=args.seed,
        num_envs=args.num_envs,
        pipeline_depth=args.pipeline_depth,
        fleet=fleet_spec,
        schedule=args.schedule,
    )

    # The weighted schedule needs a cost oracle; hand train_fleet a 1-device
    # pool over the modelled platform so the policy can price each
    # benchmark's chain.
    pool = AcceleratorPool(
        FixarPlatform(
            WorkloadSpec.from_benchmark(fleet_spec[0][0], hidden_sizes=HIDDEN_SIZES)
        )
    )
    oracle = pool if args.schedule == "weighted" else None

    result = train_fleet(
        agents, config, qat_controller=controller, label="fleet-qat",
        platform=oracle,
    )
    if result.schedule == "weighted":
        print(f"weighted lock-step allocation: "
              + ", ".join(f"{key}x{weight}"
                          for (key, _c, _w), weight in zip(result.fleet, result.weights)))
    print()
    for benchmark, benchmark_result in result.per_benchmark.items():
        curve = benchmark_result.curve
        print(format_curve(curve.timesteps, curve.returns,
                           label=f"{benchmark:12s} reward curve"))
        print(f"  {benchmark:12s} episodes {len(benchmark_result.episode_returns):4d}  "
              f"updates {benchmark_result.total_updates:6d}")
    if result.qat_event:
        print(f"fleet-wide precision switch at t={result.qat_event.timestep} "
              f"(activations -> {result.qat_event.num_bits} bits)")

    # Price the fleet on the modelled platform: mixed layer dimensions served
    # back to back by the single accelerator, vs the homogeneous equivalents.
    print()
    print("modelled platform (batch 64, one update per collected step):")
    report = pool.infer_fleet(fleet_spec, args.num_envs)
    print(f"  fleet inference round: {report.total_seconds * 1e3:6.2f} ms "
          f"for {report.num_states} states "
          f"({report.states_per_second:,.0f} states/sec)")
    mixed = pool.fleet_training_steps_per_second(
        fleet_spec, args.num_envs, 64, pipelined=args.pipeline_depth > 0
    )
    print(f"  mixed fleet training throughput : {mixed:8.1f} steps/sec")
    for benchmark, _count, _width in fleet_spec:
        homogeneous = pool.fleet_training_steps_per_second(
            [(benchmark, total_workers)], args.num_envs, 64,
            pipelined=args.pipeline_depth > 0,
        )
        print(f"  homogeneous {benchmark:12s} fleet  : {homogeneous:8.1f} steps/sec")


if __name__ == "__main__":
    main()
