"""Tests for heterogeneous multi-benchmark collector fleets.

The load-bearing guarantees:

* the fleet-spec grammar (``"HalfCheetah:2,Hopper"``) parses and validates
  against the benchmark registry;
* a **homogeneous** fleet spec ``Hopper:2`` is *bit-exact* with the
  existing ``num_workers=2`` path — same learning curve, episode returns,
  replay-buffer contents, and final actor weights — so the fleet extends
  the PR-2/3 determinism contract rather than forking it;
* heterogeneous runs are deterministic, keep per-benchmark agents/buffers
  separate, and apply a shared QAT precision switch fleet-wide;
* the pool's ``fleet_*`` pricing reduces exactly to the platform's
  homogeneous methods for single-benchmark fleets and stays within the
  homogeneous envelope for mixed fleets.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.envs import HalfCheetahEnv, HopperEnv, SwimmerEnv, benchmark_dimensions
from repro.nn import DynamicFixedPointNumerics, make_numerics
from repro.platform import AcceleratorPool, FixarPlatform, WorkloadSpec
from repro.rl import (
    DDPGAgent,
    DDPGConfig,
    HeteroFleet,
    QATController,
    QATSchedule,
    TrainingConfig,
    parse_fleet_spec,
    train,
    train_fleet,
)


def _agent(benchmark: str, numerics=None, seed=42) -> DDPGAgent:
    dims = benchmark_dimensions(benchmark)
    return DDPGAgent(
        dims["state_dim"],
        dims["action_dim"],
        DDPGConfig(hidden_sizes=(24, 16)),
        numerics=numerics or make_numerics("float32"),
        rng=np.random.default_rng(seed),
    )


def _config(**overrides) -> TrainingConfig:
    base = TrainingConfig(
        total_timesteps=240,
        warmup_timesteps=60,
        batch_size=16,
        buffer_capacity=5_000,
        evaluation_interval=100,
        evaluation_episodes=2,
        exploration_noise=0.2,
        seed=3,
        num_envs=2,
    )
    return replace(base, **overrides)


class TestParseFleetSpec:
    def test_counts_and_defaults(self):
        assert parse_fleet_spec("HalfCheetah:2,Hopper") == [
            ("halfcheetah", 2, None),
            ("hopper", 1, None),
        ]

    def test_default_width_fills_missing_third_field(self):
        assert parse_fleet_spec("HalfCheetah:2:16,Hopper", default_width=8) == [
            ("halfcheetah", 2, 16),
            ("hopper", 1, 8),
        ]

    def test_whitespace_and_case(self):
        assert parse_fleet_spec(" hopper : 2 : 4 , SWIMMER ") == [
            ("hopper", 2, 4),
            ("swimmer", 1, None),
        ]

    def test_preparsed_sequence_is_canonicalised(self):
        assert parse_fleet_spec([("Hopper", 2), ("Swimmer", 1, 4)]) == [
            ("hopper", 2, None),
            ("swimmer", 1, 4),
        ]

    def test_order_preserved(self):
        assert parse_fleet_spec("Swimmer,Hopper") == [
            ("swimmer", 1, None),
            ("hopper", 1, None),
        ]

    def test_preparsed_float_count_rejected(self):
        """2.9 workers must not silently truncate to 2 (seeding layout!)."""
        with pytest.raises(ValueError, match="integer count"):
            parse_fleet_spec([("Hopper", 2.9)])

    def test_preparsed_float_width_rejected(self):
        with pytest.raises(ValueError, match="triples"):
            parse_fleet_spec([("Hopper", 2, 4.5)])

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("", "empty entry"),
            ("Hopper,,Swimmer", "empty entry"),
            (":2", "missing benchmark name"),
            ("Hopper:two", "must be an integer"),
            ("Hopper:0", "must be positive"),
            ("Hopper:-1", "must be positive"),
            ("Hopper:1:0", "width of 'Hopper' must be positive"),
            ("Hopper:1:-4", "width of 'Hopper' must be positive"),
            ("Hopper:1:two", "num_envs width of 'Hopper' must be an integer"),
            ("Hopper:1:2:3", "too many fields"),
            ("Walker:1", "unknown benchmark"),
            ("Hopper:1,hopper:2", "more than once"),
            ([], "at least one benchmark"),
        ],
    )
    def test_rejects_bad_specs(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_fleet_spec(spec)


class TestConfigValidation:
    def test_fleet_validated_at_config_time(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            _config(fleet="Walker:2")

    def test_fleet_conflicts_with_num_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            _config(fleet="Hopper:2", num_workers=2)

    def test_train_rejects_fleet_configs(self):
        config = _config(fleet="Hopper:2")
        with pytest.raises(ValueError, match="train_fleet"):
            train(HopperEnv(seed=0), _agent("Hopper"), config)

    def test_train_fleet_requires_fleet(self):
        with pytest.raises(ValueError, match="config.fleet"):
            train_fleet({"Hopper": _agent("Hopper")}, _config())


class TestFleetConstruction:
    def test_missing_agent_rejected(self):
        with pytest.raises(ValueError, match="missing fleet benchmarks"):
            HeteroFleet.from_agents(
                "Hopper:1,Swimmer:1",
                {"Hopper": _agent("Hopper")},
                num_envs=2,
                buffer_capacity=1_000,
            )

    def test_extra_agent_rejected(self):
        with pytest.raises(ValueError, match="outside the fleet"):
            HeteroFleet.from_agents(
                "Hopper:1",
                {"Hopper": _agent("Hopper"), "Swimmer": _agent("Swimmer")},
                num_envs=2,
                buffer_capacity=1_000,
            )

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            HeteroFleet.from_agents(
                "Swimmer:1",
                {"Swimmer": _agent("Hopper")},
                num_envs=2,
                buffer_capacity=1_000,
            )

    def test_global_worker_ids_follow_spec_order(self):
        numerics = make_numerics("float32")
        fleet = HeteroFleet.from_agents(
            "HalfCheetah:2,Hopper:1",
            {"HalfCheetah": _agent("HalfCheetah", numerics), "Hopper": _agent("Hopper", numerics)},
            num_envs=2,
            buffer_capacity=1_000,
            seed=10,
        )
        ids = [
            [worker.worker_id for worker in group.collector.workers]
            for group in fleet.groups
        ]
        assert ids == [[0, 1], [2]]
        assert fleet.num_workers == 3
        assert fleet.steps_per_round == 6
        assert fleet.benchmarks == ["HalfCheetah", "Hopper"]

    def test_worker_envs_keep_global_seeding_scheme(self):
        """Hopper workers behind a HalfCheetah group still seed by global id."""
        numerics = make_numerics("float32")
        seed, num_envs = 10, 2
        fleet = HeteroFleet.from_agents(
            "HalfCheetah:1,Hopper:1",
            {"HalfCheetah": _agent("HalfCheetah", numerics), "Hopper": _agent("Hopper", numerics)},
            num_envs=num_envs,
            buffer_capacity=1_000,
            seed=seed,
        )
        hopper_group = fleet.groups[1]
        observations = hopper_group.collector.workers[0].engine.reset()
        worker_id = hopper_group.collector.workers[0].worker_id
        assert worker_id == 1
        for i in range(num_envs):
            expected = HopperEnv(seed=seed + worker_id * num_envs + i).reset()
            np.testing.assert_array_equal(observations[i], expected)

    def test_per_benchmark_buffers_have_benchmark_dims(self):
        numerics = make_numerics("float32")
        fleet = HeteroFleet.from_agents(
            "HalfCheetah:1,Swimmer:1",
            {"HalfCheetah": _agent("HalfCheetah", numerics), "Swimmer": _agent("Swimmer", numerics)},
            num_envs=2,
            buffer_capacity=1_000,
        )
        cheetah, swimmer = fleet.groups
        assert cheetah.buffer._states.shape[1] == HalfCheetahEnv.STATE_DIM
        assert swimmer.buffer._states.shape[1] == SwimmerEnv.STATE_DIM
        assert swimmer.buffer._actions.shape[1] == SwimmerEnv.ACTION_DIM


class TestHomogeneousBitExactness:
    """The acceptance-criteria pin: ``Hopper:2`` == ``num_workers=2``."""

    @pytest.mark.parametrize("pipeline_depth", [0, 1])
    def test_fleet_spec_matches_num_workers_path(self, pipeline_depth):
        template = HopperEnv(seed=0, max_episode_steps=30)
        eval_env_kwargs = dict(seed=99, max_episode_steps=30)

        worker_agent = _agent("Hopper")
        worker_result = train(
            HopperEnv(seed=0, max_episode_steps=30),
            worker_agent,
            _config(num_workers=2, pipeline_depth=pipeline_depth),
            eval_env=HopperEnv(**eval_env_kwargs),
        )

        fleet_agent = _agent("Hopper")
        fleet_result = train_fleet(
            {"Hopper": fleet_agent},
            _config(fleet="Hopper:2", pipeline_depth=pipeline_depth),
            env_templates={"Hopper": template},
            eval_envs={"Hopper": HopperEnv(**eval_env_kwargs)},
        )
        benchmark_result = fleet_result.per_benchmark["Hopper"]

        assert list(benchmark_result.curve.timesteps) == list(worker_result.curve.timesteps)
        np.testing.assert_array_equal(
            benchmark_result.curve.returns, worker_result.curve.returns
        )
        assert benchmark_result.episode_returns == worker_result.episode_returns
        assert benchmark_result.total_timesteps == worker_result.total_timesteps
        assert benchmark_result.total_updates == worker_result.total_updates
        for attr in ("_states", "_actions", "_rewards", "_next_states", "_dones"):
            np.testing.assert_array_equal(
                getattr(benchmark_result.replay_buffer, attr),
                getattr(worker_result.replay_buffer, attr),
            )
        for name, value in worker_agent.actor.parameters().items():
            np.testing.assert_array_equal(value, fleet_agent.actor.parameters()[name])
        for name, value in worker_agent.critic.parameters().items():
            np.testing.assert_array_equal(value, fleet_agent.critic.parameters()[name])


class TestHeterogeneousTraining:
    def _run(self, pipeline_depth=0, qat=False, seed=3):
        numerics = (
            DynamicFixedPointNumerics(num_bits=16) if qat else make_numerics("float32")
        )
        agents = {
            "HalfCheetah": _agent("HalfCheetah", numerics, seed=1),
            "Hopper": _agent("Hopper", numerics, seed=2),
        }
        controller = (
            QATController(numerics, QATSchedule(num_bits=16, quantization_delay=120))
            if qat
            else None
        )
        config = _config(
            fleet="HalfCheetah:1,Hopper:2", seed=seed, pipeline_depth=pipeline_depth
        )
        result = train_fleet(agents, config, qat_controller=controller)
        return result, agents, numerics

    def test_per_benchmark_results_and_counts(self):
        result, _agents, _ = self._run()
        assert result.benchmarks == ["HalfCheetah", "Hopper"]
        assert result.fleet == [("halfcheetah", 1, 2), ("hopper", 2, 2)]
        assert result.num_workers == 3
        # 240 steps round up to whole rounds of 3 workers x 2 envs = 6 steps.
        assert result.total_timesteps == 240
        cheetah = result.per_benchmark["HalfCheetah"]
        hopper = result.per_benchmark["Hopper"]
        assert cheetah.total_timesteps == 80
        assert hopper.total_timesteps == 160
        assert cheetah.num_workers == 1 and hopper.num_workers == 2
        # One update per collected post-warmup step, split per benchmark.
        assert cheetah.total_updates + hopper.total_updates == result.total_updates
        assert result.total_updates == 240 - 60
        # Separate replay buffers with separate shapes.
        assert cheetah.replay_buffer is not hopper.replay_buffer
        assert cheetah.replay_buffer._states.shape[1] == HalfCheetahEnv.STATE_DIM
        assert hopper.replay_buffer._states.shape[1] == HopperEnv.STATE_DIM

    def test_runs_are_deterministic(self):
        first, _, _ = self._run()
        second, _, _ = self._run()
        for benchmark in ("HalfCheetah", "Hopper"):
            a = first.per_benchmark[benchmark]
            b = second.per_benchmark[benchmark]
            np.testing.assert_array_equal(a.curve.returns, b.curve.returns)
            assert a.episode_returns == b.episode_returns

    def test_shared_qat_switch_applies_fleet_wide(self):
        result, agents, numerics = self._run(qat=True)
        assert result.qat_event is not None
        assert result.qat_event.timestep == 120
        for benchmark_result in result.per_benchmark.values():
            assert benchmark_result.qat_event is result.qat_event
        # One shared numerics object: both agents see the switched precision.
        assert agents["HalfCheetah"].numerics is numerics
        assert agents["Hopper"].numerics is numerics

    def test_distinct_numerics_objects_rejected(self):
        agents = {
            "HalfCheetah": _agent("HalfCheetah", make_numerics("float32")),
            "Hopper": _agent("Hopper", make_numerics("float32")),
        }
        with pytest.raises(ValueError, match="share one numerics object"):
            train_fleet(agents, _config(fleet="HalfCheetah:1,Hopper:1"))

    def test_qat_controller_numerics_must_match_agents(self):
        shared = DynamicFixedPointNumerics(num_bits=16)
        other = DynamicFixedPointNumerics(num_bits=16)
        agents = {"Hopper": _agent("Hopper", shared)}
        controller = QATController(other, QATSchedule(num_bits=16, quantization_delay=10))
        with pytest.raises(ValueError, match="different numerics object"):
            train_fleet(agents, _config(fleet="Hopper:1"), qat_controller=controller)

    @pytest.mark.pipelined
    def test_pipelined_fleet_matches_sequential_work(self):
        sequential, _, _ = self._run(pipeline_depth=0)
        pipelined, _, _ = self._run(pipeline_depth=2)
        assert pipelined.total_timesteps == sequential.total_timesteps
        assert pipelined.total_updates == sequential.total_updates
        for benchmark in sequential.benchmarks:
            assert (
                pipelined.per_benchmark[benchmark].total_updates
                == sequential.per_benchmark[benchmark].total_updates
            )

    @pytest.mark.pipelined
    def test_depth_one_with_frozen_replicas_reproduces_depth_zero(self):
        """With no weight broadcasts in range, staleness is invisible."""
        frozen = dict(sync_interval=10_000)
        sequential, _, _ = self._run_with(
            _config(fleet="HalfCheetah:1,Hopper:1", pipeline_depth=0, **frozen)
        )
        pipelined, _, _ = self._run_with(
            _config(fleet="HalfCheetah:1,Hopper:1", pipeline_depth=1, **frozen)
        )
        for benchmark in sequential.benchmarks:
            a = sequential.per_benchmark[benchmark]
            b = pipelined.per_benchmark[benchmark]
            np.testing.assert_array_equal(a.curve.returns, b.curve.returns)
            assert a.episode_returns == b.episode_returns

    def _run_with(self, config):
        numerics = make_numerics("float32")
        agents = {
            "HalfCheetah": _agent("HalfCheetah", numerics, seed=1),
            "Hopper": _agent("Hopper", numerics, seed=2),
        }
        return train_fleet(agents, config), agents, numerics


class TestFleetPlatformPricing:
    NUM_ENVS = 8
    BATCH = 64

    @pytest.fixture
    def platform(self):
        return FixarPlatform(WorkloadSpec("HalfCheetah", 17, 6))

    @pytest.fixture
    def pool(self, platform):
        return AcceleratorPool(platform)

    def test_homogeneous_fleet_reduces_to_single_workload_methods(
        self, platform, pool
    ):
        fleet = [("HalfCheetah", 4)]
        assert pool.fleet_collection_round_seconds(
            fleet, self.NUM_ENVS
        ) == pytest.approx(platform.collection_round_seconds(self.NUM_ENVS, 4), rel=1e-12)
        assert pool.fleet_sequential_round_seconds(
            fleet, self.NUM_ENVS, self.BATCH
        ) == pytest.approx(
            platform.sequential_round_seconds(self.NUM_ENVS, 4, self.BATCH), rel=1e-12
        )
        assert pool.fleet_pipelined_round_seconds(
            fleet, self.NUM_ENVS, self.BATCH
        ) == pytest.approx(
            platform.pipelined_round_seconds(self.NUM_ENVS, 4, self.BATCH), rel=1e-12
        )
        assert pool.fleet_collection_steps_per_second(
            fleet, self.NUM_ENVS
        ) == pytest.approx(
            platform.collection_steps_per_second(self.NUM_ENVS, 4), rel=1e-12
        )

    def test_mixed_fleet_lies_within_homogeneous_envelope(self, pool):
        mixed = [("HalfCheetah", 2), ("Hopper", 2)]
        mixed_round = pool.fleet_collection_round_seconds(mixed, self.NUM_ENVS)
        homogeneous = [
            pool.fleet_collection_round_seconds([(b, 4)], self.NUM_ENVS)
            for b in ("HalfCheetah", "Hopper")
        ]
        assert min(homogeneous) <= mixed_round <= max(homogeneous)

    def test_infer_fleet_sums_per_benchmark_groups(self, platform, pool):
        mixed = [("HalfCheetah", 2), ("Hopper", 2)]
        report = pool.infer_fleet(mixed, self.NUM_ENVS)
        assert report.num_workers == 4
        assert report.num_states == 4 * self.NUM_ENVS
        parts = [
            platform.for_benchmark(b).infer_collection(self.NUM_ENVS, 2)
            for b in ("HalfCheetah", "Hopper")
        ]
        assert report.total_seconds == pytest.approx(
            sum(part.total_seconds for part in parts), rel=1e-12
        )
        assert report.pcie_bytes == sum(part.pcie_bytes for part in parts)
        assert report.energy_joules == pytest.approx(
            sum(part.energy_joules for part in parts), rel=1e-12
        )
        # Different layer dimensions really are priced differently.
        assert parts[0].total_seconds != parts[1].total_seconds

    def test_pipelined_fleet_never_loses_to_sequential(self, pool):
        mixed = [("HalfCheetah", 2), ("Hopper", 1), ("Swimmer", 1)]
        assert pool.fleet_pipelined_speedup(mixed, self.NUM_ENVS, self.BATCH) >= 1.0

    def test_with_workload_shares_hardware_models(self, platform):
        sibling = platform.for_benchmark("Hopper")
        assert sibling.host is platform.host
        assert sibling.pcie is platform.pcie
        assert sibling.accelerator_config is platform.accelerator_config
        assert sibling.workload.state_dim == HopperEnv.STATE_DIM
        assert sibling.workload.hidden_sizes == platform.workload.hidden_sizes

    def test_fleet_validation(self, pool):
        with pytest.raises(ValueError, match="at least one"):
            pool.infer_fleet([], self.NUM_ENVS)
        with pytest.raises(ValueError, match="positive"):
            pool.infer_fleet([("Hopper", 0)], self.NUM_ENVS)
        with pytest.raises(KeyError, match="unknown benchmark"):
            pool.infer_fleet([("Walker", 1)], self.NUM_ENVS)

    def test_float_round_weights_rejected(self, pool):
        """1.5 lock-steps must not silently truncate (round accounting!)."""
        mixed = [("HalfCheetah", 2), ("Hopper", 2)]
        for oracle in (
            pool.fleet_collection_round_seconds,
            pool.fleet_collection_steps_per_second,
        ):
            with pytest.raises(ValueError, match="must be integers"):
                oracle(mixed, self.NUM_ENVS, weights=[1.5, 1])
        with pytest.raises(ValueError, match="must be integers"):
            pool.infer_fleet(mixed, self.NUM_ENVS, weights=[1, 2.0001])
        # Integral values in float clothing are still rejected: the weights
        # come from the scheduler as ints, anything else is a caller bug.
        with pytest.raises(ValueError, match="must be integers"):
            pool.fleet_collection_round_seconds(
                mixed, self.NUM_ENVS, weights=[2.0, 1]
            )

    def test_infer_fleet_stamps_round_weights(self, pool):
        """The weighted schedule's inference payload: weight w multiplies a
        group's states, time, payload, and energy — and is recorded on the
        per-group report."""
        mixed = [("HalfCheetah", 2), ("Hopper", 2)]
        weighted = pool.infer_fleet(mixed, self.NUM_ENVS, weights=[2, 1])
        uniform = pool.infer_fleet(mixed, self.NUM_ENVS)
        assert [group.weight for group in weighted.groups] == [2, 1]
        assert [group.weight for group in uniform.groups] == [1, 1]
        cheetah_w, hopper_w = weighted.groups
        cheetah_u, hopper_u = uniform.groups
        assert cheetah_w.num_states == 2 * cheetah_u.num_states
        assert cheetah_w.total_seconds == 2 * cheetah_u.total_seconds
        assert cheetah_w.pcie_bytes == 2 * cheetah_u.pcie_bytes
        assert cheetah_w.energy_joules == 2 * cheetah_u.energy_joules
        assert hopper_w.num_states == hopper_u.num_states
        # Aggregates follow: one extra HalfCheetah lock-step per round.
        assert weighted.num_states == uniform.num_states + cheetah_u.num_states
        # Worker counts stay physical (weights repeat rounds, not hardware).
        assert weighted.num_workers == uniform.num_workers == 4


class TestFleetCli:
    def test_fleet_flag_round_trip(self, capsys):
        from repro.cli import main

        code = main(
            [
                "train",
                "--fleet",
                "Hopper:1,Swimmer:1",
                "--timesteps",
                "120",
                "--num-envs",
                "2",
                "--hidden",
                "16",
                "12",
                "--regime",
                "float32",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "hopper:1,swimmer:1" in out
        assert "Hopper reward curve" in out
        assert "Swimmer reward curve" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--fleet", "Hopper:1", "--cosim"],
            ["train", "--fleet", "Hopper:1", "--num-workers", "2"],
            ["train", "--fleet", "Walker:1"],
        ],
    )
    def test_fleet_flag_rejections(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
