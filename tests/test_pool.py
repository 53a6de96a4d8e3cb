"""Tests for multi-accelerator device pools (``repro.platform.pool``).

The load-bearing guarantees:

* **1-device bit-exactness** — a 1-device colocated pool is the extended
  oracle chain's anchor: its one-benchmark ``fleet_*`` prices, its
  homogeneous ``*_round_seconds`` and ``infer_batch`` report values, and a
  training run that uses the pool as its platform hook must be **exactly**
  equal (``==``, not approx) to the single-platform path;
* **Step-count conservation** — sharding one batch over the pool never
  creates or drops states, for any batch size and device count;
* **Determinism** — devices change only the modelled pricing; training
  numerics (curves, episode returns, buffers) are identical across device
  counts and placements;
* **Scaling** — the contract fleet ``HalfCheetah:2,Hopper:2`` must reach
  >= 1.8x modelled training steps/sec going from 1 to 2 accelerators;
* **Validation** — constructor, placement, and affinity errors fail loud.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.envs import benchmark_dimensions
from repro.nn import make_numerics
from repro.platform import (
    AcceleratorPool,
    FixarPlatform,
    PoolInferenceReport,
    ShardedInferenceReport,
    WorkloadSpec,
)
from repro.rl import DDPGAgent, DDPGConfig, TrainingConfig, train, train_fleet

NUM_ENVS = 8
BATCH = 64
MIXED = [("HalfCheetah", 2), ("Hopper", 2)]
SCALING_CONTRACT = 1.8


@pytest.fixture
def platform() -> FixarPlatform:
    return FixarPlatform(WorkloadSpec.from_benchmark("HalfCheetah"))


def _agent(benchmark: str, numerics=None, seed=42) -> DDPGAgent:
    dims = benchmark_dimensions(benchmark)
    return DDPGAgent(
        dims["state_dim"],
        dims["action_dim"],
        DDPGConfig(hidden_sizes=(24, 16)),
        numerics=numerics or make_numerics("float32"),
        rng=np.random.default_rng(seed),
    )


def _fleet_agents():
    numerics = make_numerics("float32")
    return {
        "HalfCheetah": _agent("HalfCheetah", numerics, seed=1),
        "Hopper": _agent("Hopper", numerics, seed=2),
    }


def _config(**overrides) -> TrainingConfig:
    base = TrainingConfig(
        total_timesteps=240,
        warmup_timesteps=60,
        batch_size=16,
        buffer_capacity=5_000,
        evaluation_interval=120,
        evaluation_episodes=2,
        exploration_noise=0.2,
        seed=3,
        num_envs=2,
    )
    return replace(base, **overrides)


class TestConstruction:
    def test_devices_share_the_template_hardware(self, platform):
        pool = AcceleratorPool(platform, 3)
        assert pool.num_devices == 3
        assert pool.device(0) is platform
        for index in (1, 2):
            sibling = pool.device(index)
            assert sibling is not platform
            assert sibling.accelerator_config is platform.accelerator_config
            assert sibling.host is platform.host
            assert sibling.pcie is platform.pcie
            # Identical hardware models => identical per-batch pricing.
            assert (
                sibling.infer_batch(BATCH).total_seconds
                == platform.infer_batch(BATCH).total_seconds
            )

    def test_colocated_topology(self, platform):
        pool = AcceleratorPool(platform, 3)
        assert pool.collection_devices == (0, 1, 2)
        assert pool.update_device is None

    def test_disaggregated_topology(self, platform):
        pool = AcceleratorPool(platform, 3, placement="disaggregated")
        assert pool.collection_devices == (0, 1)
        assert pool.update_device == 2

    def test_rejects_bad_device_counts(self, platform):
        with pytest.raises(ValueError, match="must be >= 1"):
            AcceleratorPool(platform, 0)
        with pytest.raises(ValueError, match="must be an integer"):
            AcceleratorPool(platform, 2.5)

    def test_rejects_unknown_placement(self, platform):
        with pytest.raises(ValueError, match="placement must be one of"):
            AcceleratorPool(platform, 2, placement="remote")

    def test_disaggregated_needs_two_devices(self, platform):
        with pytest.raises(ValueError, match="at least 2 devices"):
            AcceleratorPool(platform, 1, placement="disaggregated")

    def test_device_index_bounds(self, platform):
        pool = AcceleratorPool(platform, 2)
        with pytest.raises(ValueError, match="out of range"):
            pool.device(2)

    def test_bound_assignment_validated_at_construction(self, platform):
        with pytest.raises(ValueError, match="collection devices"):
            AcceleratorPool(platform, 2, assignment={"hopper": 5})
        with pytest.raises(ValueError, match="integer device indices"):
            AcceleratorPool(platform, 2, assignment={"hopper": 0.5})

    def test_with_assignment_shares_devices(self, platform):
        pool = AcceleratorPool(platform, 2)
        pinned = pool.with_assignment({"Hopper": 1})
        assert pinned.devices is pool.devices
        assert pinned.assignment == {"hopper": 1}
        assert pool.assignment is None


class TestSingleDeviceBitExactness:
    """The extended oracle chain: pool(1) == the single platform, exactly."""

    def test_infer_batch(self, platform):
        pool = AcceleratorPool(platform, 1)
        for batch in (1, 8, 64, 256):
            single = platform.infer_batch(batch)
            sharded = pool.infer_batch(batch)
            assert isinstance(sharded, ShardedInferenceReport)
            assert len(sharded.shards) == 1
            assert sharded.num_states == single.num_states
            assert sharded.fpga_seconds == single.fpga_seconds
            assert sharded.runtime_seconds == single.runtime_seconds
            assert sharded.total_seconds == single.total_seconds
            assert sharded.pcie_bytes == single.pcie_bytes
            assert sharded.energy_joules == single.energy_joules

    @pytest.mark.parametrize("num_envs", [1, 8, 16])
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    @pytest.mark.parametrize("half_precision", [False, True], ids=["32bit", "16bit"])
    @pytest.mark.parametrize("name", ["HalfCheetah", "Hopper", "Swimmer"])
    def test_one_group_fleet_matches_homogeneous_pricing(
        self, name, half_precision, workers, num_envs
    ):
        """A one-benchmark fleet ``[(b, N)]`` on a 1-device pool prices
        exactly like the single platform's homogeneous N-worker oracles."""
        platform = FixarPlatform(
            WorkloadSpec.from_benchmark(name), half_precision=half_precision
        )
        pool = AcceleratorPool(platform, 1)
        fleet = [(name, workers)]
        assert pool.fleet_collection_round_seconds(
            fleet, num_envs
        ) == platform.collection_round_seconds(num_envs, workers)
        assert pool.fleet_collection_steps_per_second(
            fleet, num_envs
        ) == platform.collection_steps_per_second(num_envs, workers)
        assert pool.fleet_sequential_round_seconds(
            fleet, num_envs, BATCH
        ) == platform.sequential_round_seconds(num_envs, workers, BATCH)
        assert pool.fleet_pipelined_round_seconds(
            fleet, num_envs, BATCH
        ) == platform.pipelined_round_seconds(num_envs, workers, BATCH)
        for pipelined in (False, True):
            assert pool.fleet_training_steps_per_second(
                fleet, num_envs, BATCH, pipelined=pipelined
            ) == platform.training_steps_per_second(
                num_envs, workers, BATCH, pipelined=pipelined
            )

    def test_homogeneous_training_path(self):
        """train() with a 1-device pool hook == train() with the platform."""
        from repro.envs import HopperEnv

        def run(platform_hook):
            env = HopperEnv(seed=5, max_episode_steps=40)
            agent = _agent("Hopper")
            result = train(
                env,
                agent,
                _config(),
                eval_env=HopperEnv(seed=9, max_episode_steps=40),
                platform=platform_hook,
            )
            return result, agent

        single_platform = FixarPlatform(WorkloadSpec.from_benchmark("Hopper"))
        pool = AcceleratorPool(
            FixarPlatform(WorkloadSpec.from_benchmark("Hopper")), 1
        )
        single, single_agent = run(single_platform)
        pooled, pooled_agent = run(pool)
        np.testing.assert_array_equal(single.curve.returns, pooled.curve.returns)
        assert single.episode_returns == pooled.episode_returns
        for name, value in single_agent.actor.parameters().items():
            np.testing.assert_array_equal(
                value, pooled_agent.actor.parameters()[name]
            )


class TestSharding:
    @pytest.mark.parametrize("devices", [1, 2, 3, 5])
    @pytest.mark.parametrize("batch", [1, 2, 7, 64, 255])
    def test_shard_widths_conserve_states(self, platform, devices, batch):
        pool = AcceleratorPool(platform, devices)
        shards = pool.shard_widths(batch)
        assert sum(width for _device, width in shards) == batch
        assert all(width > 0 for _device, width in shards)
        # Near-equal: widths differ by at most one state.
        widths = [width for _device, width in shards]
        assert max(widths) - min(widths) <= 1

    def test_sharded_report_conserves_states(self, platform):
        pool = AcceleratorPool(platform, 3)
        report = pool.infer_batch(64)
        assert report.num_states == 64
        assert len(report.shards) == 3

    def test_narrow_batch_skips_empty_shards(self, platform):
        pool = AcceleratorPool(platform, 4)
        report = pool.infer_batch(2)
        assert report.num_states == 2
        assert len(report.shards) == 2

    def test_disaggregated_shards_skip_the_update_device(self, platform):
        pool = AcceleratorPool(platform, 3, placement="disaggregated")
        shards = pool.shard_widths(8)
        assert [device for device, _width in shards] == [0, 1]

    def test_sharded_latency_is_the_slowest_shard(self, platform):
        pool = AcceleratorPool(platform, 2)
        sharded = pool.infer_batch(64)
        half = platform.infer_batch(32)
        assert sharded.total_seconds == half.total_seconds
        assert sharded.total_seconds < platform.infer_batch(64).total_seconds

    def test_rejects_non_positive_batches(self, platform):
        pool = AcceleratorPool(platform, 2)
        with pytest.raises(ValueError, match="must be positive"):
            pool.shard_widths(0)


class TestPoolPricing:
    def test_two_device_collection_beats_one(self, platform):
        one = AcceleratorPool(platform, 1)
        two = AcceleratorPool(platform, 2)
        assert two.fleet_collection_round_seconds(
            MIXED, NUM_ENVS
        ) <= one.fleet_collection_round_seconds(MIXED, NUM_ENVS)

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_contract_fleet_scales_1_8x_from_one_to_two_devices(
        self, platform, pipelined
    ):
        """The PR's modelled scaling contract on HalfCheetah:2,Hopper:2."""
        one = AcceleratorPool(platform, 1)
        two = AcceleratorPool(platform, 2)
        base = one.fleet_training_steps_per_second(
            MIXED, NUM_ENVS, BATCH, pipelined=pipelined
        )
        scaled = two.fleet_training_steps_per_second(
            MIXED, NUM_ENVS, BATCH, pipelined=pipelined
        )
        assert scaled / base >= SCALING_CONTRACT

    def test_affinity_changes_the_price(self, platform):
        pool = AcceleratorPool(platform, 2)
        spread = pool.fleet_collection_round_seconds(
            MIXED, NUM_ENVS, assignment={"halfcheetah": 0, "hopper": 1}
        )
        piled = pool.fleet_collection_round_seconds(
            MIXED, NUM_ENVS, assignment={"halfcheetah": 0, "hopper": 0}
        )
        assert spread <= piled

    def test_unknown_affinity_key_raises(self, platform):
        pool = AcceleratorPool(platform, 2)
        with pytest.raises(ValueError, match=r"match no fleet entry.*hoper"):
            pool.fleet_collection_round_seconds(
                MIXED, NUM_ENVS, assignment={"hoper": 1}
            )

    def test_disaggregated_pipelined_has_no_inference_contention(self, platform):
        """The dedicated update device serves no rollout inferences: the
        pipelined round is exactly max(collection, bare update-stream total)
        — every group's stream back to back, with no inference term."""
        pool = AcceleratorPool(platform, 3, placement="disaggregated")
        collection = pool.fleet_collection_round_seconds(MIXED, NUM_ENVS)
        streams = sum(
            platform.for_benchmark(benchmark).update_round_seconds(
                BATCH, count * NUM_ENVS, pipelined=True
            )
            for benchmark, count in MIXED
        )
        assert pool.fleet_pipelined_round_seconds(
            MIXED, NUM_ENVS, BATCH
        ) == max(collection, streams)
        # Still an improvement over serializing everything on one device.
        assert max(collection, streams) < AcceleratorPool(
            platform, 1
        ).fleet_pipelined_round_seconds(MIXED, NUM_ENVS, BATCH)

    def test_float_round_weights_rejected(self, platform):
        pool = AcceleratorPool(platform, 2)
        with pytest.raises(ValueError, match="must be integers"):
            pool.fleet_collection_round_seconds(MIXED, NUM_ENVS, weights=[1.5, 1])

    def test_infer_fleet_groups_by_device(self, platform):
        pool = AcceleratorPool(platform, 2)
        report = pool.infer_fleet(MIXED, NUM_ENVS)
        assert [device for device, _report in report.per_device] == [0, 1]
        benchmarks = {
            device: [group.benchmark for group in groups]
            for device, groups in report.per_device
        }
        assert benchmarks == {0: ["HalfCheetah"], 1: ["Hopper"]}
        single = AcceleratorPool(platform, 1).infer_fleet(MIXED, NUM_ENVS)
        assert report.num_states == single.num_states
        assert report.pcie_bytes == single.pcie_bytes
        # Devices run in parallel: the round is the slowest device's share.
        assert report.total_seconds == max(
            group.total_seconds for group in single.groups
        )


class TestPoolTraining:
    """Devices change modelled pricing only — training numerics are pinned."""

    FLEET = "HalfCheetah:2,Hopper:1"

    def _run(self, platform_hook=None, **overrides):
        config = _config(fleet=self.FLEET, schedule="weighted", **overrides)
        return train_fleet(_fleet_agents(), config, platform=platform_hook)

    def test_training_identical_across_devices_and_placements(self, platform):
        single = self._run(AcceleratorPool(platform))
        two = self._run(AcceleratorPool(platform, 2), devices=2)
        disaggregated = self._run(
            AcceleratorPool(platform, 3, placement="disaggregated"),
            devices=3,
            placement="disaggregated",
        )
        for benchmark in single.benchmarks:
            a = single.per_benchmark[benchmark]
            b = two.per_benchmark[benchmark]
            c = disaggregated.per_benchmark[benchmark]
            np.testing.assert_array_equal(a.curve.returns, b.curve.returns)
            np.testing.assert_array_equal(a.curve.returns, c.curve.returns)
            assert a.episode_returns == b.episode_returns == c.episode_returns

    def test_affinity_recorded_on_the_result(self, platform):
        result = self._run(AcceleratorPool(platform, 2), devices=2)
        assert result.devices == 2
        assert result.placement == "colocated"
        assert result.assignment == {"halfcheetah": 0, "hopper": 1}
        summary = result.summary()
        assert summary["devices"] == 2
        assert summary["assignment"] == {"halfcheetah": 0, "hopper": 1}

    def test_explicit_affinity_assignment(self, platform):
        result = self._run(
            AcceleratorPool(platform, 2),
            devices=2,
            assignment={"Hopper": 0},
        )
        assert result.assignment["hopper"] == 0

    def test_balanced_assignment(self, platform):
        result = self._run(
            AcceleratorPool(platform, 2), devices=2, assignment="balanced"
        )
        assert sorted(result.assignment.values()) == [0, 1]

    def test_bare_platform_rejected(self, platform):
        with pytest.raises(ValueError, match=r"AcceleratorPool\(platform\)"):
            self._run(platform)

    def test_config_pool_mismatches_rejected(self, platform):
        with pytest.raises(ValueError, match="multi-accelerator pool"):
            self._run(platform, devices=2)
        with pytest.raises(ValueError, match="does not match"):
            self._run(AcceleratorPool(platform, 3), devices=2)
        with pytest.raises(ValueError, match="placement"):
            self._run(
                AcceleratorPool(platform, 2, placement="disaggregated"),
                devices=2,
            )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="devices must be >= 1"):
            _config(devices=0)
        with pytest.raises(ValueError, match="placement must be one of"):
            _config(placement="remote")
        with pytest.raises(ValueError, match="devices >= 2"):
            _config(placement="disaggregated", devices=1)


class TestHomogeneousOracleSurface:
    """The pool answers FixarPlatform's homogeneous round oracles too.

    1-device colocated pools reproduce every single-platform price exactly,
    and multi-device pools deal homogeneous workers round-robin over the
    collection devices.
    """

    def test_one_device_prices_match_the_platform_exactly(self, platform):
        pool = AcceleratorPool(platform, 1)
        for workers in (1, 2, 4):
            assert pool.collection_round_seconds(
                NUM_ENVS, workers
            ) == platform.collection_round_seconds(NUM_ENVS, workers)
            assert pool.sequential_round_seconds(
                NUM_ENVS, workers, BATCH
            ) == platform.sequential_round_seconds(NUM_ENVS, workers, BATCH)
            assert pool.pipelined_round_seconds(
                NUM_ENVS, workers, BATCH
            ) == platform.pipelined_round_seconds(NUM_ENVS, workers, BATCH)
        for pipelined in (False, True):
            assert pool.update_round_seconds(
                BATCH, 32, pipelined=pipelined
            ) == platform.update_round_seconds(BATCH, 32, pipelined=pipelined)

    def test_one_device_infer_collection_totals_match(self, platform):
        pool = AcceleratorPool(platform, 1)
        single = platform.infer_collection(NUM_ENVS, 4)
        pooled = pool.infer_collection(NUM_ENVS, 4)
        assert isinstance(pooled, PoolInferenceReport)
        assert len(pooled.per_device) == 1
        assert pooled.num_workers == single.num_workers
        assert pooled.num_states == single.num_states
        assert pooled.total_seconds == single.total_seconds
        assert pooled.pcie_bytes == single.pcie_bytes
        assert pooled.energy_joules == single.energy_joules

    def test_worker_deal_is_round_robin_and_conserving(self, platform):
        pool = AcceleratorPool(platform, 2)
        assert pool._deal_workers(5) == [(0, 3), (1, 2)]
        assert pool._deal_workers(1) == [(0, 1)]
        report = pool.infer_collection(NUM_ENVS, 5)
        assert report.num_workers == 5
        assert report.num_states == 5 * NUM_ENVS
        with pytest.raises(ValueError, match="num_workers"):
            pool.collection_round_seconds(NUM_ENVS, 0)

    def test_two_devices_speed_up_a_saturated_collection_round(self, platform):
        # 8 workers saturate one accelerator (round = 8 serial inferences
        # beats the host + inference chain); dealt 4 + 4 over two devices
        # the serial bound halves, so the pool round is strictly cheaper.
        single = platform.collection_round_seconds(NUM_ENVS, 8)
        pooled = AcceleratorPool(platform, 2).collection_round_seconds(NUM_ENVS, 8)
        assert pooled < single
        assert pooled >= single / 2

    def test_disaggregated_pipelined_round_has_no_contention(self, platform):
        # The dedicated update device serves no rollout inferences, so the
        # pipelined round drops the contention term the colocated pool pays
        # on device 0 — disaggregated can never price above colocated at
        # equal device count.
        colocated = AcceleratorPool(platform, 2, placement="colocated")
        disaggregated = AcceleratorPool(platform, 2, placement="disaggregated")
        assert disaggregated.pipelined_round_seconds(
            NUM_ENVS, 4, BATCH
        ) <= colocated.pipelined_round_seconds(NUM_ENVS, 4, BATCH)

    def test_update_round_runs_on_the_update_device(self, platform):
        disaggregated = AcceleratorPool(platform, 3, placement="disaggregated")
        # Identical sibling devices: the price equals the template's, but
        # the dispatch must target the dedicated device (index 2).
        assert disaggregated.update_device == 2
        assert disaggregated.update_round_seconds(
            BATCH, 16
        ) == platform.update_round_seconds(BATCH, 16)

    def test_sequential_round_is_collection_plus_update(self, platform):
        pool = AcceleratorPool(platform, 2)
        assert pool.sequential_round_seconds(
            NUM_ENVS, 4, BATCH
        ) == pool.collection_round_seconds(NUM_ENVS, 4) + pool.update_round_seconds(
            BATCH, 4 * NUM_ENVS
        )
