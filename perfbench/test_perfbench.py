"""Checks of the benchmark's own arithmetic and correctness checks (fast settings)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.spans import Tracer, covered_length, self_times  # noqa: E402
from perfbench.stats import Checks, fail_fraction, nearest_rank, tail_percentile  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------- #
# The percentile rule
# ---------------------------------------------------------------------- #
def test_p99_needs_ten_samples_beyond_it():
    samples = [float(value) for value in range(1, 1001)]
    assert tail_percentile(samples) == (99.0, 990.0, 1000)
    # One sample fewer leaves only nine beyond p99, so p95 is the tail.
    assert tail_percentile(samples[:999]) == (95.0, 950.0, 999)


def test_p999_is_reported_once_the_sample_supports_it():
    samples = [float(value) for value in range(10_000)]
    percentile, _value, count = tail_percentile(samples)
    assert (percentile, count) == (99.9, 10_000)


def test_tail_falls_back_to_the_median_on_a_tiny_sample():
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0, 3)


def test_tail_respects_the_offered_percentiles():
    samples = [float(value) for value in range(10_000)]
    assert tail_percentile(samples, (99.0, 50.0))[0] == 99.0
    with pytest.raises(ValueError):
        tail_percentile([])


def test_nearest_rank_is_one_based():
    assert nearest_rank([5.0, 6.0, 7.0, 8.0], 50.0) == (2, 6.0)
    assert nearest_rank([5.0], 99.0) == (1, 5.0)


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #
def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered_length([], 0, 10) == 0
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_is_duration_minus_child_coverage():
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    selfs = self_times(starts, ends, parents)
    # Root: children cover [1, 5] and [8, 10] of [0, 10].
    assert selfs[0] == pytest.approx(4.0)
    # Span 1 has one grandchild of the root inside it.
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2:] == pytest.approx([3.0, 4.0, 1.0])


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_tracer_records_nested_spans_and_restores():
    original_outer = _Layer.outer
    tracer = Tracer(clock=_Clock())
    tracer.patch(_Layer, "outer", "outer")
    tracer.patch(_Layer, "inner", lambda args: "inner" if tracer.top_name() == "outer" else None)
    assert _Layer().outer() == 2
    assert _Layer().inner() == 1  # no open outer span: not recorded
    tracer.enabled = False
    _Layer().outer()
    tracer.restore()
    assert _Layer.outer is original_outer and "inner" in _Layer.__dict__
    summary = tracer.by_name()
    # Clock ticks: outer opens at 1, inner 2..3, outer closes at 4.
    assert summary["outer"]["calls"] == 1 and summary["outer"]["busy_s"] == 3.0
    assert summary["outer"]["self_s"] == 2.0
    assert summary["inner"]["busy_s"] == 1.0 and list(tracer.parents) == [-1, 0]


# ---------------------------------------------------------------------- #
# Failure counting
# ---------------------------------------------------------------------- #
def test_fail_fraction_counts_failed_over_attempted():
    assert fail_fraction(0, 10) == 0.0
    assert fail_fraction(3, 12) == 0.25
    with pytest.raises(ValueError):
        fail_fraction(0, 0)
    with pytest.raises(ValueError):
        fail_fraction(11, 10)


def test_checks_weigh_batches_and_name_failures():
    checks = Checks()
    checks.record([])
    checks.record(["actions equal"], weight=2048, failed_weight=3)
    checks.record(["buffer holds every step"])
    assert (checks.attempted, checks.failed) == (2050, 4)
    assert checks.fail_fraction == 4 / 2050
    assert checks.failures == {"actions equal": 1, "buffer holds every step": 1}
    assert not checks.correct
    assert Checks(attempted=1).correct


# ---------------------------------------------------------------------- #
# The workloads' correctness checks catch broken outputs
# ---------------------------------------------------------------------- #
def test_serve_check_flags_a_changed_action(tmp_path):
    from perfbench.workloads import Serve

    class SmallServe(Serve):
        NUM_REQUESTS = 64

    workload = SmallServe(seed=1, out_dir=tmp_path)
    workload.setup()
    result = workload.run(workload.prepare())
    assert workload.check(None, result) == ([], 64, 0)
    result.actions[5, 0] = np.nextafter(result.actions[5, 0], 2.0)
    failed, weight, failed_weight = workload.check(None, result)
    assert failed == ["actions equal a direct act_batch bit for bit"]
    assert (weight, failed_weight) == (64, 1)
    assert not list(tmp_path.iterdir())  # the checkpoint is removed


def test_collect_check_flags_an_out_of_range_action(tmp_path):
    from perfbench.workloads import Collect

    class SmallCollect(Collect):
        WARMUP_STEPS = 32
        OP_STEPS = 256

    workload = SmallCollect(seed=1, out_dir=tmp_path)
    workload.setup()
    before = workload.prepare()
    stats = workload.run(before)
    assert workload.check(before, stats)[0] == []
    workload.buffer._actions[7, 2] = 1.5
    assert workload.check(before, stats)[0] == ["actions lie in [-1, 1]"]


# ---------------------------------------------------------------------- #
# The command prints exactly the metrics BENCHMARK.json names
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_declared_metrics(trace, section):
    command = [sys.executable, str(HERE / "run.py"), "--workload", "collect", "--seed", "3",
               "--seconds", "0.3", "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared


def test_per_layer_declaration_matches_the_hooks():
    from perfbench.hooks import PER_LAYER

    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == PER_LAYER
