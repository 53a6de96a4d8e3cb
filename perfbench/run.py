#!/usr/bin/env python3
"""The repository benchmark: measured train / collect / serve throughput.

Run from the repository root::

    python3 perfbench/run.py --workload qat-train --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``work_per_s`` (environment steps per wall second of a whole ``train()``
call on ``qat-train``, of ``RolloutEngine.collect`` on ``collect``; requests
per wall second of draining the serving trace on ``serve``), ``setup_s``
(median of several set-ups, each ending with one warm-up operation) and
``peak_rss_mb``.  ``--trace 1`` runs a fixed amount of work with every layer
boundary wrapped (``hooks.py``) and prints the per-layer metrics, the
tracing overhead and, on ``qat-train``, the measured-vs-modelled learner
table.  Every operation's outputs are checked; a failed check makes the
command exit 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the workload-specific figures.

The run pins two process settings that otherwise make timings bimodal on a
shared host: BLAS uses one thread, and glibc's adaptive ``mmap`` threshold
is fixed high enough that the learner's 1 MB temporaries are reused from
the heap rather than mapped and faulted in on every call.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

BLAS_THREADS = 1
SETUP_REPEATS = 5
#: glibc ``mallopt`` parameters and the values the run pins them to.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


def _pin_process() -> dict:
    """Fix BLAS threads and the allocator; must run before numpy is imported."""
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)
    try:
        libc = ctypes.CDLL("libc.so.6")
        pinned = (
            libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
            and libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1
        )
    except (OSError, AttributeError):
        pinned = False
    return {
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "mmap_threshold_bytes": MMAP_THRESHOLD_BYTES if pinned else None,
    }


def _git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _positive_number(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _parse(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=_positive_number)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _measure(workload, checks, *, seconds=None, max_ops=None, tracer=None):
    """Repeat prepare → run (timed) → check; returns per-op rates and durations.

    Runs ``max_ops`` operations, or as many as fit in ``seconds`` (an
    operation starts only if the median operation would still end inside
    the window).  Only ``run`` is traced.
    """
    clock = time.perf_counter
    rates, durations = [], []
    start = clock()
    while True:
        prepared = workload.prepare()
        if tracer is not None:
            tracer.enabled = True
        began = clock()
        result = workload.run(prepared)
        elapsed = clock() - began
        if tracer is not None:
            tracer.enabled = False
        checks.record(*workload.check(prepared, result))
        durations.append(elapsed)
        rates.append(workload.work(result) / elapsed)
        # Released before the next prepare, so peak memory does not depend
        # on how many operations fit in the window.
        del prepared, result
        if max_ops is not None:
            if len(durations) >= max_ops:
                break
        elif clock() - start + statistics.median(durations) > seconds:
            break
    return rates, durations


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0], values[0]]
    return statistics.quantiles(values, n=4)


def _end_to_end(workload, checks, seconds, meta):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - began)
    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rates, _durations = _measure(workload, checks, seconds=seconds)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0
    work_per_s = statistics.median(rates)
    named = {workload.work_name: (work_per_s, "1/s"), **workload.named_values()}
    meta.update(
        operations=len(rates),
        work_per_s_quartiles=_quartiles(rates),
        setup_seconds=setup_times,
        setup_first_s=setup_times[0],
        minor_page_faults_per_op=(usage.ru_minflt - faults_before) / len(rates),
        workload_values={name: {"value": v, "unit": u} for name, (v, u) in named.items()},
    )
    print(f"  {'operations':32s} {len(rates):>14d}")
    for name, (value, unit) in named.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    print(f"  {'setup_s':32s} {statistics.median(setup_times):14.4f} s "
          f"(median of {SETUP_REPEATS}; first, cold: {setup_times[0]:.4f} s)")
    print(f"  {'peak_rss_mb':32s} {peak_rss_mb:14.1f} MB")
    return {
        "work_per_s": {"value": work_per_s, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def _traced(workload, checks, seconds, meta):
    import numpy as np

    from perfbench.hooks import PER_LAYER, install, layer_metrics
    from perfbench.spans import Tracer

    began = time.perf_counter()
    workload.setup()
    meta["setup_seconds"] = [time.perf_counter() - began]
    # A fixed amount of work, so counts repeat exactly from run to run.
    num_ops = max(2, round(seconds / workload.trace_op_seconds))
    tracer = Tracer()
    install(tracer)
    tracer.enabled = False
    try:
        traced_rates, traced_durations = _measure(workload, checks, max_ops=num_ops, tracer=tracer)
    finally:
        tracer.restore()
    layer_values = workload.layer_values()
    plain_rates, _ = _measure(workload, checks, max_ops=max(1, num_ops // 4))
    wall = sum(traced_durations)
    values, tails = layer_metrics(tracer.by_name(), tracer.counters, wall, layer_values)
    units = {name: unit for name, unit, _better in PER_LAYER}
    overhead = statistics.median(traced_rates) - statistics.median(plain_rates)
    lock_steps = values["rl.rollout.step.calls"]
    if lock_steps:
        meta["platform_infer_batch_calls_per_lock_step"] = values["platform.infer_batch.calls"] / lock_steps
    meta.update(
        operations=len(traced_rates),
        tails={name: {"percentile": p, "samples": n} for name, (p, n) in tails.items()},
        tracing_overhead={
            "traced_work_per_s": statistics.median(traced_rates),
            "untraced_work_per_s": statistics.median(plain_rates),
            "traced_minus_untraced_per_s": overhead,
            "share": overhead / statistics.median(plain_rates),
        },
    )
    print(f"  traced {len(traced_rates)} operations in {wall:.2f} s; tracing changes "
          f"{workload.work_name} by {100 * overhead / statistics.median(plain_rates):+.1f}%")
    print(f"  {'layer metric':44s} {'value':>14s}  unit   share of traced wall")
    for name, unit, _better in PER_LAYER:
        share = f"{100 * values[name] / wall:6.1f}%" if unit == "s" and name != "trace.wall_s" else ""
        print(f"  {name:44s} {values[name]:14.4f}  {unit:6s} {share}")
    if hasattr(workload, "learner_table"):
        rows = workload.learner_table(tracer)
        meta["learner_table"] = rows
        print("  learner phases: measured ms per update | modelled FIXAR us per update "
              "(batch 64; 32-bit, then 16-bit activations)")
        for row in rows:
            cells = [row["measured_32_ms"], row["measured_16_ms"], row["modelled_32_us"], row["modelled_16_us"]]
            text = " ".join("         -" if cell is None else f"{cell:10.3f}" for cell in cells)
            print(f"    {row['phase']:24s} {text}")
    np.savez(
        OUT_DIR / f"{workload.name}.spans.npz",
        names=np.array(tracer.names),
        name_ids=np.asarray(tracer.name_ids),
        starts=np.asarray(tracer.starts),
        ends=np.asarray(tracer.ends),
        parents=np.asarray(tracer.parents),
        tags=np.asarray(tracer.tags),
    )
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    pinned = _pin_process()
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    import numpy as np

    from perfbench.stats import Checks
    from perfbench.workloads import WORKLOADS

    args = _parse(argv, sorted(WORKLOADS))
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    checks = Checks()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        **pinned,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        metrics = _traced(workload, checks, args.seconds, meta)
    else:
        metrics = _end_to_end(workload, checks, args.seconds, meta)
    meta["fail_fraction"] = checks.fail_fraction
    meta["failed_checks"] = checks.failures
    print(f"  {'fail_fraction':32s} {checks.fail_fraction:14.4f} "
          f"({checks.failed} of {checks.attempted} operations failed)")
    for name, count in checks.failures.items():
        print(f"  FAILED: {name} ({count} times)")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
