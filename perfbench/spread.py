#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload qat-train --seeds 1 2 3 4 5 --seconds 30

For every metric of the last output line: the median over the seeds and
the distance between the first and third quartile as a share of that
median (``statistics.quantiles(values, n=4)``), the figure the
benchmark's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
sys.path.insert(0, str(RUN.parent.parent))

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    values = {}
    for seed in args.seeds:
        command = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                   "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
        if completed.returncode != 0:
            print(completed.stdout + completed.stderr, file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        line = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) > 1:
        for name, series in values.items():
            median = statistics.median(series)
            spread = quartile_spread(series) if median else float("nan")
            print(f"{name:24s} median {median:14.6g}  quartile spread {spread:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
