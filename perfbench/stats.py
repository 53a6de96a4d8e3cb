"""The benchmark's arithmetic: percentiles, spreads and failure counting."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "TAIL_PERCENTILES",
    "MIN_BEYOND",
    "nearest_rank",
    "tail_percentile",
    "quartile_spread",
    "fail_fraction",
    "Checks",
]

#: Percentiles tried for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> Tuple[int, float]:
    """1-based nearest rank of ``percentile`` and the value at that rank."""
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    rank = max(1, math.ceil(round(percentile * len(sorted_values) / 100.0, 9)))
    return rank, sorted_values[rank - 1]


def tail_percentile(
    samples: Sequence[float], percentiles: Sequence[float] = TAIL_PERCENTILES
) -> Tuple[float, float, int]:
    """The highest of ``percentiles`` with at least ``MIN_BEYOND`` samples beyond it.

    Returns ``(percentile, value, sample_count)``.  When no candidate
    qualifies, the median is all the sample supports and is returned as
    percentile 50.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(samples)
    for percentile in sorted(percentiles, reverse=True):
        rank, value = nearest_rank(ordered, percentile)
        if len(ordered) - rank >= MIN_BEYOND:
            return percentile, value, len(ordered)
    return 50.0, nearest_rank(ordered, 50.0)[1], len(ordered)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def fail_fraction(failed: int, attempted: int) -> float:
    """Failed operations over operations attempted."""
    if attempted < 1:
        raise ValueError(f"attempted must be at least 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must lie in [0, {attempted}], got {failed}")
    return failed / attempted


@dataclass
class Checks:
    """Correctness bookkeeping of a run.

    Each operation is recorded once with the names of the checks it failed
    (an empty list for a pass); ``attempted`` counts operations, ``failed``
    counts operations with at least one failed check.  ``weight`` lets one
    recorded batch stand for several operations (the requests of a drain).
    """

    attempted: int = 0
    failed: int = 0
    failures: Dict[str, int] = field(default_factory=dict)

    def record(
        self, failed_checks: List[str], weight: int = 1, failed_weight: Optional[int] = None
    ) -> None:
        """Record ``weight`` operations; ``failed_weight`` of them failed.

        ``failed_weight`` defaults to all ``weight`` operations when any
        check failed and to none otherwise.
        """
        if failed_weight is None:
            failed_weight = weight if failed_checks else 0
        self.attempted += weight
        self.failed += failed_weight
        for name in failed_checks:
            self.failures[name] = self.failures.get(name, 0) + 1

    @property
    def fail_fraction(self) -> float:
        return fail_fraction(self.failed, self.attempted)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.failures
