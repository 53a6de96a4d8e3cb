"""In-memory span tracing wrapped around a program's public functions.

A :class:`Tracer` replaces attributes of classes or modules with wrappers
that record one span per call: a name, a start and end time, the span that
was open when the call began (its parent) and an integer tag chosen by the
caller (the benchmark tags learner spans with the activation bit width).
Spans live in flat arrays so that a run of several hundred thousand calls
stays a few megabytes, and :meth:`Tracer.restore` puts every original
attribute back.

Self time is derived after the run: a span's duration minus the part of
its interval that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "self_times", "covered_length"]


def covered_length(intervals: Sequence[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1`` for a
    root.  Children that overlap one another are counted once, and the part
    of a child that lies outside its parent is ignored.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        result[parent] -= covered_length(
            [(starts[k], ends[k]) for k in kids], starts[parent], ends[parent]
        )
    return result


class Tracer:
    """Records spans around patched callables; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.tags = array("i")
        self.counters: Counter = Counter()
        #: Recorded on every span opened from now on.
        self.tag = 0
        #: While false, patched callables run without recording anything.
        self.enabled = True
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def open(self, name: str) -> int:
        index = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tags.append(self.tag)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def top_name(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.names[self.name_ids[self._stack[-1]]] if self._stack else None

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch(self, owner, attr: str, name) -> None:
        """Wrap ``owner.attr`` so each call records a span.

        ``name`` is a span name, or a callable taking the call's positional
        arguments and returning the name — or ``None`` to skip the span.
        """
        original = getattr(owner, attr)
        namer = name if callable(name) else (lambda _args, _name=name: _name)
        tracer = self

        def traced(*args, **kwargs):
            span_name = namer(args) if tracer.enabled else None
            if span_name is None:
                return original(*args, **kwargs)
            index = tracer.open(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def by_name(self) -> Dict[str, dict]:
        """Per span name: calls, busy and self seconds, durations in order."""
        selfs = self_times(self.starts, self.ends, self.parents)
        summary: Dict[str, dict] = {}
        for index, name_id in enumerate(self.name_ids):
            entry = summary.get(self.names[name_id])
            if entry is None:
                entry = summary[self.names[name_id]] = {
                    "calls": 0,
                    "busy_s": 0.0,
                    "self_s": 0.0,
                    "durations": [],
                }
            duration = self.ends[index] - self.starts[index]
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += selfs[index]
            entry["durations"].append(duration)
        return summary

    def by_tag(self, name: str) -> Dict[int, Tuple[int, float]]:
        """Calls and busy seconds of one span name, split by the spans' tag."""
        name_id = self._name_ids.get(name)
        totals: Dict[int, Tuple[int, float]] = {}
        for index, span_name in enumerate(self.name_ids):
            if span_name == name_id:
                calls, busy = totals.get(self.tags[index], (0, 0.0))
                totals[self.tags[index]] = (calls + 1, busy + self.ends[index] - self.starts[index])
        return totals


_MISSING = object()
