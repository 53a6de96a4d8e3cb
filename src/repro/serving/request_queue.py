"""The request queue feeding the policy-serving front end.

Serving mirrors the collection subsystem's concurrency shape: producers
(the load front end) enqueue inference requests while the dynamic batcher
drains them flush by flush, exactly like collectors ``add_batch``-ing
into the :class:`~repro.rl.replay_buffer.ReplayBuffer` while the learner
samples.  The queue therefore follows the same lock discipline — every
state mutation happens inside ``with self._lock`` — and the
``lock-discipline`` lint rule statically covers :class:`RequestQueue`
alongside ``ReplayBuffer``.

Arrival time is *modelled* seconds from the load generator's seeded
stream, never a wall clock: the whole serving path sits inside the
``deterministic-oracles`` lint scope.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional

import numpy as np

__all__ = ["InferenceRequest", "RequestQueue"]


@dataclass(frozen=True)
class InferenceRequest:
    """One state vector awaiting an action, stamped with its modelled arrival."""

    request_id: int
    state: np.ndarray
    arrival_seconds: float


class RequestQueue:
    """Thread-safe FIFO of :class:`InferenceRequest`, the batcher's source.

    The conservation counters (``enqueued_total`` / ``popped_total``) let
    property tests pin that every request enqueued is popped exactly once
    — the serving-side equivalent of the replay buffer's torn-transition
    guarantees.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._requests: Deque[InferenceRequest] = deque()
        self._enqueued = 0
        self._popped = 0

    def enqueue(self, request: InferenceRequest) -> None:
        """Append one request to the tail."""
        with self._lock:
            self._requests.append(request)
            self._enqueued += 1

    def enqueue_many(self, requests: Iterable[InferenceRequest]) -> int:
        """Append requests in iteration order; returns how many joined."""
        with self._lock:
            count = 0
            for request in requests:
                self._requests.append(request)
                count += 1
            self._enqueued += count
            return count

    def peek(self) -> Optional[InferenceRequest]:
        """The head request without removing it (``None`` when empty)."""
        with self._lock:
            return self._requests[0] if self._requests else None

    def pop_batch(self, max_size: int) -> List[InferenceRequest]:
        """Remove and return up to ``max_size`` requests, FIFO order.

        One atomic critical section: a concurrent enqueue lands either
        entirely before or entirely after the pop, never interleaved —
        the race the threaded stress test pins.
        """
        if max_size <= 0:
            raise ValueError(f"max_size must be positive, got {max_size}")
        with self._lock:
            batch: List[InferenceRequest] = []
            while self._requests and len(batch) < max_size:
                batch.append(self._requests.popleft())
            self._popped += len(batch)
            return batch

    def __len__(self) -> int:
        with self._lock:
            return len(self._requests)

    @property
    def enqueued_total(self) -> int:
        """Requests ever enqueued (conservation counter)."""
        with self._lock:
            return self._enqueued

    @property
    def popped_total(self) -> int:
        """Requests ever popped (conservation counter)."""
        with self._lock:
            return self._popped
