"""Experience replay buffer.

The host CPU stores every transition (state, action, reward, next state,
done) and samples a random batch of ``B`` transitions to send to the FPGA at
each timestep.  This module is that storage: a flat, pre-allocated circular
buffer with uniform sampling.

The buffer is the single shared sink of the multi-worker collection
subsystem: an :class:`~repro.rl.workers.AsyncCollector` drains worker
transition batches into it via :meth:`ReplayBuffer.add_batch` and the
learner calls :meth:`ReplayBuffer.sample`.  Every mutating or reading method
holds an internal lock, so a caller that runs producer and consumer on
separate threads still observes whole transitions, never half-written rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

__all__ = ["TransitionBatch", "ReplayBuffer"]


@dataclass(frozen=True)
class TransitionBatch:
    """A batch of transitions, one row per transition."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def nbytes(self) -> int:
        """Raw payload size of the batch (what crosses PCIe), in bytes."""
        return int(
            self.states.nbytes
            + self.actions.nbytes
            + self.rewards.nbytes
            + self.next_states.nbytes
            + self.dones.nbytes
        )


class ReplayBuffer:
    """A fixed-capacity circular replay buffer with uniform sampling."""

    def __init__(
        self,
        capacity: int,
        state_dim: int,
        action_dim: int,
        seed: Optional[int] = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if state_dim <= 0 or action_dim <= 0:
            raise ValueError("state_dim and action_dim must be positive")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._states = np.zeros((capacity, state_dim), dtype=np.float64)
        self._actions = np.zeros((capacity, action_dim), dtype=np.float64)
        self._rewards = np.zeros((capacity, 1), dtype=np.float64)
        self._next_states = np.zeros((capacity, state_dim), dtype=np.float64)
        self._dones = np.zeros((capacity, 1), dtype=np.float64)
        self._rng = np.random.default_rng(seed)
        self._next_index = 0
        self._size = 0
        self._lock = threading.RLock()
        #: Optional :class:`~repro.rl.profiling.StageTimers` crediting the
        #: ``buffer-write`` stage; attached by ``RolloutEngine.set_profiler``.
        self.profiler = None

    def __len__(self) -> int:
        with self._lock:
            return self._size

    @property
    def full(self) -> bool:
        """Whether the buffer has wrapped around at least once."""
        with self._lock:
            return self._size == self.capacity

    def add(
        self,
        state: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_state: np.ndarray,
        done: bool,
    ) -> None:
        """Append one transition, overwriting the oldest when full."""
        with self._lock:
            index = self._next_index
            self._states[index] = np.asarray(state, dtype=np.float64).ravel()
            self._actions[index] = np.asarray(action, dtype=np.float64).ravel()
            self._rewards[index, 0] = float(reward)
            self._next_states[index] = np.asarray(next_state, dtype=np.float64).ravel()
            self._dones[index, 0] = 1.0 if done else 0.0
            self._next_index = (index + 1) % self.capacity
            self._size = min(self._size + 1, self.capacity)

    def add_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Append N transitions at once with a vectorized circular write.

        Equivalent to N sequential :meth:`add` calls (including overwrite
        order when wrapping around the end of the buffer), but performed with
        one fancy-indexed write per array.  Inputs are validated the same way
        ``add`` coerces them: everything becomes ``float64``, states and
        actions must be ``(n, state_dim)`` / ``(n, action_dim)``, rewards and
        dones must flatten to ``n`` scalars.
        """
        states = np.asarray(states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        next_states = np.asarray(next_states, dtype=np.float64)
        rewards = np.asarray(rewards, dtype=np.float64).reshape(-1)
        dones = np.asarray(dones, dtype=np.float64).reshape(-1)
        if states.ndim != 2 or states.shape[1] != self.state_dim:
            raise ValueError(
                f"states must have shape (n, {self.state_dim}), got {states.shape}"
            )
        n = states.shape[0]
        if actions.shape != (n, self.action_dim):
            raise ValueError(
                f"actions must have shape ({n}, {self.action_dim}), got {actions.shape}"
            )
        if next_states.shape != (n, self.state_dim):
            raise ValueError(
                f"next_states must have shape ({n}, {self.state_dim}), "
                f"got {next_states.shape}"
            )
        if rewards.shape != (n,) or dones.shape != (n,):
            raise ValueError(
                f"rewards and dones must each hold {n} scalars, "
                f"got {rewards.shape} and {dones.shape}"
            )
        if n == 0:
            return
        # When more rows arrive than the buffer holds, only the trailing
        # ``capacity`` rows survive a sequential add; drop the rest up front
        # so the fancy-indexed write never assigns one slot twice (numpy
        # leaves the winner of duplicate indices unspecified).
        offset = 0
        if n > self.capacity:
            offset = n - self.capacity
            states = states[offset:]
            actions = actions[offset:]
            rewards = rewards[offset:]
            next_states = next_states[offset:]
            dones = dones[offset:]
        prof = self.profiler
        if prof is not None:
            start = perf_counter()
        with self._lock:
            indices = (self._next_index + offset + np.arange(n - offset)) % self.capacity
            self._states[indices] = states
            self._actions[indices] = actions
            self._rewards[indices, 0] = rewards
            self._next_states[indices] = next_states
            self._dones[indices, 0] = (dones != 0.0).astype(np.float64)
            self._next_index = (self._next_index + n) % self.capacity
            self._size = min(self._size + n, self.capacity)
        if prof is not None:
            prof.add("buffer-write", perf_counter() - start)

    # repro-lint: hot
    def add_batch_trusted(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """:meth:`add_batch` minus re-validation, for engine-internal arrays.

        The rollout engine hands this method arrays whose shapes and dtypes
        it already guarantees every lock-step (float64 states/rewards, a
        float actions batch, a bool dones mask); re-running ``asarray`` and
        the shape checks on them is pure per-step overhead.  A cheap
        invariant probe guards the fast path — anything unexpected (wrong
        shape/dtype, ``n > capacity``) falls back to the validated
        :meth:`add_batch`, so the two are interchangeable writes: same
        slots, same overwrite order, bit-identical contents
        (``tests/test_profiling.py`` pins the equivalence, including
        wrap-around).  The circular write is two slice assignments instead
        of a fancy-indexed scatter — no per-step index allocation.
        """
        capacity = self.capacity
        if (
            not isinstance(states, np.ndarray)
            or states.ndim != 2
            or not 0 < states.shape[0] <= capacity
        ):
            self.add_batch(states, actions, rewards, next_states, dones)
            return
        n = states.shape[0]
        if (
            states.shape[1] != self.state_dim
            or getattr(actions, "shape", None) != (n, self.action_dim)
            or getattr(next_states, "shape", None) != (n, self.state_dim)
            or getattr(rewards, "shape", None) != (n,)
            or getattr(dones, "shape", None) != (n,)
            or states.dtype != np.float64
            or next_states.dtype != np.float64
            or rewards.dtype != np.float64
            or actions.dtype.kind != "f"
            or dones.dtype != np.bool_
        ):
            self.add_batch(states, actions, rewards, next_states, dones)
            return
        prof = self.profiler
        if prof is not None:
            start_time = perf_counter()
        with self._lock:
            start = self._next_index
            end = start + n
            if end <= capacity:
                self._states[start:end] = states
                self._actions[start:end] = actions
                self._rewards[start:end, 0] = rewards
                self._next_states[start:end] = next_states
                self._dones[start:end, 0] = dones
                self._next_index = 0 if end == capacity else end
            else:
                split = capacity - start
                wrap = end - capacity
                self._states[start:] = states[:split]
                self._states[:wrap] = states[split:]
                self._actions[start:] = actions[:split]
                self._actions[:wrap] = actions[split:]
                self._rewards[start:, 0] = rewards[:split]
                self._rewards[:wrap, 0] = rewards[split:]
                self._next_states[start:] = next_states[:split]
                self._next_states[:wrap] = next_states[split:]
                self._dones[start:, 0] = dones[:split]
                self._dones[:wrap, 0] = dones[split:]
                self._next_index = wrap
            size = self._size + n
            self._size = capacity if size > capacity else size
        if prof is not None:
            prof.add("buffer-write", perf_counter() - start_time)

    def sample(self, batch_size: int) -> TransitionBatch:
        """Sample a uniform random batch of transitions (with replacement)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        with self._lock:
            if self._size == 0:
                raise RuntimeError("cannot sample from an empty replay buffer")
            indices = self._rng.integers(0, self._size, size=batch_size)
            return TransitionBatch(
                states=self._states[indices].copy(),
                actions=self._actions[indices].copy(),
                rewards=self._rewards[indices].copy(),
                next_states=self._next_states[indices].copy(),
                dones=self._dones[indices].copy(),
            )

    def clear(self) -> None:
        """Drop all stored transitions."""
        with self._lock:
            self._next_index = 0
            self._size = 0
