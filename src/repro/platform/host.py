"""Host-CPU timing model.

The host CPU (an Intel Xeon 6226R in the paper) runs the Python environment,
stores transitions, and samples the replay batch.  Fig. 9a shows this CPU
time is roughly constant at ~2 ms per timestep regardless of the batch size.
The model exposes that constant (with a small per-benchmark variation and an
optional per-sample replay-sampling cost) and can also be calibrated from a
measured environment by timing real steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["HostConfig", "HostModel"]

#: Per-benchmark environment step time in seconds (calibrated to the paper's
#: "roughly constant around 2 ms" observation; heavier physics → slightly more).
_DEFAULT_ENV_STEP_SECONDS: Dict[str, float] = {
    "halfcheetah": 2.1e-3,
    "hopper": 1.9e-3,
    "swimmer": 1.8e-3,
}


@dataclass(frozen=True)
class HostConfig:
    """Host-side timing parameters."""

    #: Fallback environment step time for unknown benchmarks.
    default_env_step_seconds: float = 2.0e-3
    #: Time to store one transition and bookkeep the episode.
    transition_store_seconds: float = 2.0e-5
    #: Per-sample cost of assembling the replay batch to send to the FPGA.
    replay_sample_seconds_per_transition: float = 4.0e-7
    #: Marginal cost of each additional lock-stepped environment, as a
    #: fraction of a scalar step.  Vectorized stepping batches the physics
    #: and the replay insertion across environments, so each extra
    #: environment costs far less than a full step (the VectorEnv
    #: micro-benchmark measures ~0.2× on the synthetic benchmarks).
    vector_step_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.default_env_step_seconds <= 0:
            raise ValueError("default_env_step_seconds must be positive")
        if self.transition_store_seconds < 0 or self.replay_sample_seconds_per_transition < 0:
            raise ValueError("host timing components must be non-negative")
        if not 0.0 <= self.vector_step_fraction <= 1.0:
            raise ValueError(
                f"vector_step_fraction must lie in [0, 1], got {self.vector_step_fraction}"
            )


class HostModel:
    """Estimates the CPU time of one platform timestep."""

    def __init__(self, config: Optional[HostConfig] = None):
        self.config = config or HostConfig()
        self._calibrated: Dict[str, float] = {}

    def env_step_seconds(self, benchmark: str) -> float:
        """Environment simulation time for one step of the benchmark."""
        key = benchmark.lower()
        if key in self._calibrated:
            return self._calibrated[key]
        return _DEFAULT_ENV_STEP_SECONDS.get(key, self.config.default_env_step_seconds)

    def timestep_seconds(self, benchmark: str, batch_size: int, num_envs: int = 1) -> float:
        """Total host-CPU time of one timestep (env step + replay handling).

        With ``num_envs > 1`` the environments advance in one vectorized
        lock-step: the first environment pays the full scalar cost and each
        additional one only the configured marginal fraction (batched
        physics, bulk transition store).
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return (
            self.collection_step_seconds(benchmark, num_envs)
            + self.config.replay_sample_seconds_per_transition * batch_size
        )

    def collection_step_seconds(self, benchmark: str, num_envs: int = 1) -> float:
        """Host-CPU time of one *collection* lock-step (no replay assembly).

        A collection worker only steps its environments and stores the
        transitions; the replay batch for the accelerator is assembled by the
        learner, not the worker, so the per-sample replay term of
        :meth:`timestep_seconds` does not apply.

        This is the per-benchmark host term of the fleet pricing: in a
        heterogeneous fleet every worker runs its own benchmark's host phase
        on its own Xeon core, so the fleet's host bound is the *slowest
        benchmark's* ``host + inference`` chain
        (:meth:`~repro.platform.AcceleratorPool.fleet_collection_round_seconds`
        queries this method once per benchmark).
        """
        if num_envs <= 0:
            raise ValueError(f"num_envs must be positive, got {num_envs}")
        scale = 1.0 + self.config.vector_step_fraction * (num_envs - 1)
        return (
            self.env_step_seconds(benchmark) * scale
            + self.config.transition_store_seconds * scale
        )

    # ------------------------------------------------------------------ #
    # Learner update phase (pipelined training schedule)
    # ------------------------------------------------------------------ #
    def update_phase_seconds(self, batch_size: int, updates: int = 1) -> float:
        """Host-CPU time of the learner's update phase: replay assembly.

        The learner's only host-side work per update is assembling the
        replay batch it sends to the accelerator — the collection-side terms
        (environment stepping, transition stores) belong to the workers.
        Under the pipelined schedule this runs on the learner's own Xeon
        core, overlapping the workers' collection phases;
        :meth:`FixarPlatform.pipelined_round_seconds` folds it into the
        streamed update phase it prices against collection.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if updates < 0:
            raise ValueError(f"updates must be non-negative, got {updates}")
        return updates * self.config.replay_sample_seconds_per_transition * batch_size

    # ------------------------------------------------------------------ #
    # Calibration against a real environment object
    # ------------------------------------------------------------------ #
    def calibrate(self, env, steps: int = 200) -> float:
        """Measure a real environment's average step time and remember it.

        ``env`` is any object following the :class:`repro.envs.Environment`
        API.  Returns the measured per-step time in seconds.
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        observation = env.reset()
        del observation
        rng_action = env.action_space
        # repro-lint: allow[deterministic-oracles]: calibrate() *measures* a real env to feed the model; the oracles consume the stored constant
        start = time.perf_counter()
        done_resets = 0
        for _ in range(steps):
            result = env.step(rng_action.clip(rng_action.low * 0.0))
            if result.done:
                env.reset()
                done_resets += 1
        # repro-lint: allow[deterministic-oracles]: closes the calibration measurement; only the averaged constant enters pricing
        elapsed = time.perf_counter() - start
        per_step = elapsed / steps
        self._calibrated[env.name.lower()] = per_step
        return per_step
