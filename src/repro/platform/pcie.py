"""PCIe / runtime transfer model (the "Xilinx run-time" component of Fig. 9).

Every timestep the host pushes the current state and a replay batch of B
transitions to the FPGA over PCIe and reads the selected action back.  The
paper observes that this runtime component is dominated by a fixed overhead
(buffer allocation and driver calls in the Xilinx run-time), growing only
marginally when the batch size doubles.  The model therefore has a large
constant term, a small per-buffer term, and a bandwidth term that only
matters for very large batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["PcieConfig", "PcieModel"]


@dataclass(frozen=True)
class PcieConfig:
    """Runtime / PCIe timing parameters."""

    #: Fixed runtime overhead per timestep (buffer allocation, driver calls).
    base_overhead_seconds: float = 1.5e-3
    #: Additional overhead per transferred buffer (input batch, state, action).
    per_buffer_seconds: float = 1.0e-4
    #: Effective host-to-card bandwidth in bytes per second (PCIe Gen3 x16
    #: achieves ~12 GB/s raw; small DMA transfers see far less).
    bandwidth_bytes_per_second: float = 3.0e9
    #: Marginal per-transition runtime cost (pinning, descriptor setup).
    per_transition_seconds: float = 1.5e-6

    def __post_init__(self) -> None:
        if self.base_overhead_seconds < 0 or self.per_buffer_seconds < 0:
            raise ValueError("overheads must be non-negative")
        if self.bandwidth_bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        if self.per_transition_seconds < 0:
            raise ValueError("per_transition_seconds must be non-negative")


class PcieModel:
    """Estimates the host↔FPGA runtime time of one timestep."""

    #: Buffers moved per timestep: input batch, current state, returned action.
    BUFFERS_PER_TIMESTEP = 3

    def __init__(self, config: Optional[PcieConfig] = None):
        self.config = config or PcieConfig()

    def batch_bytes(
        self,
        batch_size: int,
        state_dim: int,
        action_dim: int,
        bytes_per_value: float = 4,
        num_envs: int = 1,
    ) -> float:
        """Payload size of a replay batch of transitions.

        A transition carries state, action, reward, next state, and done
        flag; the current states for inference (one per lock-stepped
        environment) add ``num_envs`` more state vectors.
        ``bytes_per_value`` may be fractional: a mixed per-layer precision
        plan prices transfers at the layer-width-weighted average bytes per
        value.
        """
        if batch_size <= 0 or state_dim <= 0 or action_dim <= 0:
            raise ValueError("batch_size, state_dim, and action_dim must be positive")
        if num_envs <= 0:
            raise ValueError(f"num_envs must be positive, got {num_envs}")
        if bytes_per_value <= 0:
            raise ValueError(f"bytes_per_value must be positive, got {bytes_per_value}")
        per_transition = (2 * state_dim + action_dim + 2) * bytes_per_value
        return batch_size * per_transition + num_envs * state_dim * bytes_per_value

    def inference_bytes(
        self, num_states: int, state_dim: int, action_dim: int, bytes_per_value: float = 4
    ) -> float:
        """Payload of one batched inference round trip: N states, N actions."""
        if num_states <= 0 or state_dim <= 0 or action_dim <= 0:
            raise ValueError("num_states, state_dim, and action_dim must be positive")
        if bytes_per_value <= 0:
            raise ValueError(f"bytes_per_value must be positive, got {bytes_per_value}")
        return num_states * (state_dim + action_dim) * bytes_per_value

    def inference_seconds(
        self, num_states: int, state_dim: int, action_dim: int, bytes_per_value: float = 4
    ) -> float:
        """Runtime time of one batched inference round trip.

        The batch of N states travels in one host→card buffer and the N
        actions return in one card→host buffer, so the fixed runtime
        overhead is paid once — the whole point of batching the rollout
        versus N serial single-state round trips.
        """
        payload = self.inference_bytes(num_states, state_dim, action_dim, bytes_per_value)
        return (
            self.config.base_overhead_seconds
            + 2 * self.config.per_buffer_seconds
            + self.transfer_seconds(payload)
        )

    def transfer_seconds(self, payload_bytes: int) -> float:
        """Pure DMA transfer time for a payload."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        return payload_bytes / self.config.bandwidth_bytes_per_second

    # ------------------------------------------------------------------ #
    # Learner update transfers (pipelined training schedule)
    # ------------------------------------------------------------------ #
    @property
    def invocation_overhead_seconds(self) -> float:
        """Fixed cost of one runtime invocation (driver calls + 2 buffers).

        One invocation moves a host→card payload and reads a card→host
        result back; the per-buffer term is therefore paid twice.

        A streamed update queue pays this once per *submission*, not once
        per update — and a heterogeneous fleet's learners submit one stream
        per benchmark (the batch layout changes with the layer dimensions),
        so the pipelined fleet pricing charges this overhead once per
        benchmark group
        (:meth:`~repro.platform.AcceleratorPool.fleet_pipelined_round_seconds`).
        """
        return self.config.base_overhead_seconds + 2 * self.config.per_buffer_seconds

    def update_bytes(
        self, batch_size: int, state_dim: int, action_dim: int, bytes_per_value: float = 4
    ) -> float:
        """Payload of one learner update: a replay batch, no inference states."""
        if batch_size <= 0 or state_dim <= 0 or action_dim <= 0:
            raise ValueError("batch_size, state_dim, and action_dim must be positive")
        if bytes_per_value <= 0:
            raise ValueError(f"bytes_per_value must be positive, got {bytes_per_value}")
        per_transition = (2 * state_dim + action_dim + 2) * bytes_per_value
        return batch_size * per_transition

    def update_marginal_seconds(
        self, batch_size: int, state_dim: int, action_dim: int, bytes_per_value: float = 4
    ) -> float:
        """Marginal runtime cost of one update *inside* a streamed invocation.

        Descriptor setup / pinning per transition plus the DMA transfer of
        the batch — everything except the fixed invocation overhead, which a
        streamed update queue pays once per submission rather than once per
        update.
        """
        payload = self.update_bytes(batch_size, state_dim, action_dim, bytes_per_value)
        return self.config.per_transition_seconds * batch_size + self.transfer_seconds(payload)

    def update_seconds(
        self, batch_size: int, state_dim: int, action_dim: int, bytes_per_value: float = 4
    ) -> float:
        """Runtime time of one *blocking* learner update invocation.

        The sequential training schedule interleaves every update between
        collection inferences on the same command queue, so each update is
        its own runtime invocation and pays the full fixed overhead — the
        same overhead structure the paper measures per timestep (Fig. 9).
        """
        return self.invocation_overhead_seconds + self.update_marginal_seconds(
            batch_size, state_dim, action_dim, bytes_per_value
        )

    def timestep_seconds(
        self,
        batch_size: int,
        state_dim: int,
        action_dim: int,
        num_envs: int = 1,
        bytes_per_value: float = 4,
    ) -> float:
        """Total runtime time of one timestep (Fig. 9's "runtime" component).

        With ``num_envs > 1`` the inference states and returned actions are
        batched into the same three buffers, so only the payload grows — not
        the per-timestep driver overhead.  ``bytes_per_value`` scales *every*
        payload term, including the extra returned actions (previously
        hardcoded at 4 bytes, which silently mispriced half-precision
        transfer studies).
        """
        payload = self.batch_bytes(
            batch_size,
            state_dim,
            action_dim,
            bytes_per_value=bytes_per_value,
            num_envs=num_envs,
        )
        # Extra returned actions of the additional lock-stepped envs.
        payload += max(0, num_envs - 1) * action_dim * bytes_per_value
        return (
            self.config.base_overhead_seconds
            + self.BUFFERS_PER_TIMESTEP * self.config.per_buffer_seconds
            + self.config.per_transition_seconds * batch_size
            + self.transfer_seconds(payload)
        )
