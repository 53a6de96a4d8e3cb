"""Device pools: the fleet/round pricing oracle over N FIXAR accelerators.

:class:`~repro.platform.FixarPlatform` prices one workload on one device
(the paper's Fig. 8-10 cost model).  Everything above a single device —
heterogeneous fleets whose benchmark groups present batched inferences
with *different* layer dimensions, and pools of several accelerators — is
priced here, by :class:`AcceleratorPool`, the one fleet/round oracle.  A
pool holds ``num_devices`` identical devices (``FixarPlatform`` siblings
sharing the template's hardware models) and answers the ``fleet_*`` /
``infer_fleet`` queries plus the single platform's ``infer_batch`` /
``infer_collection`` / ``*_round_seconds`` surface, so a pool drops in at
every pricing joint while the rollout engine and the round scheduler never
learn about devices.

A fleet is a sequence of ``(workload, count[, width])`` entries, each
group priced under its own workload (via :meth:`FixarPlatform.
with_workload` / :meth:`FixarPlatform.for_benchmark`).  Three
placement/assignment dimensions are modelled:

* **Per-benchmark device affinity** — each fleet group's workers present
  their batched inferences to one device of the pool (round-robin over the
  collection devices by default, or an explicit ``{benchmark: device}``
  mapping).  Devices serve their assigned groups' batches serially but run
  in *parallel* with each other, so the accelerator-serial bound of a
  collection round becomes a per-device maximum instead of one global sum.
* **Sharded batches** — :meth:`AcceleratorPool.infer_batch` splits one wide
  batch across the collection devices (near-equal shards, conserving the
  state count) and returns a :class:`ShardedInferenceReport` whose latency
  is the slowest shard: the homogeneous wide-group path of ``train()``
  shards transparently through the engine's existing ``infer_batch`` joint.
* **Placement** — ``"colocated"`` runs each group's update stream on the
  device its collection is assigned to (streams on different devices
  overlap; each stream still contends with its own device's rollout
  inferences).  ``"disaggregated"`` reserves the pool's last device for the
  update streams: collection spreads over the remaining devices and the
  update side pays no rollout-inference contention, at the price of one
  fewer collection device.

Determinism pin (the extended oracle chain): a 1-device colocated pool
prices a one-benchmark fleet ``[(b, N)]`` exactly (``==``) like the
single platform's homogeneous collection and training oracles for ``N``
workers, and its ``infer_batch`` / ``*_round_seconds`` equal the single
platform's — so a training run that uses the pool as its platform hook is
**bit-exact** with the single-platform path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .fixar_platform import (
    BatchInferenceReport,
    CollectionInferenceReport,
    FixarPlatform,
    WorkloadSpec,
)

__all__ = [
    "PLACEMENTS",
    "AcceleratorPool",
    "FleetGroupInference",
    "PoolInferenceReport",
    "ShardedInferenceReport",
]

#: Update-stream placements the pool models.
PLACEMENTS = ("colocated", "disaggregated")


@dataclass(frozen=True)
class ShardedInferenceReport:
    """Cost of one batch inference sharded across a pool's devices.

    Each shard is a ``(device index, per-shard report)`` pair; the devices
    run their shards concurrently, so the pool-level latency is the slowest
    shard while payload and energy are resource totals across shards.  With
    a single shard every accessor reduces to the underlying
    :class:`~repro.platform.BatchInferenceReport` exactly — the 1-device
    bit-exactness pin of the engine's ``infer_batch`` joint.
    """

    #: Per-device shards, ordered by device index: (device, report).
    shards: Tuple[Tuple[int, BatchInferenceReport], ...]

    @property
    def num_states(self) -> int:
        """States inferred across all shards (conserved by construction)."""
        return sum(report.num_states for _device, report in self.shards)

    @property
    def fpga_seconds(self) -> float:
        """FPGA time of the sharded pass (slowest device bounds it)."""
        return max(report.fpga_seconds for _device, report in self.shards)

    @property
    def runtime_seconds(self) -> float:
        """Runtime/PCIe time of the sharded pass (slowest device)."""
        return max(report.runtime_seconds for _device, report in self.shards)

    @property
    def total_seconds(self) -> float:
        """End-to-end latency of the sharded inference (slowest shard)."""
        return max(report.total_seconds for _device, report in self.shards)

    @property
    def pcie_bytes(self) -> int:
        """Bytes crossing PCIe across all devices."""
        return sum(report.pcie_bytes for _device, report in self.shards)

    @property
    def energy_joules(self) -> float:
        """FPGA board energy across all devices."""
        return sum(report.energy_joules for _device, report in self.shards)

    @property
    def states_per_second(self) -> float:
        """Inference throughput of the sharded batch."""
        return self.num_states / self.total_seconds


@dataclass(frozen=True)
class FleetGroupInference:
    """One benchmark group's slice of a fleet inference round.

    ``report`` prices a single lock-step of the group (``num_workers``
    batched inferences); ``weight`` is the group's lock-steps per scheduled
    round, so a throughput-weighted round's report describes the round the
    scheduler actually runs instead of the round-robin one.  The weighted
    accessors scale the lock-step costs accordingly (``weight == 1``
    reproduces the unweighted accounting exactly).
    """

    #: Benchmark display name.
    benchmark: str
    #: Cost of one of this group's lock-steps.
    report: CollectionInferenceReport
    #: Lock-steps this group runs per scheduled round.
    weight: int = 1
    #: Collection device that serves this group's batches.
    device: int = 0

    @property
    def num_states(self) -> int:
        """States this group infers per scheduled round."""
        return self.weight * self.report.num_states

    @property
    def total_seconds(self) -> float:
        """Accelerator-serial latency of this group's round slice."""
        return self.weight * self.report.total_seconds

    @property
    def pcie_bytes(self) -> int:
        """Bytes this group moves over PCIe per scheduled round."""
        return self.weight * self.report.pcie_bytes

    @property
    def energy_joules(self) -> float:
        """FPGA board energy of this group's round slice."""
        return self.weight * self.report.energy_joules


@dataclass(frozen=True)
class PoolInferenceReport:
    """Per-group cost of one fleet inference round on a pool.

    ``groups`` are in fleet order, each stamped with the collection device
    that serves it.  Devices serve their groups serially but run in
    parallel, so the pool round is the slowest device's serial sum while
    payload and energy are totals.
    """

    #: Update-stream placement the pool was priced under.
    placement: str
    #: Per-group costs, in fleet order.
    groups: Tuple[FleetGroupInference, ...]

    @property
    def per_device(self) -> Tuple[Tuple[int, Tuple[FleetGroupInference, ...]], ...]:
        """``(device, groups)`` for each device with assigned groups, by index."""
        devices = sorted({group.device for group in self.groups})
        return tuple(
            (device, tuple(group for group in self.groups if group.device == device))
            for device in devices
        )

    @property
    def num_workers(self) -> int:
        """Workers across the whole pool (independent of round weights)."""
        return sum(group.report.num_workers for group in self.groups)

    @property
    def num_states(self) -> int:
        """States inferred per pool round."""
        return sum(group.num_states for group in self.groups)

    @property
    def round_seconds(self) -> float:
        """Latency of the pool round (slowest device's serial round)."""
        return max(
            sum(group.total_seconds for group in groups)
            for _device, groups in self.per_device
        )

    @property
    def total_seconds(self) -> float:
        """Alias of :attr:`round_seconds` (single-platform report parity)."""
        return self.round_seconds

    @property
    def pcie_bytes(self) -> int:
        """Bytes crossing PCIe per pool round, across devices."""
        return sum(group.pcie_bytes for group in self.groups)

    @property
    def energy_joules(self) -> float:
        """FPGA board energy per pool round, across devices."""
        return sum(group.energy_joules for group in self.groups)

    @property
    def states_per_second(self) -> float:
        """Inference throughput across the pool."""
        return self.num_states / self.round_seconds


class AcceleratorPool:
    """``num_devices`` identical FIXAR accelerators priced as one pool.

    ``template`` supplies the hardware models (accelerator configuration,
    host, PCIe, precision mode); the pool's devices are sibling platforms
    sharing those models, exactly like :meth:`FixarPlatform.with_workload`
    siblings.  ``assignment`` optionally binds a default per-benchmark
    device affinity (lowercase benchmark keys to collection-device
    indices); per-call ``assignment=`` arguments override it.
    """

    def __init__(
        self,
        template: FixarPlatform,
        num_devices: int = 1,
        placement: str = "colocated",
        assignment: Optional[Mapping[str, int]] = None,
    ):
        try:
            num_devices = operator.index(num_devices)
        except TypeError:
            raise ValueError(
                f"num_devices must be an integer, got {num_devices!r}"
            ) from None
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        if placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {placement!r}"
            )
        if placement == "disaggregated" and num_devices < 2:
            raise ValueError(
                "disaggregated placement dedicates one device to the update "
                "streams, so the pool needs at least 2 devices"
            )
        self.template = template
        self.num_devices = num_devices
        self.placement = placement
        # Device 0 *is* the template; the rest are siblings sharing its
        # hardware models — identical timing, so any device prices any
        # workload the same way (assignment matters for contention, not
        # per-batch latency).
        self.devices: Tuple[FixarPlatform, ...] = (template,) + tuple(
            template.with_workload(template.workload)
            for _ in range(num_devices - 1)
        )
        self.assignment = self._normalize_assignment(assignment)

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def collection_devices(self) -> Tuple[int, ...]:
        """Indices of the devices that serve rollout inferences."""
        if self.placement == "disaggregated":
            return tuple(range(self.num_devices - 1))
        return tuple(range(self.num_devices))

    @property
    def update_device(self) -> Optional[int]:
        """The dedicated update device, or ``None`` when colocated."""
        if self.placement == "disaggregated":
            return self.num_devices - 1
        return None

    def device(self, index: int) -> FixarPlatform:
        """The pool's ``index``-th device platform."""
        index = operator.index(index)
        if not 0 <= index < self.num_devices:
            raise ValueError(
                f"device index {index} out of range for a "
                f"{self.num_devices}-device pool"
            )
        return self.devices[index]

    def with_assignment(
        self, assignment: Optional[Mapping[str, int]]
    ) -> "AcceleratorPool":
        """A pool over the *same* devices with another default affinity."""
        sibling = AcceleratorPool.__new__(AcceleratorPool)
        sibling.template = self.template
        sibling.num_devices = self.num_devices
        sibling.placement = self.placement
        sibling.devices = self.devices
        sibling.assignment = sibling._normalize_assignment(assignment)
        return sibling

    def with_precision_state(self, state) -> "AcceleratorPool":
        """A pool of the same shape priced under a precision policy's state.

        Rebuilds every device from
        :meth:`FixarPlatform.with_precision_state` siblings of the
        template, preserving the pool's size, placement, and bound
        assignment — the pool-level half of the precision re-pricing seam
        (``None`` or an identical-pricing state returns this pool
        unchanged, mirroring the platform).
        """
        template = self.template.with_precision_state(state)
        if template is self.template:
            return self
        return AcceleratorPool(
            template,
            num_devices=self.num_devices,
            placement=self.placement,
            assignment=self.assignment,
        )

    def describe(self) -> str:
        return f"pool(devices={self.num_devices}, placement={self.placement})"

    # ------------------------------------------------------------------ #
    # Assignment resolution
    # ------------------------------------------------------------------ #
    def _normalize_assignment(
        self, assignment: Optional[Mapping[str, int]]
    ) -> Optional[Dict[str, int]]:
        if assignment is None:
            return None
        collection = self.collection_devices
        normalized: Dict[str, int] = {}
        for key, index in dict(assignment).items():
            try:
                index = operator.index(index)
            except TypeError:
                raise ValueError(
                    f"device assignments must be integer device indices, "
                    f"got {key!r}: {index!r}"
                ) from None
            if index not in collection:
                raise ValueError(
                    f"benchmark {key!r} assigned to device {index}, but the "
                    f"{self.describe()} collection devices are {collection}"
                )
            normalized[str(key).lower()] = index
        return normalized

    def resolve_assignment(
        self,
        keys: Sequence[str],
        assignment: Optional[Mapping[str, int]] = None,
    ) -> List[int]:
        """Collection-device index per fleet entry.

        Entries named by the effective affinity mapping (the per-call
        ``assignment`` or the pool's bound default) take their pinned
        device; the rest round-robin over the collection devices in entry
        order.  Per-call mapping keys that match no fleet entry raise — the
        same unknown-key contract as the scheduler's explicit lock-step
        weights.  The bound default is the whole run's affinity, so it may
        name benchmarks outside the priced fleet: the weighted schedule
        prices each group's chain as a one-group fleet.
        """
        keys = [str(key).lower() for key in keys]
        if assignment is not None:
            mapping = self._normalize_assignment(assignment)
            unknown = sorted(key for key in mapping if key not in set(keys))
            if unknown:
                raise ValueError(
                    f"device assignment names benchmarks that match no fleet "
                    f"entry: {unknown}; fleet keys are {sorted(set(keys))}"
                )
        else:
            mapping = self.assignment
        collection = self.collection_devices
        devices = []
        cursor = 0
        for key in keys:
            if mapping is not None and key in mapping:
                devices.append(mapping[key])
            else:
                devices.append(collection[cursor % len(collection)])
                cursor += 1
        return devices

    # ------------------------------------------------------------------ #
    # Sharded batch inference (the engine's ``infer_batch`` joint)
    # ------------------------------------------------------------------ #
    def shard_widths(self, num_states: int) -> List[Tuple[int, int]]:
        """``(device, shard size)`` split of one batch over the pool.

        Near-equal shards in collection-device order; the first
        ``num_states % len(collection_devices)`` shards take the extra
        state, devices whose shard would be empty are skipped, and the
        shard sizes always sum to ``num_states`` (step-count conservation).
        """
        if num_states <= 0:
            raise ValueError(f"num_states must be positive, got {num_states}")
        collection = self.collection_devices
        base, extra = divmod(num_states, len(collection))
        shards = []
        for rank, device in enumerate(collection):
            width = base + (1 if rank < extra else 0)
            if width > 0:
                shards.append((device, width))
        return shards

    def infer_batch(self, num_states: int) -> ShardedInferenceReport:
        """Price one batch-of-N inference sharded over the collection devices.

        Drop-in for :meth:`FixarPlatform.infer_batch` at the rollout
        engine's pricing joint: the shards run concurrently, so
        ``total_seconds`` is the slowest shard's latency.  A 1-device pool
        reproduces the single platform's report values exactly.
        """
        return ShardedInferenceReport(
            shards=tuple(
                (device, self.devices[device].infer_batch(width))
                for device, width in self.shard_widths(num_states)
            )
        )

    def serving_round_seconds(self, num_requests: int) -> float:
        """Modelled time to serve one dynamic-batcher flush on the pool.

        The flush shards near-equally over the collection devices
        (:meth:`shard_widths`, state-count conserving) and completes with
        the slowest shard — :meth:`infer_batch`'s sharded latency.  A
        1-device pool prices exactly like the single platform's serving
        oracle.
        """
        return self.infer_batch(num_requests).total_seconds

    # ------------------------------------------------------------------ #
    # Homogeneous collection / training oracles (single-platform surface)
    #
    # The pool answers the single platform's ``infer_collection`` /
    # ``*_round_seconds`` queries too, so it drops in wherever a
    # ``FixarPlatform`` prices a homogeneous run.  A ``num_workers``-worker
    # run deals its workers round-robin over the collection devices (the
    # same dealing order ``resolve_assignment`` uses for fleet groups), so a
    # 1-device colocated pool reproduces every single-platform price
    # exactly.
    # ------------------------------------------------------------------ #
    def _deal_workers(self, num_workers: int) -> List[Tuple[int, int]]:
        """``(device, worker count)`` round-robin deal over collection devices.

        Worker ``w`` lands on collection device ``w % len(collection)``;
        devices that would receive no workers are skipped, and the counts
        always sum to ``num_workers``.
        """
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        collection = self.collection_devices
        dealt = []
        for rank, device in enumerate(collection):
            count = (num_workers + len(collection) - 1 - rank) // len(collection)
            if count > 0:
                dealt.append((device, count))
        return dealt

    def infer_collection(
        self, num_envs: int, num_workers: int = 1
    ) -> PoolInferenceReport:
        """Price one homogeneous collection round dealt over the pool.

        Drop-in for :meth:`FixarPlatform.infer_collection`: each collection
        device serves its dealt workers' batches back to back
        (:class:`~repro.platform.CollectionInferenceReport` per device) and
        the devices run in parallel, so the pool round is the slowest
        device's serial round.  A 1-device pool's totals equal the single
        platform's report exactly.
        """
        benchmark = self.template.workload.benchmark
        groups = tuple(
            FleetGroupInference(
                benchmark=benchmark,
                report=self.devices[device].infer_collection(num_envs, count),
                device=device,
            )
            for device, count in self._deal_workers(num_workers)
        )
        return PoolInferenceReport(placement=self.placement, groups=groups)

    def collection_round_seconds(self, num_envs: int, num_workers: int = 1) -> float:
        """Modelled time of one homogeneous collection round on the pool.

        Per dealt device, the single-platform bound
        ``max(host + inference, count * inference)`` applies to that
        device's worker share; the pool round is the slowest device.
        """
        return max(
            self.devices[device].collection_round_seconds(num_envs, count)
            for device, count in self._deal_workers(num_workers)
        )

    def update_round_seconds(
        self, batch_size: int, updates: int, pipelined: bool = False
    ) -> float:
        """Modelled time of the learner's update phase on the pool.

        A homogeneous run has one learner, hence one update stream: it runs
        on the dedicated update device when disaggregated, on device 0
        (its collection device under the round-robin deal) when colocated.
        The devices are identical siblings, so the stream prices exactly as
        on the single platform; what placement changes is the *contention*
        term in :meth:`pipelined_round_seconds`.
        """
        device = self.update_device if self.update_device is not None else 0
        return self.devices[device].update_round_seconds(
            batch_size, updates, pipelined=pipelined
        )

    def sequential_round_seconds(
        self,
        num_envs: int,
        num_workers: int = 1,
        batch_size: int = 64,
        updates_per_round: Optional[int] = None,
    ) -> float:
        """Modelled time of one sequential training round on the pool
        (collection and the blocking update phase strictly alternate)."""
        updates = self.template._updates_per_round(
            num_envs, num_workers, updates_per_round
        )
        return self.collection_round_seconds(
            num_envs, num_workers
        ) + self.update_round_seconds(batch_size, updates, pipelined=False)

    def pipelined_round_seconds(
        self,
        num_envs: int,
        num_workers: int = 1,
        batch_size: int = 64,
        updates_per_round: Optional[int] = None,
    ) -> float:
        """Modelled time of one pipelined training round on the pool.

        ``max(collection, update stream)`` — colocated, the stream shares
        device 0 with that device's dealt rollout inferences (their FPGA
        time joins the stream, exactly the single platform's contention
        term scaled to device 0's worker share); disaggregated, the update
        device serves no rollout inferences, so the stream runs bare.
        """
        updates = self.template._updates_per_round(
            num_envs, num_workers, updates_per_round
        )
        collection = self.collection_round_seconds(num_envs, num_workers)
        update = self.update_round_seconds(batch_size, updates, pipelined=True)
        if self.placement == "disaggregated":
            return max(collection, update)
        dealt = dict(self._deal_workers(num_workers))
        contention = dealt.get(0, 0) * self.devices[0].infer_batch(
            num_envs
        ).fpga_seconds
        return max(collection, update + contention)

    # ------------------------------------------------------------------ #
    # Fleet pricing oracles (device-aware ``fleet_*`` surface)
    # ------------------------------------------------------------------ #
    def _resolve(
        self,
        fleet: Sequence[Sequence],
        num_envs: Optional[int],
        weights: Optional[Sequence[int]],
        assignment: Optional[Mapping[str, int]],
    ) -> List[Tuple[FixarPlatform, int, int, int, int]]:
        """``(platform, count, width, weight, device)`` per fleet entry.

        Each entry is ``(workload, count)`` or ``(workload, count, width)``
        — a registered benchmark name or an explicit :class:`WorkloadSpec`,
        a positive worker count, and an optional per-group lock-step width
        (``None`` or omitted falls back to the ``num_envs`` argument, the
        uniform-width fleet).  ``platform`` is the template's sibling for
        the entry's workload.  ``weights`` optionally gives each group's
        lock-steps per round (the throughput-weighted schedule); the default
        is one each.  ``device`` comes from :meth:`resolve_assignment`.
        """
        fleet = [tuple(entry) for entry in fleet]
        if not fleet:
            raise ValueError("fleet must contain at least one (workload, count) entry")
        if weights is None:
            weights = [1] * len(fleet)
        else:
            weights = list(weights)
            if len(weights) != len(fleet):
                raise ValueError(
                    f"weights must match the fleet's {len(fleet)} entries, "
                    f"got {len(weights)}"
                )
        resolved = []
        for entry, weight in zip(fleet, weights):
            if len(entry) == 2:
                workload, count = entry
                width = None
            elif len(entry) == 3:
                workload, count, width = entry
            else:
                raise ValueError(
                    f"fleet entries must be (workload, count[, width]), got {entry!r}"
                )
            if count <= 0:
                raise ValueError(f"fleet worker counts must be positive, got {count}")
            if width is None:
                width = num_envs
            if width is None or width <= 0:
                raise ValueError(
                    f"fleet lock-step widths must be positive, got {width}"
                )
            try:
                # operator.index rejects non-integral weights: the scheduler
                # already refuses 2.9 lock-steps per round, and the pricing
                # side must agree with it instead of silently accepting a
                # fractional round.
                weight = operator.index(weight)
            except TypeError:
                raise ValueError(
                    f"fleet round weights must be integers, got {weight!r}"
                ) from None
            if weight <= 0:
                raise ValueError(f"fleet round weights must be positive, got {weight}")
            if isinstance(workload, WorkloadSpec):
                platform = self.template.with_workload(workload)
            else:
                platform = self.template.for_benchmark(str(workload))
            resolved.append((platform, count, width, weight))
        devices = self.resolve_assignment(
            [platform.workload.benchmark for platform, *_rest in resolved],
            assignment,
        )
        return [entry + (device,) for entry, device in zip(resolved, devices)]

    def _collection_round(self, resolved) -> float:
        """Collection-round time of an already-resolved, device-assigned fleet.

        The per-worker ``host + inference`` chains are device-independent
        (each worker runs on its own host core); the accelerator-serial
        bound becomes per-device — every collection device serves only its
        assigned groups' batches, and the devices run in parallel.
        """
        chains = []
        accelerator = {index: 0.0 for index in self.collection_devices}
        for platform, count, width, weight, device in resolved:
            inference = platform.infer_batch(width).total_seconds
            host = platform.host.collection_step_seconds(
                platform.workload.benchmark, width
            )
            chains.append(weight * (host + inference))
            accelerator[device] += count * weight * inference
        return max(max(chains), max(accelerator.values()))

    @staticmethod
    def _round_steps(resolved) -> int:
        """Environment steps of one round of a resolved fleet."""
        return sum(
            count * weight * width
            for _platform, count, width, weight, _device in resolved
        )

    def fleet_collection_round_seconds(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Modelled time of one fleet collection round on the pool.

        The homogeneous bound of :meth:`FixarPlatform.collection_round_seconds`
        generalizes per benchmark: no worker cycles faster than its serial
        ``host_b + inference_b`` chain (each worker runs on its own Xeon
        core), while each device serves its assigned groups' batches back
        to back under their own layer dimensions and widths.  The round is
        whichever bound saturates first.

        ``weights`` prices a *throughput-weighted* round: group ``g`` runs
        ``weights[g]`` lock-steps per round, so its workers' chains stretch
        by that factor and its device serves that many more of its batches
        — the cost oracle of :class:`repro.rl.scheduler.
        ThroughputWeightedPolicy`.
        """
        return self._collection_round(
            self._resolve(fleet, num_envs, weights, assignment)
        )

    def fleet_collection_steps_per_second(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Modelled collection throughput of a fleet on the pool."""
        resolved = self._resolve(fleet, num_envs, weights, assignment)
        return self._round_steps(resolved) / self._collection_round(resolved)

    def _update_streams(
        self, resolved, batch_size: int, pipelined: bool
    ) -> Dict[int, float]:
        """Per-device update-phase seconds of a resolved fleet.

        Colocated: each group's learner streams to the group's collection
        device, so streams on different devices run in parallel.
        Disaggregated: every stream runs on the dedicated update device,
        back to back (keyed under that single device).
        """
        if self.placement == "disaggregated":
            total = sum(
                platform.update_round_seconds(
                    batch_size, count * weight * width, pipelined=pipelined
                )
                for platform, count, width, weight, _device in resolved
            )
            return {self.update_device: total}
        streams = {index: 0.0 for index in self.collection_devices}
        for platform, count, width, weight, device in resolved:
            streams[device] += platform.update_round_seconds(
                batch_size, count * weight * width, pipelined=pipelined
            )
        return streams

    def fleet_sequential_round_seconds(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Modelled time of one *sequential* training round on the pool.

        Collection and updates strictly alternate, but update phases on
        different devices run concurrently — the update term is the
        slowest device's blocking-update total (disaggregated pools run
        every update on the dedicated device, so the term is the full sum,
        unchanged from the single platform).
        """
        resolved = self._resolve(fleet, num_envs, weights, assignment)
        update = max(self._update_streams(resolved, batch_size, False).values())
        return self._collection_round(resolved) + update

    def fleet_pipelined_round_seconds(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Modelled time of one *pipelined* training round on the pool.

        The update streams overlap collection.  Colocated, each device's
        stream contends with that device's rollout inferences (its
        assigned groups' FPGA inference time joins its stream), and the
        round is ``max(collection, slowest device stream)``.
        Disaggregated, the dedicated update device serves no rollout
        inferences, so the update term is the bare stream total.
        """
        resolved = self._resolve(fleet, num_envs, weights, assignment)
        collection = self._collection_round(resolved)
        streams = self._update_streams(resolved, batch_size, True)
        if self.placement == "disaggregated":
            return max(collection, streams[self.update_device])
        inference_fpga = {index: 0.0 for index in self.collection_devices}
        for platform, count, width, weight, device in resolved:
            inference_fpga[device] += (
                count * weight * platform.infer_batch(width).fpga_seconds
            )
        return max(
            collection,
            max(
                streams[index] + inference_fpga[index]
                for index in self.collection_devices
            ),
        )

    def fleet_training_steps_per_second(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        pipelined: bool = False,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Modelled end-to-end training throughput of a fleet on the pool."""
        round_seconds = (
            self.fleet_pipelined_round_seconds(
                fleet, num_envs, batch_size, weights, assignment
            )
            if pipelined
            else self.fleet_sequential_round_seconds(
                fleet, num_envs, batch_size, weights, assignment
            )
        )
        return (
            self._round_steps(self._resolve(fleet, num_envs, weights, assignment))
            / round_seconds
        )

    def fleet_pipelined_speedup(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        batch_size: int = 64,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Steps/sec of the pipelined pool schedule over the sequential one."""
        return self.fleet_training_steps_per_second(
            fleet, num_envs, batch_size, pipelined=True,
            weights=weights, assignment=assignment,
        ) / self.fleet_training_steps_per_second(
            fleet, num_envs, batch_size, pipelined=False,
            weights=weights, assignment=assignment,
        )

    def infer_fleet(
        self,
        fleet: Sequence[Sequence],
        num_envs: int,
        weights: Optional[Sequence[int]] = None,
        assignment: Optional[Mapping[str, int]] = None,
    ) -> PoolInferenceReport:
        """Price one collection round of a fleet on the pool.

        Each entry ``(workload, count[, width])`` contributes ``count``
        workers whose batch-of-``width`` inferences are priced under *that*
        workload's layer dimensions (``width`` defaults to ``num_envs``) on
        the group's assigned device.  ``weights`` gives each group's
        lock-steps per round (the throughput-weighted schedule) and is
        stamped on each :class:`FleetGroupInference`, so the report
        describes the round the scheduler actually runs.
        """
        groups = tuple(
            FleetGroupInference(
                benchmark=platform.workload.benchmark,
                report=platform.infer_collection(width, count),
                weight=weight,
                device=device,
            )
            for platform, count, width, weight, device in self._resolve(
                fleet, num_envs, weights, assignment
            )
        )
        return PoolInferenceReport(placement=self.placement, groups=groups)
