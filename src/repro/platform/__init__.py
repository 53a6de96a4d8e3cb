"""System-level platform models: FIXAR (CPU + FPGA) and the CPU-GPU baseline.

Composes the host-CPU, PCIe/runtime, accelerator, and GPU timing models into
end-to-end timestep latencies, throughput (IPS), and energy efficiency, which
is what the paper's Figs. 8–10 report.
"""

from .cosim import CoSimulationResult, PlatformCoSimulation
from .energy import CampaignEstimate, estimate_training_campaign
from .fixar_platform import (
    PAPER_BATCH_SIZES,
    BatchInferenceReport,
    CollectionInferenceReport,
    FixarPlatform,
    WorkloadSpec,
)
from .gpu_baseline import CpuGpuPlatform, GpuAcceleratorModel, GpuConfig
from .host import HostConfig, HostModel
from .pool import (
    PLACEMENTS,
    AcceleratorPool,
    FleetGroupInference,
    PoolInferenceReport,
    ShardedInferenceReport,
)
from .metrics import (
    average_ips,
    geometric_mean,
    ips,
    ips_per_watt,
    normalize_to_dsp,
    speedup,
)
from .pcie import PcieConfig, PcieModel

__all__ = [
    "FixarPlatform",
    "BatchInferenceReport",
    "CollectionInferenceReport",
    "FleetGroupInference",
    "AcceleratorPool",
    "PoolInferenceReport",
    "ShardedInferenceReport",
    "PLACEMENTS",
    "WorkloadSpec",
    "PAPER_BATCH_SIZES",
    "PlatformCoSimulation",
    "CoSimulationResult",
    "CampaignEstimate",
    "estimate_training_campaign",
    "CpuGpuPlatform",
    "GpuAcceleratorModel",
    "GpuConfig",
    "HostModel",
    "HostConfig",
    "PcieModel",
    "PcieConfig",
    "ips",
    "ips_per_watt",
    "speedup",
    "geometric_mean",
    "normalize_to_dsp",
    "average_ips",
]
