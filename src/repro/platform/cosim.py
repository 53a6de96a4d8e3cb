"""Trace-driven co-simulation of the FIXAR platform.

The analytical models in :mod:`repro.platform` answer "how long would one
timestep take"; the co-simulation runs an *actual* reduced-scale training
loop (real environment steps, real DDPG updates under the fixed-point
numerics) and charges every timestep with the modelled host / PCIe / FPGA
time for its batch size and the precision mode in force at that moment.
The result is an end-to-end trace: simulated wall-clock per component,
platform IPS as the paper defines it (processed batch transitions divided by
end-to-end time), the effect of the QAT precision switch on the trace, and
the same trace priced on the CPU-GPU baseline for comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..rl.ddpg import DDPGAgent
from ..rl.noise import GaussianNoise
from ..rl.qat import QATController
from ..rl.replay_buffer import ReplayBuffer
from ..rl.training import TrainingConfig
from .fixar_platform import FixarPlatform
from .gpu_baseline import CpuGpuPlatform

__all__ = ["CoSimulationResult", "PlatformCoSimulation"]


@dataclass
class CoSimulationResult:
    """Outcome of one co-simulated training run."""

    timesteps: int = 0
    training_updates: int = 0
    transitions_processed: int = 0
    simulated_seconds: float = 0.0
    component_seconds: Dict[str, float] = field(default_factory=dict)
    baseline_seconds: float = 0.0
    precision_switch_timestep: Optional[int] = None
    episode_returns: List[float] = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    @property
    def platform_ips(self) -> float:
        """Simulated platform throughput (batch transitions per second)."""
        if self.simulated_seconds <= 0:
            return 0.0
        return self.transitions_processed / self.simulated_seconds

    @property
    def baseline_ips(self) -> float:
        """The same trace priced on the CPU-GPU baseline."""
        if self.baseline_seconds <= 0:
            return 0.0
        return self.transitions_processed / self.baseline_seconds

    @property
    def speedup_vs_baseline(self) -> float:
        if self.simulated_seconds <= 0:
            return 0.0
        return self.baseline_seconds / self.simulated_seconds

    def summary(self) -> Dict[str, float]:
        summary = {
            "timesteps": float(self.timesteps),
            "training_updates": float(self.training_updates),
            "simulated_seconds": self.simulated_seconds,
            "platform_ips": self.platform_ips,
            "baseline_ips": self.baseline_ips,
            "speedup_vs_baseline": self.speedup_vs_baseline,
            "wall_clock_seconds": self.wall_clock_seconds,
        }
        for component, seconds in self.component_seconds.items():
            summary[f"{component}_seconds"] = seconds
        return summary


class PlatformCoSimulation:
    """Runs real training while accumulating modelled platform time."""

    def __init__(
        self,
        env,
        agent: DDPGAgent,
        platform: FixarPlatform,
        training: TrainingConfig,
        qat_controller: Optional[QATController] = None,
        baseline: Optional[CpuGpuPlatform] = None,
    ):
        self.env = env
        self.agent = agent
        self.platform = platform
        self.training = training
        self.qat_controller = qat_controller
        self.baseline = baseline or CpuGpuPlatform()

    def run(self) -> CoSimulationResult:
        """Execute the training trace and price every timestep."""
        config = self.training
        rng = np.random.default_rng(config.seed)
        noise = GaussianNoise(self.agent.action_dim, config.exploration_noise, seed=config.seed)
        buffer = ReplayBuffer(
            config.buffer_capacity, self.agent.state_dim, self.agent.action_dim, seed=config.seed
        )
        result = CoSimulationResult()
        result.component_seconds = {"cpu_environment": 0.0, "runtime": 0.0, "fpga": 0.0}

        # repro-lint: allow[deterministic-oracles]: co-simulation reports real wall clock *alongside* modelled time, never inside a price
        wall_start = time.perf_counter()
        observation = self.env.reset()
        episode_return = 0.0

        for timestep in range(config.total_timesteps):
            if self.qat_controller is not None and not self.qat_controller.switched:
                event = self.qat_controller.on_timestep(timestep)
                if event is not None:
                    result.precision_switch_timestep = event.timestep
                    # From this point the accelerator runs its dual 16-bit
                    # datapath, which the timing model prices accordingly.
                    self.platform = self.platform.with_precision_state(
                        {"default": 16, "layers": {}}
                    )

            # ----- Functional step (host environment + agent) -------------- #
            if timestep < config.warmup_timesteps:
                action = rng.uniform(-1.0, 1.0, size=self.agent.action_dim)
            else:
                action = self.agent.act(observation, noise.sample())
            next_observation, reward, done, _ = self.env.step(action)
            buffer.add(observation, action, reward, next_observation, done)
            episode_return += reward
            observation = next_observation
            if done:
                result.episode_returns.append(episode_return)
                episode_return = 0.0
                observation = self.env.reset()
                noise.reset()

            trained = False
            if len(buffer) >= config.batch_size and timestep >= config.warmup_timesteps:
                self.agent.update(buffer.sample(config.batch_size))
                result.training_updates += 1
                trained = True

            # ----- Modelled platform time for this timestep ---------------- #
            breakdown = self.platform.timestep_breakdown(config.batch_size)
            if not trained:
                # Before the replay buffer warms up only the environment and
                # the (single-state) inference transfer run; charge the host
                # time and a minimal runtime transfer, but no training batch.
                breakdown = {
                    "cpu_environment": breakdown["cpu_environment"],
                    "runtime": self.platform.pcie.config.base_overhead_seconds,
                    "fpga": self.platform.timing.forward_cycles(
                        self.platform.workload.actor_shapes, 1, self.platform.half_precision
                    ) / self.platform.accelerator_config.clock_hz,
                }
            for component, seconds in breakdown.items():
                result.component_seconds[component] += seconds
            result.simulated_seconds += sum(breakdown.values())
            result.baseline_seconds += self.baseline.timestep_seconds(
                self.platform.workload.benchmark, config.batch_size
            )
            if trained:
                result.transitions_processed += config.batch_size
            result.timesteps += 1

        # repro-lint: allow[deterministic-oracles]: closes the wall-clock measurement opened above; not a modelled price
        result.wall_clock_seconds = time.perf_counter() - wall_start
        return result
