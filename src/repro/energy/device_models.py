"""ASIC and FPGA power/energy models for the accelerator.

The paper measures post-place-and-route power with annotated switching
activity (Synopsys PrimePower for the 65 nm ASIC, Xilinx XPower for the
Virtex-5).  Our stand-in (DESIGN.md §4) charges energy per *active cycle*
— every cycle the accelerator holds its memory port it burns
``ACTIVE_POWER_FRACTION`` of the device's reported power; idle cycles
burn the static remainder.  With back-to-back traffic (the paper's
tables) the accelerator never idles, so

    E/packet = P_active * mean_occupancy / f

which lands within a few percent of Table 6's values when occupancy is
1.0 (their 60-rule rows).
"""

from __future__ import annotations

from dataclasses import dataclass


from ..hw.accelerator import AcceleratorRun
from .calibration import ACTIVE_POWER_FRACTION
from .technology import ASIC65, VIRTEX5, DeviceSpec


@dataclass
class AcceleratorCost:
    """Energy/throughput summary of a trace run on a device."""

    device: str
    freq_hz: float
    mean_occupancy: float
    throughput_pps: float
    energy_per_packet_norm_j: float
    avg_power_norm_w: float
    worst_latency_cycles: int


class AcceleratorPowerModel:
    """Activity-based power model for the hardware accelerator."""

    def __init__(
        self,
        device: DeviceSpec,
        active_fraction: float = ACTIVE_POWER_FRACTION,
    ) -> None:
        if not 0 < active_fraction <= 1:
            raise ValueError("active_fraction must be in (0, 1]")
        self.device = device
        self.active_fraction = active_fraction

    # ------------------------------------------------------------------
    @property
    def active_power_norm_w(self) -> float:
        return self.device.power_norm_w * self.active_fraction

    def energy_per_packet_j(self, mean_occupancy: float) -> float:
        """Normalised Joules per packet under back-to-back traffic."""
        return self.active_power_norm_w * mean_occupancy / self.device.freq_hz

    # ------------------------------------------------------------------
    def evaluate(self, run: AcceleratorRun, freq_hz: float | None = None) -> AcceleratorCost:
        """Summarise a trace run on this device (Tables 6/7 inputs)."""
        f = freq_hz if freq_hz is not None else self.device.freq_hz
        mo = run.mean_occupancy()
        return AcceleratorCost(
            device=self.device.name,
            freq_hz=f,
            mean_occupancy=mo,
            throughput_pps=f / mo if mo else 0.0,
            energy_per_packet_norm_j=self.active_power_norm_w * mo / f,
            avg_power_norm_w=self.active_power_norm_w,
            worst_latency_cycles=run.worst_latency(),
        )


def asic_model() -> AcceleratorPowerModel:
    """The paper's 65 nm ASIC implementation (226 MHz, 51,488 gates)."""
    return AcceleratorPowerModel(ASIC65)


def fpga_model() -> AcceleratorPowerModel:
    """The paper's Virtex5SX95T implementation (77 MHz, datapath + BRAM)."""
    return AcceleratorPowerModel(VIRTEX5)
