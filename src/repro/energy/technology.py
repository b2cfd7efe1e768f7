"""Process-technology normalisation and the paper's device table.

Since the accelerator (65 nm) and the StrongARM SA-1100 (180 nm) are
implemented in different technologies, the paper normalises power to a
common 65 nm / 1.0 V point using eq (8)::

    P' = P * S^2 * U

with ``S`` the process scaling factor (target / source feature size) and
``U`` the voltage scaling factor ``(V_target / V_source)^2`` (dynamic
power is quadratic in supply voltage).  Table 5's asterisked numbers are
these normalised values; we embed the same operating points and derive
the raw powers back from them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's normalisation target.
TARGET_PROCESS_NM = 65.0
TARGET_VOLTAGE_V = 1.0


def scaling_factor(process_nm: float, target_nm: float = TARGET_PROCESS_NM) -> float:
    """``S`` of eq (8): linear feature-size ratio."""
    if process_nm <= 0:
        raise ValueError("process size must be positive")
    return target_nm / process_nm


def voltage_factor(voltage_v: float, target_v: float = TARGET_VOLTAGE_V) -> float:
    """``U`` of eq (8): quadratic supply-voltage ratio."""
    if voltage_v <= 0:
        raise ValueError("voltage must be positive")
    return (target_v / voltage_v) ** 2


def normalize_power(
    power_w: float,
    process_nm: float,
    voltage_v: float,
    target_nm: float = TARGET_PROCESS_NM,
    target_v: float = TARGET_VOLTAGE_V,
) -> float:
    """eq (8): ``P' = P * S^2 * U``."""
    s = scaling_factor(process_nm, target_nm)
    u = voltage_factor(voltage_v, target_v)
    return power_w * s * s * u


def denormalize_power(
    power_norm_w: float,
    process_nm: float,
    voltage_v: float,
    target_nm: float = TARGET_PROCESS_NM,
    target_v: float = TARGET_VOLTAGE_V,
) -> float:
    """Inverse of :func:`normalize_power` (recover the raw device power)."""
    s = scaling_factor(process_nm, target_nm)
    u = voltage_factor(voltage_v, target_v)
    return power_norm_w / (s * s * u)


@dataclass(frozen=True)
class DeviceSpec:
    """One column of the paper's Table 5."""

    name: str
    process_nm: float
    voltage_v: float
    freq_hz: float
    #: Datapath power at the stated frequency, *normalised* to 65 nm/1 V
    #: (the asterisked Table 5 numbers; the FPGA value includes memory and
    #: is already at 65 nm/1 V so raw == normalised).
    power_norm_w: float
    area_gates: int | None = None
    slices: int | None = None
    block_rams: int | None = None

    @property
    def power_raw_w(self) -> float:
        """Raw power in the device's native technology."""
        return denormalize_power(self.power_norm_w, self.process_nm, self.voltage_v)


#: Table 5, FPGA column: Virtex5SX95T, power includes datapath + memory.
VIRTEX5 = DeviceSpec(
    name="Virtex5SX95T",
    process_nm=65.0,
    voltage_v=1.0,
    freq_hz=77e6,
    power_norm_w=1.811,
    slices=3280,
    block_rams=134,
)

#: Table 5, ASIC column: TSMC 65 nm, datapath only.
ASIC65 = DeviceSpec(
    name="ASIC-65nm",
    process_nm=65.0,
    voltage_v=1.08,
    freq_hz=226e6,
    power_norm_w=18.32e-3,
    area_gates=51_488,
)

#: Table 5, StrongARM column: SA-1100 @ 200 MHz, datapath only.
SA1100 = DeviceSpec(
    name="StrongARM SA-1100",
    process_nm=180.0,
    voltage_v=1.8,
    freq_hz=200e6,
    power_norm_w=42.45e-3,
    area_gates=17_600_998,
)

#: Section 5.3 operating points for the ASIC at TCAM-comparison clocks.
ASIC_AT_133MHZ_MW = 11.65
ASIC_AT_226MHZ_MW = 19.79

DEVICES = {d.name: d for d in (VIRTEX5, ASIC65, SA1100)}
