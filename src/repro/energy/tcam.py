"""TCAM and SRAM device models (Section 5.3's comparison points).

The paper argues the accelerator beats state-of-the-art TCAM search
engines on power:

* Cypress Ayama 10000 family NSEs consume "between 4.86-19.14 W depending
  on the TCAM size"; the **Ayama 10128** draws 2.9 W at 77 MHz with
  576,000 bytes, the **Ayama 10512** 19.14 W at 133 MHz with 2.304 MB
  (133 Mpps peak);
* the companion SRAM chips: **CY7C1381D** (2.304 MB) 693 mW @ 133 MHz /
  3.3 V, **CY7C1370DV25** (2.304 MB) 875 mW @ 250 MHz / 2.5 V;
* the accelerator consumes 11.65 mW @ 133 MHz and 19.79 mW @ 226 MHz.

:class:`TcamModel` interpolates the Ayama operating points with the
standard affine-in-size, linear-in-frequency CAM power law
``P = (p0 + p1 * bytes) * f`` fitted through the two datasheet points;
tests pin the fit to reproduce both points exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

#: TCAM slot width used by the paper's search engines (bits per entry).
TCAM_ENTRY_BITS = 144
TCAM_ENTRY_BYTES = TCAM_ENTRY_BITS // 8  # 18


@dataclass(frozen=True)
class TcamOperatingPoint:
    name: str
    size_bytes: int
    freq_hz: float
    power_w: float
    lookups_per_second: float


AYAMA_10128 = TcamOperatingPoint(
    name="Cypress Ayama 10128",
    size_bytes=576_000,
    freq_hz=77e6,
    power_w=2.9,
    lookups_per_second=77e6,
)

AYAMA_10512 = TcamOperatingPoint(
    name="Cypress Ayama 10512",
    size_bytes=2_304_000,
    freq_hz=133e6,
    power_w=19.14,
    lookups_per_second=133e6,
)


@dataclass(frozen=True)
class SramChip:
    name: str
    size_bytes: int
    freq_hz: float
    power_w: float
    voltage_v: float


CY7C1381D = SramChip(
    name="CY7C1381D", size_bytes=2_304_000, freq_hz=133e6, power_w=0.693,
    voltage_v=3.3,
)

CY7C1370DV25 = SramChip(
    name="CY7C1370DV25", size_bytes=2_304_000, freq_hz=250e6, power_w=0.875,
    voltage_v=2.5,
)


class TcamModel:
    """Affine-in-size, linear-in-frequency TCAM power model.

    ``P(bytes, f) = (p0 + p1 * bytes) * f`` fitted through the Ayama
    10128 and 10512 datasheet points.
    """

    def __init__(
        self,
        point_a: TcamOperatingPoint = AYAMA_10128,
        point_b: TcamOperatingPoint = AYAMA_10512,
    ) -> None:
        ka = point_a.power_w / point_a.freq_hz
        kb = point_b.power_w / point_b.freq_hz
        self.p1 = (kb - ka) / (point_b.size_bytes - point_a.size_bytes)
        self.p0 = ka - self.p1 * point_a.size_bytes
        self.point_a = point_a
        self.point_b = point_b

    def power_w(self, size_bytes: float, freq_hz: float) -> float:
        """Power of a TCAM of ``size_bytes`` clocked at ``freq_hz``."""
        if size_bytes < 0 or freq_hz <= 0:
            raise ValueError("size and frequency must be positive")
        return (self.p0 + self.p1 * size_bytes) * freq_hz

    def energy_per_lookup_j(self, size_bytes: float, freq_hz: float) -> float:
        """One lookup per cycle (the O(1) TCAM property)."""
        return self.power_w(size_bytes, freq_hz) / freq_hz

    def throughput_pps(self, freq_hz: float) -> float:
        """TCAMs classify one packet per clock (plus pipelining)."""
        return freq_hz


#: Transistor-count comparison the paper cites: a TCAM bit needs 10-12
#: transistors, an SRAM bit 4-6.
TCAM_TRANSISTORS_PER_BIT = (10, 12)
SRAM_TRANSISTORS_PER_BIT = (4, 6)

#: Storage-efficiency band for range rules in TCAMs reported by
#: Spitznagel, Taylor & Turner ([14]): 16-53 %, average 34 %.
TCAM_STORAGE_EFFICIENCY_RANGE = (0.16, 0.53)
TCAM_STORAGE_EFFICIENCY_AVG = 0.34
