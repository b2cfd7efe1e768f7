"""Energy and power models: SA-1100 software, ASIC/FPGA accelerator,
TCAM/SRAM comparison points, and eq (8) technology normalisation."""

from .device_models import asic_model, fpga_model
from .flowcache import SRAM_ACCESS_ENERGY_J, CacheEnergyModel
from .updates import UpdateCostModel, ops_delta
from .metrics import (
    OC192,
    OC768,
    fmt_int,
    fmt_sci,
    gain,
    line_rate_feasibility,
    sustains_line_rate,
)
from .sa1100 import Sa1100Model
from .software_ops import rfc_lookup_ops, software_lookup_ops
from .tcam import (
    AYAMA_10128,
    AYAMA_10512,
    CY7C1370DV25,
    CY7C1381D,
    TCAM_ENTRY_BYTES,
    TcamModel,
)
from .technology import (
    ASIC65,
    ASIC_AT_133MHZ_MW,
    ASIC_AT_226MHZ_MW,
    SA1100,
    VIRTEX5,
    normalize_power,
)

__all__ = [
    "asic_model",
    "fpga_model",
    "SRAM_ACCESS_ENERGY_J",
    "CacheEnergyModel",
    "UpdateCostModel",
    "ops_delta",
    "OC192",
    "OC768",
    "fmt_int",
    "fmt_sci",
    "gain",
    "line_rate_feasibility",
    "sustains_line_rate",
    "Sa1100Model",
    "rfc_lookup_ops",
    "software_lookup_ops",
    "AYAMA_10128",
    "AYAMA_10512",
    "CY7C1370DV25",
    "CY7C1381D",
    "TCAM_ENTRY_BYTES",
    "TcamModel",
    "ASIC65",
    "ASIC_AT_133MHZ_MW",
    "ASIC_AT_226MHZ_MW",
    "SA1100",
    "VIRTEX5",
    "normalize_power",
]
