"""Core substrate: rules, rulesets, packets and interval geometry.

Everything else in :mod:`repro` is built on these types.
"""

from .errors import (
    BuildError,
    CapacityError,
    ConfigError,
    EncodingError,
    PacketFormatError,
    ReproError,
    SimulationError,
)
from .geometry import (
    grid_cell_to_range,
    prefix_to_range,
    range_is_prefix,
    range_to_prefix_cover,
)
from .packet import Packet, PacketTrace
from .rules import (
    DEMO_SCHEMA,
    DIM_DST_PORT,
    DIM_PROTO,
    FIVE_TUPLE,
    FieldSchema,
    Rule,
    RuleArrays,
    make_demo_ruleset,
)
from .ruleset import RuleSet

__all__ = [
    "BuildError",
    "CapacityError",
    "ConfigError",
    "EncodingError",
    "PacketFormatError",
    "ReproError",
    "SimulationError",
    "grid_cell_to_range",
    "prefix_to_range",
    "range_is_prefix",
    "range_to_prefix_cover",
    "Packet",
    "PacketTrace",
    "DEMO_SCHEMA",
    "DIM_DST_PORT",
    "DIM_PROTO",
    "FIVE_TUPLE",
    "FieldSchema",
    "Rule",
    "RuleArrays",
    "make_demo_ruleset",
    "RuleSet",
]
