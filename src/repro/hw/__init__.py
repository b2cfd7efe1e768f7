"""Hardware accelerator substrate: memory encodings, layout, simulators.

Implements Section 3's memory organisation (4800-bit words, 160-bit rules,
256-entry internal nodes, internal-first layout with the ``speed``
parameter) and Section 4's architecture (Figure 4 datapath, Figure 5 FSM)
as a cycle-accurate functional simulator plus a vectorised trace model.
"""

from .accelerator import Accelerator, AcceleratorFSM, AcceleratorRun, figure5_trace
from .encoding import (
    RULES_PER_WORD,
    ChildEntry,
    decode_internal_node,
    decode_rule,
    encode_internal_node,
    encode_rule,
    pack_leaf_word,
    unpack_leaf_word,
)
from .layout import (
    LayoutMeasurement,
    MemoryImage,
    build_memory_image,
    measure_layout,
)
from .memory import DEFAULT_CAPACITY_WORDS, N_MEMORY_BLOCKS, Placement

__all__ = [
    "Accelerator",
    "AcceleratorFSM",
    "AcceleratorRun",
    "figure5_trace",
    "RULES_PER_WORD",
    "ChildEntry",
    "decode_internal_node",
    "decode_rule",
    "encode_internal_node",
    "encode_rule",
    "pack_leaf_word",
    "unpack_leaf_word",
    "LayoutMeasurement",
    "MemoryImage",
    "build_memory_image",
    "measure_layout",
    "DEFAULT_CAPACITY_WORDS",
    "N_MEMORY_BLOCKS",
    "Placement",
]
