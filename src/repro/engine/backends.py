"""Engine adapters for backends that need build configuration.

Most classifiers in the library (linear, RFC, TSS, TCAM, incremental)
already construct themselves from a ruleset and satisfy the
:class:`~repro.engine.protocol.Classifier` protocol directly.  The two
adapters here wrap the structures that need a build pipeline:

* :class:`DecisionTreeClassifier` — builds a HiCuts or HyperCuts tree
  (software or grid/hardware mode) and serves lookups through the
  compiled :class:`~repro.algorithms.flat_tree.FlatTree` kernel's
  match-only walk (``batch_match``), eagerly compiled at build time;
* :class:`AcceleratorClassifier` — builds the grid-mode tree, places and
  encodes it into the 4800-bit-word memory image, and serves lookups
  through the vectorised accelerator model, reporting per-packet
  occupancy so the pipeline can aggregate throughput and energy.
"""

from __future__ import annotations

import numpy as np

from ..algorithms import OpCounter, tree_builder
from ..core.packet import PacketTrace
from ..core.ruleset import RuleSet
from ..hw import Accelerator, MemoryImage, build_memory_image
from ..hw.memory import DEFAULT_CAPACITY_WORDS
from .protocol import BatchOut, BatchStats, ClassifierBase, batch_out, tallied

class DecisionTreeClassifier(ClassifierBase):
    """HiCuts/HyperCuts decision tree behind the uniform engine surface."""

    def __init__(
        self,
        ruleset: RuleSet,
        algorithm: str = "hicuts",
        binth: int = 16,
        spfac: float = 4.0,
        hw_mode: bool = False,
        ops: OpCounter | None = None,
        **_ignored,
    ) -> None:
        self.backend_name = algorithm
        self.ruleset = ruleset
        self.schema = ruleset.schema
        self.tree = tree_builder(
            algorithm, ruleset, ops, binth=binth, spfac=spfac, hw_mode=hw_mode
        ).build()
        # Compile the flat-array kernel eagerly: serving adapters are
        # built once and queried many times (and forked pipeline workers
        # inherit the compiled buffers copy-on-write).
        self.tree.flat
        self.build_ops = ops

    def classify(self, header) -> int:
        return self.tree.classify(header)

    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        return self.tree.flat.batch_match(headers)

    def memory_bytes(self) -> int:
        return self.tree.software_memory_bytes()

    def memory_accesses_per_lookup(self) -> int:
        return self.tree.stats().worst_case_sw_accesses


class AcceleratorClassifier(ClassifierBase):
    """The paper's hardware accelerator as an engine backend.

    Builds the grid-mode tree with the paper's hardware binth (a leaf
    fills one memory word), encodes the memory image, and classifies with
    the vectorised :class:`~repro.hw.Accelerator` model.  ``batch_stats``
    carries the per-packet occupancy (memory-port cycles), which is what
    the pipeline converts into throughput and energy per packet.
    """

    backend_name = "accelerator"
    models_occupancy = True

    def __init__(
        self,
        ruleset: RuleSet,
        algorithm: str = "hypercuts",
        binth: int = 30,
        spfac: float = 4.0,
        speed: int = 1,
        capacity_words: int = DEFAULT_CAPACITY_WORDS,
        ops: OpCounter | None = None,
        **_ignored,
    ) -> None:
        self.ruleset = ruleset
        self.schema = ruleset.schema
        self.algorithm = algorithm
        self.tree = tree_builder(
            algorithm, ruleset, ops, binth=binth, spfac=spfac, hw_mode=True
        ).build()
        self.image: MemoryImage = build_memory_image(
            self.tree, speed=speed, capacity_words=capacity_words
        )
        self.accelerator = Accelerator(self.image)
        self.build_ops = ops

    def classify(self, header) -> int:
        return self.accelerator.classify(header)

    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        return self.batch_stats(headers).match

    def batch_stats(
        self, headers: np.ndarray, out: BatchOut | None = None
    ) -> BatchStats:
        """Matches and occupancy written into ``out`` (fresh arrays when
        ``None``) by the walk, which adds their tallies as it goes."""
        out = out or batch_out(len(headers), True)
        self.accelerator.match_occupancy(headers, *out)
        return tallied(out)

    def run_trace(self, trace: PacketTrace):
        """The full :class:`~repro.hw.AcceleratorRun` (experiment tables)."""
        return self.accelerator.run_trace(trace)

    def memory_bytes(self) -> int:
        return self.image.bytes_used

    def memory_accesses_per_lookup(self) -> int:
        return self.image.worst_case_cycles()
