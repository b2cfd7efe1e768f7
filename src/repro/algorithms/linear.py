"""Linear-search classifier — the semantic oracle and a software baseline.

Every accelerated classifier in the library (decision trees, RFC, TSS,
TCAM, the hardware simulator) must return exactly what this classifier
returns; tests enforce that with property-based comparisons.  It doubles
as the naive software baseline for the energy model: each lookup touches
every rule until the first match, the worst case the paper's introduction
motivates against.
"""

from __future__ import annotations

import numpy as np

from ..core.packet import PacketTrace
from ..core.ruleset import RuleSet
from .opcount import NULL_COUNTER, OpCounter


class LinearSearchClassifier:
    """First-match linear scan over the ruleset."""

    def __init__(self, ruleset: RuleSet) -> None:
        self.ruleset = ruleset
        self.arrays = ruleset.arrays

    def classify(self, header, ops: OpCounter | None = None) -> int:
        """Return the first matching rule id (or -1), charging per-rule
        costs to ``ops``: 5 interval loads + compares per rule visited."""
        counter = ops if ops is not None else NULL_COUNTER
        arr = self.arrays
        for r in range(arr.n):
            counter.add("mem_read", 5)
            counter.add("alu", 10)
            counter.add("branch", 1)
            ok = True
            for d in range(arr.schema.ndim):
                if not (arr.lo[d, r] <= header[d] <= arr.hi[d, r]):
                    ok = False
                    break
            if ok:
                return r
        return -1

    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        """Vectorised first match per header row (oracle for batches)."""
        return self.arrays.batch_match(headers)

    def classify_trace(self, trace: PacketTrace) -> np.ndarray:
        """Vectorised batch classification (oracle for whole traces)."""
        return self.classify_batch(trace.headers)

    def memory_bytes(self) -> int:
        """The raw ruleset storage (no auxiliary structure)."""
        return self.ruleset.storage_bytes()

    def memory_accesses_per_lookup(self) -> int:
        """Worst case: one 160-bit rule word read per rule in the set."""
        return self.arrays.n
