"""Operation counting — the substrate for the Sim-Panalyzer substitution.

The paper derives its software energy numbers (Tables 3 and 6) by running
the algorithms on a StrongARM SA-1100 under Sim-Panalyzer, an instruction-
level power simulator.  We cannot run Sim-Panalyzer, so every builder
and software lookup in this library is instrumented with an
:class:`OpCounter` that tallies the architectural events the energy
model charges for:

========== ===========================================================
category    meaning
========== ===========================================================
``alu``     register-to-register integer ops (add/sub/cmp/shift/mask)
``mul``     integer multiplies
``div``     integer/floating divisions (the expensive op the paper
            removed region compaction to avoid)
``mem_read``   loads that miss into the external SRAM (node headers,
               child pointers, rule fields)
``mem_write``  stores to the search structure under construction
``alloc``   node allocations (header bookkeeping, free-list work)
``branch``  taken branches (loop iterations, tree descents)
========== ===========================================================

The weights that turn these tallies into SA-1100 cycles live in
:mod:`repro.energy.calibration`; keeping the *counting* here and the
*costing* there means the algorithmic code never sees power numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Canonical category names, so typos fail fast in tests.
CATEGORIES = ("alu", "mul", "div", "mem_read", "mem_write", "alloc", "branch")


@dataclass
class OpCounter:
    """Mutable tally of architectural events.

    Counters are plain ints; ``add`` is safe to call with NumPy integers.
    An ``OpCounter`` can be used as a context-local accumulator and merged
    into another with :meth:`merge`.
    """

    counts: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in CATEGORIES}
    )

    def add(self, category: str, n: int | float = 1) -> None:
        if category not in self.counts:
            raise KeyError(
                f"unknown op category {category!r}; known: {CATEGORIES}"
            )
        self.counts[category] += int(n)

    def merge(self, other: "OpCounter") -> None:
        for k, v in other.counts.items():
            self.counts[k] += v

    def reset(self) -> None:
        for k in self.counts:
            self.counts[k] = 0

    def total(self) -> int:
        """Unweighted total event count (used by monotonicity tests)."""
        return sum(self.counts.values())

    def copy(self) -> "OpCounter":
        c = OpCounter()
        c.counts = dict(self.counts)
        return c

    def __getitem__(self, category: str) -> int:
        return self.counts[category]

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)


class NullCounter:
    """Do-nothing stand-in used on hot paths when counting is disabled.

    Mirrors the :class:`OpCounter` interface; calls are O(1) no-ops so the
    builders can call ``ops.add(...)`` unconditionally.
    """

    __slots__ = ()

    def add(self, category: str, n: int | float = 1) -> None:  # noqa: D102
        pass

    def merge(self, other: object) -> None:  # noqa: D102
        pass


#: Shared singleton null counter.
NULL_COUNTER = NullCounter()
