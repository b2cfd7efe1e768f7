"""Shared experiment pipeline for regenerating the paper's tables.

Tables 2/3/6/7/8 all consume the same artefacts per acl1 ruleset size:
the four search structures (original and modified HiCuts/HyperCuts), the
hardware memory images, a packet trace and the trace-level runs.  The
:class:`Pipeline` builds each artefact once and caches it so every table
module stays a thin projection.

``quick=True`` shrinks trace lengths and the Table 4 size grid so the
whole suite runs in CI time; the full configuration reproduces the
paper's grids (see EXPERIMENTS.md for the recorded outputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


from ..algorithms import (
    DecisionTree,
    OpCounter,
    build_hicuts,
    build_hypercuts,
)
from ..algorithms.base import BatchLookup
from ..classbench import generate_ruleset, generate_trace
from ..core.packet import PacketTrace
from ..core.ruleset import RuleSet
from ..engine.backends import AcceleratorClassifier, DecisionTreeClassifier
from ..serve import Engine, EngineConfig
from ..hw import (
    AcceleratorRun,
    LayoutMeasurement,
    MemoryImage,
    measure_layout,
)
from .paper_values import ACL1_SIZES, TABLE4_SIZES

#: The paper's parameter headline for every table: spfac=4, speed=1.
PAPER_SPFAC = 4
PAPER_SPEED = 1

#: binth conventions (DESIGN.md §6): the paper leaves binth unstated; we
#: fix 16 for the original software algorithms (HiCuts' customary value)
#: and 30 for the hardware structures (a leaf fills one memory word).
BINTH_SOFTWARE = 16
BINTH_HARDWARE = 30

#: The quick Table 4 grids: a subset of each family's paper grid.
TABLE4_SIZES_QUICK = {
    "acl1": (300, 2500, 10000),
    "fw1": (300, 2500, 10000),
    "ipc1": (300, 2500, 10000),
}

#: Ceiling for *encoded* images: the 12-bit word-address field tops out at
#: 4096 words.  Structures beyond this are measured with
#: :func:`repro.hw.measure_layout` (Table 4's oversized fw1 rows).
MEASUREMENT_CAPACITY_WORDS = 1 << 12


@dataclass
class Variant:
    """One built classifier variant and its artefacts."""

    name: str  # "hicuts" | "hypercuts"
    hw: bool
    tree: DecisionTree
    build_ops: OpCounter
    image: MemoryImage | None = None  # hw variants only
    batch: BatchLookup | None = None
    run: AcceleratorRun | None = None  # hw variants only


@dataclass
class Workload:
    """A ruleset, its trace, and the four algorithm variants."""

    family: str
    size: int
    ruleset: RuleSet
    trace: PacketTrace
    sw: dict[str, Variant] = field(default_factory=dict)
    hw: dict[str, Variant] = field(default_factory=dict)


class Pipeline:
    """Builds and caches every artefact the table experiments need."""

    def __init__(
        self,
        seed: int = 7,
        trace_packets: int = 100_000,
        quick: bool = False,
        speed: int = PAPER_SPEED,
        spfac: float = PAPER_SPFAC,
    ) -> None:
        self.seed = seed
        self.quick = quick
        self.trace_packets = 20_000 if quick else trace_packets
        self.speed = speed
        self.spfac = spfac
        self._workloads: dict[tuple[str, int], Workload] = {}

    # ------------------------------------------------------------------
    def acl1_sizes(self) -> tuple[int, ...]:
        return ACL1_SIZES if not self.quick else ACL1_SIZES[::2]

    def table4_sizes(self, family: str) -> tuple[int, ...]:
        grid = TABLE4_SIZES_QUICK if self.quick else TABLE4_SIZES
        return grid[family]

    # ------------------------------------------------------------------
    def workload(
        self, family: str, size: int, with_software: bool = True
    ) -> Workload:
        """Ruleset + trace + built variants, cached per (family, size)."""
        key = (family, size)
        wl = self._workloads.get(key)
        if wl is None:
            ruleset = generate_ruleset(family, size, seed=self.seed)
            trace = generate_trace(
                ruleset, self.trace_packets, seed=self.seed + 1
            )
            wl = Workload(family=family, size=size, ruleset=ruleset, trace=trace)
            self._workloads[key] = wl
        if with_software and not wl.sw:
            wl.sw = self._build_software(wl)
        if not wl.hw:
            wl.hw = self._build_hardware(wl)
        return wl

    def layout_measurements(
        self, family: str, size: int
    ) -> dict[str, LayoutMeasurement]:
        """Placement-only structure measurements (Table 4's path; no word
        encoding, no capacity limit, no trace runs)."""
        key = ("layout", family, size)
        cached = self._workloads.get(key)  # type: ignore[arg-type]
        if cached is not None:
            return cached  # type: ignore[return-value]
        ruleset = generate_ruleset(family, size, seed=self.seed)
        out: dict[str, LayoutMeasurement] = {}
        for name, fn in (("hicuts", build_hicuts), ("hypercuts", build_hypercuts)):
            tree = fn(
                ruleset, binth=BINTH_HARDWARE, spfac=self.spfac, hw_mode=True
            )
            out[name] = measure_layout(tree, speed=self.speed)
        self._workloads[key] = out  # type: ignore[assignment]
        return out

    # ------------------------------------------------------------------
    def _build_software(self, wl: Workload) -> dict[str, Variant]:
        """The original software algorithms, built declaratively: the
        ``software=True`` config routes tree names onto the plain
        decision-tree backend instead of the accelerator."""
        out = {}
        for name in ("hicuts", "hypercuts"):
            ops = OpCounter()
            config = EngineConfig(
                backend=name, binth=BINTH_SOFTWARE, spfac=self.spfac,
                software=True,
            )
            clf: DecisionTreeClassifier = Engine.build_classifier(
                config, wl.ruleset, ops=ops,
            )
            variant = Variant(name=name, hw=False, tree=clf.tree, build_ops=ops)
            variant.batch = clf.tree.batch_lookup(wl.trace)
            out[name] = variant
        return out

    def _build_hardware(self, wl: Workload) -> dict[str, Variant]:
        """The accelerator variants: the default (non-software) config
        maps a tree name onto the hardware backend, exactly like the
        CLI's ``classify --algorithm hicuts``."""
        out = {}
        for name in ("hicuts", "hypercuts"):
            ops = OpCounter()
            config = EngineConfig(
                backend=name, binth=BINTH_HARDWARE, spfac=self.spfac,
                speed=self.speed,
            )
            clf: AcceleratorClassifier = Engine.build_classifier(
                config, wl.ruleset,
                capacity_words=MEASUREMENT_CAPACITY_WORDS, ops=ops,
            )
            variant = Variant(name=name, hw=True, tree=clf.tree, build_ops=ops)
            variant.image = clf.image
            variant.run = clf.run_trace(wl.trace)
            variant.batch = None  # the run carries everything hw tables need
            out[name] = variant
        return out


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------
def render_table(
    title: str, headers: list[str], rows: Iterable[Iterable[object]]
) -> str:
    """Plain-text table in the style of the paper's layout."""
    srows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "  "
    lines = [title, "-" * len(title)]
    lines.append(sep.join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in srows:
        lines.append(sep.join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def shape_check(label: str, condition: bool) -> str:
    """One-line pass/fail marker for DESIGN.md's shape assertions."""
    return f"[{'PASS' if condition else 'FAIL'}] {label}"
