"""`SweepSpec` — the declarative description of a scenario grid.

The paper's evaluation is a *matrix* (ClassBench acl1/fw1/ipc1 families
at Table-4 sizes against OC-48/192/768 line rates), and the related
range-classification papers (RVH, the computational-approach line of
work) report family x size x skew grids as their headline evidence.  A
``SweepSpec`` names the axes of such a grid once, declaratively:

* ``families`` x ``sizes`` — the ClassBench workload (Table-4 scale);
* ``backends`` — any registered engine backend name;
* ``shards`` x ``shard_modes`` — the pipeline shape;
* ``cache_entries`` (x ``cache_ways``) — the flow-cache geometry
  (``0`` means "no cache", a real point on the grid);
* ``skews`` — Zipf flow-popularity skew of the trace;
* ``packet_bytes`` — wire packet size for line-rate feasibility;
* ``churn_rates`` — live rule updates per 1000 packets (0 = static);
* ``tenants`` — how many tenants share the cell's engine through a
  :class:`~repro.serve.MultiTenantEngine` session (1 = the plain
  single-tenant serving path; see ``docs/engine.md``);
* ``scenarios`` — the serving surface each cell executes through:
  ``"bare"`` (a plain :class:`~repro.serve.Engine` session) or
  ``"linecard"`` (the full :mod:`repro.stages` RX stage graph over the
  same engine config; see ``docs/linecard.md``).

:meth:`SweepSpec.expand` takes the cross product of every axis and
yields concrete :class:`SweepCell`\\ s, each of which maps onto exactly
one :class:`~repro.serve.EngineConfig` (:meth:`SweepCell.engine_config`)
plus a fully seeded workload.  Seeding is *deterministic per cell
coordinate*: the same spec always expands to the same per-cell configs
and seeds (the sweep test suite pins this), so a grid cell is
reproducible in isolation — ``--filter family=fw1`` reruns exactly the
cells a full sweep would have run.

The field checks and the JSON round-trip come from the
:class:`repro.core.spec.Spec` codec (every axis is a non-empty list of
distinct values).
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass

from ..classbench import FAMILIES
from ..core.errors import ConfigError
from ..core.spec import Spec, field
from ..engine.pipeline import SHARD_MODES
from ..engine.registry import backend_spec
from ..serve import EngineConfig

#: Named sweep tiers (see :func:`default_spec`).
TIERS = ("quick", "full", "soak")

#: The serving scenarios the ``scenarios`` axis accepts.
SCENARIOS = ("bare", "linecard")


def _axis(default: tuple, **meta):
    """A grid axis: a non-empty list of distinct values."""
    return field(default, nonempty=True, **meta)


@dataclass(frozen=True)
class SweepCell:
    """One concrete grid point: a workload + an engine configuration.

    ``seed`` is the spec's base seed; the per-purpose seeds below mix
    it with the *workload-shaping* coordinates only (stable CRC, never
    expansion order), so filtering or reordering the grid cannot change
    any cell's workload — and cells differing only in engine shape
    (backend/shards/cache) draw the exact same ruleset and trace.
    """

    family: str
    size: int
    backend: str
    shards: int
    shard_mode: str
    cache_entries: int
    cache_ways: int
    skew: float
    packet_bytes: int
    churn: int
    packets: int
    flows: int
    chunk_size: int
    seed: int
    tenants: int = 1
    scenario: str = "bare"

    @property
    def cell_id(self) -> str:
        """Stable axis-coordinate key (the ``cells`` key in the
        artifact, and what ``--filter`` selects against).  The tenants
        and scenario coordinates only appear for non-default cells, so
        grids that never touch those axes keep their historical cell
        ids (and their committed baselines)."""
        suffix = f"/t{self.tenants}" if self.tenants > 1 else ""
        if self.scenario != "bare":
            suffix += f"/{self.scenario}"
        return (
            f"{self.family}/{self.size}/{self.backend}"
            f"/s{self.shards}-{self.shard_mode}"
            f"/e{self.cache_entries}w{self.cache_ways}"
            f"/z{self.skew:g}/p{self.packet_bytes}/u{self.churn}{suffix}"
        )

    def engine_config(self) -> EngineConfig:
        """The :class:`~repro.serve.EngineConfig` this cell executes."""
        return EngineConfig(
            backend=self.backend,
            shards=self.shards,
            shard_mode=self.shard_mode,
            chunk_size=self.chunk_size,
            cache_entries=self.cache_entries,
            cache_ways=self.cache_ways,
            updatable=self.churn > 0,
        )

    # -- per-purpose seeds ------------------------------------------------
    # Workload seeds depend only on the coordinates that shape the
    # workload, so cells differing in backend/shards/cache share the
    # exact same ruleset and trace — the grid compares engines, not
    # sampling noise.
    @property
    def ruleset_seed(self) -> int:
        return _stable_seed(self.seed, f"ruleset:{self.family}:{self.size}")

    @property
    def trace_seed(self) -> int:
        return _stable_seed(
            self.seed,
            f"trace:{self.family}:{self.size}:{self.skew:g}"
            f":{self.flows}:{self.packets}",
        )

    @property
    def update_seed(self) -> int:
        return _stable_seed(
            self.seed,
            f"updates:{self.family}:{self.size}:{self.churn}:{self.packets}",
        )


def _stable_seed(base: int, key: str) -> int:
    """Deterministic 31-bit seed from a base seed and a coordinate key
    (CRC32, not ``hash()`` — independent of ``PYTHONHASHSEED``)."""
    return (base * 2654435761 + zlib.crc32(key.encode())) % (2**31 - 1)


@dataclass(frozen=True)
class SweepSpec(Spec):
    """Declarative, validated, immutable sweep-grid description."""

    name: str = field("paper-grid", nonempty=True)
    families: tuple[str, ...] = _axis(
        ("acl1", "fw1", "ipc1"), choices=tuple(sorted(FAMILIES))
    )
    sizes: tuple[int, ...] = _axis((300, 1200, 2500), min=1)
    backends: tuple[str, ...] = _axis(("hypercuts", "tuple_space"))
    shards: tuple[int, ...] = _axis((1,), min=1)
    shard_modes: tuple[str, ...] = _axis(("auto",), choices=SHARD_MODES)
    cache_entries: tuple[int, ...] = _axis((0, 4096), min=0)
    cache_ways: int = field(4, min=1)
    skews: tuple[float, ...] = _axis((0.7, 1.1), min=0.0)
    packet_bytes: tuple[int, ...] = _axis((40,), min=1)
    churn_rates: tuple[int, ...] = _axis((0,), min=0)
    tenants: tuple[int, ...] = _axis((1,), min=1)
    scenarios: tuple[str, ...] = _axis(("bare",), choices=SCENARIOS)
    packets: int = field(20_000, min=1)
    flows: int = field(1024, min=1)
    chunk_size: int = field(4096, min=1)
    seed: int = 7

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        super().__post_init__()
        for f in dataclasses.fields(self):
            values = getattr(self, f.name)
            if isinstance(values, tuple) and len(set(values)) != len(values):
                raise ConfigError(
                    f"{f.name} contains duplicate values: {list(values)!r}"
                )
        if "linecard" in self.scenarios and any(t > 1 for t in self.tenants):
            raise ConfigError(
                "the linecard scenario serves a single tenant; drop the "
                "multi-tenant values from the tenants axis or the "
                "linecard value from scenarios"
            )
        # Canonicalise backend aliases the way EngineConfig does, so two
        # specs naming the same grid compare equal.
        object.__setattr__(
            self,
            "backends",
            tuple(backend_spec(b).name for b in self.backends),
        )
        for entries in self.cache_entries:
            if entries and entries % self.cache_ways:
                raise ConfigError(
                    f"cache_entries ({entries}) must be a multiple of "
                    f"cache_ways ({self.cache_ways})"
                )

    # -- expansion -------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return (
            len(self.families)
            * len(self.sizes)
            * len(self.backends)
            * len(self.shards)
            * len(self.shard_modes)
            * len(self.cache_entries)
            * len(self.skews)
            * len(self.packet_bytes)
            * len(self.churn_rates)
            * len(self.tenants)
            * len(self.scenarios)
        )

    def expand(self) -> list[SweepCell]:
        """The full cross product, in stable axis order."""
        cells = []
        for family in self.families:
            for size in self.sizes:
                for backend in self.backends:
                    for shards in self.shards:
                        for mode in self.shard_modes:
                            for entries in self.cache_entries:
                                for skew in self.skews:
                                    for pkt in self.packet_bytes:
                                        for churn in self.churn_rates:
                                            for n_ten in self.tenants:
                                                for scn in self.scenarios:
                                                    cells.append(
                                                        self._cell(
                                                            family, size,
                                                            backend, shards,
                                                            mode, entries,
                                                            skew, pkt,
                                                            churn, n_ten,
                                                            scn,
                                                        )
                                                    )
        return cells

    def _cell(
        self, family, size, backend, shards, mode, entries, skew, pkt, churn,
        n_tenants=1, scenario="bare",
    ) -> SweepCell:
        return SweepCell(
            family=family,
            size=size,
            backend=backend,
            shards=shards,
            shard_mode=mode,
            cache_entries=entries,
            cache_ways=self.cache_ways,
            skew=skew,
            packet_bytes=pkt,
            churn=churn,
            packets=self.packets,
            flows=self.flows,
            chunk_size=self.chunk_size,
            seed=self.seed,
            tenants=n_tenants,
            scenario=scenario,
        )

    # -- tiers -----------------------------------------------------------
    def quick(self) -> "SweepSpec":
        """Shrink any spec to PR-path size: at most three sizes (capped
        at 2500 rules), single-shard, static rulesets, 20k packets."""
        sizes = tuple(s for s in self.sizes if s <= 2500)[:3] or self.sizes[:1]
        return dataclasses.replace(
            self,
            name=f"{self.name}-quick",
            sizes=sizes,
            shards=(1,),
            shard_modes=("auto",),
            churn_rates=tuple(self.churn_rates[:1]),
            packets=min(self.packets, 20_000),
        )


def default_spec(tier: str = "quick") -> SweepSpec:
    """The built-in paper-scale grids, by tier.

    ``quick``
        the PR-path grid: all three families x three Table-4 sizes
        (300/1200/2500) x two backends x a cache/skew grid — runs in
        under a minute and is what ``benchmarks/sweeps_baseline.json``
        pins.  Two non-zero cache sizes either side of the ~950-flow
        working set give ``compare_baseline.py``'s monotone cache axis
        groups to check, and the ``shards=2`` half runs in-process
        shards, whose count — hence the per-shard caches and the
        gated hit rate — does not depend on the host's CPU count the
        way ``auto`` does (one shard is inline in every mode).
    ``full``
        the nightly grid: five Table-4 sizes per family (up to 10k
        rules), both shard points, a three-point cache axis, packet
        sizes for the line-rate sweep, 100k packets per cell.
    ``soak``
        the nightly churn tier: the full grid plus live update streams
        (updates riding every cell), catching update-path drift no
        static grid can see.
    """
    if tier == "quick":
        return SweepSpec(
            name="paper-grid-quick",
            shards=(1, 2),
            shard_modes=("threads",),
            cache_entries=(0, 256, 4096),
            scenarios=("bare", "linecard"),
        )
    if tier == "full":
        return SweepSpec(
            name="paper-grid-full",
            sizes=(300, 1200, 2500, 5000, 10_000),
            backends=("hicuts", "hypercuts", "tuple_space"),
            shards=(1, 2),
            cache_entries=(0, 1024, 4096),
            skews=(0.7, 1.1),
            packet_bytes=(40, 1500),
            packets=100_000,
        )
    if tier == "soak":
        return SweepSpec(
            name="paper-grid-soak",
            sizes=(300, 1200, 2500),
            backends=("hypercuts", "tuple_space"),
            cache_entries=(0, 4096),
            skews=(1.1,),
            churn_rates=(8, 64),
            packets=200_000,
        )
    raise ConfigError(
        f"unknown sweep tier {tier!r}; expected one of {', '.join(TIERS)}"
    )


def parse_filters(pairs: list[str]) -> dict[str, set[str]]:
    """``["family=fw1", "size=300,1200"]`` -> axis-value constraint map.

    Keys are cell-coordinate fields; values are comma-separated
    alternatives (a cell passes when *every* key matches *one* of its
    values).  Unknown keys are rejected loudly.
    """
    allowed = {
        "family", "size", "backend", "shards", "shard_mode",
        "cache_entries", "skew", "packet_bytes", "churn", "tenants",
        "scenario",
    }
    out: dict[str, set[str]] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not value:
            raise ConfigError(
                f"bad --filter {pair!r}; expected AXIS=VALUE[,VALUE...]"
            )
        if key not in allowed:
            raise ConfigError(
                f"unknown --filter axis {key!r}; "
                f"expected one of {', '.join(sorted(allowed))}"
            )
        out.setdefault(key, set()).update(value.split(","))
    return out


def match_filters(cell: SweepCell, filters: dict[str, set[str]]) -> bool:
    """Whether a cell satisfies every axis constraint."""
    for key, values in filters.items():
        have = getattr(cell, key)
        text = f"{have:g}" if isinstance(have, float) else str(have)
        if text not in values:
            return False
    return True
