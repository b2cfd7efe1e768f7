"""`StageGraphSpec` — the declarative description of a line-card RX path.

The paper models only the classification step of a line card, but every
real RX path composes it from stages — the NetFPGA reference pipeline,
P4 ingress controls and the classic seven-stage Ethernet RX path
(buffer -> drop malformed -> extract headers -> TCAM prefilter -> flow
table -> rewrite -> queue select) all share the shape.  A
``StageGraphSpec`` names that shape once, declaratively: an ordered
tuple of typed :class:`StageSpec` entries, each a ``kind`` from
:data:`STAGE_KINDS` plus validated per-kind parameters.

The field checks and the JSON round-trip come from the
:class:`repro.core.spec.Spec` codec; this module adds the per-kind
parameter schema and the graph-wide rules (stage order, uniqueness,
cache ownership).

Stage kinds (canonical pipeline order)
--------------------------------------

``parse``
    header ingestion and validation; malformed input is dead-lettered
    through the :class:`~repro.serve.ingest.QuarantineLog` machinery
    (``on_malformed`` mirrors ``EngineConfig``).
``drop``
    ACL predicate drops: protocol deny list and destination-port deny
    ranges, applied before any lookup spends memory accesses.
``extract``
    header-field projection — selects which fields downstream stages
    copy; models the extraction datapath cost, never changes matches.
``tcam_prefilter``
    the :class:`~repro.baselines.tcam_classifier.TcamClassifier` as a
    coarse pre-match: packets matching *no* TCAM slot cannot match any
    rule (first-match over the same ruleset), so only survivors feed
    the classify stage and bit-identity is preserved by construction.
``flow_cache``
    flow-cache geometry for the classify engine (the cache executes
    inside the engine — :class:`~repro.engine.flowcache.
    CachedClassifier` is bit-identical by construction — and reports
    its hit/miss telemetry as this stage's record).
``classify``
    the full classification engine: any registered backend through
    :meth:`~repro.serve.Engine.build_classifier`, with an
    ``EngineConfig`` overlay dict as its parameter.
``rewrite``
    header rewrite of matched packets (models the MAC/VLAN rewrite
    write traffic; never changes matches).
``queue_select``
    hashes survivors onto ``queues`` output queues and reports the
    per-queue occupancy histogram.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from ..core.errors import ConfigError
from ..core.spec import Spec, check_value, field
from ..serve import EngineConfig
from ..serve.ingest import ON_MALFORMED

#: Every stage kind, in canonical pipeline order.  A spec's stages must
#: be a subsequence of this order (the pipeline is linear; the only
#: branch point is ``queue_select``'s fan-out at the end).
STAGE_KINDS = (
    "parse",
    "drop",
    "extract",
    "tcam_prefilter",
    "flow_cache",
    "classify",
    "rewrite",
    "queue_select",
)

#: Queue-assignment policies ``queue_select`` accepts: ``"hash"``
#: spreads by a deterministic 5-tuple flow hash, ``"match"`` by the
#: matched rule id (unmatched packets land on queue 0).
QUEUE_POLICIES = ("hash", "match")

#: Allowed parameter keys per stage kind: each key's type and codec
#: metadata (``"range_list"`` is a list of ``[lo, hi]`` pairs).
_INT_LIST = tuple[int, ...]
_COUNT = (int, {"min": 0})
_PARAM_SCHEMA: dict[str, dict] = {
    "parse": {"on_malformed": (str, {"choices": ON_MALFORMED})},
    "drop": {"deny_proto": (_INT_LIST, {}), "deny_dst_ports": ("range_list", {})},
    "extract": {"fields": (_INT_LIST, {})},
    "tcam_prefilter": {"max_slots": _COUNT},
    "flow_cache": {"entries": _COUNT, "ways": (int, {"min": 1})},
    "classify": {"engine": (dict, {})},
    "rewrite": {"bytes": _COUNT},
    "queue_select": {
        "queues": (int, {"min": 1}),
        "policy": (str, {"choices": QUEUE_POLICIES}),
    },
}

#: The flow_cache stage's geometry where a parameter is omitted: what
#: the stage is checked against and what the engine is built with.
_FLOW_CACHE_DEFAULTS = {"entries": 4096, "ways": 4}


def _cache_geometry(params: dict) -> tuple[int, int]:
    """A flow_cache stage's ``(entries, ways)``, defaults filled in."""
    params = {**_FLOW_CACHE_DEFAULTS, **params}
    return params["entries"], params["ways"]


def _check_param(kind: str, key: str, value):
    """Validate one stage parameter value; returns the coerced value."""
    tp, meta = _PARAM_SCHEMA[kind][key]
    label = f"{kind} stage parameter {key}"
    if tp == "range_list":
        out = []
        for pair in check_value(label, value, tuple[_INT_LIST, ...]):
            if len(pair) != 2:
                raise ConfigError(
                    f"{label} must contain [lo, hi] int pairs, got {pair!r}"
                )
            lo, hi = pair
            if lo < 0 or hi < lo:
                raise ConfigError(
                    f"{label} pair [{lo}, {hi}] is not a valid range"
                )
            out.append([lo, hi])
        return out
    value = check_value(label, value, tp, **meta)
    if tp is _INT_LIST:
        if any(v < 0 for v in value):
            raise ConfigError(
                f"{label} must contain non-negative ints, got {list(value)!r}"
            )
        return list(value)
    return copy.deepcopy(value)


@dataclass(frozen=True)
class StageSpec(Spec):
    """One typed pipeline stage: a kind, a display name, parameters."""

    kind: str
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in STAGE_KINDS:
            raise ConfigError(
                f"unknown stage kind {self.kind!r}; "
                f"expected one of {', '.join(STAGE_KINDS)}"
            )
        set_ = object.__setattr__
        if not self.name:
            set_(self, "name", self.kind)
        allowed = _PARAM_SCHEMA[self.kind]
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise ConfigError(
                f"unknown {self.kind} stage parameter(s): "
                f"{', '.join(unknown)}; known: {', '.join(sorted(allowed))}"
            )
        set_(
            self,
            "params",
            {
                k: _check_param(self.kind, k, v)
                for k, v in self.params.items()
            },
        )
        if self.kind == "flow_cache":
            entries, ways = _cache_geometry(self.params)
            if entries % ways:
                raise ConfigError(
                    f"flow_cache stage {self.name!r}: entries ({entries}) "
                    f"must be a multiple of ways ({ways})"
                )


@dataclass(frozen=True)
class StageGraphSpec(Spec):
    """Declarative, validated, immutable line-card RX pipeline.

    ``stages`` must contain exactly one ``classify`` stage, at most one
    stage of every other kind, and follow the canonical
    :data:`STAGE_KINDS` order.  The classify stage's ``engine``
    parameter is an :class:`~repro.serve.EngineConfig` overlay dict;
    a ``flow_cache`` stage owns the cache geometry (a classify overlay
    that also names cache fields is rejected as ambiguous).
    """

    name: str = field("linecard-rx", nonempty=True)
    stages: tuple[StageSpec, ...] = field((), nonempty=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        kinds = [s.kind for s in self.stages]
        for kind in set(kinds):
            if kinds.count(kind) > 1:
                raise ConfigError(f"duplicate {kind!r} stage in graph")
        if kinds.count("classify") != 1:
            raise ConfigError("a stage graph needs exactly one classify stage")
        order = [STAGE_KINDS.index(k) for k in kinds]
        if order != sorted(order):
            raise ConfigError(
                f"stages out of canonical order: {' -> '.join(kinds)}; "
                f"expected a subsequence of {' -> '.join(STAGE_KINDS)}"
            )
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate stage names: {names!r}")
        # Validate the engine overlay (and the cache-ownership rule)
        # eagerly, so a bad graph file fails at load, not mid-run.
        self.engine_config()

    # ------------------------------------------------------------------
    def stage(self, kind: str) -> StageSpec | None:
        """The graph's stage of ``kind``, or ``None`` when absent."""
        for s in self.stages:
            if s.kind == kind:
                return s
        return None

    def engine_config(self) -> EngineConfig:
        """The :class:`~repro.serve.EngineConfig` the classify stage
        (plus the flow_cache and parse stages, which own the cache
        geometry and the malformed-line policy) resolves to."""
        classify = self.stage("classify")
        assert classify is not None  # __post_init__ guarantees it
        overlay = classify.params.get("engine", {})
        cache = self.stage("flow_cache")
        if cache is not None:
            clash = sorted(
                k for k in overlay if k in ("cache_entries", "cache_ways")
            )
            if clash:
                raise ConfigError(
                    f"classify engine overlay names {', '.join(clash)} but "
                    f"the graph has a flow_cache stage owning the cache "
                    f"geometry; set it in one place"
                )
        merged = {**EngineConfig().to_dict(), **overlay}
        if cache is not None:
            geometry = _cache_geometry(cache.params)
            merged["cache_entries"], merged["cache_ways"] = geometry
        parse = self.stage("parse")
        if parse is not None:
            merged["on_malformed"] = parse.params.get(
                "on_malformed", "quarantine"
            )
        return EngineConfig.from_dict(merged)


def default_graph(
    engine: dict | None = None,
    *,
    name: str = "linecard-rx",
    cache_entries: int = 4096,
    cache_ways: int = 4,
    queues: int = 8,
) -> StageGraphSpec:
    """The full line-card RX pipeline over a given engine overlay.

    This is the graph the sweep ``scenario`` axis and the overhead
    bench execute: every stage kind, permissive drop predicates (no ACL
    denies — bit-identity with a bare classify run holds end to end).
    ``cache_entries=0`` omits the flow_cache stage entirely.
    """
    stages = [
        StageSpec(kind="parse"),
        StageSpec(kind="drop"),
        StageSpec(kind="extract"),
        StageSpec(kind="tcam_prefilter"),
    ]
    if cache_entries:
        stages.append(
            StageSpec(
                kind="flow_cache",
                params={"entries": cache_entries, "ways": cache_ways},
            )
        )
    stages += [
        StageSpec(kind="classify", params={"engine": dict(engine or {})}),
        StageSpec(kind="rewrite"),
        StageSpec(kind="queue_select", params={"queues": queues}),
    ]
    return StageGraphSpec(name=name, stages=tuple(stages))
