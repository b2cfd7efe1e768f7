"""The spec codec (`repro.core.spec`) across the five config specs.

Wrong-typed input is a :class:`ConfigError` naming the field, never a
``TypeError`` / ``ValueError`` or a silently accepted value; a spec
drawn from its own field declarations round-trips bit-identically
through dict, JSON and (for ``EngineConfig``) the real CLI parser; and
the ``docs/engine.md`` config table lists every ``EngineConfig`` field.
"""

from __future__ import annotations

import dataclasses
import json
import re
import types
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.core.errors import ConfigError
from repro.engine.faults import FaultPlan
from repro.engine.registry import available_backends
from repro.serve import EngineConfig, TenantSpec
from repro.stages import STAGE_KINDS, StageGraphSpec, StageSpec, default_graph
from repro.sweeps import SweepSpec

# ---------------------------------------------------------------------------
# Wrong-typed input: one case per probe, every one a ConfigError naming
# the field
# ---------------------------------------------------------------------------
PROBES = {
    "engine-shards-str": (lambda: EngineConfig.from_dict({"shards": "2"}), "shards"),
    "engine-spfac-str": (lambda: EngineConfig.from_dict({"spfac": "4"}), "spfac"),
    "engine-software-str": (
        lambda: EngineConfig.from_dict({"software": "no"}), "software"
    ),
    "engine-binth-float": (lambda: EngineConfig(binth=2.5), "binth"),
    "fault-times-str": (
        lambda: FaultPlan.from_dict(
            {"specs": [{"kind": "crash", "times": "2"}]}
        ),
        "times",
    ),
    "fault-specs-int": (lambda: FaultPlan.from_dict({"specs": 5}), "specs"),
    "sweep-packets-str": (lambda: SweepSpec.from_dict({"packets": "4"}), "packets"),
    "sweep-seed-str": (lambda: SweepSpec.from_dict({"seed": "x"}), "seed"),
    "tenant-weight-str": (lambda: TenantSpec("a", weight="x"), "weight"),
    "stage-engine-shards-str": (lambda: default_graph({"shards": "2"}), "shards"),
}


@pytest.mark.parametrize("probe", PROBES.values(), ids=list(PROBES))
def test_wrong_typed_input_is_a_config_error_naming_the_field(probe):
    build, field = probe
    with pytest.raises(ConfigError, match=rf"\b{field}\b"):
        build()


class TestFaultPlanInputs:
    BAD = [{"kind": "crash", "bogus": 1}]

    def test_constructor_rejects_unknown_spec_keys(self):
        with pytest.raises(ConfigError, match="unknown FaultSpec field.*bogus"):
            FaultPlan(specs=self.BAD)

    def test_coerce_rejects_unknown_spec_keys(self):
        with pytest.raises(ConfigError, match="unknown FaultSpec field.*bogus"):
            FaultPlan.coerce(self.BAD)

    def test_load_of_a_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot load fault plan"):
            FaultPlan.load(str(tmp_path / "absent.json"))


# ---------------------------------------------------------------------------
# Strategies drawn from the field declarations
# ---------------------------------------------------------------------------
def _draw(tp, meta):
    """Values of annotation ``tp`` that satisfy the field metadata."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        inner = next(a for a in typing.get_args(tp) if a is not type(None))
        return st.none() | _draw(inner, meta)
    if typing.get_origin(tp) is tuple:
        return st.lists(
            _draw(typing.get_args(tp)[0], meta),
            min_size=1 if meta.get("nonempty") else 0, max_size=3, unique=True,
        ).map(tuple)
    if "choices" in meta:
        return st.sampled_from(meta["choices"])
    if dataclasses.is_dataclass(tp):
        return strategy_for(tp)
    if tp is int:
        low = meta.get("min", meta.get("gt", -1) + 1)
        return st.integers(min_value=low, max_value=low + 4096)
    if tp is float:
        return st.floats(
            min_value=meta.get("min", meta.get("gt")),
            exclude_min="gt" in meta, allow_nan=False, allow_infinity=False,
        )
    if tp is str:
        return st.text(min_size=1 if meta.get("nonempty") else 0, max_size=8)
    return {bool: st.booleans(), dict: st.just({})}[tp]


def strategy_for(cls, **overrides):
    """Valid instances of spec ``cls``, drawn field by field from the
    annotations and metadata (``overrides`` maps a field name to its own
    strategy); draws a cross-field rule rejects are filtered out."""
    hints = typing.get_type_hints(cls)
    fields = {
        f.name: overrides[f.name]
        if f.name in overrides
        else _draw(hints[f.name], f.metadata)
        for f in dataclasses.fields(cls)
    }

    def build(kwargs):
        try:
            return cls(**kwargs)
        except ConfigError:
            return None

    return st.fixed_dictionaries(fields).map(build).filter(
        lambda spec: spec is not None
    )


# Fields whose valid values a cross-field rule or the backend registry
# decides, not the field's own metadata.
_BACKEND = st.sampled_from(available_backends())
_WAYS = st.sampled_from((1, 2, 4, 8))
_ENTRIES = st.sampled_from((0, 64, 4096))
SPECS = {
    "EngineConfig": strategy_for(
        EngineConfig, backend=_BACKEND, cache_entries=_ENTRIES, cache_ways=_WAYS,
    ),
    "SweepSpec": strategy_for(
        SweepSpec,
        backends=st.lists(_BACKEND, min_size=1, max_size=3, unique=True).map(tuple),
        cache_entries=st.lists(_ENTRIES, min_size=1, unique=True).map(tuple),
        cache_ways=_WAYS,
    ),
    "FaultPlan": strategy_for(FaultPlan),
    "StageGraphSpec": strategy_for(
        StageGraphSpec,
        stages=st.sets(st.sampled_from(STAGE_KINDS)).map(
            lambda kinds: tuple(
                StageSpec(kind=k) for k in STAGE_KINDS
                if k in kinds or k == "classify"
            )
        ),
    ),
}


def _wrong_value(spec, name):
    """A value of the wrong type for field ``name``."""
    tp = typing.get_type_hints(type(spec))[name]
    return 5 if tp in (str, str | None) else "x"


@pytest.mark.parametrize("strategy", SPECS.values(), ids=list(SPECS))
class TestDrawnSpecs:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_dict_and_json_round_trip(self, strategy, data):
        spec = data.draw(strategy)
        cls = type(spec)
        assert cls.from_dict(spec.to_dict()) == spec
        again = cls.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec and again.to_dict() == spec.to_dict()
        if cls is EngineConfig:
            ns = build_parser().parse_args(["bench", *spec.to_args()])
            assert EngineConfig.from_args(ns) == spec

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_wrong_typed_field_is_named(self, strategy, data):
        spec = data.draw(strategy)
        name = data.draw(
            st.sampled_from([f.name for f in dataclasses.fields(spec)])
        )
        bad = {**spec.to_dict(), name: _wrong_value(spec, name)}
        with pytest.raises(ConfigError, match=rf"\b{name}\b"):
            type(spec).from_dict(bad)


# ---------------------------------------------------------------------------
# Docs cannot drift from the declaration
# ---------------------------------------------------------------------------
def test_engine_docs_table_lists_every_field():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "engine.md").read_text()
    header = doc.index("| field | default | meaning |")
    rows = []
    for line in doc[header:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1])
    documented = set(re.findall(r"`(\w+)`", " ".join(rows)))
    assert {f.name for f in dataclasses.fields(EngineConfig)} <= documented
