"""Sweep-matrix subsystem tests.

Covers the declarative layer (spec round-trip, axis expansion,
deterministic per-cell seeding), the enforcement layer
(``benchmarks/compare_sweeps.py`` regression / missing-cell / monotone
verdicts on synthetic artifacts), and — behind the ``sweep`` marker —
a mini end-to-end grid through the real :class:`~repro.serve.Engine`.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.errors import ConfigError
from repro.serve import EngineConfig
from repro.sweeps import (
    SweepSpec,
    default_spec,
    match_filters,
    parse_filters,
    render_matrix,
    run_sweep,
)

_SPEC = importlib.util.spec_from_file_location(
    "compare_sweeps",
    Path(__file__).resolve().parents[1] / "benchmarks" / "compare_sweeps.py",
)
compare_sweeps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_sweeps)


def _tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        name="tiny",
        families=("acl1",),
        sizes=(60,),
        backends=("linear",),
        cache_entries=(0, 64),
        cache_ways=4,
        skews=(1.1,),
        packets=400,
        flows=32,
        chunk_size=128,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecRoundTrip:
    def test_json_round_trip_is_lossless(self, tmp_path):
        spec = default_spec("full")
        path = tmp_path / "spec.json"
        spec.save(str(path))
        assert SweepSpec.load(str(path)) == spec
        # And the dict form survives an actual JSON serialisation.
        assert SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_from_dict_rejects_unknown_keys(self):
        data = default_spec("quick").to_dict()
        data["familes"] = ["acl1"]  # typo'd axis must not pass silently
        with pytest.raises(ConfigError, match="familes"):
            SweepSpec.from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("families", ["nope"]),
            ("sizes", []),
            ("sizes", [0]),
            ("shard_modes", ["diagonal"]),
            ("cache_entries", [10]),  # not a multiple of ways=4
            ("skews", [-0.5]),
            ("churn_rates", [-1]),
        ],
    )
    def test_invalid_axis_values_are_rejected(self, field, value):
        data = default_spec("quick").to_dict()
        data[field] = value
        with pytest.raises(ConfigError):
            SweepSpec.from_dict(data)

    def test_backend_aliases_canonicalise(self):
        a = _tiny_spec(backends=("linear",))
        b = _tiny_spec(backends=(a.backends[0],))
        assert a == b


class TestExpansion:
    def test_n_cells_matches_expansion(self):
        for tier in ("quick", "full", "soak"):
            spec = default_spec(tier)
            cells = spec.expand()
            assert len(cells) == spec.n_cells

    def test_quick_grid_covers_acceptance_axes(self):
        spec = default_spec("quick")
        cells = spec.expand()
        assert {c.family for c in cells} == {"acl1", "fw1", "ipc1"}
        assert len({c.size for c in cells}) >= 3
        assert len({c.backend for c in cells}) >= 2
        assert len({c.skew for c in cells}) >= 2
        # The monotone cache-axis gate needs two non-zero sizes per
        # group to compare, and sharded cells whose hit rate does not
        # depend on the host's CPU count (``auto`` sizes by it).
        assert len({c.cache_entries for c in cells} - {0}) >= 2
        sharded = [c for c in cells if c.shards > 1]
        assert sharded and all(c.shard_mode == "threads" for c in sharded)

    def test_cell_ids_are_unique(self):
        cells = default_spec("full").expand()
        assert len({c.cell_id for c in cells}) == len(cells)

    def test_cell_maps_to_engine_config(self):
        cell = _tiny_spec(churn_rates=(8,)).expand()[0]
        config = cell.engine_config()
        assert isinstance(config, EngineConfig)
        assert config.backend == cell.backend
        assert config.cache_entries == cell.cache_entries
        assert config.updatable  # churn > 0 flips the updatable surface


class TestSeeding:
    def test_same_spec_same_seeds(self):
        a = {c.cell_id: c.seed for c in default_spec("quick").expand()}
        b = {c.cell_id: c.seed for c in default_spec("quick").expand()}
        assert a == b

    def test_seeds_are_coordinate_derived_not_order_derived(self):
        """Filtering the grid must not change any surviving cell's
        workload — a filtered rerun reproduces the full sweep's cells."""
        spec = default_spec("quick")
        full = {c.cell_id: c for c in spec.expand()}
        filters = parse_filters(["family=fw1", "cache_entries=4096"])
        kept = [c for c in spec.expand() if match_filters(c, filters)]
        assert kept, "filter should select a non-empty subset"
        for cell in kept:
            twin = full[cell.cell_id]
            assert cell.seed == twin.seed
            assert cell.ruleset_seed == twin.ruleset_seed
            assert cell.trace_seed == twin.trace_seed

    def test_workload_seeds_ignore_backend_and_cache(self):
        """Cells differing only in engine shape share the workload, so
        the grid compares engines on identical inputs."""
        cells = default_spec("quick").expand()
        by_workload: dict[tuple, set[tuple[int, int]]] = {}
        for c in cells:
            key = (c.family, c.size, f"{c.skew:g}")
            by_workload.setdefault(key, set()).add(
                (c.ruleset_seed, c.trace_seed)
            )
        assert all(len(seeds) == 1 for seeds in by_workload.values())

    def test_spec_seed_perturbs_every_cell(self):
        a = {c.cell_id: c.seed for c in _tiny_spec(seed=1).expand()}
        b = {c.cell_id: c.seed for c in _tiny_spec(seed=2).expand()}
        assert all(a[k] != b[k] for k in a)


class TestFilters:
    def test_parse_rejects_unknown_axis(self):
        with pytest.raises(ConfigError, match="flavour"):
            parse_filters(["flavour=mild"])

    def test_parse_rejects_malformed_pair(self):
        with pytest.raises(ConfigError, match="AXIS=VALUE"):
            parse_filters(["family"])

    def test_comma_alternatives_union(self):
        spec = default_spec("quick")
        filters = parse_filters(["size=300,1200"])
        kept = [c for c in spec.expand() if match_filters(c, filters)]
        assert {c.size for c in kept} == {300, 1200}

    def test_float_axis_matches_compact_form(self):
        spec = default_spec("quick")
        filters = parse_filters(["skew=0.7"])
        kept = [c for c in spec.expand() if match_filters(c, filters)]
        assert kept and all(c.skew == 0.7 for c in kept)


def _artifact(cells: dict) -> dict:
    return {"version": 1, "spec": {}, "n_cells": len(cells), "cells": cells}


def _cell(hit=0.9, accesses=2.0, energy=1e-9, matched=0.5, pps=1e6, entries=64):
    return {
        "hit_rate": hit,
        "memory_accesses_per_lookup": accesses,
        "energy_per_packet_j": energy,
        "matched_fraction": matched,
        "throughput_pps": pps,
        "cache_entries": entries,
    }


class TestCompareSweeps:
    def test_identical_artifacts_pass(self):
        art = _artifact({"a/1/x/s1-auto/e64w4/z1.1/p40/u0": _cell()})
        report, failures = compare_sweeps.compare(art, art, 0.8, 0.75)
        assert failures == []
        assert "FAIL" not in report

    def test_gated_regression_fails(self):
        cid = "a/1/x/s1-auto/e64w4/z1.1/p40/u0"
        base = _artifact({cid: _cell(hit=0.9)})
        cur = _artifact({cid: _cell(hit=0.6)})  # ratio 0.67 < 0.75
        report, failures = compare_sweeps.compare(cur, base, 0.8, 0.75)
        assert failures == [f"{cid}:hit_rate"]
        assert "FAIL" in report

    def test_lower_is_better_direction(self):
        """More accesses/lookup is worse even though the number grew."""
        cid = "a/1/x/s1-auto/e64w4/z1.1/p40/u0"
        base = _artifact({cid: _cell(accesses=2.0)})
        cur = _artifact({cid: _cell(accesses=3.0)})  # 2/3 < 0.75 -> fail
        _, failures = compare_sweeps.compare(cur, base, 0.8, 0.75)
        assert failures == [f"{cid}:memory_accesses_per_lookup"]

    def test_throughput_is_warn_only(self):
        cid = "a/1/x/s1-auto/e64w4/z1.1/p40/u0"
        base = _artifact({cid: _cell(pps=1e6)})
        cur = _artifact({cid: _cell(pps=1e5)})  # 10x slower: warn, no gate
        report, failures = compare_sweeps.compare(cur, base, 0.8, 0.75)
        assert failures == []
        assert ":warning:" in report

    def test_missing_cell_fails_unless_allowed(self):
        cid = "a/1/x/s1-auto/e64w4/z1.1/p40/u0"
        base = _artifact({cid: _cell()})
        cur = _artifact({})
        _, failures = compare_sweeps.compare(cur, base, 0.8, 0.75)
        assert failures == [f"{cid}:missing"]
        _, failures = compare_sweeps.compare(
            cur, base, 0.8, 0.75, allow_missing=True
        )
        assert failures == []

    def test_missing_gated_metric_fails(self):
        cid = "a/1/x/s1-auto/e64w4/z1.1/p40/u0"
        base = _artifact({cid: _cell()})
        shrunk = _cell()
        del shrunk["hit_rate"]
        cur = _artifact({cid: shrunk})
        _, failures = compare_sweeps.compare(cur, base, 0.8, 0.75)
        assert failures == [f"{cid}:hit_rate"]

    def test_monotone_cache_axis_inversion_fails(self):
        """A bigger cache with a colder hit rate is an inverted-scaling
        failure even when every per-cell ratio vs baseline is clean."""
        small = "a/1/x/s1-auto/e64w4/z1.1/p40/u0"
        big = "a/1/x/s1-auto/e256w4/z1.1/p40/u0"
        cells = {
            small: _cell(hit=0.9, entries=64),
            big: _cell(hit=0.5, entries=256),
        }
        art = _artifact(cells)
        _, failures = compare_sweeps.compare(art, art, 0.8, 0.75)
        assert failures == ["monotone:a/1/x/s1-auto/e*w4/z1.1/p40/u0"]

    def test_monotone_cache_axis_holds_when_nondecreasing(self):
        cells = {
            "a/1/x/s1-auto/e64w4/z1.1/p40/u0": _cell(hit=0.7, entries=64),
            "a/1/x/s1-auto/e256w4/z1.1/p40/u0": _cell(hit=0.9, entries=256),
        }
        art = _artifact(cells)
        _, failures = compare_sweeps.compare(art, art, 0.8, 0.75)
        assert failures == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        cid = "a/1/x/s1-auto/e64w4/z1.1/p40/u0"
        big = "a/1/x/s1-auto/e256w4/z1.1/p40/u0"
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        good.write_text(json.dumps(_artifact(
            {cid: _cell(), big: _cell(entries=256)}
        )))
        bad.write_text(json.dumps(_artifact(
            {cid: _cell(matched=0.1), big: _cell(entries=256)}
        )))
        assert compare_sweeps.main([str(good), str(good)]) == 0
        assert compare_sweeps.main([str(bad), str(good)]) == 1
        capsys.readouterr()

    def test_a_monotone_axis_that_checked_nothing_fails(self, tmp_path, capsys):
        """One non-zero cache size per group leaves the cache axis with
        no pair to compare: "0 cell groups checked ... all held" used to
        exit 0.  Only a deliberately filtered run may skip the axis."""
        cells = {
            "a/1/x/s1-auto/e0w4/z1.1/p40/u0": _cell(entries=0),
            "a/1/x/s1-auto/e64w4/z1.1/p40/u0": _cell(),
        }
        del cells["a/1/x/s1-auto/e0w4/z1.1/p40/u0"]["hit_rate"]
        art = _artifact(cells)
        report, failures = compare_sweeps.compare(
            art, art, 0.8, 0.75, require_groups=True
        )
        assert failures == ["monotone:no-cell-groups"]
        assert "0 cell groups checked" in report and "FAIL" in report
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(art))
        assert compare_sweeps.main([str(path), str(path)]) == 1
        assert compare_sweeps.main(
            [str(path), str(path), "--allow-missing"]
        ) == 0
        capsys.readouterr()

    def test_missing_input_file_is_nonfatal(self, tmp_path, capsys):
        # Fresh checkouts have no artifact yet; the gate must not
        # misfire before the first sweep lands.
        assert compare_sweeps.main(
            [str(tmp_path / "nope.json"), str(tmp_path / "nope.json")]
        ) == 0
        capsys.readouterr()


@pytest.mark.sweep
class TestEndToEnd:
    def test_mini_sweep_produces_gatable_artifact(self, tmp_path):
        spec = _tiny_spec()
        result = run_sweep(spec)
        assert len(result.cells) == spec.n_cells == 2
        artifact = result.to_dict()
        cached = artifact["cells"]["acl1/60/linear/s1-auto/e64w4/z1.1/p40/u0"]
        bare = artifact["cells"]["acl1/60/linear/s1-auto/e0w4/z1.1/p40/u0"]
        assert 0.0 < cached["hit_rate"] <= 1.0
        assert "hit_rate" not in bare
        assert (
            cached["memory_accesses_per_lookup"]
            < bare["memory_accesses_per_lookup"]
        )
        assert cached["energy_per_packet_j"] < bare["energy_per_packet_j"]
        for m in (cached, bare):
            assert m["n_packets"] == spec.packets
            assert set(m["line_rates"]) == {"OC-48", "OC-192", "OC-768"}
        # The artifact self-compares clean through the real gate.
        path = tmp_path / "mini.json"
        result.save(str(path))
        _, failures = compare_sweeps.compare(
            json.loads(path.read_text()), artifact, 0.8, 0.75
        )
        assert failures == []

    def test_mini_sweep_is_deterministic(self):
        """The gated metrics are bit-stable across runs — the property
        the >25% CI gate rests on."""
        gated = ("hit_rate", "memory_accesses_per_lookup",
                 "energy_per_packet_j", "matched_fraction")
        spec = _tiny_spec()
        a = run_sweep(spec).to_dict()["cells"]
        b = run_sweep(spec).to_dict()["cells"]
        assert a.keys() == b.keys()
        for cid in a:
            for key in gated:
                assert a[cid].get(key) == b[cid].get(key), (cid, key)

    def test_churn_cell_records_update_metrics(self):
        spec = _tiny_spec(cache_entries=(64,), churn_rates=(40,))
        result = run_sweep(spec)
        (cell,) = result.cells
        m = cell.metrics
        assert m["update_ops"] > 0
        assert m["update_batches"] > 0
        assert m["update_latency_p50_ms"] >= 0
        assert m["update_latency_p99_ms"] >= m["update_latency_p50_ms"]

    def test_filtered_run_matches_full_run_cells(self):
        spec = _tiny_spec(cache_entries=(0, 64), skews=(0.7, 1.1))
        full = run_sweep(spec).to_dict()["cells"]
        part = run_sweep(
            spec, filters=parse_filters(["skew=0.7"])
        ).to_dict()["cells"]
        assert len(part) == 2
        gated = ("hit_rate", "memory_accesses_per_lookup",
                 "energy_per_packet_j", "matched_fraction")
        for cid, metrics in part.items():
            for key in gated:
                assert metrics.get(key) == full[cid].get(key), (cid, key)

    def test_render_matrix_mentions_every_family_and_size(self):
        spec = _tiny_spec(sizes=(60, 120))
        text = render_matrix(run_sweep(spec).to_dict())
        assert "acl1" in text
        assert "| 60 |" in text and "| 120 |" in text
        assert "OC-48" in text


class TestScenarioAxis:
    def test_quick_tier_carries_both_scenarios(self):
        cells = default_spec("quick").expand()
        by_scn: dict[str, int] = {}
        for c in cells:
            by_scn[c.scenario] = by_scn.get(c.scenario, 0) + 1
        assert set(by_scn) == {"bare", "linecard"}
        assert by_scn["bare"] == by_scn["linecard"] == len(cells) // 2

    def test_bare_cell_ids_are_suffix_free_and_stable(self):
        """Adding the scenario axis must not rename the committed bare
        cells (the sweeps baseline keys on cell_id)."""
        cells = default_spec("quick").expand()
        for c in cells:
            if c.scenario == "bare":
                assert "linecard" not in c.cell_id
            else:
                assert c.cell_id.endswith("/linecard")
                twin = c.cell_id.rsplit("/linecard", 1)[0]
                assert twin in {
                    x.cell_id for x in cells if x.scenario == "bare"
                }

    def test_full_and_soak_tiers_stay_bare_only(self):
        for tier in ("full", "soak"):
            assert default_spec(tier).scenarios == ("bare",)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            _tiny_spec(scenarios=("turbo",))

    def test_linecard_with_multi_tenant_rejected(self):
        with pytest.raises(ConfigError, match="single tenant"):
            _tiny_spec(scenarios=("bare", "linecard"), tenants=(1, 2))

    def test_scenario_filter_selects(self):
        spec = _tiny_spec(scenarios=("bare", "linecard"))
        filters = parse_filters(["scenario=linecard"])
        kept = [c for c in spec.expand() if match_filters(c, filters)]
        assert kept and all(c.scenario == "linecard" for c in kept)

    def test_workload_seeds_shared_across_scenarios(self):
        cells = _tiny_spec(scenarios=("bare", "linecard")).expand()
        by_workload: dict[str, set[tuple[int, int]]] = {}
        for c in cells:
            key = c.cell_id.rsplit("/linecard", 1)[0]
            by_workload.setdefault(key, set()).add(
                (c.ruleset_seed, c.trace_seed)
            )
        assert all(len(s) == 1 for s in by_workload.values())


@pytest.mark.sweep
class TestLinecardScenarioEndToEnd:
    def test_linecard_cells_match_bare_neighbours(self):
        spec = _tiny_spec(scenarios=("bare", "linecard"))
        cells = run_sweep(spec).to_dict()["cells"]
        linecard = {k: v for k, v in cells.items() if k.endswith("/linecard")}
        assert len(linecard) == len(cells) // 2
        for cid, m in linecard.items():
            bare = cells[cid.rsplit("/linecard", 1)[0]]
            # The default graph drops nothing, so the classify verdicts
            # (and the gated matched_fraction) are bit-identical.
            assert m["stage_drops"] == 0
            assert m["matched_fraction"] == bare["matched_fraction"]
            assert m["scenario"] == "linecard"
            # The whole-graph energy prices every stage, so it strictly
            # exceeds the classify-only figure the bare cell reports.
            assert m["graph_energy_per_packet_j"] > m["energy_per_packet_j"]
