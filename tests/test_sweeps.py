"""Sweep-matrix subsystem tests.

Covers the declarative layer (spec round-trip, axis expansion,
deterministic per-cell seeding), the enforcement layer
(``benchmarks/compare_baseline.py`` regression / missing-cell / monotone
verdicts on synthetic sweep artifacts), and — behind the ``sweep``
marker — a mini end-to-end grid through the real
:class:`~repro.serve.Engine`.
"""

from __future__ import annotations

import json

import pytest
from test_compare_baseline import BIG, SMALL, SWEEP_AXIS, compare_baseline
from test_compare_baseline import sweep_artifact, sweep_cell

from repro.core.errors import ConfigError
from repro.serve import EngineConfig
from repro.sweeps import (
    SweepSpec,
    default_spec,
    parse_filters,
    render_matrix,
    run_sweep,
)
from repro.sweeps.spec import match_filters

compare = compare_baseline.compare


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


class TestCompareSweeps:
    """Sweep artifacts through the one comparator: every cell's gated
    leaves, the cache axis, and wall-clock rows refused."""

    def test_identical_artifacts_pass(self):
        art = sweep_artifact()
        report, failures = compare(art, art)
        assert failures == []
        assert "FAIL" not in report

    def test_gated_regression_fails(self):
        report, failures = compare(sweep_artifact(hit=0.6), sweep_artifact())
        assert failures == [f"cells.{SMALL}.hit_rate"]
        assert "FAIL" in report

    def test_lower_is_better_direction(self):
        """More accesses/lookup is worse even though the number grew."""
        _, failures = compare(sweep_artifact(accesses=3.0), sweep_artifact())
        assert failures == [f"cells.{SMALL}.memory_accesses_per_lookup"]

    def test_throughput_is_warn_only(self):
        # A sweep artifact carries no host fingerprint, so its wall-clock
        # rows (pps, line-rate headroom) read ``refused``; stamped with
        # one host they warn.  Either way a 10x slower cell fails nothing.
        slow, base = sweep_artifact(pps=1e5), sweep_artifact()
        for art, headroom in ((slow, 0.1), (base, 1.0)):
            art["cells"][SMALL]["line_rates"] = {"OC-48": {"headroom": headroom}}
        report, failures = compare(slow, base)
        assert failures == [] and "3 wall-clock metrics refused" in report
        host = {"fingerprint": {"nproc": 2}}
        report, failures = compare(slow | host, base | host)
        assert failures == [] and report.count(":warning:") == 2

    def test_missing_cell_fails_unless_allowed(self):
        cur = sweep_artifact({BIG: sweep_cell()})
        _, failures = compare(cur, sweep_artifact())
        assert failures == sorted(
            [f"cells.{SMALL}.{leaf}"
             for leaf in compare_baseline.GATED_CELL_METRICS]
            + [f"monotone:{SWEEP_AXIS}"]  # one cache size left: no axis
        )
        _, failures = compare(cur, sweep_artifact(), allow_missing=True)
        assert failures == []

    def test_missing_gated_metric_fails(self):
        shrunk = sweep_cell()
        del shrunk["matched_fraction"]
        cur = sweep_artifact({SMALL: shrunk, BIG: sweep_cell()})
        _, failures = compare(cur, sweep_artifact())
        assert failures == [f"cells.{SMALL}.matched_fraction"]

    def test_monotone_cache_axis_inversion_fails(self):
        """A bigger cache with a colder hit rate is an inverted-scaling
        failure even when every per-cell ratio vs baseline is clean."""
        art = sweep_artifact({SMALL: sweep_cell(hit=0.9), BIG: sweep_cell(hit=0.5)})
        assert compare(art, art)[1] == [
            "monotone:cells.a/1/x/s1-auto/e*w4/z1.1/p40/u0.hit_rate"]

    def test_monotone_cache_axis_holds_when_nondecreasing(self):
        art = sweep_artifact({SMALL: sweep_cell(hit=0.7), BIG: sweep_cell(hit=0.9)})
        assert compare(art, art)[1] == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(sweep_artifact()))
        bad.write_text(json.dumps(sweep_artifact(matched=0.1)))
        assert compare_baseline.main([str(good), str(good)]) == 0
        assert compare_baseline.main([str(bad), str(good)]) == 1
        capsys.readouterr()

    def test_a_monotone_axis_that_checked_nothing_fails(self, tmp_path, capsys):
        """One non-zero cache size per group leaves the cache axis with
        no pair to compare: "0 cell groups checked ... all held" used to
        exit 0.  Only a deliberately filtered run may skip the axis."""
        bare = sweep_cell()
        del bare["hit_rate"]  # e0: no cache, no hit rate
        art = sweep_artifact({"a/1/x/s1-auto/e0w4/z1.1/p40/u0": bare,
                              SMALL: sweep_cell()})
        report, failures = compare(art, art)
        assert failures == [f"monotone:{SWEEP_AXIS}"]
        assert "checked nothing" in report and "FAIL" in report
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(art))
        assert compare_baseline.main([str(path), str(path)]) == 1
        assert compare_baseline.main([str(path)] * 2 + ["--allow-missing"]) == 0
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
        # The artifact self-compares clean through the real gate; with
        # one non-zero cache size it has no cache axis to check.
        path = tmp_path / "mini.json"
        result.save(str(path))
        _, failures = compare(
            compare_baseline.load(str(path)), artifact, allow_missing=True
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

    def test_tenants_is_not_an_axis(self):
        data = _tiny_spec().to_dict()
        with pytest.raises(ConfigError, match="unknown SweepSpec field.*tenants"):
            SweepSpec.from_dict({**data, "tenants": [1, 2]})
        with pytest.raises(ConfigError, match="unknown --filter axis 'tenants'"):
            parse_filters(["tenants=1"])

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
