"""``benchmarks/compare_baseline.py``, CI's gate on the engine bench and
the sweep grid: gates, wall-clock refusal and monotone axes.  Loaded
once here; the sweep-kind cases in ``tests/test_sweeps.py`` import it,
and the artifact helpers, from this module."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_baseline",
    Path(__file__).resolve().parents[1] / "benchmarks" / "compare_baseline.py",
)
compare_baseline = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_baseline)

compare = compare_baseline.compare
check_monotone = compare_baseline.check_monotone
_BENCHMARKS = Path(compare_baseline.__file__).parent
#: The declared axis patterns, which name an axis that checked nothing.
_, AUTO_AXIS, SWEEP_AXIS = (
    pattern for _, pattern, _ in compare_baseline.MONOTONE_AXES
)

#: Two sweep cells one step apart on the cache axis.
SMALL = "a/1/x/s1-auto/e64w4/z1.1/p40/u0"
BIG = "a/1/x/s1-auto/e256w4/z1.1/p40/u0"


def sweep_cell(hit=0.9, accesses=2.0, energy=1e-9, matched=0.5, pps=1e6):
    return {"hit_rate": hit, "memory_accesses_per_lookup": accesses,
            "energy_per_packet_j": energy, "matched_fraction": matched,
            "throughput_pps": pps}


def sweep_artifact(cells: dict | None = None, **small) -> dict:
    """``cells``, by default SMALL (with ``small`` applied) and BIG."""
    if cells is None:
        cells = {SMALL: sweep_cell(**small), BIG: sweep_cell()}
    return {"version": 1, "spec": {}, "n_cells": len(cells), "cells": cells}


def _axes(flowcache=(1e6, 1e6, 1.1e6), auto=(1e6, 1e6, 1.1e6)) -> dict:
    """Both engine shards axes, healthy unless told otherwise."""
    return {f"{family}_pipeline_pps": dict(zip(("shards_1", "shards_2",
                                                "shards_4"), points))
            for family, points in (("flowcache", flowcache), ("auto", auto))}


class TestMonotoneAxes:
    def test_non_decreasing_axis_passes(self):
        lines, failures = check_monotone(_axes(flowcache=(1e6, 1.2e6, 1.5e6)))
        assert failures == []
        assert sum("1 series checked" in line for line in lines) == 2

    def test_inverted_axis_fails(self):
        _, failures = check_monotone(_axes(auto=(2e6, 1e6, 0.8e6)))
        assert failures == ["monotone:auto_pipeline_pps.shards_*"]

    def test_tolerance_absorbs_noise_dips(self):
        # A 4% step-down is runner noise under the shards axes' 0.95
        # tolerance; a 20% step-down is not.
        assert check_monotone(_axes(flowcache=(1e6, 0.96e6, 1e6)))[1] == []
        assert check_monotone(_axes(flowcache=(1e6, 0.8e6, 1e6)))[1] == [
            "monotone:flowcache_pipeline_pps.shards_*"
        ]

    def test_family_floor_tightens_loose_cli_tolerance(self):
        # The shards families carry a 0.95 floor, tighter than the 0.9
        # the sweep's cache axis runs at: a 6% dip the looser axis
        # admits still fails on a shards axis.
        tolerances = {pattern: tol for _, pattern, tol
                      in compare_baseline.MONOTONE_AXES}
        assert tolerances[AUTO_AXIS] == 0.95 and tolerances[SWEEP_AXIS] == 0.9
        assert check_monotone(sweep_artifact(hit=0.96))[1] == []
        for dip in (0.94e6, 0.9e6):
            assert check_monotone(_axes(auto=(1e6, dip, 1e6)))[1] == [
                "monotone:auto_pipeline_pps.shards_*"
            ]

    def test_missing_points_are_skipped(self):
        # shards_2 unrecorded: the two points left are still an axis.
        current = _axes()
        del current["flowcache_pipeline_pps"]["shards_2"]
        assert check_monotone(current)[1] == []
        current["flowcache_pipeline_pps"]["shards_4"] = 0.5e6
        assert check_monotone(current)[1] == [
            "monotone:flowcache_pipeline_pps.shards_*"
        ]

    def test_an_axis_that_checked_nothing_fails(self):
        # A run that stopped recording one family, or recorded a single
        # point of it, checked nothing on that axis.
        current = dict(_axes(), auto_pipeline_pps={"shards_1": 1e6})
        lines, failures = check_monotone(current)
        assert failures == [f"monotone:{AUTO_AXIS}"]
        assert any("checked nothing" in line for line in lines)
        assert check_monotone(current, allow_missing=True)[1] == []

    def test_monotone_failures_reach_compare(self):
        current = dict(_axes(flowcache=(2e6, 1e6, 1e6)),
                       flat_kernel_gate={"speedup": 8.0})
        baseline = {"flat_kernel_gate": {"speedup": 8.0}}
        report, failures = compare(current, baseline)
        assert failures == ["monotone:flowcache_pipeline_pps.shards_*"]
        assert "FAIL" in report


class TestGatedMetrics:
    def test_dispatch_coalescing_is_gated(self):
        assert "dispatch_coalescing.speedup" in compare_baseline.GATED_METRICS

    def test_multi_tenant_aggregate_is_gated(self):
        assert "multi_tenant.aggregate_ratio" in compare_baseline.GATED_METRICS

    def test_stage_graph_gate_is_its_own_added_cost(self):
        # Not the ratio to the cached classify: that one falls whenever
        # the flow cache gets faster, so it is reported, never gated.
        gated = compare_baseline.GATED_METRICS
        assert "stage_graph.uncached_over_added" in gated
        assert "stage_graph.overhead_ratio" not in gated

    @pytest.mark.parametrize("key,floor", [
        # "a cache never serves slower than no cache"
        ("flowcache_spill.cached_vs_bare_ratio", 1.0),
        ("flat_kernel_gate.speedup", 5.0),
        ("flat_kernel_scaling.large_over_small", 0.8),
        ("native_kernel.speedup", 5.0),
        ("accelerator_occupancy.ratio", 0.85),
        ("update_patch.speedup", 3.0),
        ("update_cache_retention.retention", 0.9),
        ("stage_graph.uncached_over_added", 3.0),
        ("inprocess_shards.over_inline", 0.8),
        ("stream_session.over_direct_loop", 0.85),
        ("dispatch_coalescing.speedup", 1.5),
    ])
    def test_floor_gates_are_pinned_at_their_floors(self, key, floor):
        # The committed baseline holds what the bench test itself
        # asserts, not the ratio one host happened to measure (a pinned
        # 11.11 once hard-failed the kernel gate on every other host).
        assert key in compare_baseline.GATED_METRICS
        baseline = compare_baseline.load(str(_BENCHMARKS / "baseline.json"))
        assert compare_baseline.flatten(baseline)[key] == floor

    def test_committed_baseline_holds_no_wall_clock_row(self):
        # Neither carries a fingerprint, so a pps / seconds row in them
        # could only ever read ``refused``: the ledger owns wall-clock.
        for name in ("baseline.json", "sweeps_baseline.json"):
            baseline = compare_baseline.load(str(_BENCHMARKS / name))
            flat = compare_baseline.flatten(baseline)
            assert "fingerprint" not in baseline
            assert [k for k in flat if compare_baseline.is_wall_clock(k)] == []
            gated = {
                k.rsplit(".", 1)[1] if k.startswith("cells.") else k
                for k in flat if compare_baseline.is_gated(k)
            }
            assert gated in (compare_baseline.GATED_METRICS,
                             compare_baseline.GATED_CELL_METRICS)

    def test_committed_baselines_pass_against_themselves(self, capsys):
        # The engine baseline holds no shards axis, so only a run told
        # that a missing axis is expected passes against it.
        for name in ("baseline.json", "sweeps_baseline.json"):
            path = str(_BENCHMARKS / name)
            assert compare_baseline.main([path, path, "--allow-missing"]) == 0
        capsys.readouterr()

    def test_gated_regression_fails(self):
        baseline = {"dispatch_coalescing": {"speedup": 2.0}}
        current = dict(_axes(), dispatch_coalescing={"speedup": 1.0})
        assert compare(current, baseline)[1] == ["dispatch_coalescing.speedup"]

    def test_gated_metric_vanishing_fails(self):
        baseline = {"dispatch_coalescing": {"speedup": 2.0}}
        assert compare(_axes(), baseline)[1] == ["dispatch_coalescing.speedup"]
        assert compare(_axes(), baseline, allow_missing=True)[1] == []

    @pytest.mark.parametrize("kind", ["engine", "sweep"])
    def test_both_zero_matches_one_sided_zero_collapses(self, kind):
        def artifact(value):
            if kind == "engine":
                return dict(_axes(), update_patch={"speedup": value})
            return sweep_artifact(matched=value)
        key = ("update_patch.speedup" if kind == "engine"
               else f"cells.{SMALL}.matched_fraction")
        assert compare(artifact(0), artifact(0))[1] == []
        assert compare(artifact(0), artifact(0.5))[1] == [key]

    def test_healthy_run_passes(self):
        data = dict(_axes(), dispatch_coalescing={"speedup": 2.7})
        report, failures = compare(data, data)
        assert failures == []
        assert "FAIL" not in report


class TestInputs:
    def test_missing_or_malformed_input_fails(self, tmp_path, capsys):
        # A bench or sweep step that crashed before writing its JSON
        # must not leave the gate green.
        good = str(_BENCHMARKS / "sweeps_baseline.json")
        bad = {"list.json": "[1, 2]", "empty.json": "{}", "torn.json": '{"a": ',
               "cells.json": '{"cells": [1]}', "engine.json": '{"a": {"b": 1}}'}
        for name, text in bad.items():
            (tmp_path / name).write_text(text)
        for path in [tmp_path / "nope.json", *(tmp_path / name for name in bad)]:
            assert compare_baseline.main([str(path), good]) == 1, path
            assert compare_baseline.main([good, str(path)]) == 1, path
            assert "comparison failed: " in capsys.readouterr().err

    def test_the_only_flag_is_allow_missing(self, capsys):
        with pytest.raises(SystemExit):
            compare_baseline.main(["a.json", "b.json", "--threshold", "0.5"])
        assert "unrecognized arguments: --threshold" in capsys.readouterr().err


_HOST = {
    "nproc": 2, "cpu": "cpu-a", "python": "3.11.7", "numpy": "2.4.6",
    "platform": "linux-a", "commit": "abc", "kernel": "native",
}


class TestHostFingerprint:
    """Wall-clock numbers are only diffed against the same host; ratios,
    counts and gates are diffed anywhere."""

    BASE = {
        "flat_pps": {"hicuts": 2e6},
        "oracle": {"batch_s": 0.01, "speedup": 8.0, "packets": 2000},
        "dispatch_coalescing": {"speedup": 2.0, "coalesced_pps": 3e6},
    }
    SLOW = {
        "flat_pps": {"hicuts": 1e6},
        "oracle": {"batch_s": 0.03, "speedup": 4.0, "packets": 2000},
        "dispatch_coalescing": {"speedup": 2.0, "coalesced_pps": 1e6},
        **_axes(),
    }

    def _compare(self, cur_host, base_host):
        current = dict(self.SLOW, **({"fingerprint": cur_host} if cur_host else {}))
        baseline = dict(self.BASE, **({"fingerprint": base_host} if base_host else {}))
        return compare(current, baseline)

    def test_same_host_diffs_wall_clock(self):
        # The commit differs, the host does not: 3 slow wall-clock rows
        # and the halved (same-run) oracle speedup all warn.
        report, failures = self._compare(_HOST, dict(_HOST, commit="def"))
        assert failures == []
        assert report.count(":warning:") == 4
        assert "refused" not in report

    @pytest.mark.parametrize("other", [
        dict(_HOST, nproc=1), dict(_HOST, numpy="1.26.4"), None,
        # same machine, but the FlatTree walk that served differs
        dict(_HOST, kernel="portable"),
    ], ids=["cpu-count", "numpy", "unstamped-baseline", "kernel"])
    def test_other_host_refuses_wall_clock_only(self, other):
        report, failures = self._compare(_HOST, other)
        assert failures == []
        for key in (
            "flat_pps.hicuts", "oracle.batch_s",
            "dispatch_coalescing.coalesced_pps",
        ):
            row = next(ln for ln in report.splitlines() if f"| `{key}` | " in ln)
            assert row.endswith("| — | refused |")
        # The same-run ratio is still diffed (and warns), the count too.
        assert report.count(":warning:") == 1
        assert "3 wall-clock metrics refused" in report

    def test_gates_hold_across_hosts(self):
        current = dict(_axes(), dispatch_coalescing={"speedup": 1.0},
                       fingerprint=_HOST)
        baseline = {"dispatch_coalescing": {"speedup": 2.0}}
        assert compare(current, baseline)[1] == ["dispatch_coalescing.speedup"]

    def test_fingerprint_is_not_a_metric(self):
        report, _ = self._compare(_HOST, dict(_HOST, nproc=64))
        assert "fingerprint" not in report.split("refused: the two")[0]
