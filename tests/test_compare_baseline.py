"""The bench-comparison harness: gated ratios and the monotone axes.

``benchmarks/compare_baseline.py`` is the CI enforcement point for the
perf acceptance gates, so its two failure modes get unit coverage: a
gated speedup regressing (or vanishing) and a ``*_pipeline_pps`` shards
axis inverting beyond the noise tolerance.
"""

from __future__ import annotations

import importlib.util
import json
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


def _axis(one, two, four):
    return {"shards_1": one, "shards_2": two, "shards_4": four}


class TestMonotoneAxes:
    def test_non_decreasing_axis_passes(self):
        current = {"flowcache_pipeline_pps": _axis(1e6, 1.2e6, 1.5e6)}
        lines, failures = check_monotone(current, tolerance=0.9)
        assert failures == []
        assert any("non-decreasing" in line for line in lines)

    def test_inverted_axis_fails(self):
        current = {"auto_pipeline_pps": _axis(2e6, 1e6, 0.8e6)}
        _, failures = check_monotone(current, tolerance=0.9)
        assert failures == ["monotone:auto_pipeline_pps"]

    def test_tolerance_absorbs_noise_dips(self):
        # A 4% step-down is runner noise under the shards families'
        # 0.95 tolerance floor; a 20% step-down is not.
        noisy = {"flowcache_pipeline_pps": _axis(1e6, 0.96e6, 1e6)}
        assert check_monotone(noisy, tolerance=0.9)[1] == []
        broken = {"flowcache_pipeline_pps": _axis(1e6, 0.8e6, 1e6)}
        assert check_monotone(broken, tolerance=0.9)[1] == [
            "monotone:flowcache_pipeline_pps"
        ]

    def test_family_floor_tightens_loose_cli_tolerance(self):
        # The shards families carry a 0.95 floor: even a lax
        # --monotone-tolerance cannot re-admit a >5% step-down.
        dipped = {"auto_pipeline_pps": _axis(1e6, 0.9e6, 1e6)}
        assert check_monotone(dipped, tolerance=0.5)[1] == [
            "monotone:auto_pipeline_pps"
        ]

    def test_missing_points_are_skipped(self):
        # One recorded point is not an axis; nothing to enforce.
        current = {"flowcache_pipeline_pps": {"shards_1": 1e6}}
        lines, failures = check_monotone(current, tolerance=0.9)
        assert failures == [] and lines == []

    def test_monotone_failures_reach_compare(self):
        current = {
            "flowcache_pipeline_pps": _axis(2e6, 1e6, 1e6),
            "flat_kernel_gate": {"speedup": 8.0},
        }
        baseline = {"flat_kernel_gate": {"speedup": 8.0}}
        report, failures = compare(
            current, baseline, threshold=0.8, fail_threshold=0.75
        )
        assert "monotone:flowcache_pipeline_pps" in failures
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
        baseline = json.loads(
            (Path(compare_baseline.__file__).parent / "baseline.json")
            .read_text()
        )
        block, leaf = key.split(".")
        assert baseline[block][leaf] == floor

    def test_committed_baseline_holds_no_wall_clock_row(self):
        # It carries no fingerprint, so a pps / seconds row in it could
        # only ever read ``refused``: the ledger owns wall-clock.
        baseline = json.loads(
            (Path(compare_baseline.__file__).parent / "baseline.json")
            .read_text()
        )
        flat: dict = {}
        compare_baseline._flatten("", baseline, flat)
        assert "fingerprint" not in baseline
        assert [k for k in flat if compare_baseline._is_wall_clock(k)] == []
        assert compare_baseline.GATED_METRICS <= set(flat)

    def test_gated_regression_fails(self):
        baseline = {"dispatch_coalescing": {"speedup": 2.0}}
        current = {"dispatch_coalescing": {"speedup": 1.0}}
        _, failures = compare(
            current, baseline, threshold=0.8, fail_threshold=0.75
        )
        assert failures == ["dispatch_coalescing.speedup"]

    def test_gated_metric_vanishing_fails(self):
        baseline = {"dispatch_coalescing": {"speedup": 2.0}}
        _, failures = compare(
            {}, baseline, threshold=0.8, fail_threshold=0.75
        )
        assert failures == ["dispatch_coalescing.speedup"]

    def test_healthy_run_passes(self):
        data = {
            "dispatch_coalescing": {"speedup": 2.7},
            "flowcache_pipeline_pps": _axis(1e6, 1e6, 1.1e6),
        }
        report, failures = compare(
            data, data, threshold=0.8, fail_threshold=0.75
        )
        assert failures == []
        assert "FAIL" not in report


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
    }

    def _compare(self, cur_host, base_host):
        current = dict(self.SLOW, **({"fingerprint": cur_host} if cur_host else {}))
        baseline = dict(self.BASE, **({"fingerprint": base_host} if base_host else {}))
        return compare(current, baseline, threshold=0.8, fail_threshold=0.75)

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
            assert f"| `{key}` | " in report
            row = next(ln for ln in report.splitlines() if f"`{key}`" in ln)
            assert row.endswith("| — | refused |")
        # The same-run ratio is still diffed (and warns), the count too.
        assert report.count(":warning:") == 1
        assert "3 wall-clock metrics refused" in report

    def test_gates_hold_across_hosts(self):
        current = {"dispatch_coalescing": {"speedup": 1.0}, "fingerprint": _HOST}
        baseline = {"dispatch_coalescing": {"speedup": 2.0}}
        _, failures = compare(
            current, baseline, threshold=0.8, fail_threshold=0.75
        )
        assert failures == ["dispatch_coalescing.speedup"]

    def test_fingerprint_is_not_a_metric(self):
        report, _ = self._compare(_HOST, dict(_HOST, nproc=64))
        assert "fingerprint" not in report.split("refused: the two")[0]
