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
        current = {"persistent_pipeline_pps": _axis(2e6, 1e6, 0.8e6)}
        _, failures = check_monotone(current, tolerance=0.9)
        assert failures == ["monotone:persistent_pipeline_pps"]

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
        dipped = {"persistent_pipeline_pps": _axis(1e6, 0.9e6, 1e6)}
        assert check_monotone(dipped, tolerance=0.5)[1] == [
            "monotone:persistent_pipeline_pps"
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
    def test_fused_lookup_is_gated(self):
        assert "fused_lookup.speedup" in compare_baseline.GATED_METRICS

    def test_multi_tenant_aggregate_is_gated(self):
        assert "multi_tenant.aggregate_ratio" in compare_baseline.GATED_METRICS

    def test_stage_graph_overhead_is_gated(self):
        assert "stage_graph.overhead_ratio" in compare_baseline.GATED_METRICS

    @pytest.mark.parametrize("key,floor", [
        # "a cache never serves slower than no cache"
        ("flowcache_spill.cached_vs_bare_ratio", 1.0),
        ("flat_kernel_gate.speedup", 5.0),
        ("flat_kernel_scaling.large_over_small", 0.8),
        ("update_patch.speedup", 3.0),
        ("update_cache_retention.retention", 0.9),
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

    def test_gated_regression_fails(self):
        baseline = {"fused_lookup": {"speedup": 2.0}}
        current = {"fused_lookup": {"speedup": 1.0}}
        _, failures = compare(
            current, baseline, threshold=0.8, fail_threshold=0.75
        )
        assert failures == ["fused_lookup.speedup"]

    def test_gated_metric_vanishing_fails(self):
        baseline = {"fused_lookup": {"speedup": 2.0}}
        _, failures = compare(
            {}, baseline, threshold=0.8, fail_threshold=0.75
        )
        assert failures == ["fused_lookup.speedup"]

    def test_healthy_run_passes(self):
        data = {
            "fused_lookup": {"speedup": 2.7},
            "flowcache_pipeline_pps": _axis(1e6, 1e6, 1.1e6),
        }
        report, failures = compare(
            data, data, threshold=0.8, fail_threshold=0.75
        )
        assert failures == []
        assert "FAIL" not in report
