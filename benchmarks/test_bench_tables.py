"""Benchmarks: regenerating each paper table (quick-grid workloads).

One benchmark per table/figure of the evaluation section, wired to the
same experiment modules that ``python -m repro.cli tables`` runs.  A
shared pipeline fixture caches workloads, so each benchmark measures its
table's own projection work on top of the built structures — plus one
uncached benchmark (`test_table2_cold`) that measures the full build
pipeline.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ablations,
    figures,
    section53,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)
from repro.experiments.common import Pipeline

pytestmark = pytest.mark.bench


def test_table2_memory(benchmark, pipeline):
    rows = benchmark(lambda: table2.run(pipeline))
    assert rows


def test_table2_cold(benchmark):
    """Full cost of Table 2 from scratch (generation + builds + layout)."""

    def cold():
        return table2.run(Pipeline(seed=13, quick=True, trace_packets=2000))

    benchmark.pedantic(cold, rounds=1, iterations=1)


def test_table3_build_energy(benchmark, pipeline):
    assert benchmark(lambda: table3.run(pipeline))


def test_table4_scaling(benchmark, pipeline):
    rows = benchmark.pedantic(
        lambda: table4.run(pipeline, families=("acl1", "fw1")),
        rounds=1, iterations=1,
    )
    assert rows


def test_table5_devices(benchmark, pipeline):
    assert benchmark(lambda: table5.report(pipeline))


def test_table6_energy_per_packet(benchmark, pipeline):
    assert benchmark(lambda: table6.run(pipeline))


def test_table7_throughput(benchmark, pipeline):
    rows = benchmark.pedantic(
        lambda: table7.run(pipeline), rounds=1, iterations=1
    )
    assert rows


def test_table8_worst_case(benchmark, pipeline):
    assert benchmark(lambda: table8.run(pipeline))


def test_figures_demo_trees(benchmark):
    def build_figures():
        return (
            figures.figure1_matches_paper(),
            figures.figure3_matches_paper(),
        )

    checks = benchmark(build_figures)
    assert all("PASS" in c for group in checks for c in group)


def test_section53_tcam(benchmark, pipeline):
    assert "Ayama" in benchmark(lambda: section53.report(pipeline))


def test_ablation_speed(benchmark):
    rows = benchmark.pedantic(
        lambda: ablations.speed_ablation(size=400, trace_packets=2000),
        rounds=1, iterations=1,
    )
    assert rows[0].bytes_used <= rows[1].bytes_used
