"""Execute a :class:`~repro.sweeps.SweepSpec` grid through the engine.

Every cell runs through the same :class:`~repro.serve.Engine` session
facade production serving uses — the sweep measures the real serving
path, not a bench-only shortcut.  Per cell the runner records:

* ``throughput_pps`` / ``elapsed_s`` — wall-clock serving throughput
  (runner-sensitive, so *warn-only* downstream);
* ``hit_rate`` — flow-cache hit rate (deterministic given the seeded
  workload, so *gated* downstream);
* ``memory_accesses_per_lookup`` — the cache-effective (or bare
  worst-case) memory accesses per packet, from
  :class:`~repro.energy.CacheEnergyModel` (deterministic, *gated*);
* ``energy_per_packet_j`` — the SRAM energy model at the measured hit
  rate (deterministic, *gated*);
* ``line_rates`` — OC-48/192/768 feasibility at the cell's packet size
  (:func:`~repro.energy.line_rate_feasibility`);
* update latency percentiles, when the cell carries a churn stream.

Workloads and built backends are shared across cells wherever the cell
coordinates allow it (same family/size -> same ruleset; same trace
coordinates -> same trace; static cells share one built backend per
family/size/backend — the ``linecard`` scenario reuses its bare
neighbour's build), so the 432-cell quick grid costs ~18 builds, not 432.
Churn cells always build fresh — live updates mutate the classifier.

``scenario=linecard`` cells route the same workload through the full
:class:`~repro.stages.StageGraph` RX pipeline instead of a bare
``Engine.classify`` — same verdicts (the default graph drops nothing),
same gated metrics, plus the whole-graph energy per packet.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..classbench import churn_schedule, generate_ruleset, generate_zipf_trace
from ..energy import CacheEnergyModel, line_rate_feasibility
from ..engine.flowcache import CachedClassifier
from ..serve import Engine
from ..stages import StageGraph, default_graph
from .spec import SweepCell, SweepSpec, match_filters

#: Schema version of the ``BENCH_sweeps.json`` artifact.
ARTIFACT_VERSION = 1


@dataclass
class CellResult:
    """One executed grid cell: its coordinates and flat metrics."""

    cell: SweepCell
    metrics: dict


@dataclass
class SweepResult:
    """An executed sweep: the spec, every cell's metrics, wall clock."""

    spec: SweepSpec
    cells: list[CellResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        """The ``BENCH_sweeps.json`` schema: spec + cell-id-keyed
        metrics, which ``benchmarks/compare_baseline.py`` flattens into
        ``cells.<cell id>.<metric>`` keys the way it flattens the
        engine artifact."""
        return {
            "version": ARTIFACT_VERSION,
            "spec": self.spec.to_dict(),
            "n_cells": len(self.cells),
            "elapsed_s": round(self.elapsed_s, 3),
            "cells": {r.cell.cell_id: r.metrics for r in self.cells},
        }

    def save(self, path: str) -> Path:
        artifact = Path(path)
        artifact.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return artifact


def _cell_metrics(cell: SweepCell, report, classifier) -> dict:
    """Flatten one engine report into the cell's artifact record."""
    inner = getattr(classifier, "classifier", classifier)
    metrics = {
        "family": cell.family,
        "size": cell.size,
        "backend": cell.backend,
        "shards": cell.shards,
        "shard_mode": cell.shard_mode,
        "cache_entries": cell.cache_entries,
        "skew": cell.skew,
        "packet_bytes": cell.packet_bytes,
        "churn": cell.churn,
        "scenario": cell.scenario,
        "n_packets": report.n_packets,
        "matched_fraction": round(report.matched_fraction, 4),
        "elapsed_s": round(report.elapsed_s, 4),
        "throughput_pps": round(report.throughput_pps),
        "memory_bytes": int(inner.memory_bytes()),
    }
    model = CacheEnergyModel.for_classifier(classifier)
    hit_rate = report.cache_hit_rate
    if cell.cache_entries and hit_rate is not None:
        metrics["hit_rate"] = round(hit_rate, 4)
        metrics["memory_accesses_per_lookup"] = round(
            model.effective_accesses_per_lookup(hit_rate), 3
        )
        metrics["energy_per_packet_j"] = model.energy_per_packet_j(hit_rate)
    else:
        metrics["memory_accesses_per_lookup"] = round(model.backend_accesses, 3)
        metrics["energy_per_packet_j"] = model.uncached_energy_per_packet_j()
    metrics["line_rates"] = line_rate_feasibility(
        report.throughput_pps, packet_bytes=cell.packet_bytes
    )
    if cell.churn:
        metrics["update_batches"] = report.update_batches
        metrics["update_ops"] = report.update_ops
        pct = report.update_latency
        if pct is not None:
            metrics["update_latency_p50_ms"] = round(pct["p50_ms"], 3)
            metrics["update_latency_p95_ms"] = round(pct["p95_ms"], 3)
            metrics["update_latency_p99_ms"] = round(pct["p99_ms"], 3)
    return metrics


def _run_linecard_cell(
    cell, ruleset, trace, config, schedule, classifier
) -> dict:
    """Execute a ``scenario=linecard`` cell through the full
    :class:`~repro.stages.StageGraph` RX pipeline.

    The graph is the :func:`~repro.stages.default_graph` — every stage
    kind with permissive drop predicates, so the classify verdicts stay
    bit-identical to the cell's bare neighbour and the gated metrics
    (hit rate, accesses/lookup, energy) remain directly comparable.
    The scenario adds two warn-free extras: the total packets the
    non-classify stages dropped (0 for the default graph) and the
    whole-graph energy per packet, which prices the parse/TCAM/queue
    stages on top of the classify energy the bare cells report.
    """
    overlay = {
        k: v
        for k, v in config.to_dict().items()
        if k not in ("cache_entries", "cache_ways")
    }
    graph_spec = default_graph(
        overlay,
        cache_entries=cell.cache_entries,
        cache_ways=cell.cache_ways,
    )
    with StageGraph(graph_spec, ruleset, classifier=classifier) as graph:
        report = graph.run(
            trace, updates=schedule, segment_packets=cell.chunk_size
        )
        metrics = _cell_metrics(cell, report, graph.engine.classifier)
    metrics["stage_drops"] = sum(s.dropped for s in report.stages)
    metrics["graph_energy_per_packet_j"] = sum(
        s.energy_j for s in report.stages
    ) / max(report.n_packets, 1)
    return metrics


def run_sweep(
    spec: SweepSpec,
    filters: dict[str, set[str]] | None = None,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Execute every (filtered) cell of ``spec`` and collect metrics.

    ``filters`` is the :func:`~repro.sweeps.parse_filters` constraint
    map; ``progress`` (e.g. ``print``) receives one line per cell.
    """
    cells = spec.expand()
    if filters:
        cells = [c for c in cells if match_filters(c, filters)]
    rulesets: dict[tuple, object] = {}
    traces: dict[tuple, object] = {}
    backends: dict[tuple, object] = {}
    result = SweepResult(spec=spec)
    started = time.perf_counter()
    for i, cell in enumerate(cells):
        rs_key = (cell.family, cell.size, cell.ruleset_seed)
        ruleset = rulesets.get(rs_key)
        if ruleset is None:
            ruleset = rulesets[rs_key] = generate_ruleset(
                cell.family, cell.size, seed=cell.ruleset_seed
            )
        tr_key = (rs_key, cell.skew, cell.flows, cell.packets, cell.trace_seed)
        trace = traces.get(tr_key)
        if trace is None:
            trace = traces[tr_key] = generate_zipf_trace(
                ruleset,
                cell.packets,
                n_flows=cell.flows,
                skew=cell.skew,
                seed=cell.trace_seed,
            )
        config = cell.engine_config()
        classifier = None
        schedule = None
        if cell.churn:
            # Live updates mutate the classifier: churn cells never
            # share a build.  The engine adapts the backend through the
            # update-serving surface (config.updatable is set).
            schedule = churn_schedule(
                ruleset,
                cell.churn,
                cell.packets,
                seed=cell.update_seed,
            )
        else:
            build_key = (rs_key, cell.backend)
            bare = backends.get(build_key)
            if bare is None:
                bare = backends[build_key] = Engine.build_classifier(
                    config.from_dict(
                        {**config.to_dict(), "cache_entries": 0}
                    ),
                    ruleset,
                )
            classifier = bare
            if cell.cache_entries:
                classifier = CachedClassifier(
                    bare, entries=cell.cache_entries, ways=cell.cache_ways
                )
        if cell.scenario == "linecard":
            metrics = _run_linecard_cell(
                cell, ruleset, trace, config, schedule, classifier
            )
        else:
            with Engine(config, ruleset, classifier=classifier) as engine:
                report = engine.classify(trace, updates=schedule)
                metrics = _cell_metrics(cell, report, engine.classifier)
        result.cells.append(CellResult(cell=cell, metrics=metrics))
        if progress is not None:
            hit = metrics.get("hit_rate")
            progress(
                f"[{i + 1}/{len(cells)}] {cell.cell_id}: "
                f"{metrics['throughput_pps']:,} pps"
                + (f", hit {100 * hit:.1f}%" if hit is not None else "")
            )
    result.elapsed_s = time.perf_counter() - started
    return result
