"""`EngineReport` — one telemetry schema for every serving path.

Before this layer, a caller had to stitch serving telemetry together
from three places: :class:`~repro.engine.pipeline.PipelineResult`
(matches, shards, wall clock), per-chunk
:class:`~repro.engine.pipeline.ChunkStats` (cache counters, epochs), and
the :mod:`repro.energy` models (device throughput, J/packet).
``EngineReport`` consolidates all of it into one flat record with a
JSON-safe ``to_dict()``, built either from a single pipeline run
(:meth:`from_result`) or by merging the per-segment results of a
streamed session (:meth:`merge`).

Update-apply latency lands here as percentiles: ``update_latency_p50 /
p95 / p99`` (milliseconds per applied
:class:`~repro.core.updates.ScheduledUpdate` batch), computed from the
pipeline's parent-side per-batch timings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..engine.pipeline import (
    ChunkStats,
    PipelineResult,
    aggregate_shard_cache_stats,
)
from ..engine.supervision import FaultReport

#: The paper's device operating points used for report-side evaluation.
_DEVICE_FREQ_HZ = {"asic": 226e6, "fpga": 77e6}


def latency_percentiles(
    latencies_s: tuple[float, ...] | list[float],
) -> dict[str, float] | None:
    """p50/p95/p99 of per-batch apply latencies, in milliseconds."""
    if not latencies_s:
        return None
    ms = np.asarray(latencies_s, dtype=np.float64) * 1e3
    p50, p95, p99 = np.percentile(ms, [50, 95, 99])
    return {
        "p50_ms": float(p50),
        "p95_ms": float(p95),
        "p99_ms": float(p99),
        "max_ms": float(ms.max()),
        "batches": int(ms.size),
    }


@dataclass
class EngineReport:
    """Aggregate serving telemetry of one :class:`~repro.serve.Engine`
    run (single-shot or streamed).

    ``match`` is the trace-order first-match array — bit-identical to
    the wrapped classifier's ``classify_trace`` whatever the pipeline
    shape.  Everything else is flat scalars so ``to_dict()`` can land in
    a JSON artifact unmodified.
    """

    backend: str
    n_packets: int
    matched: int
    elapsed_s: float
    n_shards: int
    chunk_size: int
    n_chunks: int
    #: Number of streamed segments merged into this report (1 for a
    #: single-shot ``classify``).
    n_segments: int = 1
    match: np.ndarray | None = field(default=None, repr=False)
    chunks: list[ChunkStats] = field(default_factory=list, repr=False)
    occupancy: np.ndarray | None = field(default=None, repr=False)

    # -- flow cache ------------------------------------------------------
    cache_hits: int | None = None
    cache_misses: int | None = None
    cache_evictions: int | None = None

    # -- live updates ----------------------------------------------------
    update_batches: int = 0
    update_ops: int = 0
    update_skipped: int = 0
    final_epoch: int | None = None
    update_latencies_s: tuple[float, ...] = ()

    # -- fault tolerance -------------------------------------------------
    #: Supervisor observations (retries, replays, degradations,
    #: quarantined packets, crash counts, recovery latencies).  ``None``
    #: only on a report merged from no runs; all-zero when fault-free.
    fault: FaultReport | None = None
    #: CPU seconds forked shard workers spent serving.  They are reaped
    #: at ``close()``, so ``RUSAGE_CHILDREN`` around a run misses this.
    worker_cpu_s: float = 0.0

    # -- energy/device model --------------------------------------------
    energy_model: str = "none"
    device_throughput_pps: float | None = None
    energy_per_packet_j: float | None = None

    # -- multi-tenant ----------------------------------------------------
    #: Per-tenant :class:`~repro.serve.tenancy.TenantReport` slices when
    #: this report aggregates a :class:`MultiTenantEngine` session;
    #: ``None`` on single-tenant runs.
    tenants: list | None = field(default=None, repr=False)

    # -- line-card stage graph -------------------------------------------
    #: Per-stage :class:`~repro.stages.StageReport` telemetry when this
    #: report was produced by a :class:`~repro.stages.StageGraph` run;
    #: ``None`` on bare engine runs.
    stages: list | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def matched_fraction(self) -> float:
        return self.matched / self.n_packets if self.n_packets else 0.0

    @property
    def throughput_pps(self) -> float:
        """Simulation wall-clock packets/second through the engine."""
        return self.n_packets / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def cache_lookups(self) -> int | None:
        if self.cache_hits is None or self.cache_misses is None:
            return None
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float | None:
        lookups = self.cache_lookups
        if lookups is None:
            return None
        return self.cache_hits / lookups if lookups else 0.0

    def shard_cache_stats(self) -> list[dict] | None:
        """Per-shard flow-cache accounting (chunks, hits, misses,
        evictions, hit rate), folded from the per-chunk counters.  For
        a merged stream the shard ids are per-segment worker *slots*
        (slot 0 of every segment folds together).  ``None`` on bare
        backends."""
        if self.cache_hits is None:
            return None
        return aggregate_shard_cache_stats(self.chunks)

    @property
    def first_epoch(self) -> int | None:
        for chunk in self.chunks:
            if chunk.epoch is not None:
                return chunk.epoch
        return None

    def mean_occupancy(self) -> float | None:
        if self.occupancy is None or not self.occupancy.size:
            return None
        return float(self.occupancy.mean())

    @property
    def update_latency(self) -> dict[str, float] | None:
        """p50/p95/p99/max apply-time per update batch (ms), or None."""
        return latency_percentiles(self.update_latencies_s)

    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result: PipelineResult,
        energy_model: str = "none",
    ) -> "EngineReport":
        """Lift one pipeline run into the unified schema."""
        report = cls(
            backend=result.backend,
            n_packets=result.n_packets,
            matched=result.matched,
            elapsed_s=result.elapsed_s,
            n_shards=result.n_shards,
            chunk_size=result.chunk_size,
            n_chunks=len(result.chunks),
            match=result.match,
            chunks=list(result.chunks),
            occupancy=result.occupancy,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            cache_evictions=result.cache_evictions,
            update_batches=result.update_batches,
            update_ops=result.update_ops,
            update_skipped=result.update_skipped,
            final_epoch=result.final_epoch,
            update_latencies_s=result.update_latencies_s,
            fault=result.fault,
            worker_cpu_s=result.worker_cpu_s,
            energy_model=energy_model,
        )
        report._evaluate_energy()
        return report

    @classmethod
    def merge(
        cls,
        results: list[PipelineResult],
        elapsed_s: float,
        energy_model: str = "none",
    ) -> "EngineReport":
        """Fuse the per-segment results of a streamed session.

        ``elapsed_s`` is the end-to-end wall clock of the stream (which
        includes pulling the segments from their source, so it is *not*
        the sum of the per-segment times).  Matches/occupancy concatenate in
        stream order; cache and update counters sum; the final epoch is
        the last segment's.  Zero-packet results (empty segments, the
        tail-update chunk) carry no cache/occupancy telemetry and are
        excluded from those aggregations — they must not erase the
        stream's counters.
        """
        if not results:
            return cls(
                backend="classifier", n_packets=0, matched=0,
                elapsed_s=elapsed_s, n_shards=0, chunk_size=0, n_chunks=0,
                n_segments=0,
                match=np.empty(0, dtype=np.int64),
                energy_model=energy_model,
            )
        match = np.concatenate([r.match for r in results])
        packet_results = [r for r in results if r.n_packets]
        occs = [r.occupancy for r in packet_results]
        occupancy = (
            np.concatenate(occs)
            if occs and all(o is not None for o in occs)
            else None
        )
        caches = [
            (r.cache_hits, r.cache_misses, r.cache_evictions)
            for r in packet_results
        ]
        has_cache = bool(caches) and all(c[0] is not None for c in caches)
        latencies: list[float] = []
        for r in results:
            latencies.extend(r.update_latencies_s)
        final_epoch = None
        for r in results:
            if r.final_epoch is not None:
                final_epoch = r.final_epoch
        # Segment-local chunk stats are rebased onto stream coordinates:
        # indices run over the merged stream and starts are absolute
        # packet offsets, matching the merged ``match`` array.
        chunks = []
        offset = 0
        for r in results:
            for c in r.chunks:
                chunks.append(dataclasses.replace(
                    c, index=len(chunks), start=offset + c.start,
                ))
            offset += r.n_packets
        report = cls(
            backend=results[0].backend,
            n_packets=int(match.size),
            matched=int((match >= 0).sum()),
            elapsed_s=elapsed_s,
            n_shards=max(r.n_shards for r in results),
            chunk_size=results[0].chunk_size,
            n_chunks=len(chunks),
            n_segments=len(results),
            match=match,
            chunks=chunks,
            occupancy=occupancy,
            cache_hits=sum(c[0] for c in caches) if has_cache else None,
            cache_misses=sum(c[1] for c in caches) if has_cache else None,
            cache_evictions=(
                sum(c[2] for c in caches) if has_cache else None
            ),
            update_batches=sum(r.update_batches for r in results),
            update_ops=sum(r.update_ops for r in results),
            update_skipped=sum(r.update_skipped for r in results),
            final_epoch=final_epoch,
            update_latencies_s=tuple(latencies),
            fault=FaultReport.merged(r.fault for r in results),
            worker_cpu_s=sum(r.worker_cpu_s for r in results),
            energy_model=energy_model,
        )
        report._evaluate_energy()
        return report

    def _evaluate_energy(self) -> None:
        """Fill the device-model fields from occupancy, when selected."""
        freq = _DEVICE_FREQ_HZ.get(self.energy_model)
        mo = self.mean_occupancy()
        if freq is None or not mo:
            return
        from ..energy import asic_model, fpga_model

        model = asic_model() if self.energy_model == "asic" else fpga_model()
        self.device_throughput_pps = freq / mo
        self.energy_per_packet_j = model.energy_per_packet_j(mo)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Flat JSON-safe telemetry (arrays and chunk lists excluded)."""
        out = {
            "backend": self.backend,
            "n_packets": self.n_packets,
            "matched": self.matched,
            "matched_fraction": self.matched_fraction,
            "elapsed_s": self.elapsed_s,
            "throughput_pps": self.throughput_pps,
            "n_shards": self.n_shards,
            "chunk_size": self.chunk_size,
            "n_chunks": self.n_chunks,
            "n_segments": self.n_segments,
            "worker_cpu_s": self.worker_cpu_s,
            "energy_model": self.energy_model,
        }
        if self.cache_hits is not None:
            out.update(
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                cache_evictions=self.cache_evictions,
                cache_hit_rate=self.cache_hit_rate,
            )
        if self.update_batches or self.final_epoch is not None:
            out.update(
                update_batches=self.update_batches,
                update_ops=self.update_ops,
                update_skipped=self.update_skipped,
                final_epoch=self.final_epoch,
            )
            pct = self.update_latency
            if pct is not None:
                out["update_latency"] = pct
        if self.fault is not None and self.fault.any():
            out["fault"] = self.fault.to_dict()
        mo = self.mean_occupancy()
        if mo is not None:
            out["mean_occupancy"] = mo
        if self.device_throughput_pps is not None:
            out["device_throughput_pps"] = self.device_throughput_pps
            out["energy_per_packet_j"] = self.energy_per_packet_j
        if self.tenants is not None:
            out["tenants"] = [t.to_dict() for t in self.tenants]
        if self.stages is not None:
            out["stages"] = [s.to_dict() for s in self.stages]
        return out
