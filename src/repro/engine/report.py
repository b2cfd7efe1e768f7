"""`EngineReport` — the one serving-result record.

Every serving path returns this record: a
:class:`~repro.engine.pipeline.ClassificationPipeline` run builds it,
:meth:`Engine.classify <repro.serve.Engine.classify>` stamps the
config's energy model on it, a streamed session's
:class:`~repro.serve.ChunkResult` carries one per segment, and
:meth:`EngineReport.merge` is the one place per-segment, per-tenant and
stage-graph results are summed.  It holds the trace-order matches, the
per-chunk :class:`ChunkStats`, the per-packet memory-port occupancy the
paper's cycles/packet and nJ/packet derive from, and flat counters
(flow cache, live updates, faults) that ``to_dict()`` lands in a JSON
artifact unmodified.

Update-apply latency is reported as percentiles: ``update_latency``
(milliseconds per applied :class:`~repro.core.updates.ScheduledUpdate`
batch), computed from the pipeline's parent-side per-batch timings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .supervision import FaultReport

#: One part's flow-cache counters (hits, misses, evictions); ``None``
#: unless it was served through a flow-cached front-end.
CacheTriple = tuple[int, int, int] | None


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


def sum_cache_triples(triples) -> dict:
    """The ``cache_*`` totals over a result's parts (a run's chunks, a
    stream's segments, a fleet's tenants): summed when every part has a
    triple, else all ``None`` — a bare backend, or a mix of cached and
    bare parts, has no meaningful hit rate."""
    triples = list(triples)
    if not triples or any(t is None for t in triples):
        return dict(cache_hits=None, cache_misses=None, cache_evictions=None)
    hits, misses, evictions = (sum(column) for column in zip(*triples))
    return dict(
        cache_hits=hits, cache_misses=misses, cache_evictions=evictions
    )


@dataclass(slots=True)
class ChunkStats:
    """Aggregate statistics for one processed chunk (a plain slotted
    record: one is built per chunk on the serving path, and a frozen
    one costs several times as much to build).

    ``cache_hits``/``cache_misses``/``cache_evictions`` are filled when
    the classifier is a flow-cached front-end; ``None`` on bare
    backends.  ``epoch`` is the ruleset version every packet of this
    chunk was classified against (``None`` when the backend is not
    updatable); ``updates_applied`` counts the update *operations* that
    took effect immediately before this chunk.  ``shard`` is the plan's
    0-based id of the shard that owns the chunk (``index % n_shards``
    of the plan that served the run).
    """

    index: int
    start: int
    n_packets: int
    matched: int
    occupancy_sum: int | None = None
    cache_hits: int | None = None
    cache_misses: int | None = None
    cache_evictions: int | None = None
    epoch: int | None = None
    updates_applied: int = 0
    shard: int = 0


@dataclass
class EngineReport:
    """Trace-order matches plus the serving telemetry of one run — a
    single pipeline run, or several merged (a streamed session, a
    tenant fleet, a stage graph).

    ``match`` is the trace-order first-match array — bit-identical to
    the wrapped classifier's ``classify_trace`` whatever the pipeline
    shape.  Everything else is flat scalars so ``to_dict()`` can land in
    a JSON artifact unmodified.
    """

    backend: str
    n_packets: int
    matched: int
    #: Wall-clock seconds of the *simulation itself* (one run's
    #: dispatch, or a merged session's end-to-end clock).
    elapsed_s: float
    #: Shard owners that *actually ran*: 1 when one classifier served
    #: the trace inline (no ``fork`` on the platform, a single chunk,
    #: ``shards=1``, or ``shard_mode="auto"`` declining a run too short
    #: to give each worker a full dispatch), else the plan's worker count — in-process shards
    #: clamped to the chunk count, forked ones to the CPU count too.
    n_shards: int
    chunk_size: int
    n_chunks: int
    #: Number of pipeline runs merged into this report (1 for a
    #: single run, 0 for a stream that served no segment).
    n_segments: int = 1
    match: np.ndarray | None = field(default=None, repr=False)
    chunks: list[ChunkStats] = field(default_factory=list, repr=False)
    #: Per-packet memory-port cycles, when the backend models hardware
    #: cost (the accelerator); ``None`` on software backends.
    occupancy: np.ndarray | None = field(default=None, repr=False)

    # -- flow cache ------------------------------------------------------
    #: Totals over all chunks (``None`` on bare backends).  Counts come
    #: back from whichever process served each chunk, so they are
    #: correct on the forked tier too.
    cache_hits: int | None = None
    cache_misses: int | None = None
    cache_evictions: int | None = None

    # -- live updates ----------------------------------------------------
    #: Batches and operations applied, operations skipped (removals of
    #: already-dead ids), and the classifier's epoch after the run
    #: (``None`` when the backend is not updatable).
    update_batches: int = 0
    update_ops: int = 0
    update_skipped: int = 0
    final_epoch: int | None = None
    #: Parent-side wall-clock seconds each update batch took to apply,
    #: in schedule order (the control-plane apply cost: tree surgery +
    #: kernel patch + cache retirement).  Empty when no updates ran.
    update_latencies_s: tuple[float, ...] = ()

    # -- fault tolerance -------------------------------------------------
    #: Supervisor observations (retries, replays, degradations,
    #: quarantined packets, crash counts, recovery latencies); all-zero
    #: when fault-free.
    fault: FaultReport = field(default_factory=FaultReport, repr=False)
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
    def cache_triple(self) -> CacheTriple:
        if self.cache_hits is None:
            return None
        return self.cache_hits, self.cache_misses, self.cache_evictions

    @property
    def cache_lookups(self) -> int | None:
        """Total lookups through the flow cache (hits + backend misses)."""
        if self.cache_hits is None or self.cache_misses is None:
            return None
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float | None:
        """Fraction of packets served without a backend lookup."""
        lookups = self.cache_lookups
        if lookups is None:
            return None
        return self.cache_hits / lookups if lookups else 0.0

    def shard_cache_stats(self) -> list[dict] | None:
        """Per-shard flow-cache accounting (chunks, hits, misses,
        evictions, hit rate), folded from the per-chunk counters — the
        view the aggregate ``cache_hit_rate`` flattens (shard caches
        are private, so their hit rates genuinely differ under skew).
        For a merged stream the shard ids are per-segment worker
        *slots* (slot 0 of every segment folds together).  ``None`` on
        bare backends."""
        if self.cache_hits is None:
            return None
        acc: dict[int, dict] = {}
        for c in self.chunks:
            if c.cache_hits is None:
                continue
            d = acc.setdefault(c.shard, {
                "shard": c.shard, "chunks": 0, "hits": 0,
                "misses": 0, "evictions": 0,
            })
            d["chunks"] += 1
            d["hits"] += c.cache_hits
            d["misses"] += c.cache_misses
            d["evictions"] += c.cache_evictions or 0
        out = [acc[k] for k in sorted(acc)]
        for d in out:
            lookups = d["hits"] + d["misses"]
            d["hit_rate"] = d["hits"] / lookups if lookups else 0.0
        return out

    @property
    def first_epoch(self) -> int | None:
        for chunk in self.chunks:
            if chunk.epoch is not None:
                return chunk.epoch
        return None

    def mean_occupancy(self) -> float | None:
        """Mean memory-port cycles per packet, when the backend models it:
        the chunks' summed integer ``occupancy_sum`` tallies over their
        packets, never a pass over ``occupancy`` — bit-identical to
        ``float(occupancy.mean())``, whose partial sums are integers
        below 2**53 and so exact.  A stage graph's chunks count only
        its classified packets, so this divides by those, not by
        ``occupancy.size`` (a dropped packet's 0 is not a cycle count)."""
        sums = [c.occupancy_sum for c in self.chunks]
        if not sums or None in sums:
            return None
        return sum(sums) / sum(c.n_packets for c in self.chunks)

    @property
    def update_latency(self) -> dict[str, float] | None:
        """p50/p95/p99/max apply-time per update batch (ms), or None."""
        return latency_percentiles(self.update_latencies_s)

    # ------------------------------------------------------------------
    @staticmethod
    def summed_counters(reports) -> dict:
        """The fields that add across ``reports``, as constructor
        arguments: cache totals, update totals and latencies, the merged
        fault report and the worker CPU seconds.  Reports that classified
        no packet, so hold no chunk (an empty segment, the tail-update
        chunk, an idle tenant, a stage-graph segment dropped whole),
        carry no cache telemetry and must not erase the others'
        counters."""
        latencies: list[float] = []
        for r in reports:
            latencies.extend(r.update_latencies_s)
        return dict(
            **sum_cache_triples(r.cache_triple for r in reports if r.chunks),
            update_batches=sum(r.update_batches for r in reports),
            update_ops=sum(r.update_ops for r in reports),
            update_skipped=sum(r.update_skipped for r in reports),
            update_latencies_s=tuple(latencies),
            fault=FaultReport.merged(r.fault for r in reports),
            worker_cpu_s=sum(r.worker_cpu_s for r in reports),
        )

    @classmethod
    def merge(
        cls,
        results: list[EngineReport],
        elapsed_s: float,
        energy_model: str = "none",
        outputs: tuple | None = None,
    ) -> "EngineReport":
        """Fuse the per-segment results of a streamed session (at least
        one: a session with none reports its pipeline's empty run).

        ``elapsed_s`` is the end-to-end wall clock of the stream (which
        includes pulling the segments from their source, so it is *not*
        the sum of the per-segment times).  ``outputs``, when given, is
        the stream-sized ``(match, occupancy)`` pair every result wrote
        its slice of, in stream order (a known-length source): the merge
        takes it as it is.  Otherwise matches/occupancy concatenate in
        stream order.  Cache and update counters sum; the final epoch is
        the last segment's.  A zero-packet result (an empty segment, the
        tail-update run) has no occupancy to give; any other result
        without occupancy leaves the merge without one.  A stage-graph
        segment is its classify run restated on all its packets (a
        dropped one reads match -1 and occupancy 0), so it carries an
        occupancy whenever the classifier models one, even when classify
        saw none of its packets; its chunks count only the classified
        packets.
        """
        occs = [r.occupancy for r in results if r.n_packets]
        whole = bool(occs) and all(o is not None for o in occs)
        if outputs is None:
            match = np.concatenate([r.match for r in results])
            occupancy = np.concatenate(occs) if whole else None
        else:
            match, occupancy = outputs[0], outputs[1] if whole else None
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
        return cls(
            backend=results[0].backend,
            n_packets=int(match.size),
            matched=sum(r.matched for r in results),
            elapsed_s=elapsed_s,
            n_shards=max(r.n_shards for r in results),
            chunk_size=results[0].chunk_size,
            n_chunks=len(chunks),
            n_segments=sum(r.n_segments for r in results),
            match=match,
            chunks=chunks,
            occupancy=occupancy,
            final_epoch=final_epoch,
            **cls.summed_counters(results),
        ).with_energy(energy_model)

    def with_energy(self, energy_model: str) -> "EngineReport":
        """Stamp ``energy_model`` on this report and fill the
        device-model fields from its occupancy (left ``None`` under
        ``"none"`` or on a backend that models no occupancy)."""
        self.energy_model = energy_model
        mo = self.mean_occupancy()
        if energy_model in ("asic", "fpga") and mo:
            from ..energy import asic_model, fpga_model

            model = asic_model() if energy_model == "asic" else fpga_model()
            self.device_throughput_pps = model.device.freq_hz / mo
            self.energy_per_packet_j = model.energy_per_packet_j(mo)
        return self

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
        if self.fault.any():
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
