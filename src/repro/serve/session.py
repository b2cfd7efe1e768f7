"""`Engine` — the serving-session facade over the classification stack.

One object owns what used to be four call sites' worth of plumbing:
backend construction through the registry (including the tree-to-
accelerator routing and the update-serving adaptation), flow-cache
wrapping, pipeline construction, and shard-worker lifecycle::

    from repro.serve import Engine, EngineConfig

    config = EngineConfig(backend="hypercuts", shards=4,
                          cache_entries=4096)
    with Engine.open(config, ruleset) as engine:
        report = engine.classify(trace)            # one-shot
        for chunk in engine.stream(segments):      # streamed session
            consume(chunk.match)

Two serving paths, one result:

``classify(trace, updates=...)``
    one pipeline run, returning a unified :class:`EngineReport`.
``stream(segments, updates=...)``
    a long-lived serving session over any iterable of trace segments
    (in-memory views, a file reader, a traffic generator).  A
    background **ingestion thread** pulls segments from the iterable
    into a bounded prefetch queue and a **serving thread** classifies
    them on the pipeline, publishing
    :class:`ChunkResult`\\ s into a bounded **result ring** the caller
    iterates.  Ingestion (trace generation, file parsing) therefore
    overlaps classification; the bounded queues give backpressure, so
    streamed memory stays ``O(segments in flight)``.

Exactness: streamed matches are bit-identical to ``classify`` on the
concatenated trace at every backend/shard/pool/cache combination.  With
live updates the identity additionally requires segment lengths that
are multiples of ``chunk_size`` (otherwise each segment end introduces
an extra epoch boundary — same guarantee as changing ``chunk_size``);
the stream conformance suite pins both.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..core.errors import ConfigError, IngestError
from ..core.packet import PacketTrace
from ..core.ruleset import RuleSet
from ..core.updates import ScheduledUpdate
from ..engine.faults import FaultPlan, fire_ingest_specs
from ..engine.flowcache import CachedClassifier
from ..engine.pipeline import ClassificationPipeline, PipelineResult
from ..engine.protocol import Classifier
from ..engine.registry import backend_spec, build_backend
from ..engine.supervision import FaultReport, SupervisionPolicy
from ..engine.updates import build_updatable_backend, is_updatable
from .config import EngineConfig
from .ingest import (
    DEFAULT_SEGMENT_PACKETS,
    QuarantineLog,
    iter_trace_segments,
)
from .report import EngineReport

#: Sentinel the ingestion thread publishes after the last segment.
_DONE = object()
#: Sentinel ``_get`` returns when the stream is being torn down.
_STOPPED = object()


@dataclass(frozen=True)
class _StreamError:
    """An exception captured in a worker thread, re-raised at the
    consumer."""

    exc: BaseException


@dataclass
class ChunkResult:
    """One streamed segment's classification result.

    ``start`` is the segment's first-packet offset in the logical
    stream; ``epoch`` is the classifier's ruleset version after the
    segment (``None`` for non-updatable backends).  ``result`` keeps
    the underlying :class:`PipelineResult` for per-chunk statistics.
    """

    index: int
    start: int
    n_packets: int
    matched: int
    elapsed_s: float
    epoch: int | None
    match: np.ndarray = field(repr=False, default=None)
    result: PipelineResult = field(repr=False, default=None)

    @property
    def matched_fraction(self) -> float:
        return self.matched / self.n_packets if self.n_packets else 0.0

    @property
    def throughput_pps(self) -> float:
        return self.n_packets / self.elapsed_s if self.elapsed_s > 0 else 0.0


class Engine:
    """A serving session: one built classifier behind one pipeline.

    Construct through :meth:`open` (usable directly as a context
    manager); :meth:`close` tears down the held shard workers.
    ``backend_params`` are forwarded to the backend factory for the few
    call sites that need more than the declarative surface (the
    experiment harness's ``ops`` counters and ``capacity_words``).
    """

    def __init__(
        self,
        config: EngineConfig,
        ruleset: RuleSet,
        *,
        classifier: Classifier | None = None,
        **backend_params,
    ) -> None:
        if isinstance(config, dict):
            config = EngineConfig.from_dict(config)
        if not isinstance(config, EngineConfig):
            raise ConfigError(
                f"Engine expects an EngineConfig (or dict), "
                f"got {type(config).__name__}"
            )
        self.config = config
        self.ruleset = ruleset
        self.classifier = (
            classifier
            if classifier is not None
            else self.build_classifier(config, ruleset, **backend_params)
        )
        self._pipeline = ClassificationPipeline(
            self.classifier,
            chunk_size=config.chunk_size,
            shards=config.shards,
            shard_mode=config.shard_mode,
            min_chunk_packets=config.min_chunk_packets,
            policy=SupervisionPolicy(
                fault_policy=config.fault_policy,
                max_retries=config.max_retries,
                chunk_timeout_s=config.chunk_timeout_s,
            ),
        )
        #: Dead-letter buffer for malformed trace lines — live (and
        #: meant to be handed to ``iter_trace_file``) when the config
        #: asks for quarantine, ``None`` under ``on_malformed="raise"``.
        self.quarantine: QuarantineLog | None = (
            QuarantineLog() if config.on_malformed == "quarantine" else None
        )
        #: Stream-level fault accounting (ingest retries, quarantined
        #: lines) of the most recent :meth:`stream` session; ``None``
        #: before the first stream or when it saw nothing.
        self.last_stream_fault: FaultReport | None = None
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, config: EngineConfig, ruleset: RuleSet, **backend_params
    ) -> "Engine":
        """Build the configured classifier and open a serving session."""
        return cls(config, ruleset, **backend_params)

    @staticmethod
    def build_classifier(
        config: EngineConfig, ruleset: RuleSet, **backend_params
    ) -> Classifier:
        """Construct the classifier ``config`` describes (no session).

        Routing rules (the policy previously duplicated across the CLI
        and the experiment harness):

        * ``updatable=True`` builds through the update-serving surface —
          decision-tree backends route to the incremental classifier,
          everything else serves updates by rebuild adaptation;
        * tree backends otherwise route onto the hardware accelerator
          unless ``software=True`` asks for the original traversal;
        * ``cache_entries > 0`` wraps the result in a
          :class:`~repro.engine.flowcache.CachedClassifier`.
        """
        if isinstance(config, dict):
            config = EngineConfig.from_dict(config)
        spec = backend_spec(config.backend)
        shared = dict(
            binth=config.binth, spfac=config.spfac, speed=config.speed,
        )
        shared.update(backend_params)
        if config.updatable:
            if spec.builds_tree or spec.name == "incremental":
                clf = build_updatable_backend(
                    "incremental", ruleset,
                    algorithm=spec.name if spec.builds_tree else "hicuts",
                    binth=config.binth, spfac=config.spfac,
                    hw_mode=not config.software,
                    **backend_params,
                )
            else:
                clf = build_updatable_backend(
                    spec.name, ruleset,
                    hw_mode=not config.software, **shared,
                )
        elif spec.builds_tree and not config.software:
            clf = build_backend(
                "accelerator", ruleset, algorithm=spec.name, **shared
            )
        else:
            clf = build_backend(
                spec.name, ruleset,
                hw_mode=not config.software, **shared,
            )
        if config.cache_entries:
            clf = CachedClassifier(
                clf,
                entries=config.cache_entries,
                ways=config.cache_ways,
                max_age=config.cache_max_age,
            )
        return clf

    # -- lifecycle -------------------------------------------------------
    @property
    def pipeline(self) -> ClassificationPipeline:
        """The internal executor (pool lifecycle belongs to the engine)."""
        return self._pipeline

    @property
    def pool_engaged(self) -> bool:
        """Whether forked shard workers are currently being held."""
        return self._pipeline.workers_alive

    def close(self) -> None:
        """Tear down the worker pool; the session stays reusable (the
        next run re-forks)."""
        self._pipeline.close()
        self._closed = True

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- one-shot serving ------------------------------------------------
    def classify(
        self, trace: PacketTrace, updates=None, faults=None
    ) -> EngineReport:
        """Run one trace (optionally with a live update stream) and
        return the unified telemetry report; ``report.match`` is the
        trace-order first-match array.  ``faults`` injects a
        deterministic :class:`~repro.engine.faults.FaultPlan`; recovery
        follows the config's ``fault_policy`` and lands in
        ``report.fault``."""
        result = self._pipeline.run(trace, updates=updates, faults=faults)
        return EngineReport.from_result(
            result, energy_model=self.config.energy_model
        )

    # -- streamed serving ------------------------------------------------
    def stream(
        self,
        segments: Iterable[PacketTrace] | PacketTrace,
        updates=None,
        *,
        prefetch: int = 2,
        ring_slots: int = 4,
        segment_packets: int = DEFAULT_SEGMENT_PACKETS,
        faults=None,
    ) -> Iterator[ChunkResult]:
        """Serve a segment stream, overlapping ingestion with
        classification.

        ``segments`` is any iterable of :class:`PacketTrace` segments
        (or raw ``(n, ndim)`` header arrays); passing a single
        ``PacketTrace`` slices it into ``segment_packets`` views.
        ``updates`` is a global :class:`ScheduledUpdate` schedule whose
        ``at_packet`` offsets count from the start of the *stream*.

        Returns a lazy iterator of :class:`ChunkResult`; nothing starts
        until the first ``next()``.  ``prefetch`` bounds the ingestion
        queue, ``ring_slots`` the result ring — together they cap how
        far ingestion may run ahead of the consumer.

        Sharding is per segment: a segment no longer than ``chunk_size``
        is one chunk and serves single-process, so with ``shards > 1``
        use segments of at least a few chunks (the CLI warns about
        ``--stream`` values that cannot engage the shards).

        ``faults`` injects a :class:`~repro.engine.faults.FaultPlan`
        into the session: ``ingest`` specs fire in the ingestion thread
        (retried per the fault policy — the source iterator is not
        advanced past an injected failure), everything else is routed
        to the pipeline run of its target segment.  Stream-level
        accounting is published on :attr:`last_stream_fault` when the
        session ends.
        """
        if isinstance(segments, PacketTrace):
            segments = iter_trace_segments(segments, segment_packets)
        if prefetch < 1:
            raise ConfigError(f"prefetch must be >= 1, got {prefetch}")
        if ring_slots < 1:
            raise ConfigError(f"ring_slots must be >= 1, got {ring_slots}")
        entries = self._normalise_stream_updates(updates)
        plan = FaultPlan.coerce(faults)
        return self._stream(segments, entries, prefetch, ring_slots, plan)

    def classify_stream(
        self,
        segments: Iterable[PacketTrace] | PacketTrace,
        updates=None,
        **stream_kwargs,
    ) -> EngineReport:
        """Consume a whole :meth:`stream` session into one merged
        :class:`EngineReport` (end-to-end wall clock, concatenated
        matches)."""
        started = time.perf_counter()
        results = [
            chunk.result
            for chunk in self.stream(segments, updates, **stream_kwargs)
        ]
        elapsed = time.perf_counter() - started
        report = EngineReport.merge(
            results, elapsed_s=elapsed,
            energy_model=self.config.energy_model,
        )
        if self.last_stream_fault is not None:
            # Stream-level accounting (ingest retries, quarantined
            # lines) lives outside any one pipeline result; fold it in.
            if report.fault is None:
                report.fault = FaultReport()
            report.fault.merge(self.last_stream_fault)
        return report

    # ------------------------------------------------------------------
    def _normalise_stream_updates(
        self, updates
    ) -> list[ScheduledUpdate]:
        if not updates:
            return []
        if not is_updatable(self.classifier):
            raise ConfigError(
                f"backend {getattr(self.classifier, 'backend_name', '?')!r} "
                "does not serve rule updates; open the engine with "
                "EngineConfig(updatable=True)"
            )
        items: list[ScheduledUpdate] = []
        for upd in updates:
            if isinstance(upd, ScheduledUpdate):
                items.append(upd)
            else:
                at, batch = upd
                items.append(ScheduledUpdate(int(at), tuple(batch)))
        return sorted(items, key=lambda u: u.at_packet)  # stable

    def _as_trace(self, segment) -> PacketTrace:
        if isinstance(segment, PacketTrace):
            return segment
        return PacketTrace(
            np.asarray(segment, dtype=np.uint32), self.ruleset.schema
        )

    def _empty_trace(self) -> PacketTrace:
        return PacketTrace(
            np.empty((0, self.ruleset.schema.ndim), dtype=np.uint32),
            self.ruleset.schema,
        )

    def _stream(
        self,
        segments: Iterable,
        entries: list[ScheduledUpdate],
        prefetch: int,
        ring_slots: int,
        plan: FaultPlan | None = None,
    ) -> Iterator[ChunkResult]:
        """Generator body of :meth:`stream` (threads start lazily on the
        first ``next()``; early ``close()`` of the iterator tears the
        session's threads down without leaking)."""
        # Fork the shard workers before any thread exists: forking a
        # multi-threaded process risks inheriting held locks.
        self._pipeline.prefork(self.ruleset.schema.ndim)
        supervisor = self._pipeline.supervisor
        stream_fault = FaultReport()
        quarantined_before = self.quarantine.count if self.quarantine else 0
        ingest_q: queue.Queue = queue.Queue(maxsize=prefetch)
        ring: queue.Queue = queue.Queue(maxsize=ring_slots)
        stop = threading.Event()

        def _put(q: queue.Queue, item) -> bool:
            """Bounded put that aborts when the stream is closing."""
            while not stop.is_set():
                try:
                    q.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def _get(q: queue.Queue):
            while not stop.is_set():
                try:
                    return q.get(timeout=0.05)
                except queue.Empty:
                    continue
            return _STOPPED

        def _drain(q: queue.Queue) -> None:
            """Discard everything queued so a producer blocked on a
            full queue can publish its pending item and observe the
            stop flag instead of waiting out its poll interval with the
            sentinel undrained."""
            while True:
                try:
                    q.get_nowait()
                except queue.Empty:
                    return

        def _ingest() -> None:
            # Injected ingest faults fire *before* the source is pulled,
            # so a retry re-pulls cleanly — the iterator never loses a
            # segment to an injected failure.  A real source error is
            # relayed (a dead generator cannot be retried).
            it = iter(segments)
            index = 0
            try:
                while True:
                    attempt = 0
                    while True:
                        try:
                            if plan is not None:
                                specs = plan.ingest_faults(index, attempt)
                                if specs:
                                    fire_ingest_specs(specs, index)
                            segment = next(it)
                            break
                        except StopIteration:
                            _put(ingest_q, _DONE)
                            return
                        except IngestError:
                            if not supervisor.may_retry(attempt):
                                raise
                            stream_fault.ingest_retries += 1
                            time.sleep(supervisor.backoff_s(attempt))
                            attempt += 1
                    if not _put(ingest_q, segment):
                        return
                    index += 1
            except BaseException as exc:  # noqa: BLE001 - relayed
                _put(ingest_q, _StreamError(exc))

        def _serve() -> None:
            offset = 0
            index = 0
            upd_i = 0
            try:
                while True:
                    item = _get(ingest_q)
                    if item is _STOPPED:
                        return
                    if isinstance(item, _StreamError):
                        _put(ring, item)
                        # The ingestion thread may still be blocked
                        # publishing into a full prefetch queue (its
                        # _DONE sentinel will never be consumed now);
                        # free a slot so it unblocks promptly.
                        _drain(ingest_q)
                        return
                    if item is _DONE:
                        # Updates scheduled past the stream's end apply
                        # after the last segment — through the pipeline
                        # (so held workers catch up too) and
                        # surfaced as a final zero-packet chunk so the
                        # consumer sees the epoch advance.
                        tail = [
                            ScheduledUpdate(0, e.batch)
                            for e in entries[upd_i:]
                        ]
                        if tail:
                            result = self._pipeline.run(
                                self._empty_trace(), updates=tail
                            )
                            _put(ring, ChunkResult(
                                index=index, start=offset, n_packets=0,
                                matched=0, elapsed_s=result.elapsed_s,
                                epoch=result.final_epoch,
                                match=result.match, result=result,
                            ))
                        _put(ring, _DONE)
                        return
                    trace = self._as_trace(item)
                    n = trace.n_packets
                    local: list[ScheduledUpdate] = []
                    while (
                        upd_i < len(entries)
                        and entries[upd_i].at_packet < offset + n
                    ):
                        entry = entries[upd_i]
                        local.append(ScheduledUpdate(
                            max(0, entry.at_packet - offset), entry.batch
                        ))
                        upd_i += 1
                    result = self._pipeline.run(
                        trace, updates=local or None,
                        faults=plan.for_segment(index)
                        if plan is not None else None,
                    )
                    chunk = ChunkResult(
                        index=index,
                        start=offset,
                        n_packets=n,
                        matched=result.matched,
                        elapsed_s=result.elapsed_s,
                        epoch=result.final_epoch,
                        match=result.match,
                        result=result,
                    )
                    if not _put(ring, chunk):
                        return
                    offset += n
                    index += 1
            except BaseException as exc:  # noqa: BLE001 - relayed
                _put(ring, _StreamError(exc))

        ingest_t = threading.Thread(
            target=_ingest, name="repro-serve-ingest", daemon=True
        )
        serve_t = threading.Thread(
            target=_serve, name="repro-serve-classify", daemon=True
        )
        try:
            # Starts live inside the try: if the second start raises,
            # the finally still stops and joins the first thread
            # instead of leaving it running against a dead generator.
            ingest_t.start()
            serve_t.start()
            while True:
                try:
                    item = ring.get(timeout=0.1)
                except queue.Empty:
                    if not serve_t.is_alive():
                        # The serving thread may have published its last
                        # items (and exited) between our timeout and the
                        # liveness check: drain what it left before
                        # concluding the stream, or a final chunk / a
                        # relayed error would be lost.
                        while True:
                            try:
                                item = ring.get_nowait()
                            except queue.Empty:
                                return
                            if item is _DONE:
                                return
                            if isinstance(item, _StreamError):
                                raise item.exc
                            yield item
                    continue
                if item is _DONE:
                    return
                if isinstance(item, _StreamError):
                    raise item.exc
                yield item
        finally:
            stop.set()
            # Unwedge producers parked on full queues (the consumer-
            # abandons-mid-stream case: the serving thread blocked
            # publishing into the ring, the ingestion thread into the
            # prefetch queue, sentinels never drained) so teardown does
            # not ride on their 50ms stop polls.  The serving thread is
            # the only one touching the pipeline; wait for it
            # unconditionally (it blocks only in bounded queue polls or
            # one finite pipeline.run) so a later classify() never
            # races an abandoned run.  The ingestion thread may be
            # parked inside the caller's iterable; once stopped it can
            # only touch its own queue, so a timed-out join is safe.
            _drain(ring)
            if serve_t.ident is not None:
                serve_t.join()
            _drain(ingest_q)
            if ingest_t.ident is not None:
                ingest_t.join(timeout=2.0)
            if self.quarantine is not None:
                stream_fault.quarantined += (
                    self.quarantine.count - quarantined_before
                )
            self.last_stream_fault = (
                stream_fault if stream_fault.any() else None
            )
