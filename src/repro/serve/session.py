"""`Engine` — the serving-session facade over the classification stack.

One object owns backend construction through the registry (including
the tree-to-accelerator routing and the update-serving adaptation),
flow-cache wrapping, pipeline construction, and shard-worker
lifecycle::

    from repro.serve import Engine, EngineConfig

    config = EngineConfig(backend="hypercuts", shards=4,
                          cache_entries=4096)
    with Engine.open(config, ruleset) as engine:
        report = engine.classify(trace)            # one-shot
        for chunk in engine.stream(segments):      # streamed session
            consume(chunk.match)

Two serving paths, one result record (:class:`EngineReport`):

``classify(trace, updates=...)``
    one pipeline run: the run's report, with the config's energy model
    evaluated on it.
``stream(segments, updates=...)``
    a long-lived serving session over a segment source (a trace or
    header array sliced into views, a trace-file path, a traffic
    generator — :meth:`Engine._segments` reads them all): one
    generator that, per ``next()``, pulls a segment from the source,
    classifies it on the pipeline and yields its :class:`ChunkResult`
    — on the calling thread, like the accelerator it models is fed one
    packet stream in order.  No thread is started and nothing is
    queued: the source is pulled when the consumer asks, so streamed
    memory is one segment in flight (docs/engine.md, "What ingest
    costs").  Each chunk carries its segment's own report;
    ``classify_stream`` merges them (:meth:`EngineReport.merge`).  A
    source already in memory (a trace or a header array) has a known
    length, so ``classify_stream`` serves it like one run: one
    stream-sized ``match`` (and ``occupancy``), each segment writing
    its slice, and nothing concatenated at the end.

Exactness: streamed matches are bit-identical to ``classify`` on the
concatenated trace at every backend/shard/pool/cache combination.  With
live updates the identity additionally requires segment lengths that
are multiples of ``chunk_size`` (otherwise each segment end introduces
an extra epoch boundary — same guarantee as changing ``chunk_size``);
the stream conformance suite pins both.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..core.packet import PacketTrace
from ..core.ruleset import RuleSet
from ..core.spec import check_value
from ..core.updates import ScheduledUpdate, sorted_schedule
from ..engine.faults import FaultPlan, fire
from ..engine.flowcache import CachedClassifier
from ..engine.pipeline import ClassificationPipeline
from ..engine.protocol import Classifier, models_occupancy
from ..engine.registry import backend_spec, build_backend
from ..engine.report import EngineReport
from ..engine.supervision import FaultReport
from ..engine.updates import build_updatable_backend, require_updatable
from .config import EngineConfig
from .ingest import (
    DEFAULT_SEGMENT_PACKETS,
    QuarantineLog,
    iter_trace_file,
    iter_trace_segments,
)


class UpdateCursor:
    """A stream-coordinate update schedule for ``classifier`` —
    rejected up front if it cannot serve one — sorted and consumed
    segment by segment by :meth:`Engine._stream`: the one place stream
    offsets become segment offsets."""

    def __init__(self, updates, classifier: Classifier) -> None:
        if updates:
            require_updatable(classifier)
        self._pending = deque(sorted_schedule(updates))
        #: Packets of the stream consumed so far.
        self.offset = 0

    def take(self, n: int) -> list[ScheduledUpdate]:
        """The batches due inside the next ``n`` packets, rebased to
        that segment's coordinates; advances the stream by ``n``."""
        start, self.offset = self.offset, self.offset + n
        due = []
        while self._pending and self._pending[0].at_packet < self.offset:
            entry = self._pending.popleft()
            due.append(ScheduledUpdate(
                max(0, entry.at_packet - start), entry.batch
            ))
        return due

    def rest(self) -> list[ScheduledUpdate]:
        """Everything scheduled at or past the stream's end, to apply
        over an empty trace."""
        tail = [ScheduledUpdate(0, e.batch) for e in self._pending]
        self._pending.clear()
        return tail


@dataclass
class ChunkResult:
    """One streamed segment's classification result.

    ``start`` is the segment's first-packet offset in the logical
    stream; ``result`` is the segment's own pipeline-run
    :class:`EngineReport` (per-chunk statistics, counters) — what
    :meth:`EngineReport.merge` sums — and every other figure is read
    off it (``epoch``: the classifier's ruleset version after the
    segment, ``None`` for non-updatable backends).
    """

    index: int
    start: int
    result: EngineReport = field(repr=False)

    @property
    def n_packets(self) -> int:
        return self.result.n_packets

    @property
    def matched(self) -> int:
        return self.result.matched

    @property
    def elapsed_s(self) -> float:
        return self.result.elapsed_s

    @property
    def epoch(self) -> int | None:
        return self.result.final_epoch

    @property
    def match(self) -> np.ndarray:
        return self.result.match


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
        config = check_value("config", config, EngineConfig)
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
            policy=config.policy,
        )
        #: Dead-letter buffer for malformed trace lines — live (a path
        #: given to :meth:`stream` is parsed into it) when the config
        #: asks for quarantine, ``None`` under ``on_malformed="raise"``.
        self.quarantine: QuarantineLog | None = (
            QuarantineLog() if config.on_malformed == "quarantine" else None
        )
        #: Stream-level fault accounting (ingest retries, quarantined
        #: lines) of the most recent :meth:`stream` session; ``None``
        #: before the first stream or when it saw nothing.
        self.last_stream_fault: FaultReport | None = None

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

        Routing rules (one policy for the CLI, the experiment harness
        and the sweeps):

        * ``updatable=True`` builds through the update-serving surface —
          decision-tree backends route to the incremental classifier,
          everything else serves updates by rebuild adaptation;
        * tree backends otherwise route onto the hardware accelerator
          unless ``software=True`` asks for the original traversal;
        * ``cache_entries > 0`` wraps the result in a
          :class:`~repro.engine.flowcache.CachedClassifier`.
        """
        config = check_value("config", config, EngineConfig)
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
                clf, entries=config.cache_entries, ways=config.cache_ways
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

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- one-shot serving ------------------------------------------------
    def classify(
        self, trace: PacketTrace, updates=None, faults=None
    ) -> EngineReport:
        """Run one trace (optionally with a live update stream): the
        pipeline run's report, with the config's energy model evaluated
        on it; ``report.match`` is the trace-order first-match array.
        ``faults`` injects a deterministic
        :class:`~repro.engine.faults.FaultPlan`; recovery follows the
        config's ``fault_policy`` and lands in ``report.fault``."""
        return self._pipeline.run(
            trace, updates=updates, faults=faults
        ).with_energy(self.config.energy_model)

    # -- streamed serving ------------------------------------------------
    def stream(
        self,
        segments: Iterable[PacketTrace] | PacketTrace | np.ndarray | str,
        updates=None,
        *,
        segment_packets: int = DEFAULT_SEGMENT_PACKETS,
        faults=None,
        _serve_segment=None,
        _outputs=None,
    ) -> Iterator[ChunkResult]:
        """Serve a segment stream on the calling thread.

        ``segments`` is any source :meth:`_segments` reads: a
        :class:`PacketTrace` or a whole ``(n, ndim)`` header array
        (sliced into ``segment_packets`` views), a trace-file path
        (parsed under the config's ``on_malformed``), or any iterable
        of :class:`PacketTrace` segments or raw header arrays.
        ``updates`` is a global :class:`ScheduledUpdate` schedule whose
        ``at_packet`` offsets count from the start of the *stream*.

        Returns a lazy iterator of :class:`ChunkResult`: nothing runs
        until the first ``next()``, each ``next()`` pulls exactly one
        segment from the source, and an early ``close()`` is a plain
        generator close (no thread was ever started).

        Sharding is per segment: a segment no longer than ``chunk_size``
        is one chunk and serves single-process, so with ``shards > 1``
        use segments of at least a few chunks (the CLI warns about
        ``--stream`` values that cannot engage the shards).

        ``faults`` injects a :class:`~repro.engine.faults.FaultPlan`
        into the session: ``ingest`` specs fire before the source pull
        (retried per the fault policy — the source iterator is not
        advanced past an injected failure), chunk, arena and update
        specs are routed to the pipeline run of their segment
        (:meth:`FaultPlan.for_segment`; stage specs are a stage
        graph's).  Stream-level
        accounting is published on :attr:`last_stream_fault` when the
        session ends.  ``_serve_segment`` (private) replaces
        ``pipeline.run`` as the per-segment step: the stage graph serves
        its stage chain on this loop.  ``_outputs`` (private) is the
        stream-sized ``(match, occupancy)`` pair :meth:`classify_stream`
        hands a known-length source: each segment is served into its
        slice of it.
        """
        cursor = UpdateCursor(updates, self.classifier)
        # The session's accounting starts here, not at the first
        # ``next()``: a tenant's scheduler peeks its first segment
        # before it pulls the stream, and may fault the tenant before
        # it ever does.
        self.last_stream_fault = None
        quarantined = self.quarantine.count if self.quarantine else 0
        return self._stream(
            self._segments(segments, segment_packets), cursor,
            FaultPlan.coerce(faults),
            _serve_segment or self._pipeline.run, quarantined, _outputs,
        )

    def classify_stream(
        self,
        segments: Iterable[PacketTrace] | PacketTrace | np.ndarray | str,
        updates=None,
        **stream_kwargs,
    ) -> EngineReport:
        """Consume a whole :meth:`stream` session into one merged
        :class:`EngineReport` (end-to-end wall clock, stream-order
        matches).  A source whose length is known up front (a
        :class:`PacketTrace` or a header array) is served into one
        stream-sized ``match`` (and ``occupancy``, when the classifier
        models it): each segment's run writes its slice, and the merge
        takes the pair as it is.  Any other source's segments are
        concatenated by the merge."""
        started = time.perf_counter()
        if isinstance(segments, np.ndarray):  # checked once, here
            segments = PacketTrace(segments, self.ruleset.schema)
        outputs = None
        if isinstance(segments, PacketTrace) and segments.n_packets:
            n = segments.n_packets
            outputs = np.empty(n, np.int64), (
                np.empty(n, np.int64)
                if models_occupancy(self.classifier) else None
            )
        results = [
            chunk.result for chunk in self.stream(
                segments, updates, _outputs=outputs, **stream_kwargs
            )
        ]
        return self.merged_report(
            results, time.perf_counter() - started, outputs
        )

    def merged_report(
        self, results, elapsed_s: float, outputs=None
    ) -> EngineReport:
        """The last (ended) session's per-segment ``results`` as one
        report: :meth:`EngineReport.merge` (over ``outputs``, the
        stream-sized pair the results wrote into, when there is one)
        under the config's energy model, plus the stream-level
        accounting (ingest retries, quarantined lines) that lives
        outside any one pipeline run.  A session that served no segment
        reports what :meth:`classify` reports for no packets, over no
        segment."""
        if not results:
            results, outputs = [self._pipeline.empty_report()], None
        report = EngineReport.merge(
            results, elapsed_s, self.config.energy_model, outputs
        )
        if self.last_stream_fault is not None:
            report.fault.merge(self.last_stream_fault)
        return report

    # ------------------------------------------------------------------
    def _segments(self, source, segment_packets: int) -> Iterator[PacketTrace]:
        """The one source normaliser every serving entry reads through
        (:meth:`stream`, the stage graph, each tenant): a
        :class:`PacketTrace` or a whole ``(n, ndim)`` header array is
        sliced into ``segment_packets`` views; a path is parsed by
        :func:`iter_trace_file` under the config's ``on_malformed``,
        bad lines into :attr:`quarantine`; any other iterable yields its
        segments, raw arrays wrapped."""
        schema = self.ruleset.schema
        if isinstance(source, (str, os.PathLike)):
            return iter_trace_file(
                os.fspath(source), schema, segment_packets,
                on_malformed=self.config.on_malformed,
                quarantine=self.quarantine,
            )
        if isinstance(source, np.ndarray):
            source = PacketTrace(source, schema)
        if isinstance(source, PacketTrace):
            return iter_trace_segments(source, segment_packets)
        return (
            s if isinstance(s, PacketTrace) else PacketTrace(s, schema)
            for s in source
        )

    def _stream(
        self, source: Iterator[PacketTrace], cursor: UpdateCursor, plan,
        serve_segment, quarantined_before: int, outputs,
    ) -> Iterator[ChunkResult]:
        """Generator body of :meth:`stream`, and the only segment loop:
        pull (``ingest`` faults first), take the segment's updates,
        serve it with ``serve_segment`` (``pipeline.run``, or the stage
        graph's chain) into its slice of ``outputs`` (fresh arrays when
        ``None``), yield — all on the thread that calls ``next()``
        — then flush the updates left past the end.  Stream-level
        accounting is settled in the ``finally``, so exhaustion, an
        early ``close()`` and a raising source all publish it."""
        stream_fault = FaultReport()
        index = 0
        try:
            while True:
                if plan is not None:
                    # Only the injected faults are supervised: they fire
                    # *before* the pull, so the source never loses a
                    # segment to one.  The source's own exceptions
                    # propagate — a generator that raised is finished,
                    # and re-pulling it would end the stream early.
                    self._pipeline.supervisor.retry(
                        lambda attempt: fire(
                            plan.due("ingest", attempt, segment=index),
                            "ingest", index,
                        ),
                        stream_fault, tier="ingest", chunk=index,
                        counter="ingest_retries",
                    )
                trace = next(source, None)
                if trace is None:
                    break
                start = cursor.offset
                window = slice(start, start + trace.n_packets)
                result = serve_segment(
                    trace,
                    updates=cursor.take(trace.n_packets) or None,
                    faults=plan.for_segment(index)
                    if plan is not None else None,
                    out=None if outputs is None else tuple(
                        a if a is None else a[window] for a in outputs
                    ),
                )
                yield ChunkResult(index, start, result)
                index += 1
            # What is scheduled at or past the stream's end applies over
            # an empty trace, through the pipeline (counted, supervised,
            # shard clones retired, like any batch), and surfaces as a
            # final zero-packet chunk so the consumer sees the epoch
            # advance.
            tail = cursor.rest()
            if tail:
                schema = self.ruleset.schema
                empty = PacketTrace(
                    np.empty((0, schema.ndim), np.uint32), schema
                )
                result = self._pipeline.run(empty, updates=tail)
                yield ChunkResult(index, cursor.offset, result)
        finally:
            if self.quarantine is not None:
                stream_fault.quarantined += (
                    self.quarantine.count - quarantined_before
                )
            self.last_stream_fault = (
                stream_fault if stream_fault.any() else None
            )
