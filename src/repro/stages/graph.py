"""`StageGraph` — execute a line-card RX pipeline over the Engine.

The runner walks a :class:`~repro.stages.StageGraphSpec` per segment,
vectorised: each stage transforms an ``alive`` boolean mask (and, after
the classify stage, the segment's match array) over the whole segment at
once, so the graph costs O(stages) numpy passes per segment, not a
Python loop per packet.  The ``classify`` stage runs the survivors
through the engine's own :class:`~repro.engine.pipeline.
ClassificationPipeline` — shards, flow cache, supervision, live updates
and all — which is what makes the stage bit-identical to a bare
:meth:`Engine.classify <repro.serve.Engine.classify>` run by
construction.  The graph owns no segment loop: it serves on the
session's (:meth:`Engine.stream <repro.serve.Engine.stream>` with the
stage chain as the per-segment step), so source normalisation,
``ingest`` faults, quarantine counting, update rebasing and the
end-of-stream update flush are the session's, unchanged.

Telemetry: every stage accumulates a :class:`StageReport` (packets
in/out, per-reason drops, busy seconds, per-stage energy through the
:mod:`repro.energy` models, injected faults and retries).  The run
returns the one serving record, a :class:`~repro.serve.EngineReport`:
the session's ``merged_report`` of the classify stage's per-segment
pipeline reports, with ``match`` scattered back to the *full
stream-order* array (policy-dropped packets report ``-1``, exactly what
a bare run reports for a no-match packet) and the per-stage reports on
``stages`` (and so in ``to_dict()``).

Energy semantics (documented in ``docs/linecard.md``): the soft stages
(parse/drop/extract/rewrite/queue_select) charge SRAM access energy
(:data:`~repro.energy.SRAM_ACCESS_ENERGY_J`) per modelled memory touch;
``tcam_prefilter`` charges the :class:`~repro.energy.TcamModel` per
lookup at the Ayama operating frequency for its actual slot count;
``flow_cache`` charges its probe; ``classify`` charges the
:class:`~repro.energy.CacheEnergyModel` per-packet energy at the
measured hit rate.

Updates: a run that carries a live update schedule puts the
``tcam_prefilter`` stage into **monitor mode** — the prefilter's image
is the build-time ruleset, so dropping on it could shadow a rule
inserted mid-stream; the stage keeps its telemetry and energy accounting
(plus a ``would_drop`` counter) but filters nothing, preserving
bit-identity with the bare updating engine.

Faults: a :class:`~repro.engine.faults.FaultPlan` splits into its
engine sub-plan (routed into the pipeline run, unchanged semantics) and
its stage sub-plan (specs with ``stage`` set, matched by stage *kind*).
Stage ``crash``/``error`` specs raise at the stage boundary and are
retried, backed off, under the engine's supervision policy (its
:meth:`Supervisor.retry`, tier ``stage:<kind>``) — with the
default ``times=1`` the retry recovers and output stays bit-identical;
``drop_storm`` drops every packet reaching the stage, accounted under
the ``"drop_storm"`` drop reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..algorithms import native
from ..baselines.tcam_classifier import TcamClassifier
from ..core.errors import CapacityError, InjectedFault
from ..core.packet import PacketTrace
from ..core.rules import DIM_DST_PORT, DIM_PROTO, FIVE_TUPLE
from ..core.spec import check_value
from ..core.updates import ScheduledUpdate
from ..energy import SRAM_ACCESS_ENERGY_J, CacheEnergyModel, TcamModel
from ..energy.tcam import AYAMA_10128, TCAM_ENTRY_BYTES
from ..engine.faults import FaultPlan
from ..engine.flowcache import dedupe_flow_keys, flow_hash, pack_flow_keys
from ..engine.supervision import FaultReport
from ..serve import DEFAULT_SEGMENT_PACKETS, Engine, EngineReport
from .spec import StageGraphSpec, StageSpec

#: Rows of the native verdict memo's first table (it doubles at half
#: load), and slots of the NumPy path's direct-indexed front.
_MEMO_SLOTS = 1 << 10
_FRONT_SLOTS = 1 << 18


def _flow_hash(rows: np.ndarray) -> np.ndarray:
    """The flow cache's hash (:func:`~repro.engine.flowcache.flow_hash`)
    per header row: one C loop when the native library loaded, else
    the NumPy oracle."""
    rows = np.ascontiguousarray(rows, np.uint32)
    h = np.empty(rows.shape[0], dtype=np.uint64)
    return h if native.flow_hash(rows, h) else flow_hash(rows)


@dataclass
class StageReport:
    """Per-stage telemetry of one :class:`StageGraph` run."""

    name: str
    kind: str
    packets_in: int = 0
    packets_out: int = 0
    busy_s: float = 0.0
    energy_j: float = 0.0
    #: Per-reason drop counts (e.g. ``malformed``, ``acl_proto``,
    #: ``tcam_miss``, ``drop_storm``).
    drops: dict = field(default_factory=dict)
    faults_injected: int = 0
    retries: int = 0
    #: Stage-specific extras (TCAM slot count, queue occupancy, cache
    #: hit rate, ...), flat JSON-safe scalars/lists only.
    extra: dict = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return int(sum(self.drops.values()))

    def drop(self, reason: str, count: int) -> None:
        if count:
            self.drops[reason] = self.drops.get(reason, 0) + int(count)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "packets_in": self.packets_in,
            "packets_out": self.packets_out,
            "busy_s": round(self.busy_s, 6),
            "energy_j": self.energy_j,
        }
        if self.packets_in:
            out["energy_per_packet_j"] = self.energy_j / self.packets_in
        if self.drops:
            out["drops"] = dict(self.drops)
        if self.faults_injected:
            out["faults_injected"] = self.faults_injected
        if self.retries:
            out["retries"] = self.retries
        if self.extra:
            out["extra"] = dict(self.extra)
        return out


class StageGraph:
    """A line-card RX serving session: one spec, one engine, one TCAM.

    Usable as a context manager (closes the engine's worker pool).  The
    optional prebuilt ``classifier`` is forwarded to the engine so sweep
    cells can share builds exactly like bare cells do.
    """

    def __init__(
        self,
        spec: StageGraphSpec | dict | str,
        ruleset,
        *,
        classifier=None,
        **backend_params,
    ) -> None:
        if isinstance(spec, (str, Path)):
            spec = StageGraphSpec.load(str(spec))
        self.spec = spec = check_value("spec", spec, StageGraphSpec)
        self.ruleset = ruleset
        self.config = spec.engine_config()
        self.engine = Engine(
            self.config, ruleset, classifier=classifier, **backend_params
        )
        self.tcam: TcamClassifier | None = None
        self._tcam_bypass: str | None = None
        tc = spec.stage("tcam_prefilter")
        if tc is not None:
            if ruleset.schema is not FIVE_TUPLE:
                self._tcam_bypass = "schema"
            else:
                max_slots = tc.params.get("max_slots", 0)
                try:
                    self.tcam = TcamClassifier(
                        ruleset, **({"max_slots": max_slots} if max_slots else {})
                    )
                except CapacityError:
                    # The expansion blew the stage's slot budget: a real
                    # line card would fall back to software/full lookup,
                    # so the stage passes everything through (recorded).
                    self._tcam_bypass = "max_slots"
        if self.tcam is not None:
            # The native memo: an open-addressed table of ``(header
            # columns, verdict + 2)`` rows, tag 0 empty, at most half
            # full, holding ``_memo_n`` flows.
            self._memo = np.zeros((_MEMO_SLOTS, FIVE_TUPLE.ndim + 1), np.uint32)
            self._memo_n = 0
            #: The NumPy path's memo: every flow's verdict by header
            #: bytes, behind a direct-indexed front of rows like the
            #: native memo's, made on first use.
            self._verdicts: dict[bytes, int] = {}
            self._front: np.ndarray | None = None
        #: The classify stage's energy model and the ruleset version it
        #: was derived for (see :meth:`_classify_energy_model`).
        self._energy_model: CacheEnergyModel | None = None
        self._energy_model_for: tuple[int, int] | None = None

    @property
    def classifier(self):
        return self.engine.classifier

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "StageGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(
        self,
        source,
        *,
        updates=None,
        faults=None,
        segment_packets: int = DEFAULT_SEGMENT_PACKETS,
    ) -> EngineReport:
        """Serve ``source`` through every stage and return the merged
        report.

        ``source`` is anything :meth:`Engine.stream` reads: a
        :class:`PacketTrace`, a raw header array, a trace-file path
        (parsed through the quarantine machinery per the ``parse``
        stage's policy) or any iterable of segments.  ``updates`` is a
        stream-coordinate update schedule forwarded to the classify
        stage; ``faults`` a :class:`~repro.engine.faults.FaultPlan` (or
        dict/list/path).

        The graph serves on the session's stream loop: the engine pulls
        each segment (``ingest`` faults included), rebases the updates
        and flushes the tail; the graph supplies the per-segment step.
        """
        plan = FaultPlan.coerce(faults)
        stage_plan = plan.stage_plan() if plan is not None else None
        supervisor = self.engine.pipeline.supervisor
        tcam_monitor = bool(updates)
        # Stage retries and drop storms (the session accounts the pull).
        stage_fault = FaultReport()
        reports = [
            StageReport(name=s.name, kind=s.kind) for s in self.spec.stages
        ]
        matches: list[np.ndarray] = []
        started = returned = time.perf_counter()

        def serve_segment(trace, updates=None, faults=None):
            """One segment through the stage chain: the session's step.
            ``updates`` are the segment's batches in segment coordinates
            and ``faults`` its engine sub-plan, both for the classify
            stage, whose pipeline-run report this returns."""
            nonlocal returned
            seg_index = len(matches)
            alive = np.ones(trace.n_packets, dtype=bool)
            seg_match = np.full(trace.n_packets, -1, dtype=np.int64)
            scratch: dict = {}  # per-segment shared work (flow hash)

            def step(stage: StageSpec, rep: StageReport, attempt: int):
                specs = (
                    stage_plan.stage_faults(stage.kind, seg_index, attempt)
                    if stage_plan is not None
                    else ()
                )
                t0 = time.perf_counter()
                try:
                    raising = [s for s in specs if s.kind in ("crash", "error")]
                    if raising:
                        rep.faults_injected += len(raising)
                        s0 = raising[0]
                        raise InjectedFault(
                            s0.message
                            or f"injected {s0.kind} in stage "
                            f"{stage.kind} (segment {seg_index})",
                            kind=s0.kind,
                            chunk=seg_index,
                        )
                    storms = [s for s in specs if s.kind == "drop_storm"]
                    if storms:
                        rep.faults_injected += len(storms)
                        rep.drop("drop_storm", int(alive.sum()))
                        stage_fault.degradations.append(
                            f"stage:{stage.kind}:drop_storm@segment{seg_index}"
                        )
                        alive[:] = False
                    result = self._run_stage(
                        stage, rep, trace, alive, seg_match,
                        due=updates or (), faults=faults,
                        tcam_monitor=tcam_monitor, scratch=scratch,
                    )
                finally:
                    rep.busy_s += time.perf_counter() - t0
                rep.retries += attempt
                return result

            result = None
            for rep, stage in zip(reports, self.spec.stages):
                rep.packets_in += int(np.count_nonzero(alive))
                if stage.kind == "parse":
                    # Billed the pull: the time since the previous step
                    # returned, ingest retries and backoff included.
                    rep.busy_s += time.perf_counter() - returned
                    rep.energy_j += trace.n_packets * SRAM_ACCESS_ENERGY_J
                else:
                    out = supervisor.retry(
                        lambda attempt: step(stage, rep, attempt),
                        stage_fault, tier=f"stage:{stage.kind}",
                        chunk=seg_index,
                    )
                    result = result if out is None else out
                rep.packets_out += int(np.count_nonzero(alive))
            matches.append(seg_match)
            returned = time.perf_counter()
            return result

        results = [
            chunk.result
            for chunk in self.engine.stream(
                source, updates, segment_packets=segment_packets,
                faults=plan.engine_plan() if plan is not None else None,
                _serve_segment=serve_segment,
            )
        ]
        report = self.engine.merged_report(
            results, time.perf_counter() - started
        )
        # The classify stage served only the survivors: the graph's
        # match is the full stream-order array, dropped packets -1.
        report.match = (
            np.concatenate(matches) if matches else np.empty(0, np.int64)
        )
        report.n_packets = report.match.size
        report.matched = int(np.count_nonzero(report.match >= 0))
        self._finalise_stages(reports, report)
        report.stages = reports
        report.fault.merge(stage_fault)
        return report

    # ------------------------------------------------------------------
    def _run_stage(
        self,
        stage: StageSpec,
        rep: StageReport,
        trace: PacketTrace,
        alive: np.ndarray,
        seg_match: np.ndarray,
        *,
        due,
        faults,
        tcam_monitor: bool,
        scratch: dict,
    ):
        """Execute one stage body over the segment; returns the
        classify stage's pipeline-run report, else ``None``."""
        headers = trace.headers
        n_in = int(np.count_nonzero(alive))
        all_alive = n_in == trace.n_packets

        def seg_hash() -> np.ndarray:
            """The segment's per-packet flow hash, computed once and
            shared by the tcam_prefilter memo and the queue hash."""
            h = scratch.get("flow_hash")
            if h is None:
                h = scratch["flow_hash"] = _flow_hash(headers)
            return h if all_alive else h[alive]
        if stage.kind == "drop":
            deny_proto = stage.params.get("deny_proto", [])
            if deny_proto:
                hit = alive & np.isin(
                    headers[:, DIM_PROTO],
                    np.asarray(deny_proto, dtype=np.uint32),
                )
                rep.drop("acl_proto", int(hit.sum()))
                alive &= ~hit
            for lo, hi in stage.params.get("deny_dst_ports", []):
                dport = headers[:, DIM_DST_PORT]
                hit = alive & (dport >= lo) & (dport <= hi)
                rep.drop("acl_dst_port", int(hit.sum()))
                alive &= ~hit
            rep.energy_j += n_in * SRAM_ACCESS_ENERGY_J
        elif stage.kind == "extract":
            fields_ = stage.params.get(
                "fields", list(range(trace.schema.ndim))
            )
            # The extraction datapath is charged, not executed: one
            # modelled access per extracted field per live packet.
            rep.extra["fields"] = list(fields_)
            rep.energy_j += n_in * len(fields_) * SRAM_ACCESS_ENERGY_J
        elif stage.kind == "tcam_prefilter":
            if self.tcam is None:
                rep.extra["bypassed"] = self._tcam_bypass or "unavailable"
            elif n_in:
                rows = headers if all_alive else headers[alive]
                verdict = self._tcam_verdicts(rows, seg_hash())
                survivors = verdict >= 0
                if tcam_monitor:
                    # Live updates ride this run: the prefilter's image
                    # is the *build-time* ruleset, so dropping on it
                    # could shadow a rule inserted mid-stream.  A real
                    # line card re-programs the TCAM out of band; the
                    # model observes (telemetry + energy) without
                    # filtering until the run carries no updates.
                    rep.extra["mode"] = "monitor"
                    rep.extra["would_drop"] = rep.extra.get(
                        "would_drop", 0
                    ) + int((~survivors).sum())
                elif not survivors.all():
                    rep.drop("tcam_miss", int((~survivors).sum()))
                    keep = alive.copy()
                    keep[alive] = survivors
                    alive &= keep
                rep.extra["n_slots"] = self.tcam.n_slots
                rep.extra["unique_flows"] = self._unique_flows
                model = TcamModel()
                rep.energy_j += n_in * model.energy_per_lookup_j(
                    self.tcam.n_slots * TCAM_ENTRY_BYTES, AYAMA_10128.freq_hz
                )
        elif stage.kind == "flow_cache":
            # The cache executes inside the engine (CachedClassifier is
            # bit-identical by construction); this stage charges the
            # probe energy and its hit/miss telemetry is backfilled from
            # the merged report in _finalise.
            rep.extra["entries"] = self.config.cache_entries
            rep.extra["ways"] = self.config.cache_ways
            rep.energy_j += n_in * SRAM_ACCESS_ENERGY_J
        elif stage.kind == "classify":
            if n_in == trace.n_packets:
                sub = trace  # nothing dropped upstream: zero-copy
            else:
                sub = PacketTrace(
                    np.ascontiguousarray(headers[alive]), trace.schema
                )
            # Rebase each batch's offset from segment coordinates to
            # survivor coordinates: it applies at the same *packet*,
            # after however many of the first ``at_packet`` packets
            # survived the upstream stages.
            local = [
                ScheduledUpdate(
                    int(alive[:entry.at_packet].sum()), entry.batch
                )
                for entry in due
            ]
            result = self.engine.pipeline.run(
                sub, updates=local or None, faults=faults
            )
            seg_match[alive] = result.match
            return result
        elif stage.kind == "rewrite":
            matched = seg_match if all_alive else seg_match[alive]
            touched = int(np.count_nonzero(matched >= 0))
            nbytes = stage.params.get("bytes", 14)
            rep.extra["bytes"] = nbytes
            rep.extra["packets_rewritten"] = rep.extra.get(
                "packets_rewritten", 0
            ) + touched
            # One modelled 32-bit SRAM write per 4 header bytes touched.
            rep.energy_j += (
                touched * max(1, nbytes // 4) * SRAM_ACCESS_ENERGY_J
            )
        elif stage.kind == "queue_select":
            queues = stage.params.get("queues", 8)
            policy = stage.params.get("policy", "hash")
            if n_in:
                if policy == "match":
                    m = seg_match if all_alive else seg_match[alive]
                    q = np.where(m >= 0, m % queues, 0).astype(np.int64)
                else:
                    q = (seg_hash() % np.uint64(queues)).astype(np.int64)
                counts = np.bincount(q, minlength=queues)
                prev = rep.extra.get("queue_occupancy", [0] * queues)
                rep.extra["queue_occupancy"] = [
                    int(a + b) for a, b in zip(prev, counts)
                ]
            rep.energy_j += n_in * SRAM_ACCESS_ENERGY_J
        return None

    def _tcam_verdicts(self, rows: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Per-packet TCAM verdicts through the verdict memo.

        The prefilter image is static for the graph's lifetime, so each
        distinct flow costs the O(slots) Python model walk exactly once
        across every run — the simulator-side analogue of the device's
        single-cycle parallel compare — and every later sighting is one
        probe of the memo, in C (``native.memo_probe``) when the library
        loaded, else :meth:`_tcam_verdicts_portable`.  ``h`` must be
        ``_flow_hash(rows)`` (computed once per segment), since a regrow
        rehashes the stored headers with it: it finds a flow's memo row,
        and the header confirms it.  Energy is
        still charged per *packet* by the caller: every packet crosses
        the TCAM."""
        rows = np.ascontiguousarray(rows, np.uint32)
        out = np.empty(h.size, dtype=np.int64)
        unseen = native.memo_probe(self._memo, rows, h, out)
        if unseen is None:
            return self._tcam_verdicts_portable(rows, h)
        if unseen.size:  # new flows: the TCAM model once per distinct one
            first, inverse = dedupe_flow_keys(
                pack_flow_keys(rows[unseen]), h[unseen]
            )
            new = unseen[first]
            found = self.tcam.classify_batch(rows[new]).astype(np.int64)
            self._memo_add(rows[new], h[new], found)
            out[unseen] = found[inverse]
        return out

    @property
    def _unique_flows(self) -> int:
        """The distinct headers the TCAM memo holds.  One path
        memoises; the other path's memo stays empty."""
        return self._memo_n + len(self._verdicts)

    def _memo_add(self, rows: np.ndarray, h: np.ndarray,
                  verdicts: np.ndarray) -> None:
        """Memoise header ``rows`` (``h`` = ``_flow_hash(rows)``),
        distinct flows not in the native memo, with their verdicts.  The
        table doubles until it is at most half full; a new table takes
        every flow of the old one first, rehashed with ``_flow_hash``."""
        n, k = self._memo_n, len(verdicts)
        size = self._memo.shape[0]
        while 2 * (n + k) > size:
            size *= 2
        if size > self._memo.shape[0]:
            old = self._memo[self._memo[:, -1] != 0]
            self._memo = np.zeros((size, old.shape[1]), np.uint32)
            keys = np.ascontiguousarray(old[:, :-1])
            native.memo_insert(self._memo, keys, _flow_hash(keys),
                               old[:, -1].astype(np.int64) - 2, 0)
        native.memo_insert(self._memo, rows, h, verdicts, n)
        self._memo_n = n + k

    def _tcam_verdicts_portable(
        self, rows: np.ndarray, h: np.ndarray
    ) -> np.ndarray:
        """:meth:`_tcam_verdicts` in NumPy: the direct-indexed front,
        compared column by column, then the verdict dict once per
        distinct flow the front missed."""
        ndim = rows.shape[1]
        if self._front is None:
            self._front = np.zeros((_FRONT_SLOTS, ndim + 1), np.uint32)
        slot = (h & np.uint64(_FRONT_SLOTS - 1)).astype(np.intp)
        got = self._front.take(slot, axis=0)  # whole rows: one line each
        hit = got[:, -1] != 0
        for d in range(ndim):
            hit &= got[:, d] == rows[:, d]
        out = got[:, -1].astype(np.int64) - 2
        if hit.all():  # warm path: one row gather + compare per packet
            return out
        miss = np.flatnonzero(~hit)
        first, inverse = dedupe_flow_keys(pack_flow_keys(rows[miss]), h[miss])
        new = miss[first]
        keys = rows[new].view(np.dtype((np.void, 4 * ndim))).ravel().tolist()
        get = self._verdicts.get
        found = np.array([get(key, -2) for key in keys], np.int64)
        unknown = np.flatnonzero(found == -2)
        if unknown.size:  # the TCAM model once per distinct new flow
            found[unknown] = self.tcam.classify_batch(rows[new[unknown]])
            self._verdicts.update(
                zip([keys[i] for i in unknown], found[unknown].tolist())
            )
        out[miss] = found[inverse]
        # Whole rows in one assignment: where two new flows share a
        # slot, the later one's header and verdict win together.
        self._front[slot[new]] = np.column_stack([rows[new], found + 2])
        return out

    # ------------------------------------------------------------------
    def _classify_energy_model(self) -> CacheEnergyModel:
        """The classify stage's energy model.  Its worst-case access
        count is a walk over the whole tree, so it is derived once per
        ruleset version (``update_epoch``, the same version stamp the
        pipeline re-forks on) instead of once per run."""
        clf = self.engine.classifier
        version = (id(clf), int(getattr(clf, "update_epoch", 0)))
        if self._energy_model_for != version:
            self._energy_model = CacheEnergyModel.for_classifier(clf)
            self._energy_model_for = version
        return self._energy_model

    def _finalise_stages(
        self, reports: list[StageReport], report: EngineReport
    ) -> None:
        """What the stages learn only from the merged run: the parse
        stage's dead-lettered lines, the classify energy at the
        measured hit rate, the flow_cache stage's cache counters."""
        quarantined = report.fault.quarantined
        model = self._classify_energy_model()
        hit_rate = report.cache_hit_rate
        for rep in reports:
            if rep.kind == "parse" and quarantined:
                rep.packets_in += quarantined
                rep.drop("malformed", quarantined)
                rep.energy_j += quarantined * SRAM_ACCESS_ENERGY_J
            elif rep.kind == "classify":
                per_packet = (
                    model.energy_per_packet_j(hit_rate)
                    if hit_rate is not None
                    else model.uncached_energy_per_packet_j()
                )
                rep.energy_j += rep.packets_in * per_packet
            elif rep.kind == "flow_cache" and report.cache_hits is not None:
                rep.extra["hits"] = report.cache_hits
                rep.extra["misses"] = report.cache_misses
                rep.extra["hit_rate"] = (
                    round(hit_rate, 4) if hit_rate is not None else None
                )
