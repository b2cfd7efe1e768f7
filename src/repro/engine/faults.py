"""Deterministic fault injection for the serving runtime.

A :class:`FaultPlan` is a seeded, fully declarative description of the
faults one serving run (or streamed session) must survive: worker
crashes and hangs at a given chunk, shared-memory arena corruption,
ingestion I/O errors at a given segment, and update-batch apply
failures.  The same plan drives three consumers with one mechanism:

* the fault-tolerance test grid (``tests/test_fault_tolerance.py``),
* the CI chaos step (tier-1, ``REPRO_QUICK=1``),
* user soak runs, via ``repro-classify bench --faults PLAN.json``.

Determinism is the whole point: a plan names *where* each fault fires
(chunk / segment / batch ordinal) and *how often* (``times`` — a fault
fires while the dispatch ``attempt`` is below it, so a retried chunk
sails through), never a random process.  The parent computes which
specs apply to each dispatch and ships exactly those in the task
descriptor, so workers need no shared state to misbehave on cue.

Fault kinds
-----------

``crash``
    the worker process calls ``os._exit`` (in-process serving raises
    :class:`~repro.core.errors.InjectedFault` instead — the serving
    process cannot crash alone);
``hang``
    the worker sleeps ``seconds`` (past ``chunk_timeout_s`` this trips
    the supervisor's deadline);
``error``
    the worker raises :class:`~repro.core.errors.InjectedFault`;
``arena``
    the parent scribbles the arena's control word before dispatch, so
    the worker's generation-fence check trips
    (:class:`~repro.core.errors.ArenaCorruptionError`) — forked tier
    only, a no-op elsewhere;
``ingest``
    the streamed session raises
    :class:`~repro.core.errors.IngestError` before fetching segment
    ``segment``;
``update``
    the update-apply site raises :class:`~repro.core.errors.
    InjectedFault` before applying batch ordinal ``batch``;
``drop_storm``
    a stage-graph-only kind: the targeted line-card stage drops every
    packet reaching it for the attempts it fires on (modelling an
    upstream policer meltdown / ACL misprogram), accounted per stage
    under the ``"drop_storm"`` drop reason.

Where a spec fires
------------------

A spec's *site* follows from its ``kind`` and ``stage``: with ``stage``
set it is that line-card stage (:mod:`repro.stages`) — ``crash``/
``error`` raise at the stage's boundary (retried under the engine's
supervision policy), ``drop_storm`` drops — else ``crash``/``hang``/
``error`` fire at the chunk site, ``arena``/``ingest``/``update`` at
their namesakes.  Stage-targeted specs never fire at an engine site,
and vice versa.  Every site asks :meth:`FaultPlan.due` for its specs,
matched by the one coordinate rule of :class:`FaultSpec`, and fires
them through :func:`fire`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

from ..core.errors import (
    ChunkTimeoutError,
    ConfigError,
    IngestError,
    InjectedFault,
)
from ..core.spec import Spec, check_value, field

#: The fault kinds a :class:`FaultSpec` accepts.
FAULT_KINDS = (
    "crash", "hang", "error", "arena", "ingest", "update", "drop_storm",
)

#: The engine site a spec without a ``stage`` fires at, by kind
#: (``drop_storm`` always names a stage).
ENGINE_SITES = {
    "crash": "chunk", "hang": "chunk", "error": "chunk",
    "arena": "arena", "ingest": "ingest", "update": "update",
}

#: The sites inside one pipeline run: :meth:`FaultPlan.for_segment`
#: routes their specs to the run of their segment.
RUN_SITES = ("chunk", "arena", "update")

#: Kinds a stage-targeted spec (``stage`` set) may carry.
STAGE_KINDS_ALLOWED = ("crash", "error", "drop_storm")

#: Exit code an injected worker crash dies with (distinct from 0 and
#: from Python's generic 1, so the supervisor's exit-code watch can
#: attribute the death).
CRASH_EXIT_CODE = 70


@dataclass(frozen=True)
class FaultSpec(Spec):
    """One deterministic fault.

    ``stage`` retargets the spec at a named line-card stage
    (:mod:`repro.stages`) instead of an engine site — only
    ``crash``/``error``/``drop_storm`` make sense there, and
    ``drop_storm`` *requires* a stage.  ``times`` is the number of
    dispatch *attempts* the fault fires on — the default 1 means "first
    attempt only", so a supervised retry recovers.

    The coordinate rule, the same at every site: an unset ``segment``
    is segment 0; an unset ``chunk`` / ``batch`` / ``shard`` means any.
    Each site has only some of the coordinates and ignores the others:
    the chunk site (chunk, in-process shard — forked workers ignore
    ``shard``), the update site (batch ordinal), the ingest site and a
    stage (the segment they pull or serve).  A streamed session settles
    the segment of a pipeline run's sites (chunk, arena, update) with
    :meth:`FaultPlan.for_segment`, which rebases them to the run's own
    segment 0; a one-shot run is segment 0.
    """

    kind: str = field(choices=FAULT_KINDS)
    chunk: int | None = None
    shard: int | None = None
    segment: int | None = None
    batch: int | None = None
    stage: str | None = None
    times: int = field(1, min=1)
    seconds: float = field(5.0, min=0)
    message: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "drop_storm" and self.stage is None:
            raise ConfigError(
                "drop_storm faults target a line-card stage; set stage="
            )
        if self.stage is not None and self.kind not in STAGE_KINDS_ALLOWED:
            raise ConfigError(
                f"stage-targeted faults must be one of "
                f"{', '.join(STAGE_KINDS_ALLOWED)}, got {self.kind!r}"
            )

    @property
    def site(self) -> str:
        """Where the spec fires: its ``stage``, else its kind's engine
        site (:data:`ENGINE_SITES`)."""
        return (
            self.stage if self.stage is not None else ENGINE_SITES[self.kind]
        )

    def selects(
        self, *, segment=None, chunk=None, batch=None, shard=None
    ) -> bool:
        """Whether the coordinate rule points this spec at a site with
        these coordinates (``None``: the site has no such coordinate)."""
        return (
            (segment is None or (self.segment or 0) == segment)
            and (chunk is None or self.chunk in (None, chunk))
            and (batch is None or self.batch in (None, batch))
            and (shard is None or self.shard in (None, shard))
        )


@dataclass(frozen=True)
class FaultPlan(Spec):
    """A deterministic set of :class:`FaultSpec` to inject into a run.

    Serialises to/from plain JSON (``to_dict``/``from_dict``/``save``/
    ``load``) so CI chaos configs and recorded soak-run plans are the
    same artifact.  Every injection site selects from it with
    :meth:`due`; a streamed session hands each segment's pipeline run
    its :meth:`for_segment` sub-plan.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.specs)

    # -- selection -----------------------------------------------------
    def due(
        self, site: str, attempt: int, **coordinates
    ) -> tuple[FaultSpec, ...]:
        """The specs firing at ``site`` on this dispatch ``attempt``:
        those whose :attr:`FaultSpec.site` it is, whose ``times`` the
        attempt is below, and which :meth:`FaultSpec.selects` the
        site's ``coordinates`` (``segment`` / ``chunk`` / ``batch`` /
        ``shard``).  The one selector of every injection site."""
        return tuple(
            s
            for s in self.specs
            if s.site == site
            and attempt < s.times
            and s.selects(**coordinates)
        )

    def for_segment(self, segment: int) -> "FaultPlan | None":
        """The sub-plan of the pipeline run serving stream segment
        ``segment``: the specs of its sites (:data:`RUN_SITES`) the
        coordinate rule points at that segment, rebased to segment 0 —
        the run's sites select with ``segment=0``, the one segment a
        run serves, the way a segment's updates are rebased to its
        first packet.  Ingest and stage specs stay with the session and
        the graph, which query the whole plan.
        """
        specs = tuple(
            replace(s, segment=0)
            for s in self.specs
            if s.site in RUN_SITES and s.selects(segment=segment)
        )
        if not specs:
            return None
        return FaultPlan(specs=specs, seed=self.seed)

    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, obj) -> "FaultPlan | None":
        """Normalise a run's ``faults=`` argument: a plan, a dict, a
        list of specs, a path (``str`` or ``os.PathLike``), or None."""
        if obj is None:  # every fault-free run: no type check to pay
            return None
        if isinstance(obj, (str, os.PathLike)):
            obj = cls.load(os.fspath(obj))
        elif isinstance(obj, (list, tuple)):
            obj = cls(specs=obj)
        return check_value("faults", obj, cls | None) or None


# ----------------------------------------------------------------------
def fire(
    specs: tuple[FaultSpec, ...],
    site: str,
    index: int | None = None,
    *,
    shard: int | None = None,
    forked: bool = False,
    timeout_s: float = 0.0,
) -> None:
    """Fire the specs :meth:`FaultPlan.due` selected at ``site``, whose
    ordinal (chunk, update batch or segment) is ``index``; the first
    raising spec ends the call.  The one firer of every injection site.

    ``crash`` is a real ``os._exit`` in a ``forked`` worker; in process
    it raises :class:`InjectedFault` — the site cannot kill itself
    without taking the caller down — as do ``error`` and ``update``.
    ``ingest`` raises :class:`IngestError`.  ``hang`` sleeps
    ``seconds``; in process it emulates the watchdog, sleeping only up
    to ``timeout_s`` and raising
    :class:`~repro.core.errors.ChunkTimeoutError` when the hang
    outlasts it (a forked hang is the parent supervisor's to detect).
    ``arena`` and ``drop_storm`` act at their sites, not here.
    """
    for spec in specs:
        kind = spec.kind
        message = spec.message or f"injected {kind} at {site} {index}"
        if kind == "crash" and forked:
            os._exit(CRASH_EXIT_CODE)
        elif kind == "hang":
            if not forked and timeout_s and spec.seconds > timeout_s:
                time.sleep(timeout_s)
                raise ChunkTimeoutError(
                    f"injected hang ({spec.seconds:.2f}s) outlasted the "
                    f"{timeout_s:.2f}s chunk deadline",
                    chunk=index, shard=shard, cause="hang",
                )
            time.sleep(spec.seconds)
        elif kind == "ingest":
            raise IngestError(message, segment=index, cause=kind)
        elif kind in ("crash", "error", "update"):
            raise InjectedFault(message, kind=kind, chunk=index, shard=shard)
