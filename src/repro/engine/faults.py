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

Stage targeting: a spec with ``stage`` set names a line-card pipeline
stage (:mod:`repro.stages`) as its injection site instead of an engine
internals site — ``crash``/``error`` raise at that stage's boundary
(retried under the engine's supervision policy), ``drop_storm`` drops.
Stage-targeted specs never fire inside the engine's own worker/arena/
ingest/update sites, and vice versa.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

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

#: Kinds fired inside a chunk-serving worker.
WORKER_KINDS = ("crash", "hang", "error")

#: Kinds a stage-targeted spec (``stage`` set) may carry.
STAGE_KINDS_ALLOWED = ("crash", "error", "drop_storm")

#: Exit code an injected worker crash dies with (distinct from 0 and
#: from Python's generic 1, so the supervisor's exit-code watch can
#: attribute the death).
CRASH_EXIT_CODE = 70


@dataclass(frozen=True)
class FaultSpec(Spec):
    """One deterministic fault.

    ``chunk``/``segment``/``batch`` select the target ordinal for the
    relevant kind (``None`` = any chunk / the first segment / any
    batch).  ``shard`` optionally restricts worker faults to one
    in-process shard (forked workers ignore it).  ``stage`` retargets
    the spec at a named
    line-card stage (:mod:`repro.stages`) instead of an engine site —
    only ``crash``/``error``/``drop_storm`` make sense there, and
    ``drop_storm`` *requires* a stage.  ``times`` is the number of
    dispatch *attempts* the fault fires on — the default 1 means "first
    attempt only", so a supervised retry recovers.
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


@dataclass(frozen=True)
class FaultPlan(Spec):
    """A deterministic set of :class:`FaultSpec` to inject into a run.

    Serialises to/from plain JSON (``to_dict``/``from_dict``/``save``/
    ``load``) so CI chaos configs and recorded soak-run plans are the
    same artifact.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.specs)

    # -- selection -----------------------------------------------------
    def worker_faults(
        self, chunk: int, attempt: int, shard: int | None = None
    ) -> tuple[FaultSpec, ...]:
        """Worker-side specs that fire for ``chunk`` on this
        ``attempt`` (parent computes this and ships the result in the
        task descriptor)."""
        return tuple(
            s
            for s in self.specs
            if s.stage is None
            and s.kind in WORKER_KINDS
            and s.chunk in (None, chunk)
            and (s.shard is None or shard is None or s.shard == shard)
            and attempt < s.times
        )

    def arena_faults(self, attempt: int) -> tuple[FaultSpec, ...]:
        return tuple(
            s for s in self.specs if s.kind == "arena" and attempt < s.times
        )

    def ingest_faults(
        self, segment: int, attempt: int
    ) -> tuple[FaultSpec, ...]:
        return tuple(
            s
            for s in self.specs
            if s.kind == "ingest"
            and s.segment in (None, segment)
            and attempt < s.times
        )

    def update_faults(self, batch: int, attempt: int) -> tuple[FaultSpec, ...]:
        return tuple(
            s
            for s in self.specs
            if s.kind == "update"
            and s.batch in (None, batch)
            and attempt < s.times
        )

    def stage_faults(
        self, stage: str, segment: int, attempt: int
    ) -> tuple[FaultSpec, ...]:
        """Stage-targeted specs firing at line-card stage ``stage`` for
        stream segment ``segment`` on this ``attempt`` (a spec without a
        ``segment`` targets segment 0, matching :meth:`for_segment`)."""
        return tuple(
            s
            for s in self.specs
            if s.stage == stage
            and (s.segment if s.segment is not None else 0) == segment
            and attempt < s.times
        )

    def stage_plan(self) -> "FaultPlan | None":
        """The stage-targeted sub-plan (specs with ``stage`` set)."""
        specs = tuple(s for s in self.specs if s.stage is not None)
        return FaultPlan(specs=specs, seed=self.seed) if specs else None

    def engine_plan(self) -> "FaultPlan | None":
        """The engine-internals sub-plan (specs without a ``stage``)."""
        specs = tuple(s for s in self.specs if s.stage is None)
        return FaultPlan(specs=specs, seed=self.seed) if specs else None

    def for_segment(self, segment: int) -> "FaultPlan | None":
        """The worker/arena/update sub-plan for one stream segment.

        A spec without a ``segment`` targets the first segment (segment
        0 — also the whole run of a one-shot ``classify``).  Ingest
        specs are excluded: they fire at the session's source pull, not
        in per-segment pipeline runs.
        """
        specs = tuple(
            s
            for s in self.specs
            if s.kind != "ingest"
            and (s.segment if s.segment is not None else 0) == segment
        )
        if not specs:
            return None
        return FaultPlan(specs=specs, seed=self.seed)

    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, obj) -> "FaultPlan | None":
        """Normalise a run's ``faults=`` argument: a plan, a dict, a
        list of specs, a path (``str`` or ``os.PathLike``), or None."""
        if isinstance(obj, (str, os.PathLike)):
            obj = cls.load(os.fspath(obj))
        elif isinstance(obj, (list, tuple)):
            obj = cls(specs=obj)
        return check_value("faults", obj, cls | None) or None


# ----------------------------------------------------------------------
def fire_worker_specs(
    specs: tuple[FaultSpec, ...],
    *,
    in_process: bool,
    chunk: int | None = None,
    shard: int | None = None,
    timeout_s: float = 0.0,
) -> None:
    """Execute worker-side fault specs at a chunk-serving site.

    ``in_process=True`` (the inline tier) maps ``crash`` to a raised
    :class:`InjectedFault` — the site cannot kill itself without
    taking the caller down — and emulates the hang watchdog: the site
    sleeps up to the deadline and raises
    :class:`~repro.core.errors.ChunkTimeoutError` when the injected
    hang outlasts it.  In a forked worker ``crash`` is a real
    ``os._exit`` and ``hang`` a real sleep; detection is the parent
    supervisor's job.
    """
    for spec in specs:
        if spec.kind == "crash":
            if in_process:
                raise InjectedFault(
                    spec.message
                    or f"injected crash while serving chunk {chunk}",
                    kind="crash", chunk=chunk, shard=shard,
                )
            os._exit(CRASH_EXIT_CODE)
        elif spec.kind == "hang":
            if in_process and timeout_s and spec.seconds > timeout_s:
                time.sleep(timeout_s)
                raise ChunkTimeoutError(
                    f"injected hang ({spec.seconds:.2f}s) outlasted the "
                    f"{timeout_s:.2f}s chunk deadline",
                    chunk=chunk, shard=shard, cause="hang",
                )
            time.sleep(spec.seconds)
        elif spec.kind == "error":
            raise InjectedFault(
                spec.message or f"injected error while serving chunk {chunk}",
                kind="error", chunk=chunk, shard=shard,
            )


def fire_update_specs(
    specs: tuple[FaultSpec, ...], batch: int
) -> None:
    """Raise the injected update-apply failure, if any (fires *before*
    the apply, so a retry re-applies a clean batch)."""
    for spec in specs:
        raise InjectedFault(
            spec.message or f"injected failure applying update batch {batch}",
            kind="update", chunk=batch,
        )


def fire_ingest_specs(
    specs: tuple[FaultSpec, ...], segment: int
) -> None:
    """Raise the injected ingestion failure, if any (fires *before* the
    source is pulled, so the source iterator survives a retry)."""
    for spec in specs:
        raise IngestError(
            spec.message or f"injected I/O error fetching segment {segment}",
            segment=segment,
            cause=spec.kind,
        )
