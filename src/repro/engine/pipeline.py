"""Sharded streaming classification pipeline — the serving harness.

A :class:`ClassificationPipeline` streams a :class:`~repro.core.packet.
PacketTrace` through a classifier in fixed-size chunks, optionally fanned
out over N worker shards, and returns the run's
:class:`~repro.engine.report.EngineReport` — the one serving-result
record, which every layer above (session, tenants, stage graph) passes
on or merges rather than re-boxes:

* a run's ``match`` array is allocated once, each chunk writing its
  slice in place (and counting its tallies as it writes), bit-for-bit
  identical to a single-shot ``classify_trace`` at every shard count
  (the conformance suite asserts this);
* backends that model hardware cost (the accelerator) contribute
  per-packet occupancy, from which ``EngineReport.with_energy`` derives
  device throughput and energy per packet via the :mod:`repro.energy`
  models;
* wall-clock throughput of the *simulation itself* is reported so the
  benchmark suite can track the serving path.

**One plan, one owner per shard.**  :meth:`ClassificationPipeline.plan`
is the one question about a run of ``n`` packets: it decides the tier,
the shard owners and the chunk grid together (a :class:`ShardPlan`,
with the ``reason`` for the tier); ``run()`` serves exactly that, and
every other caller (the tenancy lease, the CLI) asks it with the
packets it will serve.  Chunk ``i`` belongs to shard ``i % workers``
in every tier, and each shard has one long-lived owner that serves its
chunks in order — so per-chunk cache counters, ``ChunkStats.shard`` and
the modelled cycles/energy are a function of the plan, never of
scheduling.  The two tiers differ in who the owner is and how bytes
reach it:

* ``inline`` — the calling thread serves every chunk, in order: one
  chunk, ``shards=1``, a run that carries updates, no ``fork`` on the
  platform, or ``shard_mode="auto"`` declining a fork (below).
  ``shard_mode="threads"`` is this tier with N *in-process shards*:
  chunk ``i`` is served out of shard ``i % N``'s private flow-cache
  clone, which stays warm across runs — the model of N engines with
  private caches.  The shards are served one after another on the
  calling thread; the only threads are a native walk's own, joined
  before that call returns (``docs/engine.md``, "Threads inside a
  native call").
* ``forked`` — one forked worker process per shard, programmed once and
  then fed packets: a snapshot of one ruleset epoch, forked on first
  use from the classifier's current state and held until that epoch
  moves or :meth:`~ClassificationPipeline.close`.  Each run's trace is
  written once into a shared-memory arena held with the workers (grown
  only when a trace outsizes it) sealed with a generation + checksum fence
  every task verifies; workers cache their attachments and scatter
  results straight into the shared output segments, so a shard's
  message is a small descriptor and its replies are scalars.

**Who forks.**  Update-free runs only.  ``shard_mode="processes"`` (the
direct-construction default) forks whenever such a run has more than
one shard and chunk; ``"auto"`` (the :class:`~repro.serve.EngineConfig`
default) only when the run gives every worker a full coalesced
dispatch: ``n >= workers * max(chunk_size, min_chunk_packets)``, with
``workers = min(shards, native.host_cpus())`` at least two.  The tier, and so
the per-chunk telemetry, is a function of the run's size, the config
and the CPU count.

**Dispatch auto-tuning.**  ``min_chunk_packets`` coalesces chunks until
each dispatch carries at least that many packets (the engine default
targets >= 64k packets/dispatch), amortising per-chunk Python and IPC
cost; it applies only to runs *without* updates, because the chunk grid
is the epoch grid.  Independently, a final chunk smaller than a quarter
of the chunk size is merged into its predecessor.

**Fault tolerance.**  Every dispatch is supervised under the
pipeline's :class:`~repro.engine.supervision.SupervisionPolicy`
(``fail``, no deadline, unless one is given): per-chunk deadlines and
worker-death watch on the forked tier, and one recovery loop,
:meth:`Supervisor.retry <repro.engine.supervision.Supervisor.retry>`,
around each recoverable step — a forked dispatch (tier ``forked``), an
inline chunk (``inline``) and an update-batch apply (``update``).  A
failed forked dispatch tears the workers (and arena) down and the retry
re-forks from the parent; a forked dispatch serves one epoch, so the
replay is bit-identical to a fault-free run.  Under
``fault_policy="degrade"`` a forked dispatch out of retries is served
inline (``forked -> inline``), where the failed *chunk* is retried on
its owner.  Only a process boundary can pre-empt work:
``chunk_timeout_s`` kills and replaces a hung forked worker, while
in-process serving can emulate a deadline (an injected hang raises at
it) but not enforce one.  Injected faults (:mod:`repro.engine.faults`)
ride the same machinery via ``run(trace, faults=plan)``; everything
observed lands in ``EngineReport.fault``.

**Live rule updates.**  ``run(trace, updates=[...])`` interleaves a
:class:`~repro.core.updates.ScheduledUpdate` stream with classification:
each batch takes effect at the first chunk boundary at or after its
``at_packet`` offset, so every packet is classified against exactly one
ruleset version (its chunk's epoch — recorded on
:class:`ChunkStats.epoch`).  Such a run is served in-process in every
``shard_mode``: each batch is applied once, to the one classifier, at
its chunk boundary, and retires every shard clone's cache with it (the
differential update-conformance suite replays this against a per-epoch
linear-search oracle).  Forked workers never see an update: a run that
carries one closes them and the next update-free run re-forks from the
updated classifier, so under churn ``shards > 1`` pays one re-fork per
run (or streamed segment) that carried a batch.  A classifier mutated
*outside* ``run()`` is noticed by its ``update_epoch`` the same way:
the next run closes the workers and flushes the shard clones' caches.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import InitVar, dataclass, field, replace
from functools import cache

import numpy as np

from ..algorithms import native
from ..core.errors import ArenaCorruptionError, ConfigError, ServingFaultError
from ..core.packet import PacketTrace
from ..core.updates import RuleUpdate, sorted_schedule
from .faults import FaultPlan, fire
from .protocol import (
    BatchOut, Classifier, batch_stats_of, models_occupancy, warm_batch_state
)
from .report import CacheTriple, ChunkStats, EngineReport, sum_cache_triples
from .supervision import FaultReport, ShardWorkers, SupervisionPolicy, Supervisor
from .updates import is_updatable, require_updatable

#: Default packets per chunk: large enough to amortise NumPy dispatch,
#: small enough that per-chunk stats stay meaningful for live reporting.
DEFAULT_CHUNK_SIZE = 4096

#: The worker tiers ``shard_mode`` accepts.
SHARD_MODES = ("auto", "processes", "threads")

#: The engine-level dispatch target: coalesce chunks until each dispatch
#: carries at least this many packets (runs without updates only).
DEFAULT_MIN_CHUNK_PACKETS = 65536

#: A final chunk smaller than ``chunk_size / TAIL_MERGE_DIVISOR`` is
#: merged into its predecessor instead of paying full dispatch cost.
TAIL_MERGE_DIVISOR = 4

#: Per-worker cache of shared-memory arena attachments, keyed by the
#: segment-name tuple.  The parent's arena outlives its workers, so in
#: steady state a worker attaches once and reuses the mapped segments
#: for every later chunk; a name change (the arena grew) swaps them.
_ARENA_ATTACH: dict = {"names": None, "segs": ()}


@dataclass(frozen=True)
class ShardPlan:
    """How a run is served: the worker tier, how many shard owners it
    engages and the chunk grid they serve.  Chunk ``i`` (packets
    ``bounds[i]``) belongs to shard ``i % workers`` on every tier."""

    tier: str
    workers: int
    bounds: tuple[tuple[int, int], ...]
    #: Why :meth:`ClassificationPipeline.plan` chose the tier.
    reason: str = field(default="", compare=False)

    @property
    def forks(self) -> bool:
        """Whether the shard owners are forked processes."""
        return self.tier == "forked"

    def shard_of(self, chunk: int) -> int:
        return chunk % self.workers


@dataclass(frozen=True)
class _ScheduledEntry:
    """A normalised update batch and the index of the first chunk that
    must observe it."""

    effect_chunk: int
    batch: tuple[RuleUpdate, ...]


@dataclass
class _Run:
    """The working state of one ``run()``, shared by whichever tiers
    end up serving it."""

    headers: np.ndarray
    bounds: tuple[tuple[int, int], ...]
    entries: list[_ScheduledEntry]
    faults: FaultPlan | None
    #: Whether the classifier models occupancy (sizes the outputs).
    models_occupancy: InitVar[bool] = False
    #: The ``(match, occupancy)`` arrays to write (a slice of a stream's
    #: outputs), or ``None`` for fresh ones.
    outputs: InitVar[tuple | None] = None
    report: FaultReport = field(default_factory=FaultReport)
    #: Operations the applied batches skipped (removals of dead ids).
    update_skipped: int = 0
    #: Apply seconds per batch, in schedule order.
    update_latencies: list[float] = field(default_factory=list)
    #: CPU seconds forked workers reported for the chunks they served.
    worker_cpu_s: float = 0.0

    def __post_init__(self, models_occupancy: bool, outputs) -> None:
        # The outputs, each chunk writing its slice in place: ``match``,
        # ``occupancy`` (unless unmodelled or chunkless), and per chunk
        # its ``(matched, occupancy_sum)`` tally row and cache triple.
        n, chunks = self.headers.shape[0], len(self.bounds)
        models_occupancy = bool(chunks and models_occupancy)
        self.match, self.occupancy = outputs or (
            np.empty(n, np.int64),
            np.empty(n, np.int64) if models_occupancy else None,
        )
        if not models_occupancy:
            self.occupancy = None
        self.tally = np.zeros((chunks, 2), np.int64)
        self.caches: list[CacheTriple] = [None] * chunks

    def out(self, chunk: int) -> BatchOut:
        """Where chunk ``chunk`` writes: its slices and tally row."""
        window = slice(*self.bounds[chunk])
        occupancy = None if self.occupancy is None else self.occupancy[window]
        return self.match[window], occupancy, self.tally[chunk]

    def chunk_faults(self, chunk: int, attempt: int, shard=None):
        """Injected worker-fault specs for one chunk on one dispatch
        attempt (resolved in the parent, shipped inside the task, so
        workers need no shared plan state).  A run serves one segment,
        its segment 0."""
        if self.faults is None:
            return ()
        return self.faults.due(
            "chunk", attempt, segment=0, chunk=chunk, shard=shard
        )


def _shard_main(conn, shard: int, classifier: Classifier) -> None:
    """Body of one forked shard owner: serve task lists until the
    parent closes the pipe.  ``classifier`` is this process's
    copy-on-write snapshot (a fork argument: inherited, not pickled) of
    one ruleset epoch; nothing updates it.

    A message is ``(arena descriptor, tasks)``, a task ``(chunk, bounds,
    fault specs)``.  One reply per task goes back in task order —
    :func:`_run_chunk_arena`'s cache triple and tallies plus the CPU
    seconds the task took;
    an exception is sent as the reply and raised by the parent.  Its
    native calls stay on its one thread: its siblings hold the other
    CPUs.
    """
    native.one_thread()
    while True:
        try:
            arena, tasks = conn.recv()
        except EOFError:
            return
        for index, bounds, specs in tasks:
            cpu0 = time.process_time()
            try:
                if specs:
                    fire(specs, "chunk", index, shard=shard, forked=True)
                reply = _run_chunk_arena(
                    classifier, arena, index, bounds, shard
                ) + (time.process_time() - cpu0,)
            except Exception as exc:  # noqa: BLE001 - relayed to the parent
                reply = exc
            conn.send(reply)


def _attach_arena(names: tuple[str, ...]):
    """Return this worker's mapped arena segments, (re)attaching only
    when the segment names changed (the parent grew the arena).

    Attaching re-registers the name with the resource tracker, but the
    workers are forked *after* the parent has started the tracker (see
    ``ClassificationPipeline._ensure_workers``), so parent and workers
    share one tracker process and the duplicate registration is a set
    no-op — the parent's unlink (on arena growth or ``close()``) remains
    the single owner of the segment lifecycle.
    """
    global _ARENA_ATTACH
    if _ARENA_ATTACH["names"] != names:
        from multiprocessing import shared_memory

        for shm in _ARENA_ATTACH["segs"]:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - stale views
                pass
        segs = tuple(shared_memory.SharedMemory(name=n) for n in names)
        _ARENA_ATTACH = {"names": names, "segs": segs}
    return _ARENA_ATTACH["segs"]


def _run_chunk_arena(
    classifier: Classifier, arena, index: int, bounds, shard: int
) -> tuple[CacheTriple, tuple[int, int]]:
    """Forked-tier chunk: classify out of the shared arena straight
    into its output segments, return only the chunk's flow-cache triple
    and its ``(matched, occupancy_sum)`` tally.

    ``arena`` is ``(segment names, trace shape, dtype, fence)``.  In
    steady state the cached attachment is reused, so no ``shm_open``/
    ``mmap`` happens; the headers and output views are zero-copy
    windows into the shared segments.  Before reading, the worker
    verifies the control segment — the (generation, checksum) pair the
    parent wrote *after* the trace — against ``fence``.  A mismatch
    means the attach would read a torn or stale arena, and raises
    :class:`~repro.core.errors.ArenaCorruptionError` instead of
    silently serving garbage.
    """
    names, shape, dtype, fence = arena
    segs = _attach_arena(names)
    ctl = np.ndarray((2,), np.uint64, buffer=segs[3].buf)
    seen = (int(ctl[0]), int(ctl[1]))
    if seen != tuple(fence):
        raise ArenaCorruptionError(
            f"arena fence mismatch serving chunk {index}: "
            f"generation/checksum {seen[0]}/{seen[1]:#x} != expected "
            f"{fence[0]}/{fence[1]:#x}",
            chunk=index,
            shard=shard,
            cause="arena",
        )
    n = shape[0]
    start, end = bounds
    headers = np.ndarray(shape, dtype=dtype, buffer=segs[0].buf)
    match, occupancy = (
        np.ndarray((n,), np.int64, buffer=seg.buf)[start:end] for seg in segs[1:3]
    )
    if not models_occupancy(classifier):
        occupancy = None
    out = (match, occupancy, np.zeros(2, np.int64))
    return _run_chunk_local(classifier, headers, bounds, out), tuple(out[2].tolist())


class ClassificationPipeline:
    """Stream traces through a classifier in chunks across N shards.

    ``shard_mode`` picks the worker tier (see the module docstring):
    ``"processes"`` forks every update-free run with ``shards > 1``
    (what conformance tests of the fork transport want), ``"auto"``
    only when every worker gets a full coalesced dispatch,
    ``"threads"`` serves in-process shards (one private flow-cache
    clone each) on the calling thread.  Forked
    workers are held from their first run until the ruleset epoch
    moves or :meth:`close` (or the ``with`` block's exit) tears them
    and the arena down.  ``persistent`` is a deprecated no-op.

    ``policy`` is the fault-handling policy every dispatch is
    supervised under; ``None`` means ``SupervisionPolicy()`` — a fault
    raises a typed :class:`~repro.core.errors.ServingFaultError`, never
    a hang, never a retry.

    Rule updates belong *inside* ``run(trace, updates=...)``: the update
    stream is applied, in-process, with deterministic epoch semantics.
    Mutating the classifier directly between runs is also safe
    (:meth:`_sync_owners`).
    """

    def __init__(
        self,
        classifier: Classifier,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        shards: int = 1,
        persistent: bool = False,
        shard_mode: str = "processes",
        min_chunk_packets: int = 0,
        policy: SupervisionPolicy | None = None,
    ) -> None:
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if shard_mode not in SHARD_MODES:
            raise ConfigError(
                f"unknown shard_mode {shard_mode!r}; "
                f"expected one of {', '.join(SHARD_MODES)}"
            )
        if min_chunk_packets < 0:
            raise ConfigError(
                f"min_chunk_packets must be >= 0, got {min_chunk_packets}"
            )
        self.classifier = classifier
        self.chunk_size = chunk_size
        self.shards = shards
        self.shard_mode = shard_mode
        self.min_chunk_packets = min_chunk_packets
        self.policy = policy or SupervisionPolicy()
        #: The retry predicate, backoff and typed-failure wrapper every
        #: recovery site of this pipeline (and the session and stage
        #: graph above it) shares.
        self.supervisor = Supervisor(self.policy)
        #: The forked tier's shard owners (``None`` unless held).
        self._workers: ShardWorkers | None = None
        #: Shared-memory arena of the forked tier, held with the workers:
        #: ``{"names": (in, out, occ, ctl), "segs": [...]}``, grown
        #: (re-created larger) only when a trace outsizes it.  The ctl
        #: segment holds the (generation, checksum) fence pair.
        self._arena: dict | None = None
        #: Monotonic arena-content generation: bumped every time the
        #: parent (re)writes the input segment, never reset, so a stale
        #: attach can never present a valid fence.
        self._arena_generation = 0
        #: The in-process shards' private flow-cache clones, kept
        #: across runs so shard caches stay warm.
        self._shard_clones: list = []
        #: The classifier ``update_epoch`` the shard owners (held
        #: workers, shard clones) were last in step with.
        self._owner_epoch = self._classifier_epoch()

    # -- the plan -------------------------------------------------------
    @staticmethod
    @cache  # the platform's answer never changes
    def _fork_available() -> bool:
        try:
            import multiprocessing

            return "fork" in multiprocessing.get_all_start_methods()
        except ImportError:  # pragma: no cover - multiprocessing is stdlib
            return False

    def plan(self, packets: int, updates: bool = False) -> ShardPlan:
        """How a run of ``packets`` packets (carrying a rule-update
        stream iff ``updates``) is served: its tier, shard owners and
        chunk grid.  The grid is cut for the owners the tier engages,
        and a grid of one chunk is one shard's work in every mode: the
        reason stays the tier chooser's when it engages one owner
        anyway, and reads ``one chunk`` when the grid alone collapses a
        tier of several owners (or a fork).

        The grid: ``chunk_size`` packets per chunk, coalesced up to
        ``min_chunk_packets`` unless ``updates`` pin it (the chunk grid
        is the epoch grid) but never past ``ceil(packets / owners)``,
        so every owner gets a chunk; a final chunk shorter than
        ``chunk_size / 4`` is folded into its predecessor (it would pay
        full dispatch cost for a sliver of work)."""
        tier, reason = self._choose_tier(packets, updates)
        if tier == "forked":
            owners = min(self.shards, native.host_cpus())
        else:  # in-process shards, or the classifier alone
            owners = self.shards if self.shard_mode == "threads" else 1
        size = self.chunk_size
        if self.min_chunk_packets and not updates:
            size = max(size, min(self.min_chunk_packets, -(-packets // owners)))
        bounds = [
            (start, min(start + size, packets))
            for start in range(0, packets, size)
        ]
        if (
            len(bounds) > 1
            and (bounds[-1][1] - bounds[-1][0]) * TAIL_MERGE_DIVISOR < size
        ):
            bounds[-2:] = [(bounds[-2][0], packets)]
        if len(bounds) < 2 and (tier == "forked" or owners > 1):
            tier, reason = "inline", "one chunk"
        return ShardPlan(
            tier, min(owners, max(1, len(bounds))), tuple(bounds), reason
        )

    def _choose_tier(self, packets: int, updates: bool) -> tuple[str, str]:
        """``(tier, reason)`` for a run of ``packets`` packets with
        enough chunks for every shard.  A run with ``updates`` never
        forks (forked workers are a snapshot of one epoch).  Otherwise
        ``"processes"`` forks whenever there is more than one shard;
        ``"auto"`` not when clamping to CPUs leaves one worker (a
        1-worker fork pays IPC for zero parallelism), else when
        ``packets`` fill one coalesced dispatch per worker."""
        if self.shards < 2:
            return "inline", "one shard"
        if self.shard_mode == "threads":
            return "inline", "shard_mode=threads"
        if updates:
            return "inline", "update runs serve in-process"
        if not self._fork_available():
            return "inline", "no fork on this platform"
        if self.shard_mode == "processes":
            return "forked", "shard_mode=processes"
        workers = min(self.shards, native.host_cpus())
        if workers < 2:
            return "inline", "auto: one CPU"
        dispatch = max(self.chunk_size, self.min_chunk_packets)
        if packets < workers * dispatch:
            return "inline", (
                f"auto: {packets} packets < {workers} workers x {dispatch}"
            )
        return "forked", (
            f"auto: {packets} packets >= {workers} workers x {dispatch}"
        )

    # -- forked shard workers -------------------------------------------
    @property
    def workers_alive(self) -> bool:
        """Whether forked shard workers are being held (from a forked
        run until the ruleset epoch moves or :meth:`close`)."""
        return self._workers is not None

    def close(self) -> None:
        """Tear down the forked shard workers and their shared-memory
        arena (no-op when none are held; the next forked run re-forks).

        Teardown is bounded (see :meth:`ShardWorkers.close`), and the
        arena segments are unlinked unconditionally afterwards so an
        abnormal exit leaks no shared memory.
        """
        if self._workers is not None:
            self._workers.close(deadline_s=5.0)
            self._workers = None
        self._release_arena()

    def __enter__(self) -> "ClassificationPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except (OSError, ValueError, TypeError, AttributeError):
            # Interpreter teardown may have dismantled multiprocessing /
            # shared_memory internals under us; nothing left to reap.
            pass

    def _classifier_epoch(self) -> int:
        return int(getattr(self.classifier, "update_epoch", 0))

    def _sync_owners(self) -> None:
        """Notice a classifier mutated outside ``run()`` (its
        ``update_epoch`` moved).  Held workers serve their fork-time
        snapshot, shard clones a cache retired batch by batch inside
        ``run()``: close the former, flush the latter."""
        epoch = self._classifier_epoch()
        if epoch != self._owner_epoch:
            self.close()
            for clone in self._shard_clones:
                clone.cache.advance_epoch()
            self._owner_epoch = epoch

    def _ensure_workers(self, ndim: int) -> ShardWorkers:
        """The held workers, forked on first use from the classifier's
        current state — one per shard any run could engage, not just
        this one's."""
        if self._workers is None:
            try:
                # Start the resource tracker *before* forking: the
                # workers then share the parent's tracker process, which
                # keeps shared-memory bookkeeping single-owner (see
                # ``_attach_arena``).
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except (OSError, RuntimeError):  # pragma: no cover - tracker spawn
                pass
            # Build every lazy batch structure (e.g. the tuple-space
            # probe tables) before forking so workers inherit them
            # copy-on-write instead of each rebuilding them.
            warm_batch_state(self.classifier, ndim)
            self._workers = ShardWorkers(
                min(self.shards, native.host_cpus()), _shard_main,
                self.classifier,
            )
        return self._workers

    # -- shared-memory arena (forked-tier transport) --------------------
    def _release_arena(self) -> None:
        if self._arena is not None:
            for shm in self._arena["segs"]:
                try:
                    shm.close()
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - raced
                    pass
            self._arena = None

    def _ensure_arena(self, headers: np.ndarray) -> dict:
        """Return an arena large enough for ``headers``; grow (re-create
        with 25% slack and fresh names) only when the trace outsizes the
        current one.  Workers notice the new names on their next task
        and swap attachments; the old (unlinked) segments free once the
        last attachment drops."""
        need_in = max(1, headers.nbytes)
        need_out = max(1, headers.shape[0] * 8)
        a = self._arena
        if (
            a is None
            or a["segs"][0].size < need_in
            or a["segs"][1].size < need_out
        ):
            from multiprocessing import shared_memory

            self._release_arena()
            segs = [
                shared_memory.SharedMemory(
                    create=True, size=size + size // 4
                )
                for size in (need_in, need_out, need_out)
            ]
            # Control segment: (generation, checksum) — exactly two
            # uint64 words, no growth slack needed.
            segs.append(shared_memory.SharedMemory(create=True, size=16))
            a = {"names": tuple(s.name for s in segs), "segs": segs}
            self._arena = a
        return a

    def _load_arena(self, run: _Run, attempt: int) -> tuple:
        """Write the run's trace into the arena, then seal it: a fresh
        generation number plus a content checksum go into the control
        word *after* the trace.  Returns the descriptor ``(names,
        shape, dtype, fence)`` the workers attach by and verify."""
        headers = run.headers
        arena = self._ensure_arena(headers)
        segs = arena["segs"]
        np.ndarray(headers.shape, headers.dtype, buffer=segs[0].buf)[:] = (
            headers
        )
        self._arena_generation += 1
        fence = (self._arena_generation, int(headers.sum(dtype=np.uint64)))
        ctl = np.ndarray((2,), np.uint64, buffer=segs[3].buf)
        ctl[0], ctl[1] = fence
        if run.faults is not None and run.faults.due(
            "arena", attempt, segment=0
        ):
            # Injected corruption: flip checksum bits *after* sealing —
            # to the workers' fence check this is exactly what a torn
            # or stale arena write looks like.
            ctl[1] ^= np.uint64(0xDEAD)
        return arena["names"], headers.shape, str(headers.dtype), fence

    # -- update-stream plumbing -----------------------------------------
    def _normalise_updates(
        self, updates, bounds: tuple[tuple[int, int], ...]
    ) -> list[_ScheduledEntry]:
        """Sort and chunk-align an update stream.

        A batch scheduled at packet offset ``p`` takes effect at the
        first chunk whose start is >= ``p`` (batches beyond the last
        chunk start apply after the trace).  Equal offsets keep their
        given order, so the schedule is fully deterministic.
        """
        if not updates:
            return []
        require_updatable(self.classifier)
        starts = [b[0] for b in bounds]
        return [
            _ScheduledEntry(bisect_left(starts, u.at_packet), tuple(u.batch))
            for u in sorted_schedule(updates)
        ]

    def _apply_entry(self, run: _Run, ordinal: int) -> None:
        """Apply update batch ``ordinal`` of the run to the classifier,
        supervised: an injected update fault fires *before* the apply,
        so a bounded retry re-applies a clean batch."""
        entry = run.entries[ordinal]

        def step(attempt: int) -> None:
            if run.faults is not None:
                fire(run.faults.due("update", attempt, segment=0,
                                    batch=ordinal),
                     "update", ordinal)
            t0 = time.perf_counter()
            result = self.classifier.apply_updates(entry.batch)
            run.update_latencies.append(time.perf_counter() - t0)
            run.update_skipped += getattr(result, "skipped", 0)
            # The classifier's own cache retired inside the apply; the
            # shard clones hold private ones — all of them, also those a
            # short run leaves idle.
            for clone in self._shard_clones:
                clone.cache.retire(entry.batch, result.inserted_ids)

        self.supervisor.retry(
            step, run.report, tier="update", chunk=ordinal,
            counter="update_retries",
        )

    # -- supervised dispatch --------------------------------------------
    def _dispatch(self, plan: ShardPlan, run: _Run) -> ShardPlan:
        """Serve the run on ``plan`` with recovery, into the run's
        outputs, and return the plan that produced them.

        A forked dispatch serves one epoch (update runs never fork), so
        it is retried whole, on re-forked workers; under
        ``fault_policy="degrade"`` one that runs out of retries is
        served inline instead.  The inline tier applies updates
        *mid*-dispatch and recovers per chunk, inside the tier; what it
        cannot recover leaves it as a typed error.
        """
        if plan.forks:
            try:
                self.supervisor.retry(
                    lambda attempt: self._run_forked(plan, run, attempt),
                    run.report, tier="forked", replays=len(run.bounds),
                )
                return plan
            except ServingFaultError as exc:
                if self.policy.fault_policy != "degrade":
                    raise
                detected = time.perf_counter()
                run.report.degradations.append(
                    f"forked->inline:{type(exc.cause).__name__}"
                )
                run.report.replays += len(run.bounds)
                plan = replace(
                    plan, tier="inline", workers=1,
                    reason="fault_policy=degrade",
                )
                run.report.recovery_s.append(time.perf_counter() - detected)
        self._run_inline(plan, run)
        return plan

    # ------------------------------------------------------------------
    def run(
        self, trace: PacketTrace, updates=None, faults=None, out=None
    ) -> EngineReport:
        """Classify ``trace``, optionally interleaving a rule-update
        stream; results are in trace order regardless of shard
        scheduling, and every chunk is classified against one
        well-defined ruleset epoch.  ``out`` is the ``(match,
        occupancy)`` pair to write the results into (a segment's slice
        of a stream's outputs; occupancy ``None`` unless the classifier
        models it), fresh arrays when ``None``.

        ``faults`` injects a deterministic
        :class:`~repro.engine.faults.FaultPlan` (or dict / spec list /
        path) into this run's dispatches; recovery follows the
        pipeline's supervision policy, and ``EngineReport.fault``
        accounts for everything observed.
        """
        headers = trace.headers
        n = headers.shape[0]
        self._sync_owners()
        plan = self.plan(n, updates=bool(updates))
        run = _Run(
            headers, plan.bounds,
            self._normalise_updates(updates, plan.bounds),
            FaultPlan.coerce(faults), models_occupancy(self.classifier), out,
        )
        base_epoch = self._reported_epoch()
        started = time.perf_counter()
        if run.entries:
            # Held workers are a snapshot of the epoch this run leaves.
            self.close()
        served = self._dispatch(plan, run)
        elapsed = time.perf_counter() - started
        self._owner_epoch = self._classifier_epoch()
        return self._aggregate(run, served, elapsed, base_epoch)

    def empty_report(self) -> EngineReport:
        """What :meth:`run` reports for an empty trace, built without
        serving one and over no segment: the report of a session that
        served none."""
        plan = self.plan(0)
        run = _Run(np.empty((0, 0), np.uint32), plan.bounds, [], None)
        report = self._aggregate(run, plan, 0.0, self._reported_epoch())
        report.n_segments = 0
        return report

    def _reported_epoch(self) -> int | None:
        """The classifier's epoch, reported only for genuinely updatable
        backends: a cache wrapper around a non-updatable classifier
        merely *delegates* and must keep reporting ``None``."""
        if is_updatable(self.classifier):
            return self._classifier_epoch()
        return None

    # -- forked tier ----------------------------------------------------
    def _run_forked(self, plan: ShardPlan, run: _Run, attempt: int) -> None:
        """One dispatch over the held shard workers (forked here on
        first use): they read the trace out of the arena and write
        match/occupancy slices into its output segments, replying with
        scalars only, which land in the run's outputs once every chunk
        answered.  Any failure reaps the workers (replies of the failed
        dispatch may still be in flight) and the arena."""
        headers = run.headers
        shard_tasks: list[list] = [[] for _ in range(plan.workers)]
        for i, bounds in enumerate(run.bounds):
            task = (i, bounds, run.chunk_faults(i, attempt))
            shard_tasks[plan.shard_of(i)].append(task)
        try:
            workers = self._ensure_workers(headers.shape[1])
            arena = self._load_arena(run, attempt)
            replies = workers.dispatch(
                arena, shard_tasks, timeout_s=self.policy.chunk_timeout_s
            )
        except BaseException:
            self.close()
            raise
        run.worker_cpu_s += sum(cpu_s for *_, cpu_s in replies)
        for i, (cache, tally, _) in enumerate(replies):
            run.caches[i] = cache
            run.tally[i] = tally
        n = headers.shape[0]
        segs = self._arena["segs"]
        run.match[:] = np.ndarray((n,), np.int64, buffer=segs[1].buf)
        if run.occupancy is not None:
            run.occupancy[:] = np.ndarray((n,), np.int64, buffer=segs[2].buf)

    # -- inline tier ----------------------------------------------------
    def _shard_owners(self, workers: int) -> list:
        """The classifier that serves each of the run's ``workers``
        shards on the calling thread.

        One shard is the classifier itself.  In-process shards of a
        flow-cached classifier are private cache clones (kept across
        runs, so shard caches stay warm; :meth:`_sync_owners` flushes
        them after outside updates) around the one wrapped backend;
        bare backends hold no per-shard state and are shared directly.
        """
        base = self.classifier
        cached = hasattr(base, "clone") and hasattr(base, "cache")
        if workers < 2 or not cached:
            return [base] * workers
        while len(self._shard_clones) < workers:
            self._shard_clones.append(base.clone())
        return self._shard_clones[:workers]

    def _serve_chunk_inline(
        self, run: _Run, index: int, owner, shard: int
    ) -> None:
        """Serve one chunk on its shard's ``owner`` into the run's
        outputs, with per-chunk bounded retry: an attempt rewrites the
        chunk's whole slice and restarts its tally.  ``chunk_timeout_s``
        is emulated, not enforced: an injected hang raises at the
        deadline, real work runs on."""

        def step(attempt: int) -> CacheTriple:
            specs = run.chunk_faults(index, attempt, shard=shard)
            if specs:
                fire(specs, "chunk", index, shard=shard,
                     timeout_s=self.policy.chunk_timeout_s)
            return _run_chunk_local(
                owner, run.headers, run.bounds[index], run.out(index)
            )

        run.caches[index] = self.supervisor.retry(
            step, run.report, tier="inline", chunk=index, shard=shard,
            replays=1,
        )

    def _run_inline(self, plan: ShardPlan, run: _Run) -> None:
        """The calling thread's serving loop — what ``degrade`` falls
        back to: chunk ``i`` on the owner of shard ``i % workers``, so
        each shard sees its chunks in order.  Each update batch lands at
        its chunk boundary (past the last chunk: after it), which is why
        a failed *chunk* is retried and never the dispatch."""
        owners = self._shard_owners(plan.workers)
        idx = 0
        for i in range(len(run.bounds)):
            while (
                idx < len(run.entries)
                and run.entries[idx].effect_chunk <= i
            ):
                self._apply_entry(run, idx)
                idx += 1
            shard = plan.shard_of(i)
            self._serve_chunk_inline(run, i, owners[shard], shard)
        for late in range(idx, len(run.entries)):
            self._apply_entry(run, late)

    def _aggregate(
        self,
        run: _Run,
        served: ShardPlan,
        elapsed: float,
        base_epoch: int | None,
    ) -> EngineReport:
        """The run's report, counted from the chunks' tallies alone."""
        entries = run.entries
        # Epoch of chunk i = version at run start + batches in effect by it.
        effects = [e.effect_chunk for e in entries]
        ops_at: dict[int, int] = {}
        for e in entries:
            ops_at[e.effect_chunk] = ops_at.get(e.effect_chunk, 0) + len(
                e.batch
            )
        chunks: list[ChunkStats] = []
        for i, ((start, end), (matched, cycles), cache) in enumerate(
            zip(run.bounds, run.tally.tolist(), run.caches)
        ):
            hits, misses, evictions = cache or (None, None, None)
            chunks.append(
                ChunkStats(
                    index=i,
                    start=start,
                    n_packets=end - start,
                    matched=matched,
                    occupancy_sum=None if run.occupancy is None else cycles,
                    cache_hits=hits,
                    cache_misses=misses,
                    cache_evictions=evictions,
                    epoch=(
                        None if base_epoch is None
                        else base_epoch + bisect_left(effects, i + 1)
                    ),
                    updates_applied=ops_at.get(i, 0),
                    shard=served.shard_of(i),
                )
            )
        return EngineReport(
            backend=getattr(self.classifier, "backend_name",
                            type(self.classifier).__name__),
            n_packets=len(run.match),
            matched=sum(c.matched for c in chunks),
            elapsed_s=elapsed,
            n_shards=served.workers,
            chunk_size=self.chunk_size,
            n_chunks=len(chunks),
            match=run.match,
            chunks=chunks,
            occupancy=run.occupancy,
            **sum_cache_triples(run.caches),
            update_batches=len(entries),
            update_ops=sum(len(e.batch) for e in entries),
            update_skipped=run.update_skipped,
            update_latencies_s=tuple(run.update_latencies),
            final_epoch=(
                None if base_epoch is None else base_epoch + len(entries)
            ),
            fault=run.report,
            worker_cpu_s=run.worker_cpu_s,
        )


def _run_chunk_local(
    classifier: Classifier, headers: np.ndarray, bounds: tuple[int, int],
    out: BatchOut,
) -> CacheTriple:
    """Classify one chunk into ``out`` (its tally restarted); returns
    its flow-cache triple."""
    start, end = bounds
    stats = batch_stats_of(classifier, headers[start:end], out)
    if stats.cache_hits is None or stats.cache_misses is None:
        return None
    return stats.cache_hits, stats.cache_misses, stats.cache_evictions or 0
