"""Worker supervision: deadlines, crash detection, retry, degradation.

The serving pipeline's fault-tolerance brain.  Every
:class:`~repro.engine.pipeline.ClassificationPipeline` dispatch runs
under a :class:`SupervisionPolicy` (built from
:class:`~repro.serve.EngineConfig`'s ``fault_policy`` /
``max_retries`` / ``chunk_timeout_s`` fields; ``fail`` with no deadline
when none is given):

* :class:`ShardWorkers` is the forked tier's executor: one worker
  process per shard, each on its own pipe, held by the pipeline from a
  forked run until the ruleset epoch moves or ``close()``.  The parent
  waits on the shard pipes *and* the process sentinels, so a dead
  worker surfaces as a typed :class:`~repro.core.errors.WorkerCrashError`
  naming its shard the moment it exits, and a shard that makes no
  progress for ``chunk_timeout_s`` as a
  :class:`~repro.core.errors.ChunkTimeoutError`;
* :meth:`Supervisor.retry` is the **one recovery loop**: a forked
  dispatch, an inline chunk, an update apply, a stream's source pull
  and a graph stage each hand it a ``step(attempt)``; a recoverable
  failure is counted, backed off (exponential, seeded jitter) and
  retried while the policy allows, else raised as a typed
  :class:`ServingFaultError` at that site's tier and coordinates;
* a failed forked dispatch tears the workers down and its retry
  re-forks — it serves one epoch (update runs are in-process), so the
  replay is bit-identical; under ``degrade`` one out of retries is
  served inline instead (``forked -> inline``, recorded).  In-process
  serving only *emulates* a deadline — pre-empting takes a process;
* :meth:`ShardWorkers.close` bounds teardown: SIGTERM, a ``join``
  against one shared deadline, then SIGKILL for stragglers — a hung
  worker cannot wedge ``close()``, and the shared-memory arena is
  reaped by the pipeline right after.

Everything observed lands in a :class:`FaultReport` carried on the
run's :class:`~repro.engine.report.EngineReport` (and summed by its
``merge``): retries, chunk replays, degradations, crash counts per
shard, quarantined packets and recovery latencies.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from ..core.errors import (
    ArenaCorruptionError,
    ChunkTimeoutError,
    IngestError,
    InjectedFault,
    ServingFaultError,
    WorkerCrashError,
)
from ..core.spec import Spec
from ..core.spec import field as spec_field

#: Policies ``fault_policy`` accepts: ``fail`` raises a typed
#: :class:`ServingFaultError` on the first fault, ``retry`` replays the
#: failed step (bounded, backed off) where it failed, ``degrade``
#: retries and then serves a forked run inline.
FAULT_POLICIES = ("fail", "retry", "degrade")

#: Exceptions the supervisor may recover from (everything else — a
#: genuine bug, a ConfigError — propagates untouched).
RECOVERABLE = (
    InjectedFault,
    ArenaCorruptionError,
    WorkerCrashError,
    ChunkTimeoutError,
    IngestError,
)


@dataclass(frozen=True)
class SupervisionPolicy(Spec):
    """Validated fault-handling policy for one pipeline.

    ``chunk_timeout_s = 0`` disables the deadline (crash detection via
    the process sentinels stays on).  Backoff for retry ``k`` is
    ``backoff_base_s * 2**k`` plus seeded jitter, capped at
    ``backoff_max_s``.
    """

    fault_policy: str = spec_field("fail", choices=FAULT_POLICIES)
    max_retries: int = spec_field(2, min=0)
    chunk_timeout_s: float = spec_field(0.0, min=0)
    backoff_base_s: float = spec_field(0.05, min=0)
    backoff_max_s: float = spec_field(1.0, min=0)
    seed: int = 0


@dataclass
class FaultReport:
    """Everything the supervisor observed during one run (or one merged
    streamed session).  All counters are zero on a fault-free run."""

    #: Dispatch retries taken (any tier, any cause).
    retries: int = 0
    #: Chunk dispatches replayed (a retried fork dispatch replays every
    #: chunk of the run; an inline retry replays one chunk).
    replays: int = 0
    #: Degradations taken, e.g. ``"forked->inline:WorkerCrashError"``.
    degradations: list[str] = field(default_factory=list)
    worker_crashes: int = 0
    timeouts: int = 0
    arena_faults: int = 0
    #: Injected (or worker-raised) chunk errors recovered from.
    chunk_errors: int = 0
    update_retries: int = 0
    ingest_retries: int = 0
    #: Malformed trace lines dead-lettered by ingestion quarantine.
    quarantined: int = 0
    #: Crash count per 0-based shard id.
    shard_crashes: dict = field(default_factory=dict)
    #: Seconds from each fault's detection to the replacement dispatch
    #: starting (teardown + backoff), one entry per retry/degradation.
    recovery_s: list = field(default_factory=list)

    def record_failure(self, exc: BaseException, shard=None) -> None:
        """Classify one recoverable failure into the counters."""
        if isinstance(exc, WorkerCrashError):
            self.worker_crashes += 1
            label = exc.shard if exc.shard is not None else shard
            if label is not None:
                self.shard_crashes[label] = (
                    self.shard_crashes.get(label, 0) + 1
                )
        elif isinstance(exc, ChunkTimeoutError):
            self.timeouts += 1
        elif isinstance(exc, ArenaCorruptionError):
            self.arena_faults += 1
        elif isinstance(exc, IngestError):
            pass  # counted via ingest_retries at the ingestion site
        else:
            self.chunk_errors += 1

    @property
    def faults(self) -> int:
        """Total faults observed (crashes + timeouts + arena + errors)."""
        return (
            self.worker_crashes
            + self.timeouts
            + self.arena_faults
            + self.chunk_errors
        )

    def any(self) -> bool:
        return bool(
            self.faults
            or self.retries
            or self.degradations
            or self.update_retries
            or self.ingest_retries
            or self.quarantined
        )

    def merge(self, other: "FaultReport") -> None:
        self.retries += other.retries
        self.replays += other.replays
        self.degradations.extend(other.degradations)
        self.worker_crashes += other.worker_crashes
        self.timeouts += other.timeouts
        self.arena_faults += other.arena_faults
        self.chunk_errors += other.chunk_errors
        self.update_retries += other.update_retries
        self.ingest_retries += other.ingest_retries
        self.quarantined += other.quarantined
        for label, count in other.shard_crashes.items():
            self.shard_crashes[label] = (
                self.shard_crashes.get(label, 0) + count
            )
        self.recovery_s.extend(other.recovery_s)

    @classmethod
    def merged(cls, reports) -> "FaultReport":
        out = cls()
        for r in reports:
            out.merge(r)
        return out

    def to_dict(self) -> dict:
        out = {
            "faults": self.faults,
            "retries": self.retries,
            "replays": self.replays,
            "degradations": list(self.degradations),
            "worker_crashes": self.worker_crashes,
            "timeouts": self.timeouts,
            "arena_faults": self.arena_faults,
            "chunk_errors": self.chunk_errors,
            "update_retries": self.update_retries,
            "ingest_retries": self.ingest_retries,
            "quarantined": self.quarantined,
            "shard_crashes": {
                str(k): v for k, v in sorted(self.shard_crashes.items())
            },
        }
        if self.recovery_s:
            out["recovery_s"] = [float(s) for s in self.recovery_s]
            out["recovery_max_s"] = float(max(self.recovery_s))
        return out


class Supervisor:
    """Policy + seeded jitter + failure bookkeeping for one pipeline."""

    def __init__(self, policy: SupervisionPolicy | None = None) -> None:
        self.policy = policy or SupervisionPolicy()
        self._rng = random.Random(self.policy.seed)

    def backoff_s(self, attempt: int) -> float:
        """Exponential backoff with deterministic (seeded) jitter."""
        base = self.policy.backoff_base_s * (2 ** max(0, attempt))
        jitter = 1.0 + 0.25 * self._rng.random()
        return min(self.policy.backoff_max_s, base * jitter)

    def may_retry(self, attempt: int) -> bool:
        """Whether the policy allows one more try after ``attempt``
        failed ones."""
        return (
            self.policy.fault_policy != "fail"
            and attempt < self.policy.max_retries
        )

    def retry(
        self,
        step,
        report: FaultReport,
        *,
        tier: str,
        chunk=None,
        shard=None,
        counter: str = "retries",
        replays: int = 0,
    ):
        """Return ``step(attempt)``, supervised: the one recovery loop
        every site shares.  A :data:`RECOVERABLE` failure is recorded on
        ``report``; if the policy allows another try, ``counter`` and
        ``report.replays`` (by ``replays``) grow, the backoff is slept
        and one ``recovery_s`` entry appended, else the typed error at
        ``(tier, chunk, shard)`` is raised.  Anything else propagates
        untouched."""
        attempt = 0
        while True:
            try:
                return step(attempt)
            except RECOVERABLE as exc:
                detected = time.perf_counter()
                report.record_failure(exc, shard=shard)
                if not self.may_retry(attempt):
                    raise self.wrap_failure(
                        exc, tier=tier, chunk=chunk, shard=shard
                    ) from exc
                setattr(report, counter, getattr(report, counter) + 1)
                report.replays += replays
                time.sleep(self.backoff_s(attempt))
                report.recovery_s.append(time.perf_counter() - detected)
                attempt += 1

    def wrap_failure(
        self, exc: BaseException, *, tier: str, chunk=None, shard=None
    ) -> ServingFaultError:
        """Lift any recoverable failure into the typed serving error the
        ``fail`` policy (and exhausted retries) raise."""
        # ``is not None``, not truthiness: shard 0 and chunk 0 are real
        # coordinates.
        if getattr(exc, "shard", None) is not None:
            shard = exc.shard
        if getattr(exc, "chunk", None) is not None:
            chunk = exc.chunk
        return ServingFaultError(
            f"serving fault on tier {tier!r} "
            f"(shard={shard}, chunk={chunk}): {exc}",
            shard=shard,
            chunk=chunk,
            tier=tier,
            cause=exc,
        )


def _shard_entry(target, conn, shard: int, inherited, args) -> None:
    """First code a forked shard worker runs: drop the parent-side pipe
    ends the fork copied (so a vanished parent reads as EOF on this
    worker's pipe instead of leaving an orphan), then serve."""
    for other in inherited:
        other.close()
    target(conn, shard, *args)


class ShardWorkers:
    """One forked worker process per shard, each on its own pipe.

    Shard ``s`` is owned by ``procs[s]`` for the life of this object:
    a dispatch sends that worker the ordered list of its chunks' tasks
    in one message and reads one reply per task back, so which process
    serves which chunk — and therefore every per-shard cache counter —
    is fixed by the plan, never by scheduling.  ``target(conn, shard,
    *args)`` is the worker body; it inherits the parent's memory — and
    ``args``, unpickled — copy-on-write.
    """

    def __init__(self, count: int, target, *args) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.procs: list = []
        self.conns: list = []
        for shard in range(count):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_entry,
                args=(target, theirs, shard, (*self.conns, ours), args),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
            proc.start()
            # Only the worker may hold its end, or its death would not
            # read as EOF on ours.
            theirs.close()
            self.procs.append(proc)
            self.conns.append(ours)

    def _crashed(self, shard: int, chunk: int) -> WorkerCrashError:
        proc = self.procs[shard]
        proc.join(1.0)
        return WorkerCrashError(
            f"shard {shard} worker (pid {proc.pid}) exited with code "
            f"{proc.exitcode} while chunk {chunk} was outstanding",
            shard=shard,
            chunk=chunk,
            cause=f"exit:{proc.exitcode}",
        )

    def dispatch(self, common, shard_tasks, *, timeout_s: float = 0.0) -> list:
        """Send shard ``s`` the message ``(common, shard_tasks[s])`` and
        collect one reply per task; returns the replies in chunk order
        (every task starts with its chunk index, and the indices of all
        shards together are ``0..n-1``).

        Raises the worker's own exception when a reply is one (an
        injected fault, an arena fence trip), :class:`WorkerCrashError`
        when a worker dies or its pipe breaks with chunks outstanding,
        and :class:`ChunkTimeoutError` when a shard owes a chunk and
        has answered nothing for ``timeout_s``.  After any of them the
        workers may still hold or send stale replies: the caller must
        :meth:`close` them, never dispatch again.
        """
        from multiprocessing.connection import wait

        #: shard -> chunk indices not yet answered, next one last.
        owed: dict[int, list[int]] = {}
        for shard, tasks in enumerate(shard_tasks):
            if tasks:
                owed[shard] = [task[0] for task in reversed(tasks)]
                try:
                    self.conns[shard].send((common, tasks))
                except OSError:
                    raise self._crashed(shard, owed[shard][-1]) from None
        replies: list = [None] * sum(len(tasks) for tasks in shard_tasks)
        progress = dict.fromkeys(owed, time.monotonic())
        while owed:
            budget = None
            if timeout_s > 0:
                oldest = min(progress[shard] for shard in owed)
                budget = max(0.0, oldest + timeout_s - time.monotonic())
            ready = wait(
                [self.conns[shard] for shard in owed]
                + [self.procs[shard].sentinel for shard in owed],
                budget,
            )
            for shard in list(owed):
                conn, chunk = self.conns[shard], owed[shard][-1]
                if conn in ready or self.procs[shard].sentinel in ready:
                    # A dead worker's replies already in the pipe are
                    # read first; only an empty pipe is a crash.
                    try:
                        if not conn.poll():
                            raise EOFError
                        reply = conn.recv()
                    except (EOFError, OSError):
                        raise self._crashed(shard, chunk) from None
                    if isinstance(reply, BaseException):
                        raise reply
                    replies[chunk] = reply
                    progress[shard] = time.monotonic()
                    owed[shard].pop()
                    if not owed[shard]:
                        del owed[shard]
                elif 0 < timeout_s < time.monotonic() - progress[shard]:
                    raise ChunkTimeoutError(
                        f"shard {shard} exceeded the {timeout_s:.2f}s "
                        f"deadline on chunk {chunk}",
                        shard=shard,
                        chunk=chunk,
                        cause="timeout",
                    )
        return replies

    def close(self, *, deadline_s: float = 5.0) -> None:
        """Reap every worker within a bounded deadline: SIGTERM, a
        ``join`` against the shared budget, then SIGKILL for anything
        still alive — a worker stuck in an uninterruptible state cannot
        wedge ``close()``, and no orphan processes are left behind."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.terminate()
        stop_at = time.monotonic() + deadline_s
        for proc in self.procs:
            proc.join(max(0.0, stop_at - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - SIGTERM-immune worker
                proc.kill()
                proc.join(1.0)
