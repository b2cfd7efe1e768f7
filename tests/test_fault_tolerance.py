"""Fault-injection grid for the supervised serving path.

The acceptance contract of the robustness PR: under every single-fault
injection (worker crash, hang past the chunk deadline, in-worker error,
arena fence trip, ingestion I/O error, update-apply failure, malformed
trace lines) a ``retry`` or ``degrade`` policy completes the run
**bit-identical** to the fault-free run, the :class:`FaultReport`
accounts for exactly what happened, and the ``fail`` policy raises a
typed :class:`ServingFaultError` naming the shard/chunk/cause.  Nothing
may leak: no orphaned worker processes, no shared-memory segments.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classbench import generate_trace, generate_update_stream
from repro.core.errors import (
    ArenaCorruptionError,
    ChunkTimeoutError,
    ConfigError,
    IngestError,
    InjectedFault,
    PacketFormatError,
    ServingFaultError,
    WorkerCrashError,
)
from repro.engine import (
    ClassificationPipeline,
    FaultPlan,
    FaultReport,
    FaultSpec,
    SupervisionPolicy,
    Supervisor,
    build_backend,
    build_updatable_backend,
    supervision,
)
from repro.serve import (
    Engine,
    EngineConfig,
    MultiTenantEngine,
    QuarantineLog,
    TenantSpec,
    iter_trace_file,
    iter_trace_segments,
)

CHUNK = 256  # 2000-packet fixture trace -> 8 chunks (0..7)

#: Retry-flavoured policies with zero backoff so the grid stays fast.
FAST_RETRY = dict(max_retries=2, backoff_base_s=0.0, backoff_max_s=0.0)


def make_pipeline(ruleset, policy=None, **kw):
    kw.setdefault("chunk_size", CHUNK)
    kw.setdefault("shards", 2)
    kw.setdefault("shard_mode", "processes")
    return ClassificationPipeline(
        build_backend("linear", ruleset), policy=policy, **kw
    )


def retry_policy(policy="retry", **kw):
    return SupervisionPolicy(fault_policy=policy, **{**FAST_RETRY, **kw})


# ---------------------------------------------------------------------------
# Worker faults on the fork tier: crash, error, hang
# ---------------------------------------------------------------------------
class TestForkTierFaults:
    @pytest.mark.parametrize("kind", ["crash", "error"])
    @pytest.mark.parametrize("policy", ["retry", "degrade"])
    def test_recovers_bit_identical(
        self, kind, policy, acl_small, acl_small_trace, acl_small_oracle
    ):
        with make_pipeline(acl_small, policy=retry_policy(policy)) as pipe:
            res = pipe.run(
                acl_small_trace, faults=[FaultSpec(kind=kind, chunk=1)]
            )
        assert np.array_equal(res.match, acl_small_oracle)
        assert res.fault is not None
        assert res.fault.retries == 1
        assert res.fault.replays == len(res.chunks)  # whole-dispatch replay
        if kind == "crash":
            assert res.fault.worker_crashes == 1
            assert sum(res.fault.shard_crashes.values()) == 1
        else:
            assert res.fault.chunk_errors == 1
        assert res.fault.recovery_s  # detection-to-redispatch measured

    def test_hang_trips_chunk_deadline(
        self, acl_small, acl_small_trace, acl_small_oracle
    ):
        policy = retry_policy(chunk_timeout_s=0.5)
        with make_pipeline(acl_small, policy=policy) as pipe:
            res = pipe.run(
                acl_small_trace,
                faults=[FaultSpec(kind="hang", chunk=1, seconds=30.0)],
            )
        assert np.array_equal(res.match, acl_small_oracle)
        assert res.fault.timeouts == 1
        assert res.fault.retries == 1

    def test_fail_policy_raises_typed_error(
        self, acl_small, acl_small_trace
    ):
        with make_pipeline(acl_small, policy=retry_policy("fail")) as pipe:
            with pytest.raises(ServingFaultError) as excinfo:
                pipe.run(
                    acl_small_trace, faults=[FaultSpec(kind="crash", chunk=1)]
                )
        exc = excinfo.value
        assert exc.tier == "forked"
        assert exc.shard is not None  # the dead worker's shard id
        assert isinstance(exc.cause, WorkerCrashError)

    def test_retries_exhausted_raises(self, acl_small, acl_small_trace):
        policy = retry_policy(max_retries=1)
        with make_pipeline(acl_small, policy=policy) as pipe:
            with pytest.raises(ServingFaultError) as excinfo:
                pipe.run(
                    acl_small_trace,
                    faults=[FaultSpec(kind="error", chunk=0, times=5)],
                )
        assert isinstance(excinfo.value.cause, InjectedFault)
        assert excinfo.value.chunk == 0

    def test_plan_without_policy_is_fail_fast(
        self, acl_small, acl_small_trace
    ):
        """A faults= plan on an unsupervised pipeline gets fail-fast
        supervision: a typed error, never a hang, never a retry."""
        with make_pipeline(acl_small) as pipe:
            with pytest.raises(ServingFaultError):
                pipe.run(
                    acl_small_trace, faults=[FaultSpec(kind="crash", chunk=0)]
                )

    def test_dead_worker_without_policy_or_plan_raises(self):
        """A directly constructed pipeline (no policy, no fault plan)
        whose worker really dies mid-run raises the typed error within
        seconds.  ``multiprocessing.Pool.map`` lost the dead worker's
        task and never returned, so the run lives in a session of its
        own under a hard timeout: a hang is a failure, not a hung
        suite."""
        script = textwrap.dedent("""
            import json, os, time
            from repro import generate_ruleset, generate_trace
            from repro.core.errors import ServingFaultError
            from repro.engine import ClassificationPipeline, build_backend

            class DiesOnSecondChunk:
                def __init__(self, inner):
                    self.inner, self.parent, self.served = inner, os.getpid(), 0
                def classify_batch(self, headers):
                    if len(headers) and os.getpid() != self.parent:
                        self.served += 1
                        if self.served == 2:
                            os._exit(70)
                    return self.inner.classify_batch(headers)
                def __getattr__(self, name):
                    return getattr(self.inner, name)

            rs = generate_ruleset("acl1", 150, seed=101)
            trace = generate_trace(rs, 2000, seed=201)
            pipe = ClassificationPipeline(
                DiesOnSecondChunk(build_backend("linear", rs)),
                chunk_size=256, shards=2, shard_mode="processes",
            )
            started = time.monotonic()
            try:
                pipe.run(trace)
            except ServingFaultError as exc:
                print(json.dumps({
                    "cause": type(exc.cause).__name__, "tier": exc.tier,
                    "shard": exc.shard, "chunk": exc.chunk,
                    "exit": exc.cause.cause,
                    "workers": pipe.plan(trace.n_packets).workers,
                    "seconds": time.monotonic() - started,
                }))
        """)
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the run never returned after its worker died")
        assert proc.returncode == 0 and out.strip(), out
        seen = json.loads(out)
        assert (seen["cause"], seen["tier"], seen["exit"]) == (
            "WorkerCrashError", "forked", "exit:70"
        )
        # Shard s owns chunks s, s + workers, ...: its second one.
        assert seen["chunk"] == seen["shard"] + seen["workers"]
        assert seen["seconds"] < 10.0

    def test_fault_free_supervised_run_is_clean(
        self, acl_small, acl_small_trace, acl_small_oracle
    ):
        with make_pipeline(acl_small, policy=retry_policy()) as pipe:
            res = pipe.run(acl_small_trace)
        assert np.array_equal(res.match, acl_small_oracle)
        assert res.fault is not None and not res.fault.any()


# ---------------------------------------------------------------------------
# In-process shards (shard_mode="threads"): per-chunk recovery on the
# shard's own clone (crash maps to a raised InjectedFault)
# ---------------------------------------------------------------------------
class TestThreadTierFaults:
    @pytest.mark.parametrize("kind", ["crash", "error"])
    def test_recovers_per_chunk(
        self, kind, acl_small, acl_small_trace, acl_small_oracle
    ):
        with make_pipeline(
            acl_small, policy=retry_policy(), shard_mode="threads"
        ) as pipe:
            res = pipe.run(
                acl_small_trace, faults=[FaultSpec(kind=kind, chunk=2)]
            )
        assert np.array_equal(res.match, acl_small_oracle)
        assert res.fault.retries >= 1
        # In-process recovery replays single chunks, not the dispatch.
        assert 1 <= res.fault.replays < len(res.chunks)

    def test_each_inline_retry_records_its_recovery(
        self, acl_small, acl_small_trace
    ):
        with make_pipeline(
            acl_small, policy=retry_policy(), shard_mode="threads"
        ) as pipe:
            res = pipe.run(
                acl_small_trace,
                faults=[FaultSpec(kind="error", chunk=2, times=2)],
            )
        assert res.fault.retries == 2
        assert res.fault.replays == 2
        assert len(res.fault.recovery_s) == 2

    def test_hang_respects_deadline(
        self, acl_small, acl_small_trace, acl_small_oracle
    ):
        policy = retry_policy(chunk_timeout_s=0.3)
        with make_pipeline(
            acl_small, policy=policy, shard_mode="threads"
        ) as pipe:
            res = pipe.run(
                acl_small_trace,
                faults=[FaultSpec(kind="hang", chunk=2, seconds=30.0)],
            )
        assert np.array_equal(res.match, acl_small_oracle)
        assert res.fault.timeouts >= 1

    def test_fail_policy_names_shard(self, acl_small, acl_small_trace):
        with make_pipeline(
            acl_small, policy=retry_policy("fail"), shard_mode="threads"
        ) as pipe:
            with pytest.raises(ServingFaultError) as excinfo:
                pipe.run(
                    acl_small_trace, faults=[FaultSpec(kind="error", chunk=2)]
                )
        assert excinfo.value.tier == "inline"
        assert (excinfo.value.chunk, excinfo.value.shard) == (2, 0)

    def test_shard_scoped_fault_hits_one_shard(
        self, acl_small, acl_small_trace, acl_small_oracle
    ):
        """A spec with shard= only fires on that in-process shard."""
        with make_pipeline(
            acl_small, policy=retry_policy(), shard_mode="threads"
        ) as pipe:
            res = pipe.run(
                acl_small_trace,
                faults=[FaultSpec(kind="error", shard=0)],
            )
        assert np.array_equal(res.match, acl_small_oracle)
        assert res.fault.retries >= 1


# ---------------------------------------------------------------------------
# Forked tier: arena generation fence + checksum, worker replacement
# ---------------------------------------------------------------------------
class TestArenaFence:
    def test_corruption_detected_and_retried(
        self, acl_small, acl_small_trace, acl_small_oracle
    ):
        with make_pipeline(acl_small, policy=retry_policy()) as pipe:
            res = pipe.run(
                acl_small_trace, faults=[FaultSpec(kind="arena")]
            )
            assert np.array_equal(res.match, acl_small_oracle)
            assert res.fault.arena_faults == 1
            assert res.fault.retries == 1
            # The poisoned workers were torn down and fresh ones forked.
            assert pipe._workers is not None

    def test_corruption_fail_policy(self, acl_small, acl_small_trace):
        with make_pipeline(acl_small, policy=retry_policy("fail")) as pipe:
            with pytest.raises(ServingFaultError) as excinfo:
                pipe.run(acl_small_trace, faults=[FaultSpec(kind="arena")])
        assert excinfo.value.tier == "forked"
        assert isinstance(excinfo.value.cause, ArenaCorruptionError)

    def test_no_orphans_no_leaked_shm(self, acl_small, acl_small_trace):
        pipe = make_pipeline(acl_small, policy=retry_policy())
        try:
            pipe.run(acl_small_trace, faults=[FaultSpec(kind="crash", chunk=0)])
            assert pipe._workers is not None and pipe._arena is not None
            procs = list(pipe._workers.procs)
            names = tuple(pipe._arena["names"])
        finally:
            pipe.close()
        for proc in procs:
            assert not proc.is_alive()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_crash_then_replacement_workers_keep_serving(
        self, acl_small, acl_small_trace, acl_small_oracle
    ):
        with make_pipeline(acl_small, policy=retry_policy()) as pipe:
            res = pipe.run(
                acl_small_trace, faults=[FaultSpec(kind="crash", chunk=3)]
            )
            assert np.array_equal(res.match, acl_small_oracle)
            assert res.fault.worker_crashes == 1
            # The replacement workers keep serving fault-free runs.
            again = pipe.run(acl_small_trace)
            assert np.array_equal(again.match, acl_small_oracle)
            assert not again.fault.any()


# ---------------------------------------------------------------------------
# Degradation ladder
# ---------------------------------------------------------------------------
class TestDegradationLadder:
    def test_forked_degrades_to_inline(
        self, acl_small, acl_small_trace, acl_small_oracle
    ):
        """An arena fault that outlives every retry (times=10) forces
        the ladder step; the inline tier has no arena and completes
        bit-identically on one shard."""
        policy = retry_policy("degrade", max_retries=1)
        with make_pipeline(acl_small, policy=policy) as pipe:
            res = pipe.run(
                acl_small_trace, faults=[FaultSpec(kind="arena", times=10)]
            )
            assert not pipe.workers_alive  # the failed tier was reaped
        assert np.array_equal(res.match, acl_small_oracle)
        assert res.fault.degradations == [
            "forked->inline:ArenaCorruptionError"
        ]
        assert res.n_shards == 1
        assert res.fault.arena_faults == 2  # attempts 0 and 1
        assert res.fault.recovery_s

    def test_fail_policy_never_degrades(self, acl_small, acl_small_trace):
        policy = retry_policy("fail")
        with make_pipeline(acl_small, policy=policy) as pipe:
            with pytest.raises(ServingFaultError):
                pipe.run(
                    acl_small_trace, faults=[FaultSpec(kind="arena", times=10)]
                )


# ---------------------------------------------------------------------------
# Live updates under faults: idempotent chunk replay
# ---------------------------------------------------------------------------
class TestUpdatesUnderFaults:
    def _run(self, ruleset, trace, schedule, policy, faults):
        clf = build_updatable_backend("linear", ruleset)
        with ClassificationPipeline(
            clf, chunk_size=CHUNK, shards=2, shard_mode="processes",
            policy=policy,
        ) as pipe:
            return pipe.run(trace, updates=schedule, faults=faults)

    @pytest.fixture()
    def schedule(self, acl_small, acl_small_trace):
        return generate_update_stream(
            acl_small, 24, acl_small_trace.n_packets, batch_size=6, seed=402
        )

    @pytest.mark.parametrize("kind", ["crash", "error"])
    def test_replay_reapplies_update_prefix(
        self, kind, acl_small, acl_small_trace, schedule
    ):
        """A faulted chunk's replay sees the same update prefix, at the
        same epochs: an update run is served in-process on one shard,
        so a fault retries only the failed chunk."""
        want = self._run(
            acl_small, acl_small_trace, schedule, retry_policy(), None
        )
        got = self._run(
            acl_small, acl_small_trace, schedule, retry_policy(),
            [FaultSpec(kind=kind, chunk=1)],
        )
        assert np.array_equal(got.match, want.match)
        assert got.n_shards == 1
        assert got.fault.retries == 1
        assert got.fault.replays == 1
        assert got.final_epoch == want.final_epoch
        assert [c.epoch for c in got.chunks] == [c.epoch for c in want.chunks]
        assert got.update_batches == want.update_batches

    def test_update_apply_fault_retried(
        self, acl_small, acl_small_trace, schedule
    ):
        want = self._run(
            acl_small, acl_small_trace, schedule, retry_policy(), None
        )
        got = self._run(
            acl_small, acl_small_trace, schedule, retry_policy(),
            [FaultSpec(kind="update", batch=0)],
        )
        assert np.array_equal(got.match, want.match)
        assert got.final_epoch == want.final_epoch
        assert got.fault.update_retries == 1

    def test_update_apply_fault_is_counted_as_a_fault(
        self, acl_small, acl_small_trace, schedule
    ):
        """A recovered update fault goes through ``record_failure`` like
        any other: it counts in ``faults`` and times its recovery."""
        got = self._run(
            acl_small, acl_small_trace, schedule, retry_policy(),
            [FaultSpec(kind="update", batch=0)],
        )
        assert got.fault.faults == 1
        assert got.fault.chunk_errors == 1
        assert got.fault.update_retries == 1
        assert got.fault.retries == 0
        assert len(got.fault.recovery_s) == 1

    def test_update_apply_fault_fail_policy(
        self, acl_small, acl_small_trace, schedule
    ):
        with pytest.raises(ServingFaultError) as excinfo:
            self._run(
                acl_small, acl_small_trace, schedule, retry_policy("fail"),
                [FaultSpec(kind="update", batch=0)],
            )
        assert excinfo.value.tier == "update"


# ---------------------------------------------------------------------------
# Engine-level grid: config-driven supervision, cache on/off, streams
# ---------------------------------------------------------------------------
class TestEngineFaults:
    @pytest.mark.parametrize("shard_mode", ["processes", "threads"])
    @pytest.mark.parametrize("cache_entries", [0, 512])
    def test_classify_recovers(
        self, shard_mode, cache_entries, acl_small, acl_small_trace,
        acl_small_oracle,
    ):
        config = EngineConfig(
            backend="linear", shards=2, chunk_size=CHUNK,
            min_chunk_packets=0, shard_mode=shard_mode,
            cache_entries=cache_entries, fault_policy="retry",
        )
        with Engine.open(config, acl_small) as engine:
            report = engine.classify(
                acl_small_trace, faults=[FaultSpec(kind="error", chunk=1)]
            )
        assert np.array_equal(report.match, acl_small_oracle)
        assert report.fault is not None and report.fault.retries >= 1
        assert "fault" in report.to_dict()

    def test_stream_segment_fault_recovers(
        self, acl_small, acl_small_trace, acl_small_oracle
    ):
        config = EngineConfig(
            backend="linear", shards=2, chunk_size=CHUNK,
            min_chunk_packets=0, shard_mode="processes",
            fault_policy="retry",
        )
        plan = FaultPlan((FaultSpec(kind="crash", chunk=0, segment=1),))
        with Engine.open(config, acl_small) as engine:
            report = engine.classify_stream(
                iter_trace_segments(acl_small_trace, 768),
                faults=plan,
            )
        assert np.array_equal(report.match, acl_small_oracle)
        assert report.fault.worker_crashes == 1

    def test_stream_ingest_fault_retried(
        self, acl_small, acl_small_trace, acl_small_oracle
    ):
        config = EngineConfig(
            backend="linear", chunk_size=CHUNK, fault_policy="retry",
        )
        with Engine.open(config, acl_small) as engine:
            report = engine.classify_stream(
                iter_trace_segments(acl_small_trace, 768),
                faults=[FaultSpec(kind="ingest", segment=1)],
            )
            assert engine.last_stream_fault is not None
        assert np.array_equal(report.match, acl_small_oracle)
        assert report.fault.ingest_retries == 1

    def test_stream_ingest_fault_fail_policy(
        self, acl_small, acl_small_trace
    ):
        config = EngineConfig(backend="linear", chunk_size=CHUNK)
        with Engine.open(config, acl_small) as engine:
            with pytest.raises(ServingFaultError) as excinfo:
                engine.classify_stream(
                    iter_trace_segments(acl_small_trace, 768),
                    faults=[FaultSpec(kind="ingest", segment=1)],
                )
        assert excinfo.value.tier == "ingest"
        assert excinfo.value.chunk == 1
        assert isinstance(excinfo.value.cause, IngestError)

    def test_a_raising_source_is_not_retried_into_a_short_stream(
        self, acl_small, acl_small_trace
    ):
        """A source generator that raises is finished: re-pulling it
        under ``retry`` got ``StopIteration`` and returned half the
        stream as a clean report.  Its error must reach the caller."""
        def source():
            for index, segment in enumerate(
                iter_trace_segments(acl_small_trace, 500)
            ):
                if index == 2:
                    raise IngestError("source failed", segment=index)
                yield segment

        config = EngineConfig(
            backend="linear", chunk_size=CHUNK, fault_policy="retry"
        )
        with Engine.open(config, acl_small) as engine:
            with pytest.raises(IngestError, match="source failed"):
                engine.classify_stream(source())

    def test_config_policy_round_trips_to_pipeline(self, acl_small):
        config = EngineConfig(
            backend="linear", fault_policy="degrade", max_retries=5,
            chunk_timeout_s=1.5,
        )
        with Engine.open(config, acl_small) as engine:
            policy = engine.pipeline.policy
        assert policy.fault_policy == "degrade"
        assert policy.max_retries == 5
        assert policy.chunk_timeout_s == 1.5


# ---------------------------------------------------------------------------
# Ingestion quarantine
# ---------------------------------------------------------------------------
BAD_TRACE = """\
1 2 3 4 5 -1
# a comment line
10 20 30 40 50 -1
7 8 9
10 20 oops 40 50
-3 2 3 4 5

99999999999 2 3 4 5
6 7 8 9 10 -1
"""


class TestQuarantine:
    GOOD_ROWS = [[1, 2, 3, 4, 5], [10, 20, 30, 40, 50], [6, 7, 8, 9, 10]]
    BAD = [
        (4, "expected >= 5 columns, got 3"),
        (5, "non-numeric header field"),
        (6, "negative header field"),
        (8, "header field out of 32-bit range"),
    ]

    def test_quarantine_keeps_good_rows_in_order(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(BAD_TRACE)
        log = QuarantineLog()
        segments = list(iter_trace_file(
            str(path), segment_packets=4, on_malformed="quarantine",
            quarantine=log,
        ))
        headers = np.concatenate([s.headers for s in segments])
        assert headers.tolist() == self.GOOD_ROWS
        assert log.count == len(self.BAD)
        assert [(e[0], e[2]) for e in log.entries] == self.BAD
        assert log.dropped == 0

    def test_raise_mode_unchanged(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(BAD_TRACE)
        with pytest.raises(PacketFormatError):
            list(iter_trace_file(str(path), segment_packets=4))

    def test_bounded_buffer_overflow_counts(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(BAD_TRACE)
        log = QuarantineLog(max_entries=2)
        list(iter_trace_file(
            str(path), segment_packets=4, on_malformed="quarantine",
            quarantine=log,
        ))
        assert log.count == len(self.BAD)
        assert len(log.entries) == 2
        assert log.dropped == 2
        assert log.to_dict()["dropped"] == 2

    def test_engine_counts_quarantined_packets(self, tmp_path, acl_small):
        path = tmp_path / "trace.txt"
        path.write_text(BAD_TRACE)
        config = EngineConfig(
            backend="linear", chunk_size=CHUNK, on_malformed="quarantine",
        )
        with Engine.open(config, acl_small) as engine:
            assert isinstance(engine.quarantine, QuarantineLog)
            report = engine.classify_stream(iter_trace_file(
                str(path), segment_packets=4, on_malformed="quarantine",
                quarantine=engine.quarantine,
            ))
            assert engine.last_stream_fault.quarantined == len(self.BAD)
        assert report.n_packets == len(self.GOOD_ROWS)
        assert report.fault.quarantined == len(self.BAD)

    # A field one past 32 bits in an otherwise clean segment: the
    # vectorised parse succeeds, so only the range check can catch it
    # (it used to be served as 0, wrapped by ``astype(uint32)``).
    WRAPPING_TRACE = "1 2 3 4 5\n4294967296 2 3 4 5\n4294967295 2 3 4 5\n"

    def test_raise_mode_rejects_a_field_beyond_32_bits(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(self.WRAPPING_TRACE)
        with pytest.raises(PacketFormatError, match="32-bit range"):
            list(iter_trace_file(str(path)))

    def test_quarantine_mode_dead_letters_a_field_beyond_32_bits(
        self, tmp_path
    ):
        path = tmp_path / "trace.txt"
        path.write_text(self.WRAPPING_TRACE)
        log = QuarantineLog()
        segments = list(iter_trace_file(
            str(path), on_malformed="quarantine", quarantine=log,
        ))
        headers = np.concatenate([s.headers for s in segments])
        assert headers.tolist() == [[1, 2, 3, 4, 5], [4294967295, 2, 3, 4, 5]]
        assert [(e[0], e[2]) for e in log.entries] == [
            (2, "header field out of 32-bit range")
        ]

    def test_invalid_policy_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1 2 3 4 5\n")
        with pytest.raises(ConfigError):
            list(iter_trace_file(str(path), on_malformed="drop"))


# ---------------------------------------------------------------------------
# Typed errors and plan plumbing
# ---------------------------------------------------------------------------
class TestErrorAndPlanPlumbing:
    def test_serving_fault_errors_survive_pickling(self):
        for exc in (
            WorkerCrashError("w", shard=7, chunk=3, cause="exit:70"),
            ServingFaultError("s", tier="inline", chunk=1),
            InjectedFault("i", kind="error", chunk=2, shard=1),
            IngestError("g", segment=4, cause="io"),
        ):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)
            for attr in ("shard", "chunk", "tier", "segment", "kind"):
                assert getattr(clone, attr, None) == getattr(exc, attr, None)

    def test_plan_round_trips_json(self, tmp_path):
        plan = FaultPlan(
            (
                FaultSpec(kind="crash", chunk=1),
                FaultSpec(kind="hang", chunk=2, seconds=0.5, times=2),
                FaultSpec(kind="ingest", segment=3),
            ),
            seed=9,
        )
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert FaultPlan.load(str(path)) == plan
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.coerce(str(path)) == plan
        assert FaultPlan.coerce(path) == plan  # a pathlib.Path too
        assert FaultPlan.coerce(list(plan.specs)) == FaultPlan(plan.specs)
        assert FaultPlan.coerce(None) is None

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="meteor")
        with pytest.raises(ConfigError):
            FaultSpec(kind="crash", times=0)
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"specs": [{"kind": "crash", "zap": 1}]})
        with pytest.raises(ConfigError):
            FaultPlan.coerce(object())

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            SupervisionPolicy(fault_policy="panic")
        with pytest.raises(ConfigError):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            SupervisionPolicy(chunk_timeout_s=-0.1)

    def test_backoff_is_deterministic_and_bounded(self):
        from repro.engine import Supervisor

        a = Supervisor(SupervisionPolicy(seed=3))
        b = Supervisor(SupervisionPolicy(seed=3))
        seq_a = [a.backoff_s(i) for i in range(5)]
        seq_b = [b.backoff_s(i) for i in range(5)]
        assert seq_a == seq_b  # seeded jitter
        assert all(s <= a.policy.backoff_max_s for s in seq_a)
        assert seq_a[1] > seq_a[0] * 0.9  # roughly exponential


# ---------------------------------------------------------------------------
# Supervisor.retry: the one recovery loop every site hands a step to
# ---------------------------------------------------------------------------
def failing_until(good_from: int, *causes):
    """A ``step(attempt)`` raising ``causes[attempt]`` (the last one
    again past the end) until ``good_from``, then returning "served"."""
    calls = []

    def step(attempt):
        calls.append(attempt)
        if attempt < good_from:
            raise causes[min(attempt, len(causes) - 1)]
        return "served"

    return step, calls


class TestSupervisorRetry:
    def test_fail_raises_the_typed_error_on_the_first_failure(self):
        sup = Supervisor(SupervisionPolicy(fault_policy="fail"))
        report = FaultReport()
        step, calls = failing_until(9, InjectedFault("boom", kind="error"))
        with pytest.raises(ServingFaultError) as excinfo:
            sup.retry(step, report, tier="inline", chunk=3, shard=1)
        exc = excinfo.value
        assert (exc.tier, exc.chunk, exc.shard) == ("inline", 3, 1)
        assert isinstance(exc.cause, InjectedFault)
        assert calls == [0]
        assert report.chunk_errors == 1
        assert (report.retries, report.replays, report.recovery_s) == (0, 0, [])

    def test_each_retry_counts_replays_backs_off_and_times_recovery(
        self, monkeypatch
    ):
        policy = SupervisionPolicy(fault_policy="retry", max_retries=3, seed=5)
        sup, twin = Supervisor(policy), Supervisor(policy)
        slept = []
        monkeypatch.setattr(supervision.time, "sleep", slept.append)
        report = FaultReport()
        step, calls = failing_until(2, InjectedFault("boom", kind="error"))
        served = sup.retry(
            step, report, tier="update", counter="update_retries", replays=4
        )
        assert served == "served"
        assert calls == [0, 1, 2]
        assert report.update_retries == 2
        assert report.retries == 0
        assert report.replays == 8
        assert report.chunk_errors == 2
        assert len(report.recovery_s) == 2
        assert slept == [twin.backoff_s(0), twin.backoff_s(1)]

    def test_exhausted_retries_wrap_the_last_cause(self):
        sup = Supervisor(retry_policy(max_retries=1))
        report = FaultReport()
        last = ChunkTimeoutError("late", chunk=5, shard=0, cause="timeout")
        step, calls = failing_until(9, InjectedFault("boom"), last)
        with pytest.raises(ServingFaultError) as excinfo:
            sup.retry(step, report, tier="forked")
        assert excinfo.value.cause is last
        assert excinfo.value.__cause__ is last
        assert (excinfo.value.tier, excinfo.value.chunk) == ("forked", 5)
        assert calls == [0, 1]
        assert (report.retries, report.chunk_errors, report.timeouts) == (1, 1, 1)

    @pytest.mark.parametrize(
        "exc", [ValueError("bug"), ConfigError("bad")],
        ids=["ValueError", "ConfigError"],
    )
    def test_unrecoverable_errors_propagate_uncounted(self, exc):
        sup = Supervisor(retry_policy())
        report = FaultReport()
        step, calls = failing_until(9, exc)
        with pytest.raises(type(exc)) as excinfo:
            sup.retry(step, report, tier="inline")
        assert excinfo.value is exc
        assert calls == [0]
        assert not report.any() and not report.recovery_s


# ---------------------------------------------------------------------------
# Hypothesis: fault placement never breaks bit-identity under retry
# ---------------------------------------------------------------------------
class TestFaultFuzz:
    @settings(max_examples=12, deadline=None)
    @given(
        chunk=st.integers(min_value=0, max_value=7),
        kind=st.sampled_from(["crash", "error"]),
        times=st.integers(min_value=1, max_value=2),
    )
    def test_thread_tier_any_placement(
        self, chunk, kind, times, acl_small, acl_small_trace,
        acl_small_oracle,
    ):
        policy = retry_policy(max_retries=3)
        with make_pipeline(
            acl_small, policy=policy, shard_mode="threads"
        ) as pipe:
            res = pipe.run(
                acl_small_trace,
                faults=[FaultSpec(kind=kind, chunk=chunk, times=times)],
            )
        assert np.array_equal(res.match, acl_small_oracle)
        assert res.fault.retries >= 1

    @settings(max_examples=8, deadline=None)
    @given(
        chunk=st.integers(min_value=0, max_value=7),
        policy=st.sampled_from(["retry", "degrade"]),
    )
    def test_inline_tier_any_placement(
        self, chunk, policy, acl_small, acl_small_trace, acl_small_oracle
    ):
        with make_pipeline(
            acl_small, policy=retry_policy(policy), shards=1
        ) as pipe:
            res = pipe.run(
                acl_small_trace, faults=[FaultSpec(kind="error", chunk=chunk)]
            )
        assert np.array_equal(res.match, acl_small_oracle)
        assert res.fault.retries >= 1


# ---------------------------------------------------------------------------
# Multi-tenant chaos: one tenant's faults never touch another's bytes
# ---------------------------------------------------------------------------
class TestMultiTenantChaos:
    """Two-tenant fleets where every injected fault lands on tenant A
    ("chaotic"); tenant B ("quiet") must finish byte-for-byte identical
    to a private single-tenant session, whatever A's policy does."""

    QUIET_CONFIG = EngineConfig(backend="linear", chunk_size=CHUNK)

    def _fleet(self, acl_small, fw_small, config_a):
        tenants = [
            (TenantSpec("chaotic", config_a), acl_small),
            (TenantSpec("quiet", self.QUIET_CONFIG), fw_small),
        ]
        return tenants

    @pytest.fixture(scope="class")
    def quiet_trace(self, fw_small):
        return generate_trace(fw_small, 1500, seed=211)

    @pytest.fixture(scope="class")
    def quiet_oracle(self, fw_small, quiet_trace):
        with Engine.open(self.QUIET_CONFIG, fw_small) as engine:
            return engine.classify(quiet_trace).match

    @pytest.mark.parametrize("kind", ["crash", "arena"])
    def test_retrying_tenant_recovers_and_neighbour_is_untouched(
        self, kind, acl_small, fw_small, acl_small_trace, acl_small_oracle,
        quiet_trace, quiet_oracle,
    ):
        # The arena transport is where arena faults inject, and a
        # crash on the forked tier also exercises the pool lease.
        config_a = EngineConfig(
            backend="linear", chunk_size=CHUNK, shards=2,
            shard_mode="processes", fault_policy="retry",
            min_chunk_packets=0,
        )
        tenants = self._fleet(acl_small, fw_small, config_a)
        faults = {"chaotic": [FaultSpec(kind=kind, segment=1)]}
        with MultiTenantEngine.open(tenants) as mte:
            report = mte.serve(
                {"chaotic": acl_small_trace, "quiet": quiet_trace},
                faults=faults, segment_packets=2 * CHUNK,
            )
        by_name = {t.name: t for t in report.tenants}
        chaotic, quiet = by_name["chaotic"], by_name["quiet"]
        assert chaotic.fault is None  # its own retry policy recovered
        assert chaotic.report.fault.retries >= 1
        assert np.array_equal(chaotic.report.match, acl_small_oracle)
        assert quiet.fault is None
        assert quiet.report.fault is None or not quiet.report.fault.any()
        assert np.array_equal(quiet.report.match, quiet_oracle)

    def test_hanging_tenant_trips_deadline_not_the_fleet(
        self, acl_small, fw_small, acl_small_trace, acl_small_oracle,
        quiet_trace, quiet_oracle,
    ):
        config_a = EngineConfig(
            backend="linear", chunk_size=CHUNK, shards=2,
            shard_mode="processes", fault_policy="retry",
            chunk_timeout_s=0.5, min_chunk_packets=0,
        )
        tenants = self._fleet(acl_small, fw_small, config_a)
        faults = {
            "chaotic": [
                FaultSpec(kind="hang", segment=1, chunk=1, seconds=30.0)
            ]
        }
        with MultiTenantEngine.open(tenants) as mte:
            report = mte.serve(
                {"chaotic": acl_small_trace, "quiet": quiet_trace},
                faults=faults, segment_packets=2 * CHUNK,
            )
        by_name = {t.name: t for t in report.tenants}
        assert by_name["chaotic"].report.fault.timeouts == 1
        assert np.array_equal(
            by_name["chaotic"].report.match, acl_small_oracle
        )
        assert np.array_equal(by_name["quiet"].report.match, quiet_oracle)

    def test_fail_policy_quarantines_tenant_only(
        self, acl_small, fw_small, acl_small_trace, quiet_trace,
        quiet_oracle,
    ):
        # Default fail posture: the first crash is terminal for the
        # tenant (quarantined, out of the rotation) but never for the
        # session — the quiet tenant's bytes don't move.
        config_a = EngineConfig(
            backend="linear", chunk_size=CHUNK, shards=2,
            shard_mode="processes", min_chunk_packets=0,
        )
        tenants = self._fleet(acl_small, fw_small, config_a)
        faults = {"chaotic": [FaultSpec(kind="crash", chunk=0, segment=1)]}
        with MultiTenantEngine.open(tenants) as mte:
            report = mte.serve(
                {"chaotic": acl_small_trace, "quiet": quiet_trace},
                faults=faults, segment_packets=2 * CHUNK,
            )
        by_name = {t.name: t for t in report.tenants}
        chaotic, quiet = by_name["chaotic"], by_name["quiet"]
        assert chaotic.fault is not None
        assert "ServingFaultError" in chaotic.fault
        # It served segment 0 before the injected crash cut it off.
        assert 0 < chaotic.n_packets < acl_small_trace.n_packets
        assert quiet.fault is None
        assert quiet.n_packets == quiet_trace.n_packets
        assert np.array_equal(quiet.report.match, quiet_oracle)
