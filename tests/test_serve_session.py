"""`Engine` sessions: stream/classify bit-identity and lifecycle.

The acceptance contract of the serving redesign: ``Engine.stream`` is
bit-identical to ``Engine.classify`` (and to driving the underlying
``ClassificationPipeline`` directly, the PR 4 surface) across
backend x shards x cache x updates.  Streamed sessions
must also behave like sessions: lazy start, everything on the calling
thread (no thread is ever started), clean early exit, errors in the
segment source surfaced to the consumer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Engine, EngineConfig, PacketTrace
from repro.algorithms import native
from repro.classbench import generate_update_stream
from repro.core.errors import ConfigError, PacketFormatError
from repro.engine import ClassificationPipeline, FaultReport
from repro.serve import (
    EngineReport,
    MultiTenantEngine,
    iter_trace_file,
    iter_trace_segments,
)


def _thread_names() -> set[str]:
    return {t.name for t in threading.enumerate()}


class _RecordingClassifier:
    """A real backend behind a ``classify_batch`` that records which
    thread called it."""

    batch_stats = None  # route the pipeline through classify_batch

    def __init__(self, inner) -> None:
        self.inner = inner
        self.threads: list[int] = []

    def classify_batch(self, headers):
        self.threads.append(threading.get_ident())
        return self.inner.classify_batch(headers)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture()
def update_schedule(acl_small, acl_small_trace):
    return generate_update_stream(
        acl_small, 24, acl_small_trace.n_packets, batch_size=6, seed=402
    )


# ---------------------------------------------------------------------------
# Conformance: stream == classify == pipeline, across the matrix
# ---------------------------------------------------------------------------
class TestStreamConformance:
    @pytest.mark.parametrize("backend", [
        "linear", "tuple_space", "rfc", "hypercuts", "tcam",
    ])
    def test_stream_matches_classify_per_backend(
        self, backend, acl_small, acl_small_trace
    ):
        config = EngineConfig(backend=backend, chunk_size=512)
        with Engine.open(config, acl_small) as engine:
            want = engine.classifier.classify_trace(acl_small_trace)
            one_shot = engine.classify(acl_small_trace)
            streamed = engine.classify_stream(
                acl_small_trace, segment_packets=768  # deliberately odd
            )
        assert np.array_equal(one_shot.match, want)
        assert np.array_equal(streamed.match, want)

    @pytest.mark.parametrize(
        ("shards", "cache_entries"), [(1, 0), (2, 0), (2, 512)]
    )
    def test_stream_matches_pipeline_across_pool_modes(
        self, shards, cache_entries, acl_small, acl_small_trace
    ):
        config = EngineConfig(
            backend="hypercuts", chunk_size=256, shards=shards,
            cache_entries=cache_entries,
        )
        with Engine.open(config, acl_small) as engine:
            # The PR 4 surface, driven directly on the same classifier.
            with ClassificationPipeline(
                engine.classifier, chunk_size=256, shards=shards
            ) as pipeline:
                want = pipeline.run(acl_small_trace).match
            streamed = engine.classify_stream(
                acl_small_trace, segment_packets=512
            )
            one_shot = engine.classify(acl_small_trace)
        assert np.array_equal(streamed.match, want)
        assert np.array_equal(one_shot.match, want)

    def test_unaligned_segments_still_identical_without_updates(
        self, acl_small, acl_small_trace
    ):
        config = EngineConfig(backend="tuple_space", chunk_size=512)
        with Engine.open(config, acl_small) as engine:
            want = engine.classify(acl_small_trace).match
            # Segment lengths deliberately coprime with the chunk size.
            streamed = engine.classify_stream(
                acl_small_trace, segment_packets=313
            )
        assert np.array_equal(streamed.match, want)
        assert streamed.n_segments == -(-acl_small_trace.n_packets // 313)

    def test_raw_header_arrays_accepted_as_segments(
        self, acl_small, acl_small_trace
    ):
        config = EngineConfig(backend="linear", chunk_size=512)
        headers = acl_small_trace.headers
        with Engine.open(config, acl_small) as engine:
            want = engine.classify(acl_small_trace).match
            streamed = engine.classify_stream(
                [headers[:700], headers[700:1200], headers[1200:]]
            )
        assert np.array_equal(streamed.match, want)

    @pytest.mark.parametrize(
        ("backend", "software"), [("hypercuts", False), ("rfc", True)]
    )
    def test_classify_is_the_pipeline_run_plus_the_energy_stamp(
        self, backend, software, acl_small, acl_small_trace
    ):
        config = EngineConfig(
            backend=backend, software=software, chunk_size=512,
            cache_entries=0, energy_model="asic",
        )
        with Engine.open(config, acl_small) as engine:
            run = engine.pipeline.run(acl_small_trace)
            report = engine.classify(acl_small_trace)
        assert type(run) is type(report) is EngineReport
        assert run.energy_model == "none"
        assert run.device_throughput_pps is None
        assert report.energy_model == "asic"
        if software:
            assert report.mean_occupancy() is None
            assert report.device_throughput_pps is None
            assert report.energy_per_packet_j is None
        else:
            assert report.device_throughput_pps == pytest.approx(
                226e6 / report.mean_occupancy()
            )
            assert report.energy_per_packet_j > 0
        # Everything but the stamp (and the wall clock) is the run's.
        stamped = {
            "energy_model", "device_throughput_pps", "energy_per_packet_j",
            "elapsed_s", "throughput_pps",
        }
        want, got = run.to_dict(), report.to_dict()
        assert set(got) - set(want) <= stamped
        assert {k: v for k, v in got.items() if k not in stamped} == {
            k: v for k, v in want.items() if k not in stamped
        }
        assert np.array_equal(report.match, run.match)
        assert report.chunks == run.chunks

    def test_tenant_aggregate_sums_the_isolated_runs(
        self, acl_small, acl_small_trace, update_schedule, monkeypatch
    ):
        """The fleet record is the tenants' counters summed — and the
        cache triple only when every tenant serves through a cache."""
        # Tenant "a" forks two owners on any host: plan() forks
        # min(shards, host_cpus()), and one owner serves inline.
        monkeypatch.setattr(native, "host_cpus", lambda: 2)
        cached = EngineConfig(
            backend="hicuts", updatable=True, chunk_size=256,
            cache_entries=256, shards=2, shard_mode="processes",
        )
        bare = EngineConfig(backend="linear", chunk_size=256)
        workloads = {"a": acl_small_trace, "b": acl_small_trace.subset(900)}

        def isolated(config, name, updates=None):
            with Engine.open(config, acl_small) as engine:
                return engine.classify_stream(
                    workloads[name], updates, segment_packets=512
                )

        # (One forking tenant: a worker-lease hand-over would re-fork
        # with cold shard caches, unlike the isolated run.)  Its churn
        # ends half way: segments that carry a batch serve in-process,
        # the two after them fork.
        churn = update_schedule[:2]
        cached_inline = EngineConfig.from_dict({**cached.to_dict(), "shards": 1})
        for second in (bare, cached_inline):
            with MultiTenantEngine.open([
                ({"name": "a", "config": cached.to_dict()}, acl_small),
                ({"name": "b", "config": second.to_dict()}, acl_small),
            ]) as fleet:
                report = fleet.serve(
                    workloads, updates={"a": churn}, segment_packets=512,
                )
            alone = [isolated(cached, "a", churn), isolated(second, "b")]
            for tenant, want in zip(report.tenants, alone):
                assert np.array_equal(tenant.report.match, want.match)
            if second is bare:
                assert report.cache_hits is None
                assert report.cache_hit_rate is None
                assert report.tenants[0].report.cache_hits is not None
            else:
                for name in ("cache_hits", "cache_misses", "cache_evictions"):
                    assert getattr(report, name) == sum(
                        getattr(r, name) for r in alone
                    )
            for name in ("update_batches", "update_ops", "update_skipped",
                         "n_packets", "matched", "n_chunks", "n_segments"):
                assert getattr(report, name) == sum(
                    getattr(r, name) for r in alone
                ), name
            assert report.update_batches == len(churn)
            assert len(report.update_latencies_s) == report.update_batches
            assert report.fault.to_dict() == FaultReport.merged(
                r.fault for r in alone
            ).to_dict()
            assert report.worker_cpu_s == pytest.approx(sum(
                t.report.worker_cpu_s for t in report.tenants
            ))
            assert report.worker_cpu_s > 0  # "a" forked once its churn ended


class TestStreamWithUpdates:
    @pytest.mark.parametrize(
        ("backend", "shards", "cache_entries"),
        [
            ("hicuts", 1, 0),
            ("hicuts", 2, 0),
            ("hicuts", 2, 256),
            ("tuple_space", 1, 0),  # rebuild-adapted backend
            ("tuple_space", 2, 256),
        ],
    )
    def test_streamed_updates_identical_to_one_shot(
        self, backend, shards, cache_entries,
        acl_small, acl_small_trace, update_schedule,
    ):
        config = EngineConfig(
            backend=backend, chunk_size=256, shards=shards,
            cache_entries=cache_entries, updatable=True,
        )
        with Engine.open(config, acl_small) as engine:
            one_shot = engine.classify(
                acl_small_trace, updates=update_schedule
            )
        with Engine.open(config, acl_small) as engine:
            # Segment length a multiple of chunk_size: the streamed
            # epoch boundaries then coincide with the one-shot ones.
            streamed = engine.classify_stream(
                acl_small_trace, updates=update_schedule,
                segment_packets=512,
            )
        assert np.array_equal(streamed.match, one_shot.match)
        assert streamed.final_epoch == one_shot.final_epoch
        assert streamed.update_ops == one_shot.update_ops == 24

    def test_only_the_segment_that_carries_a_batch_serves_in_process(
        self, acl_small, acl_small_trace, update_schedule
    ):
        """Forked workers never see an update: of six segments the
        third carries the one batch and is served in-process, closing
        the workers; the segments around it fork."""
        from repro.core.updates import ScheduledUpdate

        config = EngineConfig(
            backend="hicuts", updatable=True, chunk_size=64, shards=2,
            shard_mode="processes", min_chunk_packets=0,
        )
        churn = [ScheduledUpdate(900, update_schedule[0].batch)]
        with Engine.open({**config.to_dict(), "shards": 1}, acl_small) as ref:
            want = ref.classify(acl_small_trace, updates=churn)
        alive, served = [], []
        with Engine.open(config, acl_small) as engine:
            if not engine.pipeline._fork_available():  # pragma: no cover
                pytest.skip("fork multiprocessing unavailable")
            forked = engine.pipeline.plan(384).workers
            for chunk in engine.stream(
                acl_small_trace, churn, segment_packets=384
            ):
                alive.append(engine.pipeline.workers_alive)
                served.append(chunk.result)
        assert [r.update_batches for r in served] == [0, 0, 1, 0, 0, 0]
        assert alive == [True, True, False, True, True, True]
        assert [r.n_shards for r in served] == [forked, forked, 1] + [forked] * 3
        assert [r.worker_cpu_s > 0 for r in served] == alive
        assert np.array_equal(
            np.concatenate([r.match for r in served]), want.match
        )

    def test_updates_beyond_stream_end_apply_after(
        self, acl_small, acl_small_trace, update_schedule
    ):
        from repro.core.updates import ScheduledUpdate

        config = EngineConfig(
            backend="hicuts", chunk_size=256, updatable=True
        )
        n = acl_small_trace.n_packets
        late = [
            ScheduledUpdate(n + 1000, upd.batch) for upd in update_schedule
        ]
        with Engine.open(config, acl_small) as engine:
            report = engine.classify_stream(
                acl_small_trace, updates=late, segment_packets=512
            )
            # Matches must equal the un-updated classifier's output...
            fresh = Engine.build_classifier(config, acl_small)
            assert np.array_equal(
                report.match, fresh.classify_trace(acl_small_trace)
            )
            # ...but the session's ruleset version advanced afterwards.
            assert engine.classifier.update_epoch == len(late)
        assert report.final_epoch == len(late)

    def test_tail_updates_do_not_erase_cache_telemetry(
        self, acl_small, acl_small_trace, update_schedule
    ):
        # The zero-packet tail chunk carries no cache counters; merging
        # it must not null out the telemetry of the real segments.
        from repro.core.updates import ScheduledUpdate

        config = EngineConfig(
            backend="hicuts", chunk_size=256, updatable=True,
            cache_entries=256,
        )
        n = acl_small_trace.n_packets
        late = [ScheduledUpdate(n + 1, update_schedule[0].batch)]
        with Engine.open(config, acl_small) as engine:
            report = engine.classify_stream(
                acl_small_trace, updates=late, segment_packets=512
            )
        assert report.cache_hits is not None
        assert report.cache_hit_rate is not None
        assert report.final_epoch == 1

    def test_empty_segments_do_not_erase_cache_telemetry(
        self, acl_small, acl_small_trace
    ):
        config = EngineConfig(backend="linear", cache_entries=256,
                              chunk_size=512)
        headers = acl_small_trace.headers
        empty = headers[:0]
        with Engine.open(config, acl_small) as engine:
            report = engine.classify_stream(
                [headers[:512], empty, headers[512:1024]]
            )
        assert report.n_packets == 1024
        assert report.cache_hits is not None and report.cache_lookups == 1024

    def test_update_latency_percentiles_populated(
        self, acl_small, acl_small_trace, update_schedule
    ):
        config = EngineConfig(
            backend="hicuts", chunk_size=256, updatable=True
        )
        with Engine.open(config, acl_small) as engine:
            report = engine.classify(acl_small_trace, updates=update_schedule)
        pct = report.update_latency
        assert pct is not None
        assert pct["batches"] == report.update_batches == 4
        assert 0 < pct["p50_ms"] <= pct["p95_ms"] <= pct["p99_ms"]
        assert pct["p99_ms"] <= pct["max_ms"]
        assert report.to_dict()["update_latency"] == pct

    def test_updates_on_non_updatable_backend_rejected(
        self, acl_small, acl_small_trace, update_schedule
    ):
        config = EngineConfig(backend="linear", chunk_size=512)
        with Engine.open(config, acl_small) as engine:
            with pytest.raises(ConfigError, match="updatable"):
                engine.stream(acl_small_trace, updates=update_schedule)


# ---------------------------------------------------------------------------
# Session behaviour: laziness, teardown, error relay
# ---------------------------------------------------------------------------
class TestSessionLifecycle:
    def test_stream_is_lazy_and_early_exit_is_clean(
        self, acl_small, acl_small_trace
    ):
        config = EngineConfig(backend="linear", chunk_size=512)
        pulled = []

        def segments():
            for seg in iter_trace_segments(acl_small_trace, 256):
                pulled.append(seg.n_packets)
                yield seg

        before = _thread_names()
        with Engine.open(config, acl_small) as engine:
            it = engine.stream(segments())
            assert not pulled  # nothing runs until the first next()
            first = next(it)
            assert first.n_packets == 256 and first.start == 0
            it.close()  # early exit: nothing was started, nothing leaks
        for _ in range(100):
            if _thread_names() <= before:
                break
            threading.Event().wait(0.05)
        assert _thread_names() <= before
        # The source is pulled when the consumer asks, never ahead.
        assert len(pulled) == 1

    @pytest.mark.parametrize("shard_mode", ["auto", "processes", "threads"])
    def test_break_after_one_chunk_is_clean_in_every_shard_mode(
        self, shard_mode, acl_small, acl_small_trace
    ):
        # The consumer abandons mid-stream: the generator close must
        # leave no thread behind (none was ever started) and the engine
        # serviceable, in every shard mode.
        config = EngineConfig(
            backend="linear", chunk_size=256, shards=2,
            shard_mode=shard_mode,
        )
        before = _thread_names()
        with Engine.open(config, acl_small) as engine:
            want = engine.classify(acl_small_trace).match
            for chunk in engine.stream(
                iter_trace_segments(acl_small_trace, 256),
            ):
                assert chunk.index == 0 and chunk.n_packets == 256
                break  # consumer abandons mid-stream
            # The session stays serviceable after the abandoned stream.
            again = engine.classify(acl_small_trace)
            assert np.array_equal(again.match, want)
        for _ in range(100):
            if _thread_names() <= before:
                break
            threading.Event().wait(0.05)
        assert _thread_names() <= before

    @pytest.mark.parametrize("with_updates", [False, True])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_stream_runs_on_the_calling_thread(
        self, shards, with_updates, acl_small, acl_small_trace,
        update_schedule,
    ):
        # The design, pinned: a streamed session is pull -> classify ->
        # yield on whichever thread calls next().  Every source pull and
        # every classify_batch runs there, one pull per result, and the
        # process's thread count never moves.
        config = EngineConfig(
            backend="linear", chunk_size=256, shards=shards,
            shard_mode="threads", updatable=with_updates,
            min_chunk_packets=0,
        )
        recorder = _RecordingClassifier(
            Engine.build_classifier(config, acl_small)
        )
        pulls: list[int] = []

        def source():
            for seg in iter_trace_segments(acl_small_trace, 512):
                pulls.append(threading.get_ident())
                yield seg

        me = threading.get_ident()
        before = threading.active_count()
        with Engine(config, acl_small, classifier=recorder) as engine:
            stream = engine.stream(
                source(), update_schedule if with_updates else None
            )
            assert threading.active_count() == before
            for chunk in stream:
                assert threading.active_count() == before
                if chunk.n_packets:
                    assert len(pulls) == chunk.index + 1
            assert engine.pipeline.plan(512).workers == shards
        assert threading.active_count() == before
        assert len(pulls) == 4 and set(pulls) == {me}
        assert len(recorder.threads) >= 4 * shards
        assert set(recorder.threads) == {me}

    def test_no_thread_around_early_close_or_source_error(
        self, acl_small, acl_small_trace
    ):
        config = EngineConfig(
            backend="linear", chunk_size=256, shards=2,
            shard_mode="threads",
        )

        def broken():
            yield PacketTrace(
                acl_small_trace.headers[:512], acl_small_trace.schema
            )
            raise OSError("trace feed died")

        before = threading.active_count()
        with Engine.open(config, acl_small) as engine:
            stream = engine.stream(acl_small_trace, segment_packets=512)
            next(stream)
            assert threading.active_count() == before
            stream.close()
            assert threading.active_count() == before
            stream = engine.stream(broken())
            next(stream)
            assert threading.active_count() == before
            with pytest.raises(OSError, match="trace feed died"):
                next(stream)
            assert threading.active_count() == before

    def test_segment_source_error_reaches_consumer(
        self, acl_small, acl_small_trace
    ):
        config = EngineConfig(backend="linear", chunk_size=512)

        def broken():
            yield PacketTrace(
                acl_small_trace.headers[:256], acl_small_trace.schema
            )
            raise OSError("trace feed died")

        with Engine.open(config, acl_small) as engine:
            with pytest.raises(OSError, match="trace feed died"):
                for _ in engine.stream(broken()):
                    pass

    def test_empty_segment_source_yields_no_chunks(self, acl_small):
        config = EngineConfig(backend="linear", chunk_size=512)
        with Engine.open(config, acl_small) as engine:
            assert list(engine.stream(iter([]))) == []
            report = engine.classify_stream(iter([]))
        assert report.n_packets == 0 and report.n_segments == 0

    def test_chunk_results_carry_stream_offsets(
        self, acl_small, acl_small_trace
    ):
        config = EngineConfig(backend="linear", chunk_size=512)
        with Engine.open(config, acl_small) as engine:
            chunks = list(engine.stream(acl_small_trace, segment_packets=512))
        starts = [c.start for c in chunks]
        assert starts == list(range(0, acl_small_trace.n_packets, 512))
        assert [c.index for c in chunks] == list(range(len(chunks)))
        total = sum(c.n_packets for c in chunks)
        assert total == acl_small_trace.n_packets

    def test_merged_report_chunks_use_stream_coordinates(
        self, acl_small, acl_small_trace
    ):
        # Per-segment ChunkStats are rebased when merged: indices run
        # over the whole stream and starts are absolute offsets into
        # the merged match array.  min_chunk_packets=0 pins the chunk
        # grid to chunk_size (the default coalesces each segment into
        # one dispatch).
        config = EngineConfig(
            backend="linear", chunk_size=256, min_chunk_packets=0
        )
        with Engine.open(config, acl_small) as engine:
            report = engine.classify_stream(
                acl_small_trace, segment_packets=512
            )
        assert [c.index for c in report.chunks] == list(
            range(len(report.chunks))
        )
        assert [c.start for c in report.chunks] == list(
            range(0, acl_small_trace.n_packets, 256)
        )
        assert report.n_chunks == len(report.chunks)

    def test_bad_stream_knobs_rejected(self, acl_small_trace):
        with pytest.raises(ConfigError, match="segment_packets"):
            list(iter_trace_segments(acl_small_trace, 0))

    def test_engine_accepts_dict_config_and_rejects_junk(self, acl_small):
        with Engine.open(
            {"backend": "linear", "chunk_size": 512}, acl_small
        ) as engine:
            assert engine.config == EngineConfig(
                backend="linear", chunk_size=512
            )
        with pytest.raises(ConfigError, match="EngineConfig"):
            Engine.open("linear", acl_small)

    def test_classify_and_stream_are_served_by_the_same_workers(
        self, acl_small, acl_small_trace
    ):
        # One engine, one set of held workers: forked by the first
        # sharded run, reused by every later classify() and stream()
        # (no per-run or per-stream re-fork), released by close().
        config = EngineConfig(
            backend="linear", chunk_size=256, shards=2, persistent=False,
            shard_mode="processes", min_chunk_packets=0,
        )
        if not ClassificationPipeline._fork_available():  # pragma: no cover
            pytest.skip("fork multiprocessing unavailable")

        def worker_pids(engine):
            return [proc.pid for proc in engine.pipeline._workers.procs]

        with Engine.open(config, acl_small) as engine:
            want = engine.classify(acl_small_trace).match
            pids = worker_pids(engine)
            assert len(pids) == engine.pipeline.plan(
                acl_small_trace.n_packets
            ).workers
            chunks = list(engine.stream(acl_small_trace, segment_packets=512))
            assert worker_pids(engine) == pids
            got = np.concatenate([c.match for c in chunks])
            again = engine.classify(acl_small_trace).match
            assert worker_pids(engine) == pids
        assert not engine.pool_engaged
        assert np.array_equal(got, want)
        assert np.array_equal(again, want)

    def test_workers_owned_by_session(self, acl_small, acl_small_trace):
        config = EngineConfig(
            backend="linear", chunk_size=256, shards=2,
            # Force the fork tier: "auto" declines a 1-worker fork on a
            # single-CPU host, and this test pins worker ownership.
            shard_mode="processes", min_chunk_packets=0,
        )
        engine = Engine.open(config, acl_small)
        try:
            engine.classify(acl_small_trace)
            engaged = engine.pool_engaged
        finally:
            engine.close()
        assert not engine.pool_engaged
        if ClassificationPipeline._fork_available():
            assert engaged


# ---------------------------------------------------------------------------
# File-backed ingestion
# ---------------------------------------------------------------------------
class TestIterTraceFile:
    def test_file_segments_match_memory_segments(
        self, tmp_path, acl_small, acl_small_trace
    ):
        path = str(tmp_path / "trace.txt")
        acl_small_trace.save(path)
        segs = list(iter_trace_file(path, segment_packets=700))
        got = np.concatenate([s.headers for s in segs])
        assert np.array_equal(got, acl_small_trace.headers)
        assert [s.n_packets for s in segs][:2] == [700, 700]

    def test_streamed_file_identical_to_loaded_file(
        self, tmp_path, acl_small, acl_small_trace
    ):
        path = str(tmp_path / "trace.txt")
        acl_small_trace.save(path)
        config = EngineConfig(backend="tuple_space", chunk_size=512)
        with Engine.open(config, acl_small) as engine:
            want = engine.classify(PacketTrace.load(path)).match
            streamed = engine.classify_stream(
                iter_trace_file(path, segment_packets=512)
            )
        assert np.array_equal(streamed.match, want)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n1\t2\t3\t4\t5\t-1\n6\t7\t8\t9\t1\t-1\n")
        segs = list(iter_trace_file(str(path), segment_packets=10))
        assert sum(s.n_packets for s in segs) == 2
        assert segs[0].headers[0].tolist() == [1, 2, 3, 4, 5]

    def test_malformed_line_raises_packet_format_error(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1\t2\t3\t4\t5\t-1\n1\t2\tbroken\n")
        with pytest.raises(PacketFormatError):
            list(iter_trace_file(str(path), segment_packets=10))


# ---------------------------------------------------------------------------
# QuarantineLog edge cases (the dead-letter side of on_malformed)
# ---------------------------------------------------------------------------
class TestQuarantineLog:
    def test_bounded_overflow_keeps_counting(self):
        from repro.serve.ingest import QuarantineLog

        log = QuarantineLog(max_entries=2)
        for lineno in range(1, 6):
            log.record(lineno, f"bad line {lineno}", "non-numeric")
        assert log.count == 5
        assert len(log.entries) == 2  # first two retained, rest counted
        assert log.dropped == 3
        assert [e[0] for e in log.entries] == [1, 2]
        out = log.to_dict()
        assert out["count"] == 5 and out["dropped"] == 3
        assert len(out["entries"]) == 2

    def test_zero_capacity_counts_only(self):
        from repro.serve.ingest import QuarantineLog

        log = QuarantineLog(max_entries=0)
        log.record(7, "x", "negative header field")
        assert log.count == 1 and log.entries == [] and log.dropped == 1
        assert bool(log)

    def test_negative_capacity_rejected(self):
        from repro.serve.ingest import QuarantineLog

        with pytest.raises(ConfigError, match="max_entries"):
            QuarantineLog(max_entries=-1)

    def test_clear_resets_counts(self):
        from repro.serve.ingest import QuarantineLog

        log = QuarantineLog()
        log.record(1, "x", "r")
        log.clear()
        assert log.count == 0 and not log.entries and not bool(log)

    def test_salvage_records_every_reason(self, tmp_path):
        from repro.serve.ingest import QuarantineLog

        path = tmp_path / "trace.txt"
        path.write_text(
            "1 2 3 4 5\n"            # good
            "1 2 3\n"                 # too few columns
            "1 2 three 4 5\n"         # non-numeric
            "1 2 -3 4 5\n"            # negative
            "1 2 3 4 99999999999\n"   # out of 32-bit range
            "6 7 8 9 1\n"             # good
        )
        log = QuarantineLog()
        segs = list(
            iter_trace_file(
                str(path), segment_packets=10,
                on_malformed="quarantine", quarantine=log,
            )
        )
        assert sum(s.n_packets for s in segs) == 2
        assert log.count == 4
        reasons = [r for _, _, r in log.entries]
        assert "expected >= 5 columns, got 3" in reasons
        assert "non-numeric header field" in reasons
        assert "negative header field" in reasons
        assert "header field out of 32-bit range" in reasons
        # Absolute 1-based line numbers of the bad lines, in order.
        assert [e[0] for e in log.entries] == [2, 3, 4, 5]

    def test_quarantined_count_reaches_report_to_dict(
        self, tmp_path, acl_small, acl_small_trace
    ):
        path = str(tmp_path / "trace.txt")
        acl_small_trace.save(path)
        with open(path, "a", encoding="ascii") as fh:
            fh.write("totally broken\n1 2 3\n")
        config = EngineConfig(
            backend="tuple_space", on_malformed="quarantine"
        )
        with Engine.open(config, acl_small) as engine:
            report = engine.classify_stream(
                iter_trace_file(
                    path, segment_packets=512,
                    on_malformed="quarantine",
                    quarantine=engine.quarantine,
                )
            )
        assert report.n_packets == acl_small_trace.n_packets
        assert engine.quarantine.count == 2
        out = report.to_dict()
        assert out["fault"]["quarantined"] == 2
