"""Sharded streaming pipeline: exactness, aggregation, and edge cases.

The load-bearing property: at every shard count the pipeline's output is
bit-for-bit identical to single-shot ``classify_trace`` — chunking and
multiprocessing must never change classification results.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import multiprocessing
import os
import threading
import weakref

import numpy as np
import pytest

from repro import Engine, EngineConfig, PacketTrace
from repro.algorithms import native
from repro.core.rules import FIVE_TUPLE
from repro.core.errors import ConfigError, ServingFaultError
from repro.core.updates import ScheduledUpdate, remove_op
from repro.energy import asic_model
from repro.engine import (
    CachedClassifier,
    ClassificationPipeline,
    EngineReport,
    FaultSpec,
    SupervisionPolicy,
    build_backend,
    build_updatable_backend,
)


@pytest.fixture(scope="module")
def acc_small(acl_small):
    return build_backend("accelerator", acl_small)


class TestExactness:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_single_shot_accelerator(
        self, acc_small, acl_small_trace, shards
    ):
        single = acc_small.classify_trace(acl_small_trace)
        res = ClassificationPipeline(
            acc_small, chunk_size=300, shards=shards
        ).run(acl_small_trace)
        assert np.array_equal(res.match, single)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["linear", "hicuts", "tuple_space"])
    def test_matches_single_shot_software(
        self, backend, shards, acl_small, acl_small_trace, acl_small_oracle
    ):
        clf = build_backend(backend, acl_small)
        res = ClassificationPipeline(
            clf, chunk_size=333, shards=shards
        ).run(acl_small_trace)
        assert np.array_equal(res.match, acl_small_oracle)

    def test_uneven_final_chunk(self, acc_small, acl_small_trace):
        # 2000 packets, chunk 750 -> chunks of 750/750/500.
        res = ClassificationPipeline(acc_small, chunk_size=750).run(
            acl_small_trace
        )
        assert [c.n_packets for c in res.chunks] == [750, 750, 500]
        assert res.n_packets == acl_small_trace.n_packets


class TestAggregation:
    def test_chunk_stats_sum_to_totals(self, acc_small, acl_small_trace):
        res = ClassificationPipeline(acc_small, chunk_size=256, shards=2).run(
            acl_small_trace
        )
        assert sum(c.n_packets for c in res.chunks) == res.n_packets
        assert sum(c.matched for c in res.chunks) == res.matched
        assert res.occupancy is not None
        assert sum(c.occupancy_sum for c in res.chunks) == int(
            res.occupancy.sum()
        )
        assert 0.0 <= res.matched_fraction <= 1.0

    def test_occupancy_matches_run_trace(self, acc_small, acl_small_trace):
        run = acc_small.run_trace(acl_small_trace)
        res = ClassificationPipeline(acc_small, chunk_size=512).run(
            acl_small_trace
        )
        assert res.mean_occupancy() == pytest.approx(run.mean_occupancy())

    def test_device_throughput_and_energy(self, acc_small, acl_small_trace):
        res = ClassificationPipeline(acc_small, chunk_size=512).run(
            acl_small_trace
        )
        assert res.device_throughput_pps is None  # no energy model yet
        res.with_energy("asic")
        mo = res.mean_occupancy()
        assert mo is not None and mo >= 1.0
        assert res.device_throughput_pps == pytest.approx(226e6 / mo)
        model = asic_model()
        assert res.energy_per_packet_j == pytest.approx(
            model.energy_per_packet_j(mo)
        )
        assert res.throughput_pps > 0

    def test_software_backend_has_no_occupancy(self, acl_small, acl_small_trace):
        res = ClassificationPipeline(
            build_backend("linear", acl_small), chunk_size=512
        ).run(acl_small_trace)
        assert res.occupancy is None
        assert res.mean_occupancy() is None
        assert res.with_energy("asic").device_throughput_pps is None

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("kind", ["bare", "cached", "updatable"])
    def test_run_returns_the_engine_report(
        self, kind, shards, acl_small, acl_small_trace, acl_small_oracle
    ):
        """One record: what ``run`` returns is what every layer above
        passes on, and merging one run gives that run back."""
        clf = {
            "bare": lambda: build_backend("accelerator", acl_small),
            "cached": lambda: CachedClassifier(
                build_backend("accelerator", acl_small), entries=256
            ),
            "updatable": lambda: build_updatable_backend(
                "incremental", acl_small
            ),
        }[kind]()
        updates = None
        if kind == "updatable":
            updates = [ScheduledUpdate(700, (remove_op(0), remove_op(0)))]
        with ClassificationPipeline(
            clf, chunk_size=256, shards=shards
        ) as pipeline:
            res = pipeline.run(acl_small_trace, updates=updates)
        assert type(res) is EngineReport
        assert res.n_segments == 1 and res.n_chunks == len(res.chunks)
        assert res.n_packets == acl_small_trace.n_packets
        assert res.matched == int((res.match >= 0).sum())
        assert (res.cache_hits is None) == (kind != "cached")
        if kind == "updatable":
            assert (res.update_batches, res.update_ops) == (1, 2)
            assert res.update_skipped == 1  # the second removal of id 0
            assert res.final_epoch == res.first_epoch + 1
            assert len(res.update_latencies_s) == 1
        else:
            assert np.array_equal(res.match, acl_small_oracle)
            assert res.update_batches == 0 and res.final_epoch is None

        merged = EngineReport.merge([res], res.elapsed_s)
        assert np.array_equal(merged.match, res.match)
        if res.occupancy is None:
            assert merged.occupancy is None
        else:
            assert np.array_equal(merged.occupancy, res.occupancy)
        for name in (
            "backend", "n_packets", "matched", "elapsed_s", "n_shards",
            "chunk_size", "n_chunks", "n_segments", "chunks",
            "cache_hits", "cache_misses", "cache_evictions",
            "update_batches", "update_ops", "update_skipped",
            "update_latencies_s", "final_epoch", "worker_cpu_s",
        ):
            assert getattr(merged, name) == getattr(res, name), name
        assert merged.fault.to_dict() == res.fault.to_dict()
        assert merged.to_dict() == res.to_dict()


@pytest.mark.usefixtures("portable_kernel")
class TestAggregationPortable:
    """The served occupancy against ``run_trace`` on the portable walk,
    where both come from the NumPy formula (the class above runs it on
    the default kernel, where the C loop counts the cycles)."""

    test_occupancy_matches_run_trace = (
        TestAggregation.test_occupancy_matches_run_trace
    )


def _leftovers(names=()):
    """Live shard workers of this process and, of ``names``, the arena
    segments still linked in ``/dev/shm``."""
    workers = sorted(
        proc.name for proc in multiprocessing.active_children()
        if proc.name.startswith("repro-shard-")
    )
    return workers, [n for n in names if os.path.exists(f"/dev/shm/{n}")]


class TestHeldWorkers:
    """The forked tier: workers held across runs, shared-memory arena
    transport."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_bit_identical_across_repeated_runs(
        self, acc_small, acl_small_trace, shards
    ):
        single = acc_small.classify_trace(acl_small_trace)
        run = acc_small.run_trace(acl_small_trace)
        # ``persistent`` is still accepted (a deprecated no-op).
        with ClassificationPipeline(
            acc_small, chunk_size=300, shards=shards, persistent=True
        ) as pipeline:
            for _ in range(3):
                res = pipeline.run(acl_small_trace)
                assert np.array_equal(res.match, single)
                assert res.occupancy is not None
                assert np.array_equal(res.occupancy, run.occupancy)

    def test_matches_inline_tier_chunk_stats(
        self, acc_small, acl_small_trace
    ):
        inline = ClassificationPipeline(acc_small, chunk_size=256).run(
            acl_small_trace
        )
        with ClassificationPipeline(
            acc_small, chunk_size=256, shards=2
        ) as pipeline:
            forked = pipeline.run(acl_small_trace)
        assert np.array_equal(forked.match, inline.match)
        assert [
            (c.index, c.start, c.n_packets, c.matched, c.occupancy_sum)
            for c in forked.chunks
        ] == [
            (c.index, c.start, c.n_packets, c.matched, c.occupancy_sum)
            for c in inline.chunks
        ]

    def test_worker_cpu_is_reported(self, acl_small, acl_small_trace):
        # Held workers are reaped at close(), so their CPU time never
        # shows in the caller's RUSAGE_CHILDREN around a run: every
        # reply carries it instead.
        config = EngineConfig(
            backend="linear", chunk_size=256, shards=2,
            shard_mode="processes", min_chunk_packets=0,
        )
        with Engine.open(config, acl_small) as engine:
            if not engine.pipeline._fork_available():  # pragma: no cover
                pytest.skip("fork multiprocessing unavailable")
            forked = engine.classify(acl_small_trace)
        inline = ClassificationPipeline(
            build_backend("linear", acl_small), chunk_size=256
        ).run(acl_small_trace)
        assert forked.worker_cpu_s > 0.0
        assert forked.to_dict()["worker_cpu_s"] == forked.worker_cpu_s
        assert inline.worker_cpu_s == 0.0

    @pytest.mark.parametrize("how", ["close", "gc", "failed dispatch"])
    def test_no_worker_or_arena_segment_outlives_the_engine(
        self, how, acl_small, acl_small_trace, monkeypatch, request
    ):
        # Two workers on any host: plan() forks min(shards, host_cpus()).
        monkeypatch.setattr(native, "host_cpus", lambda: 2)
        config = EngineConfig(
            backend="linear", chunk_size=256, shards=2,
            shard_mode="processes", min_chunk_packets=0,
        )
        engine = Engine.open(config, acl_small)
        # A failed assert still closes it (a weak reference, so the "gc"
        # case can collect it), and the next case starts with no worker.
        held = weakref.ref(engine)
        request.addfinalizer(lambda: held() is not None and held().close())
        if not engine.pipeline._fork_available():  # pragma: no cover
            pytest.skip("fork multiprocessing unavailable")
        engine.classify(acl_small_trace)
        names = tuple(engine.pipeline._arena["names"])
        assert _leftovers(names) == (["repro-shard-0", "repro-shard-1"],
                                     list(names))
        if how == "close":
            engine.close()
        elif how == "gc":
            del engine
            gc.collect()
        else:
            with pytest.raises(ServingFaultError):
                engine.classify(
                    acl_small_trace, faults=[FaultSpec(kind="crash", chunk=1)]
                )
        assert _leftovers(names) == ([], [])

    def test_software_backend_no_occupancy(self, acl_small, acl_small_trace):
        clf = build_backend("linear", acl_small)
        with ClassificationPipeline(
            clf, chunk_size=512, shards=2
        ) as pipeline:
            res = pipeline.run(acl_small_trace)
        assert res.occupancy is None
        assert np.array_equal(res.match, clf.classify_trace(acl_small_trace))

    def test_workers_reused_and_closed(self, acc_small, acl_small_trace):
        pipeline = ClassificationPipeline(
            acc_small, chunk_size=300, shards=2
        )
        try:
            pipeline.run(acl_small_trace)
            pool = pipeline._workers
            if pool is not None:  # fork platforms only
                pipeline.run(acl_small_trace)
                assert pipeline._workers is pool
        finally:
            pipeline.close()
        assert pipeline._workers is None
        # Running again after close() forks fresh workers on demand.
        res = pipeline.run(acl_small_trace)
        assert res.n_packets == acl_small_trace.n_packets
        pipeline.close()

    def test_an_update_run_closes_the_workers_and_the_next_run_reforks(
        self, acl_small, acl_small_trace
    ):
        """Held workers are a snapshot of one epoch.  A run that carries
        updates is planned in-process — no ladder step is taken to get
        there, also under ``degrade`` — and closes them; the next
        update-free run forks new ones from the updated classifier."""
        batch = (remove_op(0), remove_op(1), remove_op(2))
        oracle = build_updatable_backend("linear", acl_small)
        with ClassificationPipeline(
            build_updatable_backend("incremental", acl_small),
            chunk_size=256, shards=2,
            policy=SupervisionPolicy(fault_policy="degrade"),
        ) as pipeline:
            if not pipeline._fork_available():  # pragma: no cover
                pytest.skip("fork multiprocessing unavailable")
            before = pipeline.run(acl_small_trace)
            assert pipeline.workers_alive
            assert np.array_equal(
                before.match, oracle.classify_trace(acl_small_trace)
            )
            updated = pipeline.run(
                acl_small_trace, updates=[ScheduledUpdate(0, batch)]
            )
            assert not pipeline.workers_alive
            assert updated.n_shards == 1 and updated.worker_cpu_s == 0.0
            assert updated.fault.degradations == []
            assert not updated.fault.any()
            after = pipeline.run(acl_small_trace)
            assert pipeline.workers_alive
            assert after.n_shards == before.n_shards
            assert after.worker_cpu_s > 0.0
        oracle.apply_updates(batch)
        want = oracle.classify_trace(acl_small_trace)
        assert not np.array_equal(want, before.match)  # the batch bites
        assert np.array_equal(updated.match, want)
        assert np.array_equal(after.match, want)
        assert after.final_epoch == updated.final_epoch == 1

    def test_varying_trace_sizes_across_runs(self, acc_small, acl_small_trace):
        full = acl_small_trace
        half = PacketTrace(full.headers[:901], FIVE_TUPLE)
        with ClassificationPipeline(
            acc_small, chunk_size=300, shards=2
        ) as pipeline:
            a = pipeline.run(full)
            b = pipeline.run(half)
            c = pipeline.run(full)
        assert np.array_equal(a.match, c.match)
        assert np.array_equal(b.match, a.match[:901])


class TestReportAtEveryCpuCount:
    #: ``EngineReport`` fields that depend on the CPU count, and why
    #: (docs/engine.md, "``EngineReport``"): a wall clock; the owners
    #: that ran (one inline below two CPUs, two forked from two on); the
    #: forked workers' CPU; each owner's own cache, which decides the
    #: hit and miss counts, the chunks' shard ids and per-chunk cache
    #: counters, a packet's cycles (a hit's one against its walk's) and
    #: so the energy stamp.
    CPU_DEPENDENT = {
        "elapsed_s", "n_shards", "worker_cpu_s", "chunks", "cache_hits",
        "cache_misses", "cache_evictions", "occupancy",
        "device_throughput_pps", "energy_per_packet_j",
    }

    def test_every_other_field_is_the_same_at_1_2_4_and_8_cpus(
        self, acl_medium, acl_medium_trace, monkeypatch
    ):
        """One cached trace through ``Engine.classify`` with two shards
        in ``auto`` mode, forked from two CPUs on: every field outside
        ``CPU_DEPENDENT`` reads the same, and so does each chunk's grid."""
        trace = PacketTrace(np.resize(acl_medium_trace.headers, (20000, 5)),
                            acl_medium.schema)
        config = EngineConfig(
            backend="accelerator", cache_entries=512, shards=2,
            shard_mode="auto", chunk_size=2048, min_chunk_packets=4096,
            energy_model="asic",
        )
        reports = {}
        for cpus in (1, 2, 4, 8):
            monkeypatch.setattr(native, "host_cpus", lambda: cpus)
            with Engine.open(config, acl_medium) as engine:
                reports[cpus] = engine.classify(trace)
        assert [r.n_shards for r in reports.values()] == [1, 2, 2, 2]
        want = reports[1]
        for cpus, report in reports.items():
            for f in dataclasses.fields(EngineReport):
                if f.name not in self.CPU_DEPENDENT:
                    a, b = getattr(want, f.name), getattr(report, f.name)
                    same = (np.array_equal(a, b) if isinstance(a, np.ndarray)
                            else a == b)
                    assert same, (cpus, f.name)
            assert [(c.index, c.start, c.n_packets, c.matched)
                    for c in report.chunks] == [
                (c.index, c.start, c.n_packets, c.matched)
                for c in want.chunks]


class TestEdges:
    def test_empty_trace(self, acc_small):
        trace = PacketTrace(np.empty((0, 5), dtype=np.uint32), FIVE_TUPLE)
        res = ClassificationPipeline(acc_small, shards=2).run(trace)
        assert res.n_packets == 0
        assert res.chunks == []
        assert res.match.shape == (0,)

    def test_chunk_larger_than_trace(self, acc_small, acl_small_trace):
        res = ClassificationPipeline(acc_small, chunk_size=10**6).run(
            acl_small_trace
        )
        assert len(res.chunks) == 1

    def test_n_shards_reports_actual_workers(self, acc_small, acl_small_trace):
        # A single chunk short-circuits to the single-process path even
        # when more shards were requested; the result says what ran.
        res = ClassificationPipeline(
            acc_small, chunk_size=10**6, shards=4
        ).run(acl_small_trace)
        assert res.n_shards == 1

    def test_invalid_parameters(self, acc_small):
        with pytest.raises(ConfigError):
            ClassificationPipeline(acc_small, chunk_size=0)
        with pytest.raises(ConfigError):
            ClassificationPipeline(acc_small, shards=0)
        with pytest.raises(ConfigError):
            ClassificationPipeline(acc_small, shard_mode="fibers")
        with pytest.raises(ConfigError):
            ClassificationPipeline(acc_small, min_chunk_packets=-1)


class TestChunkBounds:
    """The dispatch-grid rules: tiny-tail merge and chunk coalescing."""

    def test_tail_merge_grid(self, acc_small):
        p = ClassificationPipeline(acc_small, chunk_size=1000)

        def grid(n):
            return list(p.plan(n).bounds)

        # Tail of 100 (< 1000/4) folds into the previous chunk...
        assert grid(2100) == [(0, 1000), (1000, 2100)]
        # ...a tail of exactly a quarter stays its own chunk...
        assert grid(2250) == [
            (0, 1000), (1000, 2000), (2000, 2250),
        ]
        # ...and exact multiples are untouched.
        assert grid(3000) == [
            (0, 1000), (1000, 2000), (2000, 3000),
        ]
        # A single short chunk never merges (there is no predecessor).
        assert grid(10) == [(0, 10)]
        assert grid(0) == []

    def test_tail_merge_serves_identically(self, acc_small, acl_small_trace):
        # 2000 packets, chunk 950 -> 950/950/100; the 100-packet tail
        # merges into the second chunk.
        single = acc_small.classify_trace(acl_small_trace)
        res = ClassificationPipeline(acc_small, chunk_size=950).run(
            acl_small_trace
        )
        assert [c.n_packets for c in res.chunks] == [950, 1050]
        assert np.array_equal(res.match, single)

    def test_min_chunk_packets_coalesces_without_updates(
        self, acc_small, acl_small_trace
    ):
        res = ClassificationPipeline(
            acc_small, chunk_size=256, min_chunk_packets=10**6
        ).run(acl_small_trace)
        assert len(res.chunks) == 1
        assert np.array_equal(
            res.match, acc_small.classify_trace(acl_small_trace)
        )

    def test_updates_pin_the_epoch_grid(self, acl_small, acl_small_trace):
        # With an update stream the chunk grid must stay chunk_size so
        # epoch boundaries land where scheduled, whatever the dispatch
        # target says.
        from repro.engine.updates import build_updatable_backend

        clf = build_updatable_backend("hypercuts", acl_small, binth=16)
        res = ClassificationPipeline(
            clf, chunk_size=256, min_chunk_packets=10**6
        ).run(acl_small_trace, updates=[
            ScheduledUpdate(at_packet=1000, batch=(remove_op(3),)),
        ])
        assert len(res.chunks) == 8  # 2000 / 256 with the tail merged
        assert {c.epoch for c in res.chunks} == {0, 1}


class TestShardModes:
    @pytest.mark.parametrize("updates", [False, True], ids=["static", "updates"])
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["auto", "processes", "threads"])
    def test_run_serves_exactly_its_plan(
        self, mode, cpus, updates, acl_small, acl_small_trace, monkeypatch
    ):
        """``run(trace)`` serves the plan ``plan(n, updates)`` answers:
        as many shards as its workers, its chunk grid, each chunk on
        ``plan.shard_of`` its index, and held workers iff it forks.  The
        sizes straddle the tail merge (1249 vs 1250 packets at
        ``chunk_size=1000``), auto's fork threshold (2 workers x 4000
        coalesced packets, +-1) and a 1M-packet run."""

        monkeypatch.setattr(native, "host_cpus", lambda: cpus)
        headers = np.resize(
            acl_small_trace.headers, (1_000_000, acl_small_trace.headers.shape[1])
        )
        with ClassificationPipeline(
            build_updatable_backend("incremental", acl_small),
            chunk_size=1000, shards=2, shard_mode=mode,
            min_chunk_packets=4000,
        ) as pipeline:
            for n in (1249, 1250, 7999, 8000, 8001, 1_000_000):
                plan = pipeline.plan(n, updates)
                res = pipeline.run(
                    PacketTrace(headers[:n], acl_small_trace.schema),
                    updates=[ScheduledUpdate(n // 2, ())] if updates else None,
                )
                assert res.n_shards == plan.workers
                assert [(c.start, c.start + c.n_packets) for c in res.chunks] == (
                    list(plan.bounds)
                )
                assert [c.shard for c in res.chunks] == [
                    plan.shard_of(c.index) for c in res.chunks
                ]
                assert pipeline.workers_alive == plan.forks

    @pytest.mark.parametrize("shards", [2, 4])
    def test_threads_mode_matches_single_shot(
        self, acc_small, acl_small_trace, shards
    ):
        single = acc_small.classify_trace(acl_small_trace)
        pipeline = ClassificationPipeline(
            acc_small, chunk_size=256, shards=shards, shard_mode="threads"
        )
        res = pipeline.run(acl_small_trace)
        assert np.array_equal(res.match, single)
        assert res.n_shards == shards
        assert res.occupancy is not None
        # Chunks round-robin over shard-affine workers.
        assert [c.shard for c in res.chunks] == [
            i % shards for i in range(len(res.chunks))
        ]

    def test_threads_mode_keeps_shard_caches_warm(
        self, acl_small, acl_small_trace
    ):
        from repro.engine import CachedClassifier

        cached = CachedClassifier(
            build_backend("hypercuts", acl_small, binth=16, hw_mode=False),
            entries=512, ways=4,
        )
        pipeline = ClassificationPipeline(
            cached, chunk_size=256, shards=2, shard_mode="threads"
        )
        cold = pipeline.run(acl_small_trace)
        warm = pipeline.run(acl_small_trace)
        assert np.array_equal(cold.match, warm.match)
        assert warm.cache_hit_rate > cold.cache_hit_rate
        per_shard = warm.shard_cache_stats()
        assert per_shard is not None and len(per_shard) == 2
        assert all(d["hits"] > 0 for d in per_shard)

    @pytest.mark.parametrize("chunk_timeout_s", [0.0, 5.0])
    @pytest.mark.parametrize("with_updates", [False, True])
    def test_threads_mode_serves_on_the_calling_thread(
        self, with_updates, chunk_timeout_s, acl_small, acl_small_trace
    ):
        """In-process shards are cache clones, not threads: every
        backend call of a ``shard_mode="threads"`` run is made by the
        thread that called ``run()``, and no thread is ever started —
        so nothing can outlive a deadline and race a later run on a
        shard's cache."""
        from repro.engine import CachedClassifier, build_updatable_backend

        caller = threading.get_ident()
        alive = threading.active_count()
        calls: list[tuple[int, int]] = []

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            def classify_batch(self, headers):
                calls.append((threading.get_ident(), threading.active_count()))
                return self.inner.classify_batch(headers)

            def apply_updates(self, batch):
                return self.inner.apply_updates(batch)

            @property
            def update_epoch(self):
                return self.inner.update_epoch

        updates = [
            ScheduledUpdate(at_packet=700, batch=(remove_op(3),)),
            ScheduledUpdate(at_packet=1500, batch=(remove_op(7),)),
        ]
        cached = CachedClassifier(
            Recording(build_updatable_backend("linear", acl_small)),
            entries=512,
        )
        with ClassificationPipeline(
            cached, chunk_size=256, shards=4, shard_mode="threads",
            policy=SupervisionPolicy(
                fault_policy="retry", chunk_timeout_s=chunk_timeout_s
            ),
        ) as pipeline:
            for _ in range(2):  # cold clones, then warm ones
                res = pipeline.run(
                    acl_small_trace, updates=updates if with_updates else None
                )
                assert threading.active_count() == alive
        assert res.n_shards == 4 and len(calls) >= len(res.chunks)
        assert set(calls) == {(caller, alive)}

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_auto_mode_never_loses_to_single_process(
        self, cpus, acc_small, acl_small_trace, monkeypatch
    ):
        # "auto" on a host where min(shards, cpus) < 2 must serve the
        # trace single-process (n_shards == 1) rather than paying fork +
        # IPC for a 1-worker pool; with enough CPUs it forks like
        # "processes".  Either way the matches are identical.  The CPU
        # count is patched at the plan's one seam, so both branches run
        # on any machine.

        monkeypatch.setattr(native, "host_cpus", lambda: cpus)
        pipeline = ClassificationPipeline(
            acc_small, chunk_size=256, shards=4, shard_mode="auto"
        )
        res = pipeline.run(acl_small_trace)
        can_win = min(4, cpus) >= 2 and pipeline._fork_available()
        assert res.n_shards == (min(4, cpus) if can_win else 1)
        assert np.array_equal(
            res.match, acc_small.classify_trace(acl_small_trace)
        )
        assert pipeline.plan(acl_small_trace.n_packets).forks == can_win

    def test_auto_plans_inline_under_a_one_cpu_affinity_mask(
        self, acc_small, monkeypatch
    ):
        """``host_cpus`` counts the CPUs this process may run on, not the
        host's: pinned to one (``taskset -c 0``), ``auto`` never forks
        two workers onto one core."""

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        native.host_cpus.cache_clear()
        try:
            assert native.host_cpus() == 1
            pipeline = ClassificationPipeline(
                acc_small, chunk_size=256, shards=2, shard_mode="auto"
            )
            if not pipeline._fork_available():  # pragma: no cover
                pytest.skip("fork multiprocessing unavailable")
            plan = pipeline.plan(1_000_000)
            assert (plan.tier, plan.workers) == ("inline", 1)
            assert "one CPU" in plan.reason
        finally:
            native.host_cpus.cache_clear()

    @pytest.mark.parametrize(
        ("mode", "cpus", "packets", "tier", "workers", "reason"),
        [
            # ``auto`` forks a run that gives each of its workers a full
            # dispatch, max(chunk_size, min_chunk_packets) = 4096 here:
            # 2 x 4096 packets fork, one packet less does not.
            ("auto", 4, 8192, "forked", 2,
             "auto: 8192 packets >= 2 workers x 4096"),
            ("auto", 4, 8191, "inline", 1,
             "auto: 8191 packets < 2 workers x 4096"),
            ("auto", 4, 1_000_000, "forked", 2,
             "auto: 1000000 packets >= 2 workers x 4096"),
            # One CPU never forks in auto mode, whatever the run's size.
            ("auto", 1, 1_000_000, "inline", 1, "one CPU"),
            # "processes" always forks, even a 1-worker fork, and below
            # auto's threshold.
            ("processes", 4, 8191, "forked", 2, "shard_mode=processes"),
            ("processes", 1, 162_500, "forked", 1, "shard_mode=processes"),
            # In-process shards are the inline tier with N owners.
            ("threads", 1, 1_000_000, "inline", 2, "shard_mode=threads"),
            # "+updates": the run carries an update stream, so no mode
            # forks it — the same run without updates does (above) —
            # and "threads" still serves it from N in-process shards.
            ("auto+updates", 4, 1_000_000, "inline", 1,
             "update runs serve in-process"),
            ("processes+updates", 4, 1_000_000, "inline", 1,
             "update runs serve in-process"),
            ("threads+updates", 4, 1_000_000, "inline", 2,
             "shard_mode=threads"),
            # The grid leaves 5119 packets one chunk (4096 + a merged
            # 1023-packet tail): one owner in every mode.  A tier that
            # engages one owner anyway keeps its reason; the grid's
            # collapse of a fork or of in-process shards says so.
            ("auto", 4, 5119, "inline", 1,
             "auto: 5119 packets < 2 workers x 4096"),
            ("auto+updates", 4, 5119, "inline", 1,
             "update runs serve in-process"),
            ("processes", 4, 5119, "inline", 1, "one chunk"),
            ("threads", 1, 5119, "inline", 1, "one chunk"),
        ],
    )
    def test_plan_table(
        self, mode, cpus, packets, tier, workers, reason,
        acc_small, monkeypatch,
    ):

        monkeypatch.setattr(native, "host_cpus", lambda: cpus)
        mode, _, updates = mode.partition("+")
        pipeline = ClassificationPipeline(
            acc_small, chunk_size=4096, shards=2, shard_mode=mode
        )
        if not pipeline._fork_available():  # pragma: no cover
            pytest.skip("fork multiprocessing unavailable")
        plan = pipeline.plan(packets, updates=bool(updates))
        assert (plan.tier, plan.workers) == (tier, workers)
        assert reason in plan.reason
        assert plan.forks == (tier == "forked")
        # A single chunk is one shard's work on every mode: 5119 packets
        # are one chunk once the 1023-packet tail merges.
        assert pipeline.plan(5119).tier == "inline"

    def test_auto_never_forks_a_run_below_its_threshold(
        self, acc_small, acl_small_trace, monkeypatch
    ):
        """Four ``auto`` pipelines (shards 2 and 4, cached and not) over
        one accelerator, served round-robin on runs shorter than one
        coalesced dispatch: none of them ever forks — not while warming
        up, not after — because the tier is a function of the run's
        size, not of timings the pipeline takes of itself."""

        monkeypatch.setattr(native, "host_cpus", lambda: 4)
        with contextlib.ExitStack() as stack:
            pipelines = [
                stack.enter_context(ClassificationPipeline(
                    clf, chunk_size=256, shards=shards, shard_mode="auto",
                    min_chunk_packets=4096,
                ))
                for shards in (2, 4)
                for clf in (acc_small, CachedClassifier(acc_small, entries=512))
            ]
            want = acc_small.classify_trace(acl_small_trace)
            for _ in range(50):
                for pipeline in pipelines:
                    res = pipeline.run(acl_small_trace)
                    assert res.n_shards == 1
                    assert not pipeline.workers_alive
                    assert np.array_equal(res.match, want)

    def test_auto_forks_from_exactly_its_threshold(
        self, acc_small, acl_small_trace, monkeypatch
    ):
        """2 workers x max(256, 1000) = 2000 packets fork; 1999 serve
        inline, on the same coalesced grid, with the same matches."""

        monkeypatch.setattr(native, "host_cpus", lambda: 4)
        with ClassificationPipeline(
            acc_small, chunk_size=256, shards=2, shard_mode="auto",
            min_chunk_packets=1000,
        ) as pipeline:
            if not pipeline._fork_available():  # pragma: no cover
                pytest.skip("fork multiprocessing unavailable")
            short = acl_small_trace.subset(acl_small_trace.n_packets - 1)
            inline = pipeline.run(short)
            assert not pipeline.workers_alive
            forked = pipeline.run(acl_small_trace)
            assert pipeline.workers_alive
        assert acl_small_trace.n_packets == 2000
        assert (inline.n_shards, len(inline.chunks)) == (1, 2)
        assert (forked.n_shards, len(forked.chunks)) == (2, 2)
        assert forked.worker_cpu_s > 0.0 and inline.worker_cpu_s == 0.0
        want = acc_small.classify_trace(acl_small_trace)
        assert np.array_equal(forked.match, want)
        assert np.array_equal(inline.match, want[:-1])

    def test_processes_mode_forces_fork(self, acc_small, acl_small_trace):
        # The historical contract: shards > 1 forks whenever the
        # platform can, even when clamping leaves one worker.
        pipeline = ClassificationPipeline(
            acc_small, chunk_size=256, shards=2, shard_mode="processes"
        )
        if not pipeline._fork_available():  # pragma: no cover
            pytest.skip("fork multiprocessing unavailable")
        assert pipeline.plan(acl_small_trace.n_packets).forks
