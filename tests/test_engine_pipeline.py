"""Sharded streaming pipeline: exactness, aggregation, and edge cases.

The load-bearing property: at every shard count the pipeline's output is
bit-for-bit identical to single-shot ``classify_trace`` — chunking and
multiprocessing must never change classification results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FIVE_TUPLE, PacketTrace
from repro.core.errors import ConfigError
from repro.energy import asic_model
from repro.engine import ClassificationPipeline, build_backend


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
        mo = res.mean_occupancy()
        assert mo is not None and mo >= 1.0
        assert res.device_throughput_pps(226e6) == pytest.approx(226e6 / mo)
        model = asic_model()
        assert res.energy_per_packet_j(model) == pytest.approx(
            model.energy_per_packet_j(mo)
        )
        assert res.throughput_pps() > 0

    def test_software_backend_has_no_occupancy(self, acl_small, acl_small_trace):
        res = ClassificationPipeline(
            build_backend("linear", acl_small), chunk_size=512
        ).run(acl_small_trace)
        assert res.occupancy is None
        assert res.mean_occupancy() is None
        assert res.device_throughput_pps(226e6) is None


class TestPersistentPool:
    """The persistent fork-pool with shared-memory result transport."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_bit_identical_across_repeated_runs(
        self, acc_small, acl_small_trace, shards
    ):
        single = acc_small.classify_trace(acl_small_trace)
        run = acc_small.run_trace(acl_small_trace)
        with ClassificationPipeline(
            acc_small, chunk_size=300, shards=shards, persistent=True
        ) as pipeline:
            for _ in range(3):
                res = pipeline.run(acl_small_trace)
                assert np.array_equal(res.match, single)
                assert res.occupancy is not None
                assert np.array_equal(res.occupancy, run.occupancy)

    def test_matches_transient_mode_chunk_stats(
        self, acc_small, acl_small_trace
    ):
        transient = ClassificationPipeline(
            acc_small, chunk_size=256, shards=2
        ).run(acl_small_trace)
        with ClassificationPipeline(
            acc_small, chunk_size=256, shards=2, persistent=True
        ) as pipeline:
            persistent = pipeline.run(acl_small_trace)
        assert np.array_equal(persistent.match, transient.match)
        assert [
            (c.index, c.start, c.n_packets, c.matched, c.occupancy_sum)
            for c in persistent.chunks
        ] == [
            (c.index, c.start, c.n_packets, c.matched, c.occupancy_sum)
            for c in transient.chunks
        ]

    def test_software_backend_no_occupancy(self, acl_small, acl_small_trace):
        clf = build_backend("linear", acl_small)
        with ClassificationPipeline(
            clf, chunk_size=512, shards=2, persistent=True
        ) as pipeline:
            res = pipeline.run(acl_small_trace)
        assert res.occupancy is None
        assert np.array_equal(res.match, clf.classify_trace(acl_small_trace))

    def test_pool_reused_and_closed(self, acc_small, acl_small_trace):
        pipeline = ClassificationPipeline(
            acc_small, chunk_size=300, shards=2, persistent=True
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
        # Running again after close() forks a fresh pool on demand.
        res = pipeline.run(acl_small_trace)
        assert res.n_packets == acl_small_trace.n_packets
        pipeline.close()

    def test_varying_trace_sizes_across_runs(self, acc_small, acl_small_trace):
        full = acl_small_trace
        half = PacketTrace(full.headers[:901], FIVE_TUPLE)
        with ClassificationPipeline(
            acc_small, chunk_size=300, shards=2, persistent=True
        ) as pipeline:
            a = pipeline.run(full)
            b = pipeline.run(half)
            c = pipeline.run(full)
        assert np.array_equal(a.match, c.match)
        assert np.array_equal(b.match, a.match[:901])


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
        # Tail of 100 (< 1000/4) folds into the previous chunk...
        assert p._chunk_bounds(2100) == [(0, 1000), (1000, 2100)]
        # ...a tail of exactly a quarter stays its own chunk...
        assert p._chunk_bounds(2250) == [
            (0, 1000), (1000, 2000), (2000, 2250),
        ]
        # ...and exact multiples are untouched.
        assert p._chunk_bounds(3000) == [
            (0, 1000), (1000, 2000), (2000, 3000),
        ]
        # A single short chunk never merges (there is no predecessor).
        assert p._chunk_bounds(10) == [(0, 10)]
        assert p._chunk_bounds(0) == []

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
        from repro.core.updates import ScheduledUpdate, remove_op
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
        from repro.engine import pipeline as pipeline_module

        monkeypatch.setattr(pipeline_module, "host_cpus", lambda: cpus)
        pipeline = ClassificationPipeline(
            acc_small, chunk_size=256, shards=4, shard_mode="auto"
        )
        res = pipeline.run(acl_small_trace)
        can_win = min(4, cpus) >= 2 and pipeline._fork_available()
        assert res.n_shards == (min(4, cpus) if can_win else 1)
        assert np.array_equal(
            res.match, acc_small.classify_trace(acl_small_trace)
        )
        assert pipeline.plan().forks == can_win

    def test_processes_mode_forces_fork(self, acc_small, acl_small_trace):
        # The historical contract: shards > 1 forks whenever the
        # platform can, even when clamping leaves one worker.
        pipeline = ClassificationPipeline(
            acc_small, chunk_size=256, shards=2, shard_mode="processes"
        )
        if not pipeline._fork_available():  # pragma: no cover
            pytest.skip("fork multiprocessing unavailable")
        assert pipeline.plan().forks
