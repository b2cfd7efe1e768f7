"""Fused cache->kernel hot-path conformance.

The fused serving path (:meth:`CachedClassifier._serve_batch` with a
backend ``fused_match`` hook) replaces probe-then-``classify_batch``
with one gather pipeline: vectorised cache probe, compacted miss set,
a single level-synchronous :meth:`FlatTree.batch_match` walk over the
misses only, scatter back, and a same-pass cache fill.  The contract is
**bit-identity**: at every shard count, shard mode, trace shape, and
update schedule, the fused path must produce exactly the matches *and*
exactly the cache counters of the unfused path on the same chunk grid
(fill order included — eviction state must not drift).  That holds on
the fork tiers as on the thread tier because chunk ``i`` is always
served by shard ``i % workers`` (``tests/test_shard_determinism.py``
pins the map itself): each shard's private cache sees the same chunk
sequence in both runs.

This suite pins that contract on a grid of backend x shards x shard
mode x trace locality, with and without live updates mid-stream, plus
the two degenerate dispatch shapes (empty miss set, all-miss batch) and
the kernel-level ``batch_match`` == ``batch_lookup.match`` identity
(before and after incremental patches).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import generate_zipf_trace
from repro.algorithms import flat_tree
from repro.core.errors import ConfigError
from repro.core.updates import ScheduledUpdate, insert_op, remove_op
from repro.engine import (
    CachedClassifier,
    ClassificationPipeline,
    build_backend,
)
from repro.engine.updates import build_updatable_backend


@pytest.fixture(scope="module")
def zipf_small_trace(acl_small):
    return generate_zipf_trace(
        acl_small, 2000, n_flows=128, skew=1.0, seed=31
    )


def _make_cached(kind: str, ruleset, fused: bool) -> CachedClassifier:
    """One flow-cached serving object over a fresh backend build (fresh
    per call: update runs mutate the backend, so fused and unfused
    sides must not share one)."""
    if kind == "updatable":
        backend = build_updatable_backend("hypercuts", ruleset, binth=16)
    else:
        backend = build_backend(
            "hypercuts", ruleset, binth=16, hw_mode=False
        )
    return CachedClassifier(backend, entries=512, ways=4, fused=fused)


def _update_schedule(ruleset):
    """Two mid-stream batches: removals of live ids plus one insert."""
    donor = generate_zipf_trace  # noqa: F841 - keep import local & used
    extra = ruleset.rules[0]
    return [
        ScheduledUpdate(at_packet=800, batch=(remove_op(3), remove_op(7))),
        ScheduledUpdate(at_packet=1600, batch=(insert_op(extra),)),
    ]


# ---------------------------------------------------------------------------
# The conformance grid
# ---------------------------------------------------------------------------
class TestFusedUnfusedIdentity:
    @pytest.mark.parametrize("kind", ["tree", "updatable"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["processes", "threads"])
    @pytest.mark.parametrize("locality", ["random", "zipf"])
    def test_grid(
        self, kind, shards, mode, locality,
        acl_small, acl_small_trace, zipf_small_trace,
    ):
        trace = (
            zipf_small_trace if locality == "zipf" else acl_small_trace
        )
        updates = (
            _update_schedule(acl_small) if kind == "updatable" else None
        )
        results = []
        for fused in (False, True):
            pipeline = ClassificationPipeline(
                _make_cached(kind, acl_small, fused),
                chunk_size=256, shards=shards, shard_mode=mode,
            )
            results.append(pipeline.run(trace, updates=updates))
        want, got = results
        assert np.array_equal(want.match, got.match)
        # Same chunk grid + same mode => identical per-chunk counters:
        # the fused pass must fill the cache in the unfused order (set
        # index, way choice, eviction victims all equal).
        for a, b in zip(want.chunks, got.chunks):
            assert (a.cache_hits, a.cache_misses, a.cache_evictions) == (
                b.cache_hits, b.cache_misses, b.cache_evictions
            ), f"chunk {a.index} counters diverge"
            assert a.epoch == b.epoch
        if updates:
            assert got.final_epoch == want.final_epoch
            assert got.update_batches == len(updates)

    def test_fused_is_default_and_routes_through_engine(
        self, acl_small, acl_small_trace
    ):
        from repro.serve import Engine, EngineConfig

        config = EngineConfig(
            backend="hypercuts", software=True, cache_entries=512,
        )
        with Engine.open(config, acl_small) as engine:
            clf = engine.classifier
            assert isinstance(clf, CachedClassifier) and clf.fused
            assert callable(getattr(clf.classifier, "fused_match", None))
            report = engine.classify(acl_small_trace)
        want = _make_cached("tree", acl_small, fused=False).classify_trace(
            acl_small_trace
        )
        assert np.array_equal(report.match, want)

    def test_stream_with_updates_stays_identical(
        self, acl_small, acl_small_trace
    ):
        from repro.serve import Engine, EngineConfig, iter_trace_segments

        updates = _update_schedule(acl_small)
        reports = []
        for fused in (False, True):
            config = EngineConfig(
                backend="hypercuts", software=True, updatable=True,
                cache_entries=512, chunk_size=256, min_chunk_packets=0,
            )
            with Engine.open(config, acl_small) as engine:
                if not fused:
                    engine.classifier.fused = False
                reports.append(engine.classify_stream(
                    iter_trace_segments(acl_small_trace, 500),
                    updates=updates,
                ))
        want, got = reports
        assert np.array_equal(want.match, got.match)
        assert want.final_epoch == got.final_epoch


# ---------------------------------------------------------------------------
# Degenerate dispatch shapes
# ---------------------------------------------------------------------------
class TestFusedEdges:
    def test_empty_miss_set(self, acl_small, zipf_small_trace):
        # Second pass over a batch of few distinct flows (guaranteed to
        # fit the cache without set conflicts): every probe hits, the
        # fused walk runs over zero misses.
        flows = np.unique(zipf_small_trace.headers, axis=0)[:16]
        headers = np.ascontiguousarray(np.tile(flows, (8, 1)))
        clf = _make_cached("tree", acl_small, fused=True)
        first = clf.batch_stats(headers)
        again = clf.batch_stats(headers)
        assert np.array_equal(first.match, again.match)
        assert again.cache_misses == 0
        assert again.cache_hits == headers.shape[0]

    def test_all_miss_batch(self, acl_small, acl_small_trace):
        # Cold cache, sliced so every header is distinct: every packet
        # takes the fused walk, nothing hits.
        headers = np.unique(acl_small_trace.headers, axis=0)
        clf = _make_cached("tree", acl_small, fused=True)
        stats = clf.batch_stats(headers)
        want = _make_cached("tree", acl_small, fused=False).batch_stats(
            headers
        )
        assert np.array_equal(stats.match, want.match)
        assert stats.cache_hits == 0
        assert stats.cache_misses == headers.shape[0]

    def test_empty_batch(self, acl_small):
        clf = _make_cached("tree", acl_small, fused=True)
        stats = clf.batch_stats(
            np.empty((0, 5), dtype=np.uint32)
        )
        assert stats.match.size == 0

    def test_classify_fused_requires_hook(self, acl_small):
        bare = build_backend("linear", acl_small)
        clf = CachedClassifier(bare, entries=512, ways=4)
        with pytest.raises(ConfigError, match="fused"):
            clf.classify_fused(np.zeros((4, 5), dtype=np.uint32))

    def test_accelerator_backend_falls_back_unfused(
        self, acl_small, acl_small_trace
    ):
        # The accelerator models occupancy per packet, which the fused
        # match-only walk cannot produce — the cache wrapper must fall
        # back to the unfused path and keep the occupancy stream.
        accel = build_backend("accelerator", acl_small)
        clf = CachedClassifier(accel, entries=512, ways=4)
        assert getattr(accel, "fused_match", None) is None
        stats = clf.batch_stats(acl_small_trace.headers)
        want = accel.classify_trace(acl_small_trace)
        assert np.array_equal(stats.match, want)
        assert stats.occupancy is not None


# ---------------------------------------------------------------------------
# Kernel-level identity: batch_match vs batch_lookup
# ---------------------------------------------------------------------------
class TestBatchMatchKernel:
    @pytest.mark.parametrize("algorithm", ["hicuts", "hypercuts"])
    def test_matches_batch_lookup(
        self, algorithm, acl_small, acl_small_trace
    ):
        tree = build_backend(
            algorithm, acl_small, binth=16, hw_mode=False
        ).tree
        full = tree.flat.batch_lookup(acl_small_trace)
        lean = tree.flat.batch_match(acl_small_trace.headers)
        assert np.array_equal(full.match, lean)

    def test_tiled_miss_walk_is_invisible(
        self, monkeypatch, acl_small, acl_small_trace
    ):
        """With the kernel tile shrunk to 64 packets a cold 2000-packet
        batch makes a miss walk of many tiles: same matches from
        ``batch_match`` and the same matches and cache counters from
        the fused serving path above it."""

        def serve():
            cached = _make_cached("tree", acl_small, fused=True)
            flat = cached.classifier.tree.flat
            lean = flat.batch_match(acl_small_trace.headers)
            assert np.array_equal(
                lean, flat.batch_lookup(acl_small_trace).match
            )
            served = cached.classify_trace(acl_small_trace)
            stats = cached.cache.stats
            return lean, served, (stats.hits, stats.misses, stats.evictions)

        one_tile = serve()
        monkeypatch.setattr(flat_tree, "_TILE_PACKETS", 64)
        tiled = serve()
        assert np.array_equal(tiled[0], one_tile[0])
        assert np.array_equal(tiled[1], one_tile[1])
        assert tiled[2] == one_tile[2]

    def test_empty_input(self, acl_small):
        tree = build_backend(
            "hypercuts", acl_small, binth=16, hw_mode=False
        ).tree
        out = tree.flat.batch_match(np.empty((0, 5), dtype=np.uint32))
        assert out.shape == (0,) and out.dtype == np.int64

    def test_identity_survives_patches(self, acl_small, acl_small_trace):
        from repro.algorithms.incremental import IncrementalClassifier

        inc = IncrementalClassifier(
            acl_small, algorithm="hypercuts", binth=16
        )
        inc.tree.flat  # initial compile
        for rule_id in (2, 9, 17):
            inc.remove(rule_id)
            full = inc.tree.flat.batch_lookup(acl_small_trace)
            lean = inc.tree.flat.batch_match(acl_small_trace.headers)
            assert np.array_equal(full.match, lean)
