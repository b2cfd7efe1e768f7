"""The one miss path: match-only walk conformance.

``classify_batch`` of every tree-backed classifier is
:meth:`FlatTree.batch_match` — the level-synchronous walk of
:meth:`FlatTree.batch_lookup` handed no statistics arrays — and a
:class:`CachedClassifier` serves its distinct misses through exactly
that call (``batch_stats_of`` on the wrapped backend).  The contract is
**bit-identity** with the statistics walk: ``batch_match(h) ==
batch_lookup(PacketTrace(h)).match`` for both algorithms, across tiles,
on empty input and after incremental patches, on each of the three tree
classes, and on the two degenerate dispatch shapes of the cached serve
(empty miss set, all-miss batch).  A backend that models occupancy (the
accelerator) keeps its own walk and its occupancy stream.

Matches through every tier against the oracle: the registry-wide cache
conformance in ``tests/test_flowcache.py`` and the per-epoch oracle in
``tests/test_update_serving.py``; per-chunk counters across tiers and
repeats: ``tests/test_shard_determinism.py``; fill / eviction order:
``TestPinnedCounters`` in ``tests/test_flowcache.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import generate_zipf_trace
from repro.algorithms import flat_tree, native
from repro.algorithms.incremental import IncrementalClassifier
from repro.core.packet import PacketTrace
from repro.core.updates import ScheduledUpdate, insert_op, remove_op
from repro.engine import CachedClassifier, build_backend
from repro.engine.updates import build_updatable_backend


@pytest.fixture(scope="module")
def zipf_small_trace(acl_small):
    return generate_zipf_trace(
        acl_small, 2000, n_flows=128, skew=1.0, seed=31
    )


def _make_cached(kind: str, ruleset) -> CachedClassifier:
    """One flow-cached serving object over a fresh backend build (fresh
    per call: update runs mutate the backend)."""
    if kind == "updatable":
        backend = build_updatable_backend("hypercuts", ruleset, binth=16)
    else:
        backend = build_backend(
            "hypercuts", ruleset, binth=16, hw_mode=False
        )
    return CachedClassifier(backend, entries=512, ways=4)


def _update_schedule(ruleset):
    """Two mid-stream batches: removals of live ids plus one insert."""
    extra = ruleset.rules[0]
    return [
        ScheduledUpdate(at_packet=800, batch=(remove_op(3), remove_op(7))),
        ScheduledUpdate(at_packet=1600, batch=(insert_op(extra),)),
    ]


def _stats_walk(cached: CachedClassifier, headers) -> np.ndarray:
    """The statistics walk's matches over the wrapped backend's tree."""
    tree = cached.classifier.tree
    return tree.flat.batch_lookup(PacketTrace(headers, tree.schema)).match


# ---------------------------------------------------------------------------
# classify_batch of the three tree classes is the match-only walk
# ---------------------------------------------------------------------------
def _tree_class(name: str, ruleset):
    if name == "IncrementalClassifier":
        return IncrementalClassifier(ruleset, algorithm="hypercuts", binth=16)
    adapter = build_backend("hypercuts", ruleset, binth=16, hw_mode=False)
    return adapter.tree if name == "DecisionTree" else adapter


class TestClassifyBatchIsTheMatchWalk:
    @pytest.mark.parametrize(
        "name",
        ["DecisionTree", "DecisionTreeClassifier", "IncrementalClassifier"],
    )
    def test_no_statistics_are_kept(
        self, name, monkeypatch, acl_small, acl_small_trace
    ):
        clf = _tree_class(name, acl_small)
        flat = getattr(clf, "tree", clf).flat
        headers = acl_small_trace.headers
        want = flat.batch_lookup(acl_small_trace).match
        asked, tiles, pointers = [], [], []
        match_walk, walk_tile = flat.batch_match, flat._walk_tile

        def spy_match(headers32):
            asked.append(len(headers32))
            return match_walk(headers32)

        def spy_tile(headers32, match, stats=None):
            tiles.append(stats)
            walk_tile(headers32, match, stats)

        monkeypatch.setattr(flat, "batch_match", spy_match)
        monkeypatch.setattr(flat, "_walk_tile", spy_tile)
        loaded = native._load()
        if loaded.fn is not None:  # else the portable half below is all

            def spy_fn(tables, placement, headers32, n, match, *rest):
                *out, _threads, _least, _k, tally = rest
                pointers.append((placement, *out, tally))
                return loaded.fn(tables, placement, headers32, n, match, *rest)

            monkeypatch.setattr(native, "_kernel", native._Kernel(fn=spy_fn))
        for _ in range(2):  # the default kernel, then the portable walk
            assert np.array_equal(clf.classify_batch(headers), want)
            assert np.array_equal(clf.classify_trace(acl_small_trace), want)
            monkeypatch.setattr(native, "_kernel", native._Kernel(reason="off"))
        assert asked == [len(headers)] * 4  # every call is batch_match
        assert set(tiles) == {None}  # the portable walk got no arrays
        # ... and the C loop got no placement and NULL pointers for the
        # five statistics, the three cycle arrays and the tally.
        assert pointers == [(None,) * 10] * (2 if loaded.fn else 0)

    def test_engine_serves_the_trace_equal_to_the_oracle(
        self, acl_small, acl_small_trace, acl_small_oracle
    ):
        from repro.serve import Engine, EngineConfig

        config = EngineConfig(
            backend="hypercuts", software=True, cache_entries=512,
        )
        with Engine.open(config, acl_small) as engine:
            assert isinstance(engine.classifier, CachedClassifier)
            report = engine.classify(acl_small_trace)
        assert np.array_equal(report.match, acl_small_oracle)


# ---------------------------------------------------------------------------
# Degenerate dispatch shapes of the cached serve
# ---------------------------------------------------------------------------
class TestMissServeEdges:
    def test_empty_miss_set(self, acl_small, zipf_small_trace):
        # Second pass over a batch of few distinct flows (guaranteed to
        # fit the cache without set conflicts): every probe hits, the
        # walk runs over zero misses.
        flows = np.unique(zipf_small_trace.headers, axis=0)[:16]
        headers = np.ascontiguousarray(np.tile(flows, (8, 1)))
        clf = _make_cached("tree", acl_small)
        first = clf.batch_stats(headers)
        again = clf.batch_stats(headers)
        assert np.array_equal(first.match, _stats_walk(clf, headers))
        assert np.array_equal(first.match, again.match)
        assert again.cache_misses == 0
        assert again.cache_hits == headers.shape[0]

    def test_all_miss_batch(self, acl_small, acl_small_trace):
        # Cold cache, sliced so every header is distinct: every packet
        # takes the walk, nothing hits.
        headers = np.unique(acl_small_trace.headers, axis=0)
        clf = _make_cached("tree", acl_small)
        stats = clf.batch_stats(headers)
        assert np.array_equal(stats.match, _stats_walk(clf, headers))
        assert stats.cache_hits == 0
        assert stats.cache_misses == headers.shape[0]

    def test_empty_batch(self, acl_small):
        clf = _make_cached("tree", acl_small)
        stats = clf.batch_stats(
            np.empty((0, 5), dtype=np.uint32)
        )
        assert stats.match.size == 0

    def test_cached_accelerator_keeps_its_occupancy_stream(
        self, acl_small, acl_small_trace
    ):
        # The accelerator models occupancy per packet, which a
        # match-only walk cannot produce: the cache wrapper serves its
        # misses through the accelerator's own ``batch_stats``.
        accel = build_backend("accelerator", acl_small)
        clf = CachedClassifier(accel, entries=512, ways=4)
        stats = clf.batch_stats(acl_small_trace.headers)
        want = accel.classify_trace(acl_small_trace)
        assert np.array_equal(stats.match, want)
        assert stats.occupancy is not None


# ---------------------------------------------------------------------------
# Kernel-level identity: batch_match vs batch_lookup
# ---------------------------------------------------------------------------
class TestBatchMatchKernel:
    """On the default kernel (native wherever it loaded);
    ``TestBatchMatchKernelPortable`` below re-runs it on the portable
    walk."""

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
        the cached serve above it."""

        def serve():
            cached = _make_cached("tree", acl_small)
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
        inc = IncrementalClassifier(
            acl_small, algorithm="hypercuts", binth=16
        )
        inc.tree.flat  # initial compile
        for rule_id in (2, 9, 17):
            inc.remove(rule_id)
            full = inc.tree.flat.batch_lookup(acl_small_trace)
            lean = inc.tree.flat.batch_match(acl_small_trace.headers)
            assert np.array_equal(full.match, lean)


@pytest.mark.usefixtures("portable_kernel")
class TestBatchMatchKernelPortable(TestBatchMatchKernel):
    pass
