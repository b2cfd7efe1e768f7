"""Flow-cache front-end: conformance, edge cases, and pipeline stats.

The one contract that matters: a :class:`CachedClassifier` is
bit-identical to the backend it wraps on any trace, at any shard count —
the cache only ever serves results the backend itself produced.  The
conformance class asserts it for every registered backend on a random
(background-mixed) trace and a Zipf-skewed one, through the pipeline at
1/2/4 shards.  Edge cases cover the zero-entry cache, capacity-1
thrash, duplicate packets inside one chunk, and invalidation after an
incremental rule update.
"""

from __future__ import annotations

import multiprocessing
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PacketTrace, Rule, generate_zipf_trace
from repro.core.rules import FIVE_TUPLE
from repro.algorithms import native
from repro.core.errors import ConfigError
from repro.core.updates import insert_op, remove_op
from repro.engine import (
    CachedClassifier,
    ClassificationPipeline,
    FlowCache,
    available_backends,
    build_backend,
)
from repro.engine import flowcache
from repro.engine.protocol import (
    BatchStats, batch_out, batch_stats_of, tallied,
)
from repro.engine.flowcache import dedupe_flow_keys, flow_hash, pack_flow_keys
from repro.energy import CacheEnergyModel
from tests.conftest import random_headers

ALL_BACKENDS = available_backends()


@pytest.fixture(scope="module")
def zipf_trace(acl_small):
    return generate_zipf_trace(acl_small, 2000, n_flows=64, skew=1.0, seed=301)


@pytest.fixture(scope="module", params=ALL_BACKENDS)
def bare_backend(request, acl_small):
    return request.param, build_backend(request.param, acl_small)


def _headers(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.uint32)


class CountingClassifier:
    """Protocol-shaped stub: every header maps to its source-port field,
    while counting backend calls and rows seen."""

    backend_name = "counting"

    def __init__(self) -> None:
        self.calls = 0
        self.rows_seen = 0

    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        self.calls += 1
        self.rows_seen += headers.shape[0]
        return headers[:, 3].astype(np.int64)

    def classify(self, header) -> int:
        return int(self.classify_batch(_headers([header]))[0])

    def classify_trace(self, trace: PacketTrace) -> np.ndarray:
        return self.classify_batch(trace.headers)

    def memory_bytes(self) -> int:
        return 64

    def memory_accesses_per_lookup(self) -> int:
        return 8


#: Header values that collide a lot and sit on the word boundaries.
_EDGE_VALUES = st.sampled_from([0, 1, 2, 2**16, 2**32 - 2, 2**32 - 1])


@st.composite
def _header_matrices(draw):
    ndim = draw(st.integers(1, 6))
    n = draw(st.integers(0, 24))
    rows = draw(st.lists(
        st.lists(_EDGE_VALUES | st.integers(0, 2**32 - 1),
                 min_size=ndim, max_size=ndim),
        min_size=n, max_size=n,
    ))
    if rows and draw(st.booleans()):
        rows = [rows[0]] * n  # all-duplicate
    return np.asarray(rows, dtype=np.uint32).reshape(n, ndim)


#: Batch sizes around the hash-grouping cut and around the point where
#: the position tag in the sort key grows from 16 to 17 bits.
_CUT = flowcache._HASH_GROUP_MIN
_BIG_SIZES = (_CUT - 1, _CUT, _CUT + 1, 65_536, 65_537)


@st.composite
def _flow_batches(draw):
    """``n`` headers (1-3 key words) drawn with repeats from a small
    pool of edge-valued flows, optionally half replaced by random —
    almost surely distinct — ones."""
    ndim = draw(st.integers(1, 6))
    pool = draw(st.lists(
        st.lists(_EDGE_VALUES, min_size=ndim, max_size=ndim),
        min_size=1, max_size=12,
    ))
    n = draw(st.sampled_from(_BIG_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.asarray(pool, dtype=np.uint32)[rng.integers(0, len(pool), n)]
    if draw(st.booleans()):
        fresh = rng.random(n) < 0.5
        m[fresh] = rng.integers(
            0, 2**32, (int(fresh.sum()), ndim), dtype=np.uint32
        )
    return m


def _assert_groups_by_last_sighting(m, x=None):
    """``np.unique(m, axis=0)``'s groups, reordered by each group's last
    position: the first index and the inverse follow the reordering,
    whatever the hashes ``x`` (default: the rows' ``flow_hash``)."""
    x = flow_hash(m) if x is None else x
    first, inverse = dedupe_flow_keys(pack_flow_keys(m), x)
    uniq, index, inv = np.unique(
        m, axis=0, return_index=True, return_inverse=True
    )
    inv = inv.reshape(-1)
    last = np.zeros(len(uniq), np.intp)
    last[inv] = np.arange(len(m))  # the last write of each group wins
    order = np.argsort(last)
    rank = np.empty(len(uniq), np.intp)
    rank[order] = np.arange(len(uniq))
    assert np.array_equal(m[first], uniq[order])
    assert np.array_equal(first, index[order])
    assert np.array_equal(inverse, rank[inv])


# The two properties live outside the classes that run them, so that
# the class and its ``...Portable`` subclass call one hypothesis test.
@settings(max_examples=300, deadline=None)
@given(_header_matrices())
def _unique_rows(m):
    _assert_groups_by_last_sighting(m)


@settings(max_examples=40, deadline=None)
@given(_flow_batches())
def _unique_rows_of_big_batches(m):
    _assert_groups_by_last_sighting(m)


class TestPackedKeyDedupe:
    """``dedupe_flow_keys(pack_flow_keys(m), flow_hash(m))`` is
    ``np.unique(m, axis=0)``
    ranked by each row's last occurrence — same groups, same
    first-occurrence index, the inverse to match — which is what fixes
    fill order, victims and counters on both kernels."""

    def test_groups_rows_by_last_sighting(self):
        _unique_rows()

    def test_groups_rows_by_last_sighting_on_hash_grouped_batches(self):
        _unique_rows_of_big_batches()

    @pytest.mark.parametrize("crafted", [
        lambda m: np.zeros(len(m), np.uint64),  # one group
        lambda m: pack_flow_keys(m)[0] << np.uint64(32),  # blind to most columns
    ], ids=["constant", "word0-low-half"])
    def test_hash_collisions_take_the_lexsort(
        self, monkeypatch, portable_kernel, crafted
    ):
        # This and the next test pin the NumPy path's own fallback.
        rng = np.random.default_rng(5)
        flows = rng.integers(0, 4, (300, 5), dtype=np.uint32)
        m = flows[rng.integers(0, 300, 4 * _CUT)]
        _assert_groups_by_last_sighting(m, crafted(m))
        # ...and it was the fallback that answered, not luck:
        monkeypatch.setattr(flowcache, "_lexsort_dedupe", _must_not_run)
        with pytest.raises(AssertionError, match="lexsort"):
            dedupe_flow_keys(pack_flow_keys(m), crafted(m))

    def test_hash_grouping_needs_no_lexsort_over_the_batch(
        self, monkeypatch, portable_kernel
    ):
        rng = np.random.default_rng(6)
        flows = rng.integers(0, 2**32, (900, 5), dtype=np.uint32)
        m = flows[rng.integers(0, 900, 4 * _CUT)]
        monkeypatch.setattr(flowcache, "_lexsort_dedupe", _must_not_run)
        _assert_groups_by_last_sighting(m)
        small = m[:_CUT - 1]
        with pytest.raises(AssertionError, match="lexsort"):
            dedupe_flow_keys(pack_flow_keys(small), flow_hash(small))

    def test_every_byte_of_every_word_tells_keys_apart(self):
        # Columns that differ in one byte each, at any of the four byte
        # positions: a grouping that skipped a byte, or any word after
        # the first, would merge some of them.
        rng = np.random.default_rng(8)
        for ndim in (2, 5, 6):
            shift = rng.choice([0, 8, 16, 24], (3000, ndim))
            m = (rng.integers(0, 4, (3000, ndim)) << shift).astype(np.uint32)
            _assert_groups_by_last_sighting(m)

    def test_word_order_is_row_order(self):
        # Column 0 is the most significant half of word 0; an odd last
        # column is the *high* half of the last word.
        m = _headers([[1, 0, 0], [0, 2**32 - 1, 2**32 - 1], [0, 0, 1]])
        words = pack_flow_keys(m)
        assert words.shape == (2, 3) and words.dtype == np.uint64
        assert words[:, 0].tolist() == [1 << 32, 0]
        assert words[:, 1].tolist() == [2**32 - 1, (2**32 - 1) << 32]
        # Distinct rows seen once each rank by when they were seen.
        assert dedupe_flow_keys(words, flow_hash(m))[0].tolist() == [0, 1, 2]


def _must_not_run(words):
    raise AssertionError("took the lexsort over the whole batch")


def _sequential_fill(cache, sets, results):
    """What one ``_fill`` batch must leave behind, insert by insert:
    ``(_result table, evictions, reclamations)`` from the pre-batch
    state — victims oldest-first per set, wrap inserts onto the slots
    their batch-mates just claimed."""
    live = cache._live(...)
    expect = cache._result.copy()
    order, seen = {}, {}
    evictions = reclamations = 0
    for s, result in zip(sets.tolist(), results.tolist()):
        if s not in order:
            age = np.where(live[s], cache._stamp[s], -1)
            order[s], seen[s] = np.argsort(age, kind="stable"), 0
        way = order[s][seen[s] % cache.ways]
        if seen[s] >= cache.ways or live[s, way]:
            evictions += 1
        elif cache._filled[s, way] > 0:
            reclamations += 1
        seen[s] += 1
        expect[s, way] = result
    return expect, evictions, reclamations


class TestFillGrouping:
    """A commit's fill groups a batch by set (NumPy: one stable sort of
    the set index; natively: one counting sort); these pin it against
    the insert-by-insert model."""

    def _check(self, cache, sets, rounds=3):
        rng = np.random.default_rng(9)
        for _ in range(rounds):
            n = sets.shape[0]
            hdr = rng.integers(0, 2**32, (n, 5), dtype=np.uint32)
            results = rng.permutation(10 * n)[:n] - 1  # distinct, one -1 possible
            cache._ensure_tables(5)
            expect, evictions, reclamations = _sequential_fill(
                cache, sets, results
            )
            before = cache.stats.evictions, cache.stats.reclamations
            cache.commit(hdr, sets, results)
            assert np.array_equal(cache._result, expect)
            assert cache.stats.evictions - before[0] == evictions
            assert cache.stats.reclamations - before[1] == reclamations
            # A way a batch keeps is probed back under the same key.
            hit, got = cache._probe(pack_flow_keys(hdr), sets)
            kept = cache._result[sets, :] == results[:, None]
            assert hit[kept.any(axis=1)].all()
            sets = rng.permutation(sets)

    def test_every_insert_in_one_set(self):
        cache = FlowCache(32, ways=4)
        self._check(cache, np.full(10, 3, np.int64))
        assert cache.stats.evictions > 0

    def test_set_indices_beyond_sixteen_bits_stay_apart(self):
        # 70,000 sets: the sort key cannot be the 16-bit radix one, and
        # sets 5 / 65,541 (equal modulo 2**16) must not share a group.
        cache = FlowCache(4 * 70_000, ways=4)
        sets = np.array(
            [5, 65_541, 5, 69_999, 65_541, 5, 5, 5, 65_541, 0, 5],
            dtype=np.int64,
        )
        self._check(cache, sets)

    def test_radix_and_wide_keys_agree(self):
        # The same inserts into a <= 65,536-set cache and a larger one
        # pick the same ways.
        rng = np.random.default_rng(10)
        sets = rng.integers(0, 40, 300)
        small, large = FlowCache(4 * 64, ways=4), FlowCache(4 * 70_000, ways=4)
        self._check(small, sets)
        self._check(large, sets)
        assert np.array_equal(small._result[:40], large._result[:40])


class TestFillOrder:
    """A batch fills its distinct misses in the order each was last
    seen, so a set that overflows keeps the flows seen most recently."""

    def test_a_flow_seen_last_survives_a_crowded_set(self):
        clf = CachedClassifier(CountingClassifier(), entries=2, ways=2)
        a, b, c = ([v, 0, 0, 0, 0] for v in (1, 2, 3))
        first = clf.batch_stats(_headers([a, b, c, a]))
        assert (first.cache_hits, first.cache_misses) == (1, 3)
        # B and C fill the two ways, then A, seen last, wraps onto B's.
        assert clf.batch_stats(_headers([a])).cache_hits == 1
        assert clf.batch_stats(_headers([c])).cache_hits == 1
        assert clf.batch_stats(_headers([b])).cache_hits == 0


class TestFlowCacheUnit:
    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError, match="entries"):
            FlowCache(-1)
        with pytest.raises(ConfigError, match="multiple"):
            FlowCache(10, ways=4)
        with pytest.raises(ConfigError, match="ways"):
            FlowCache(8, ways=0)

    def test_zero_entries_disabled(self):
        cache = FlowCache(0)
        assert not cache.enabled
        assert cache.occupancy_fraction() == 0.0

    def test_zero_entry_probe_and_fill_are_noops(self):
        # FlowCache is public API: a disabled cache must behave as
        # "every lookup misses", not crash on an empty table.
        cache = FlowCache(0)
        hdr = _headers([[1, 2, 3, 4, 5], [6, 7, 8, 9, 1]])
        hit, result = cache.probe(hdr)
        assert not hit.any()
        assert result.tolist() == [-1, -1]
        cache.fill(hdr, np.array([3, 4], dtype=np.int64))
        assert not cache.probe(hdr)[0].any()

    def test_probe_hit_after_fill(self):
        cache = FlowCache(8, ways=2)
        hdr = _headers([[1, 2, 3, 4, 5], [9, 9, 9, 9, 9]])
        hit, _ = cache.probe(hdr)
        assert not hit.any()
        cache.fill(hdr, np.array([7, -1], dtype=np.int64))
        hit, result = cache.probe(hdr)
        assert hit.all()
        assert result.tolist() == [7, -1]  # negative results cached too

    def test_lru_eviction_order(self):
        cache = FlowCache(2, ways=2)  # one set of two ways
        a, b, c = (
            _headers([[1, 0, 0, 0, 0]]),
            _headers([[2, 0, 0, 0, 0]]),
            _headers([[3, 0, 0, 0, 0]]),
        )
        cache.fill(a, np.array([10]))
        cache.fill(b, np.array([11]))
        assert cache.probe(a)[0].all()  # touch A: B becomes the LRU way
        cache.fill(c, np.array([12]))  # evicts B
        assert cache.probe(a)[0].all()
        assert cache.probe(c)[0].all()
        assert not cache.probe(b)[0].any()
        assert cache.stats.evictions == 1

    def test_wrap_insert_counts_the_displaced_batchmate(self):
        # More distinct headers than ways land in one set in a single
        # batch: the wrapping inserts displace fills their batch-mates
        # just made — evictions the pre-batch state cannot see.
        cache = FlowCache(1, ways=1)
        hdr = _headers([[i, 0, 0, 0, 0] for i in range(3)])
        cache.fill(hdr, np.arange(3, dtype=np.int64))
        assert cache.stats.evictions == 2
        assert cache.stats.reclamations == 0

    def test_invalidate_drops_entries_keeps_counters(self):
        cache = FlowCache(8, ways=2)
        hdr = _headers([[1, 2, 3, 4, 5]])
        cache.fill(hdr, np.array([3]))
        cache.advance_epoch()
        assert not cache.probe(hdr)[0].any()
        assert cache.stats.invalidations == 1
        assert cache.occupancy_fraction() == 0.0

    def test_whole_cache_flush_then_serve_keeps_the_counters(self, acl_small):
        # Liveness is the epoch tag alone: refilling an epoch-stale slot
        # is a reclamation, never an eviction.  Counters recorded, on
        # both kernels, when the fill order became last sighting.
        trace = generate_zipf_trace(
            acl_small, 4000, n_flows=512, skew=1.0, seed=413
        )
        bare = build_backend("hypercuts", acl_small)
        clf = CachedClassifier(bare, entries=64, ways=4)
        got = []
        for i, lo in enumerate(range(0, trace.n_packets, 400)):
            if i in (3, 7):
                clf.cache.advance_epoch()
            got.append(clf.batch_stats(trace.headers[lo:lo + 400]).match)
        assert np.array_equal(np.concatenate(got), bare.classify_trace(trace))
        stats = clf.cache.stats
        assert (
            stats.hits, stats.misses, stats.evictions, stats.reclamations
        ) == (2764, 1236, 1044, 128)


class TestFlowCacheRetire:
    """`FlowCache.retire`: an update batch kills only the entries whose
    answer it could have changed; everything else keeps hitting."""

    FLOWS = _headers([[10, 0, 0, 0, 0], [20, 0, 0, 0, 0], [30, 0, 0, 0, 0]])

    @staticmethod
    def _rule(lo: int, hi: int) -> Rule:
        """Covers headers whose first field is in ``[lo, hi]``."""
        return Rule(ranges=((lo, hi),) + tuple(
            (0, FIVE_TUPLE.max_value(d)) for d in range(1, FIVE_TUPLE.ndim)
        ))

    def _cache(self, results, **kwargs) -> FlowCache:
        cache = FlowCache(16, ways=4, **kwargs)
        cache.fill(self.FLOWS, np.asarray(results, dtype=np.int64))
        return cache

    def _hits(self, cache: FlowCache) -> list[bool]:
        return cache.probe(self.FLOWS)[0].tolist()

    def test_removed_match_is_retired(self):
        cache = self._cache([5, 6, -1])
        # 6 is cached, 99 is cached nowhere, and a duplicate is harmless.
        cache.retire((remove_op(6), remove_op(99), remove_op(6)), ())
        assert self._hits(cache) == [True, False, True]
        assert cache.stats.retired == 1
        assert cache.stats.invalidations == 1

    def test_insert_covering_a_cached_no_match_retires_it(self):
        cache = self._cache([5, -1, -1])
        # Covers flows 10 and 20; flow 10 already matches something
        # (5 < 40, higher priority), flow 30 is not covered.
        cache.retire((insert_op(self._rule(0, 25)),), (40,))
        assert self._hits(cache) == [True, False, True]
        assert cache.stats.retired == 1

    def test_insert_of_higher_priority_retires_covered_lower_matches(self):
        cache = self._cache([5, 50, 60])
        # Id 40 beats cached 50 and 60, not 5; it covers flows 10-20.
        cache.retire((insert_op(self._rule(0, 25)),), (40,))
        assert self._hits(cache) == [True, False, True]
        assert cache.stats.retired == 1

    def test_insert_covering_no_cached_flow_retires_nothing(self):
        cache = self._cache([5, -1, 60])
        cache.retire((insert_op(self._rule(100, 200)),), (7,))
        assert self._hits(cache) == [True, True, True]
        assert cache.stats.retired == 0
        assert cache.stats.invalidations == 1  # the batch still counts

    def test_each_insert_is_judged_by_its_own_id(self):
        cache = self._cache([5, 45, -1])
        # Id 40 covers only flow 10 (cached 5: safe); id 50 covers only
        # flow 20 (cached 45: safe).  Swapped ids would retire flow 20.
        batch = (insert_op(self._rule(10, 10)), insert_op(self._rule(20, 20)))
        cache.retire(batch, (40, 50))
        assert cache.stats.retired == 0
        cache.retire(batch, (50, 40))
        assert self._hits(cache) == [True, False, True]

    def test_every_header_column_is_compared(self):
        # The stored header is unpacked from the key words: a rule that
        # misses in any one column (high half, low half, the odd last
        # word) must not retire the flow.
        cache = FlowCache(16, ways=4)
        flow = _headers([[1, 2, 3, 4, 5]])
        cache.fill(flow, np.array([-1]))
        for d in range(FIVE_TUPLE.ndim):
            ranges = [(int(v), int(v)) for v in flow[0]]
            ranges[d] = (int(flow[0, d]) + 1, int(flow[0, d]) + 1)
            cache.retire((insert_op(Rule(ranges=tuple(ranges))),), (9,))
        assert cache.stats.retired == 0
        exact = Rule(ranges=tuple((int(v), int(v)) for v in flow[0]))
        cache.retire((insert_op(exact),), (9,))
        assert cache.stats.retired == 1

    def test_retire_on_an_untouched_cache_only_counts_the_batch(self):
        cache = FlowCache(16, ways=4)  # tables not allocated yet
        cache.retire((remove_op(1),), ())
        assert (cache.stats.invalidations, cache.stats.retired) == (1, 0)

    def test_retired_slot_refill_is_a_reclamation_not_an_eviction(self):
        cache = FlowCache(2, ways=2)  # one set of two ways, both full
        a, b, c = (_headers([[v, 0, 0, 0, 0]]) for v in (1, 2, 3))
        cache.fill(a, np.array([10]))
        cache.fill(b, np.array([11]))
        cache.retire((remove_op(10),), ())
        cache.fill(c, np.array([12]))  # takes a's retired slot, not b's
        assert cache.stats.evictions == 0
        assert cache.stats.reclamations == 1
        assert cache.probe(b)[0].all() and cache.probe(c)[0].all()
        assert not cache.probe(a)[0].any()

    def test_stale_entry_is_not_counted_and_dies_once(self):
        # ``retired`` counts *live* entries killed; an entry a whole
        # flush already killed is not one, and its slot is still
        # reclaimed exactly once.
        cache = FlowCache(2, ways=2)
        a = _headers([[1, 0, 0, 0, 0]])
        cache.fill(a, np.array([10]))
        cache.advance_epoch()  # a goes epoch-stale
        cache.retire((remove_op(10),), ())
        assert cache.stats.retired == 0
        cache.fill(_headers([[2, 0, 0, 0, 0]]), np.array([11]))
        cache.fill(_headers([[3, 0, 0, 0, 0]]), np.array([12]))
        assert cache.stats.evictions == 0
        assert cache.stats.reclamations == 1

    def test_retired_entry_stays_dead_across_a_whole_flush(self):
        cache = self._cache([5, 6, 7])
        cache.retire((remove_op(6),), ())
        cache.advance_epoch()
        assert self._hits(cache) == [False, False, False]
        cache.fill(self.FLOWS[1:2], np.array([8]))
        assert self._hits(cache) == [False, True, False]


class TestFlowCacheEpoch:
    """The one liveness rule: an entry is live while the epoch it was
    filled under is current — however many lookups pass meanwhile."""

    def test_entry_outlives_any_number_of_lookups(self):
        cache = FlowCache(8, ways=2)
        hdr = _headers([[1, 2, 3, 4, 5]])
        other = _headers([[9, 9, 9, 9, 9]])
        cache.fill(hdr, np.array([7]))
        for _ in range(1000):
            cache.probe(other)
        hit, result = cache.probe(hdr)
        assert hit.all() and result.tolist() == [7]

    def test_fill_after_a_flush_is_live_in_the_new_epoch(self):
        cache = FlowCache(8, ways=2)
        hdr = _headers([[1, 2, 3, 4, 5]])
        cache.fill(hdr, np.array([7]))
        cache.advance_epoch()
        cache.fill(hdr, np.array([8]))
        hit, result = cache.probe(hdr)
        assert hit.all() and result.tolist() == [8]
        assert cache.epoch == 1

    def test_stale_slot_is_reclaimed_not_evicted(self):
        cache = FlowCache(2, ways=2)  # one set of two ways
        a, b, c = (_headers([[v, 0, 0, 0, 0]]) for v in (1, 2, 3))
        cache.fill(a, np.array([10]))
        cache.advance_epoch()  # a goes epoch-stale
        cache.fill(b, np.array([11]))  # one live entry, one stale
        cache.fill(c, np.array([12]))  # the set's other slot
        assert cache.stats.evictions == 0
        assert cache.stats.reclamations == 1
        assert cache.probe(b)[0].all() and cache.probe(c)[0].all()
        assert not cache.probe(a)[0].any()

    def test_repeated_flushes_reclaim_a_slot_once(self):
        # Stale under several epochs is still one dead slot.
        cache = FlowCache(1, ways=1)
        cache.fill(_headers([[1, 0, 0, 0, 0]]), np.array([10]))
        for _ in range(3):
            cache.advance_epoch()
        cache.fill(_headers([[2, 0, 0, 0, 0]]), np.array([11]))
        assert (cache.stats.evictions, cache.stats.reclamations) == (0, 1)
        assert cache.stats.invalidations == 3

    def test_occupancy_fraction_refills_after_a_flush(self):
        cache = FlowCache(4, ways=2)
        hdr = _headers([[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]])
        cache.fill(hdr, np.array([1, 2]))
        assert cache.occupancy_fraction() == 0.5
        cache.advance_epoch()
        assert cache.occupancy_fraction() == 0.0
        cache.fill(hdr[:1], np.array([1]))
        assert cache.occupancy_fraction() == 0.25

    def test_cached_classifier_revalidates_only_after_a_flush(self):
        inner = CountingClassifier()
        cached = CachedClassifier(inner, entries=64, ways=4)
        hdr = _headers([[1, 2, 3, 4, 5]])
        bulk = _headers([[6, 7, 8, 9, 1]])
        assert cached.classify_batch(hdr).tolist() == [4]
        for _ in range(50):
            cached.classify_batch(bulk)
        calls = inner.calls
        assert cached.classify_batch(hdr).tolist() == [4]  # still cached
        assert inner.calls == calls
        cached.invalidate_cache()
        assert cached.classify_batch(hdr).tolist() == [4]
        assert inner.calls == calls + 1  # flushed -> revalidated

    def test_flush_before_every_batch_keeps_results(
        self, acl_small, zipf_trace
    ):
        # A flush only ever costs hits, never a changed answer.
        bare = build_backend("tuple_space", acl_small)
        want = bare.classify_trace(zipf_trace)
        flushed = CachedClassifier(bare, entries=256, ways=4)
        kept = CachedClassifier(bare, entries=256, ways=4)
        got = []
        for lo in range(0, zipf_trace.n_packets, 256):
            chunk = zipf_trace.headers[lo:lo + 256]
            flushed.invalidate_cache()
            got.append(flushed.batch_stats(chunk).match)
            kept.batch_stats(chunk)
        assert np.array_equal(np.concatenate(got), want)
        assert flushed.cache.stats.hit_rate < kept.cache.stats.hit_rate

    def test_memory_bytes_models_one_stamp_per_slot(self):
        # key + result + LRU stamp + epoch tag + valid bit, and no more.
        cache = FlowCache(16, ways=4)
        assert cache.memory_bytes(ndim=5) == 16 * (20 + 8 + 8 + 8 + 1)
        cache.fill(_headers([[1, 2, 3]]), np.array([0]))
        assert cache.memory_bytes(ndim=5) == 16 * (12 + 8 + 8 + 8 + 1)


class TestPinnedCounters:
    """Counters and replacement state recorded, on both kernels, when the
    fill order became last sighting: any change to probe, dedupe or fill
    that moves a hit, a victim or a stamp shows up here as a changed
    number."""

    #: ways -> (hits, misses, evictions, reclamations, crc32 of the
    #: final ``_stamp`` table, crc32 of the per-set victim order).
    PINNED = {
        1: (4022, 1978, 1723, 127, 144640205, 4021661486),
        4: (4054, 1946, 1690, 128, 1705503899, 79563529),
    }

    @pytest.mark.parametrize("ways", [1, 4])
    def test_zipf_trace_with_epoch_bump(self, acl_small, ways):
        trace = generate_zipf_trace(
            acl_small, 6000, n_flows=1024, skew=1.0, seed=412
        )
        bare = build_backend("hypercuts", acl_small)
        clf = CachedClassifier(bare, entries=128, ways=ways)
        got = []
        for i, lo in enumerate(range(0, trace.n_packets, 500)):
            if i == 6:
                clf.invalidate_cache()  # epoch bump mid-way
            got.append(clf.batch_stats(trace.headers[lo:lo + 500]).match)
        assert np.array_equal(np.concatenate(got), bare.classify_trace(trace))
        cache, stats = clf.cache, clf.cache.stats
        live = cache._live(...)
        victims = np.argsort(
            np.where(live, cache._stamp, -1), axis=1, kind="stable"
        ).astype(np.int64)
        assert (
            stats.hits, stats.misses, stats.evictions, stats.reclamations,
            zlib.crc32(cache._stamp.tobytes()), zlib.crc32(victims.tobytes()),
        ) == self.PINNED[ways]


# ---------------------------------------------------------------------------
# The native cache kernels against the NumPy path (the oracle)
# ---------------------------------------------------------------------------
@pytest.mark.usefixtures("portable_kernel")
class TestPackedKeyDedupePortable(TestPackedKeyDedupe):
    pass


@pytest.mark.usefixtures("portable_kernel")
class TestFillGroupingPortable(TestFillGrouping):
    pass


@pytest.mark.usefixtures("portable_kernel")
class TestFillOrderPortable(TestFillOrder):
    pass


@pytest.mark.usefixtures("portable_kernel")
class TestFlowCacheUnitPortable(TestFlowCacheUnit):
    pass


@pytest.mark.usefixtures("portable_kernel")
class TestFlowCacheRetirePortable(TestFlowCacheRetire):
    pass


@pytest.mark.usefixtures("portable_kernel")
class TestFlowCacheEpochPortable(TestFlowCacheEpoch):
    pass


@pytest.mark.usefixtures("portable_kernel")
class TestPinnedCountersPortable(TestPinnedCounters):
    pass


class ResultOfHeader(CountingClassifier):
    """Protocol-shaped stub for any header width: a fixed function of
    the columns, ``-1`` (no match) included."""

    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        wide = headers.astype(np.int64)
        return (wide.sum(axis=1) * 7 + wide[:, 0]) % 13 - 1


class CyclesOfHeader(ResultOfHeader):
    """:class:`ResultOfHeader` that also models per-packet occupancy, a
    fixed function of the columns too (as the accelerator does)."""

    models_occupancy = True

    def batch_stats(self, headers: np.ndarray, out=None) -> BatchStats:
        """Written into ``out`` in place, tallies added, as the
        accelerator writes its batch."""
        match, occupancy, tally = out or batch_out(len(headers), True)
        match[:] = self.classify_batch(headers)
        occupancy[:] = headers.astype(np.int64).sum(axis=1) % 5 + 2
        tally += (np.count_nonzero(match >= 0), occupancy.sum())
        return tallied((match, occupancy, tally))


#: Small header values that collide in a small cache, plus the edges.
_SMALL = st.integers(0, 3) | _EDGE_VALUES
_ID = st.integers(-1, 12)


@st.composite
def _cache_runs(draw):
    """A cache geometry (one set, 1-way, a set count that is no power of
    two and one past 2^16 included), a backend with or without
    occupancy, a pool of flows and a sequence of steps over it: served
    batches (empty, repeated, all-new), direct lookups and commits,
    probes, fills, commits with occupancy but no misses, update batches
    to retire and whole-cache flushes."""
    ndim = draw(st.integers(1, 6))
    ways = draw(st.sampled_from([1, 2, 4]))
    n_sets = draw(st.sampled_from([1, 2, 3, 8, (1 << 16) + 1]))
    entries = ways * n_sets
    if n_sets < 9 and draw(st.booleans()):
        ways = entries  # one set
    pool = np.asarray(draw(st.lists(
        st.lists(_SMALL, min_size=ndim, max_size=ndim),
        min_size=1, max_size=min(3 * entries + 2, 98),
    )), dtype=np.uint32)
    rows = st.lists(st.integers(0, len(pool) - 1), max_size=40)
    box = st.lists(
        st.tuples(_SMALL, _SMALL).map(sorted).map(tuple),
        min_size=ndim, max_size=ndim,
    ).map(lambda ranges: Rule(ranges=tuple(ranges)))
    step = st.one_of(
        st.tuples(st.just("serve"), rows, st.sampled_from([1, 1, 1, 20])),
        st.tuples(st.just("lookup"), rows),
        st.tuples(st.just("probe"), rows),
        st.tuples(st.just("fill"), rows),
        st.tuples(st.just("commit"), rows),
        st.tuples(st.just("retire"), st.lists(_ID, max_size=3),
                  st.lists(st.tuples(box, _ID), max_size=2)),
        st.tuples(st.just("flush")),
    )
    backend = draw(st.sampled_from([ResultOfHeader, CyclesOfHeader]))
    return entries, ways, backend(), pool, draw(st.lists(step, max_size=12))


def _listed(*arrays) -> list:
    return [None if a is None else a.tolist() for a in arrays]


def _take_step(clf: CachedClassifier, pool: np.ndarray, step) -> list:
    """Apply one drawn step; what it returned, as comparable values."""
    kind, *args = step
    if kind == "serve":
        rows, repeat = args
        out = clf.batch_stats(np.tile(pool[rows], (repeat, 1)))
        return [*_listed(out.match, out.occupancy), out.cache_hits,
                out.cache_misses, out.cache_evictions, out.matched,
                out.occupancy_sum]
    if kind == "lookup":
        out = batch_out(len(args[0]), clf.models_occupancy)
        match, misses, rank, uniq, sets = found = clf.cache.lookup(
            pool[args[0]], *out
        )
        inner = batch_stats_of(clf.classifier, uniq)
        clf.cache.commit(
            uniq, sets, inner.match, inner.occupancy, misses, rank, *out
        )
        return _listed(*found, *out)
    if kind == "probe":
        return _listed(*clf.cache.probe(pool[args[0]]))
    if kind == "fill":
        headers = pool[args[0]]
        clf.cache.fill(headers, ResultOfHeader().classify_batch(headers))
    elif kind == "commit":  # occupancy given, nothing to scatter it to
        headers = clf.cache._prepare(pool[args[0]])
        results = ResultOfHeader().classify_batch(headers)
        return _listed(clf.cache.commit(headers, None, results, results + 2))
    elif kind == "retire":
        removed, inserted = args
        ops = [remove_op(i) for i in removed if i >= 0]
        ops += [insert_op(rule) for rule, _ in inserted]
        clf.cache.retire(ops, [rule_id for _, rule_id in inserted])
    else:
        clf.invalidate_cache()
    return []


def _assert_same_cache(a: FlowCache, b: FlowCache) -> None:
    for name in ("_keyw", "_result", "_stamp", "_epoch", "_filled"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert (a._tick, a.epoch, a.stats) == (b._tick, b.epoch, b.stats)


def _on_both_kernels(twins, act) -> list:
    """``act(clf)`` on the first twin natively and on the second
    through the NumPy path; what each returned."""
    said = []
    for clf, portable in zip(twins, (False, True)):
        with pytest.MonkeyPatch.context() as patch:
            if portable:
                patch.setattr(native, "_kernel",
                              native._Kernel(reason="oracle side"))
            said.append(act(clf))
    return said


class TestNativeCacheKernels:
    """The native lookup and commit (``fc_lookup``, ``fc_commit``) return
    what the NumPy path returns — every served ``BatchStats`` with its
    tallies, every lookup's four arrays, the match, occupancy and tally
    a lookup and its commit write — and leave every table, the clock
    and every counter where it leaves them, step after step."""

    @settings(max_examples=200, deadline=None)
    @given(_cache_runs())
    def test_native_and_portable_serve_the_same(self, run):
        if native.status()["kernel"] != "native":
            pytest.skip(f"native kernel unavailable: {native.status()['reason']}")
        entries, ways, backend, pool, steps = run
        twins = [
            CachedClassifier(backend, entries=entries, ways=ways)
            for _ in range(2)
        ]
        for step in steps:
            said = _on_both_kernels(
                twins, lambda clf: _take_step(clf, pool, step))
            assert said[0] == said[1], step
            _assert_same_cache(twins[0].cache, twins[1].cache)


class TestNativeRetire:
    """``fc_retire`` (one C pass over the slots) retires what
    ``FlowCache.retire``'s NumPy pass retires: the same ``_epoch``
    table, the same ``stats.retired`` / ``invalidations``, and the same
    next cached serve, on a cache holding no-match entries, slots
    already at epoch -1 and slots of an older epoch."""

    BATCHES = {
        "empty": ([], []),
        "removes": ([2, 5, 5, 40], []),
        # (column, its range, id): each insert spans the whole pool on
        # every other column; ids below and above the cached results, so
        # each insert is judged by its own id.
        "inserts": ([], [(0, (0, 1), 7), (-1, (2, 3), 0), (1, (2, 2), 11)]),
        "both": ([1, 9], [(-1, (1, 3), 3), (0, (0, 0), 12)]),
    }

    @staticmethod
    def _live(cache) -> list[int]:
        """The matches the live slots cache, in slot order."""
        results = cache._result[cache._epoch == cache.epoch]
        return [int(r) for r in results if r >= 0]

    @staticmethod
    def _serve(clf, headers):
        out = clf.batch_stats(headers)
        return [*_listed(out.match, out.occupancy), out.cache_hits,
                out.cache_misses, out.cache_evictions]

    @pytest.mark.parametrize("batch", list(BATCHES))
    @pytest.mark.parametrize("ndim", [5, 3])
    @pytest.mark.parametrize("ways", [1, 4, 8])
    def test_native_and_portable_retire_the_same(self, native_kernel, ways,
                                                 ndim, batch):
        rng = np.random.default_rng(ways * 10 + ndim)

        def headers(n):
            return rng.integers(0, 4, size=(n, ndim)).astype(np.uint32)

        def fill(n):
            h, results = headers(n), rng.integers(-1, 13, size=n)
            results[::3] = -1  # no-match entries
            return lambda clf: clf.cache.fill(h, results)

        twins = [CachedClassifier(ResultOfHeader(), entries=32 * ways,
                                  ways=ways) for _ in range(2)]
        steps = [
            fill(300),
            lambda clf: clf.invalidate_cache(),  # an older epoch's slots
            fill(60),
            lambda clf: clf.cache.retire(  # slots at epoch -1
                [remove_op(i) for i in {3, 8, *self._live(clf.cache)[:2]}],
                ()),
            lambda clf, h=headers(10): self._serve(clf, h),
        ]
        for step in steps:
            said = _on_both_kernels(twins, step)
            assert said[0] == said[1]
        epochs = twins[0].cache._epoch
        assert (epochs == -1).any() and (epochs < twins[0].cache.epoch).any()
        assert (twins[0].cache._result[epochs == twins[0].cache.epoch] < 0).any()
        before = twins[0].cache.stats.retired

        removed, inserted = self.BATCHES[batch]
        ops = [remove_op(i) for i in removed]
        for column, box, _ in inserted:
            ranges = [(0, 3)] * ndim
            ranges[column] = box
            ops.append(insert_op(Rule(ranges=tuple(ranges))))
        ids = [rule_id for _, _, rule_id in inserted]
        _on_both_kernels(twins, lambda clf: clf.cache.retire(ops, ids))
        _assert_same_cache(twins[0].cache, twins[1].cache)
        assert (twins[0].cache.stats.retired > before) == (batch != "empty")
        said = _on_both_kernels(twins, lambda clf, h=headers(200):
                                self._serve(clf, h))
        assert said[0] == said[1]
        _assert_same_cache(twins[0].cache, twins[1].cache)


class TestBoundContext:
    """The native cache calls are bound once: ``FlowCache._native`` is
    built over the tables when they are (re)allocated and then only gets
    the epoch and the clock.  Interleaved with every event that moves
    the cache's state — a whole-cache flush, an update batch's retire, a
    header-width change that reallocates the tables, a fill, a fork of a
    shard owner, a batch larger than any before — the native twin's
    tables, counters and results stay the NumPy twin's."""

    @staticmethod
    def _serve(twins, headers) -> None:
        def serve(clf):
            out = clf.batch_stats(headers)
            return [*_listed(out.match, out.occupancy), out.cache_hits,
                    out.cache_misses, out.cache_evictions, out.occupancy_sum]

        said = _on_both_kernels(twins, serve)
        assert said[0] == said[1]
        _assert_same_cache(twins[0].cache, twins[1].cache)

    @staticmethod
    def _both(twins, event) -> None:
        for clf in twins:
            event(clf)

    def test_the_bound_context_is_never_stale(self, native_kernel):
        twins = [CachedClassifier(CyclesOfHeader(), entries=64, ways=4)
                 for _ in range(2)]
        rng = np.random.default_rng(45)

        def batch(n, ndim=5):
            return rng.integers(0, 6, size=(n, ndim)).astype(np.uint32)

        self._serve(twins, batch(300))
        bound = twins[0].cache._native
        assert bound is not None and twins[1].cache._native is None
        self._serve(twins, batch(300))
        self._both(twins, lambda clf: clf.invalidate_cache())
        self._serve(twins, batch(300))
        box = Rule(ranges=((0, 2),) * 5)
        self._both(twins, lambda clf: clf.cache.retire(
            [remove_op(3), insert_op(box)], [2]))
        self._serve(twins, batch(300))
        fill = batch(40)
        self._both(twins, lambda clf: clf.cache.fill(
            fill, np.arange(40, dtype=np.int64)))
        self._serve(twins, batch(300))
        if "fork" in multiprocessing.get_all_start_methods():
            # A forked shard owner serves on its copy-on-write copy of
            # the bound table.
            child = multiprocessing.get_context("fork").Process(
                target=self._serve, args=(twins, batch(3000))
            )
            child.start()
            child.join(60)
            assert child.exitcode == 0
        self._serve(twins, batch(300))
        # Seven columns: the tables are reallocated and bound anew.
        self._serve(twins, batch(300, ndim=7))
        assert twins[0].cache._native is not bound
        assert twins[0].cache._native.ndim == 7
        self._serve(twins, batch(200, ndim=7))
        self._serve(twins, batch(5000, ndim=7))  # larger than any before
        self._serve(twins, batch(100, ndim=7))

    def test_a_steady_batch_binds_nothing(self, native_kernel, monkeypatch):
        clf = CachedClassifier(CyclesOfHeader(), entries=64, ways=4)
        headers = random_headers(FIVE_TUPLE, 500, seed=4)
        clf.batch_stats(headers)
        checked = []
        real = native._pointer

        def spy(name, *args):
            checked.append(name)
            return real(name, *args)

        monkeypatch.setattr(native, "_pointer", spy)
        for _ in range(3):
            clf.batch_stats(headers)
            clf.cache.advance_epoch()
        tables = {"_keyw", "_result", "_stamp", "_epoch", "_filled"}
        assert checked and not tables & set(checked)


class TestCachedClassifierEdgeCases:
    def test_zero_entry_cache_is_pure_passthrough(self):
        inner = CountingClassifier()
        clf = CachedClassifier(inner, entries=0)
        hdr = _headers([[1, 2, 3, 4, 5]] * 10)
        stats = clf.batch_stats(hdr)
        # No coalescing, no hits: all 10 rows reach the backend.
        assert stats.cache_hits == 0 and stats.cache_misses == 10
        assert inner.rows_seen == 10
        assert stats.match.tolist() == [4] * 10

    def test_capacity_one_thrash(self):
        inner = CountingClassifier()
        clf = CachedClassifier(inner, entries=1, ways=1)
        distinct = _headers([[i, 0, 0, i, 0] for i in range(8)])
        first = clf.batch_stats(distinct)
        assert first.cache_misses == 8 and first.cache_hits == 0
        # Every distinct batch keeps missing: the single slot thrashes.
        second = clf.batch_stats(distinct[:-1])
        assert second.cache_misses == 7 and second.cache_hits == 0
        assert clf.cache.stats.hit_rate == 0.0
        assert clf.cache.stats.evictions >= 1
        # Results stay correct throughout.
        assert np.array_equal(first.match, distinct[:, 3].astype(np.int64))

    def test_duplicate_packets_within_one_chunk_coalesce(self):
        inner = CountingClassifier()
        clf = CachedClassifier(inner, entries=64, ways=4)
        hdr = _headers(
            [[1, 2, 3, 4, 5]] * 5 + [[6, 7, 8, 9, 1]] * 3 + [[1, 2, 3, 4, 5]]
        )
        stats = clf.batch_stats(hdr)
        # 9 packets, 2 distinct headers: one backend call on 2 rows.
        assert inner.calls == 1 and inner.rows_seen == 2
        assert stats.cache_misses == 2 and stats.cache_hits == 7
        assert stats.match.tolist() == [4] * 5 + [9] * 3 + [4]

    def test_scalar_classify_goes_through_cache(self):
        inner = CountingClassifier()
        clf = CachedClassifier(inner, entries=64)
        assert clf.classify((1, 2, 3, 4, 5)) == 4
        assert clf.classify((1, 2, 3, 4, 5)) == 4
        assert inner.rows_seen == 1

    def test_memory_hooks_include_cache(self):
        inner = CountingClassifier()
        clf = CachedClassifier(inner, entries=64, ways=4)
        assert clf.memory_bytes() > inner.memory_bytes()
        assert (
            clf.memory_accesses_per_lookup()
            == inner.memory_accesses_per_lookup() + 1
        )
        off = CachedClassifier(CountingClassifier(), entries=0)
        assert off.memory_accesses_per_lookup() == 8

    def test_invalidation_after_incremental_rule_update(
        self, acl_small, acl_small_trace
    ):
        clf = CachedClassifier(
            build_backend("incremental", acl_small), entries=4096
        )
        before = clf.classify_trace(acl_small_trace)
        missed = before < 0
        assert missed.any()  # the background packets miss the ACL
        catch_all = Rule(
            ranges=tuple(
                (0, FIVE_TUPLE.max_value(d)) for d in range(FIVE_TUPLE.ndim)
            ),
            priority=len(acl_small),
            action=0,
        )
        clf.apply_updates((insert_op(catch_all),))
        assert clf.cache.stats.invalidations == 1
        after = clf.classify_trace(acl_small_trace)
        # Stale -1 results must not be served from the cache.
        new_id = len(acl_small)
        assert (after[missed] == new_id).all()
        assert np.array_equal(after[~missed], before[~missed])
        assert np.array_equal(
            after, clf.classifier.classify_trace(acl_small_trace)
        )

    def test_stale_results_without_invalidation(self, acl_small,
                                                acl_small_trace):
        """Control for the invalidation test: mutating the wrapped
        classifier behind the cache's back *does* serve stale results —
        which is exactly why the update hooks flush."""
        clf = CachedClassifier(
            build_backend("incremental", acl_small), entries=4096
        )
        before = clf.classify_trace(acl_small_trace)
        missed = before < 0
        catch_all = Rule(
            ranges=tuple(
                (0, FIVE_TUPLE.max_value(d)) for d in range(FIVE_TUPLE.ndim)
            ),
            priority=len(acl_small),
            action=0,
        )
        clf.classifier.insert(catch_all)  # bypass the wrapper on purpose
        stale = clf.classify_trace(acl_small_trace)
        assert (stale[missed] == -1).all()
        clf.invalidate_cache()
        fresh = clf.classify_trace(acl_small_trace)
        assert (fresh[missed] == len(acl_small)).all()


class TestConformance:
    """Cached == bare, for every backend, both traces, 1/2/4 shards."""

    def test_single_shot_random_trace(
        self, bare_backend, acl_small_trace
    ):
        name, bare = bare_backend
        cached = CachedClassifier(bare, entries=1024, ways=4)
        want = bare.classify_trace(acl_small_trace)
        assert np.array_equal(
            cached.classify_trace(acl_small_trace), want
        ), name
        # And again over the warm cache.
        assert np.array_equal(
            cached.classify_trace(acl_small_trace), want
        ), name

    def test_single_shot_zipf_trace(self, bare_backend, zipf_trace):
        name, bare = bare_backend
        cached = CachedClassifier(bare, entries=1024, ways=4)
        want = bare.classify_trace(zipf_trace)
        assert np.array_equal(cached.classify_trace(zipf_trace), want), name
        assert cached.cache.stats.hit_rate > 0.5, name  # Zipf(1.0) is hot

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_pipeline_shards_random_trace(
        self, bare_backend, acl_small_trace, shards
    ):
        name, bare = bare_backend
        cached = CachedClassifier(bare, entries=1024, ways=4)
        res = ClassificationPipeline(
            cached, chunk_size=512, shards=shards
        ).run(acl_small_trace)
        assert np.array_equal(
            res.match, bare.classify_trace(acl_small_trace)
        ), name
        assert res.cache_hits + res.cache_misses == res.n_packets, name

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_pipeline_shards_zipf_trace(
        self, bare_backend, zipf_trace, shards
    ):
        name, bare = bare_backend
        cached = CachedClassifier(bare, entries=1024, ways=4)
        res = ClassificationPipeline(
            cached, chunk_size=512, shards=shards
        ).run(zipf_trace)
        assert np.array_equal(
            res.match, bare.classify_trace(zipf_trace)
        ), name
        assert res.cache_hit_rate > 0.5, name


class TestPipelineCacheStats:
    def test_bare_backend_reports_no_cache_fields(
        self, acl_small, acl_small_trace
    ):
        clf = build_backend("linear", acl_small)
        res = ClassificationPipeline(clf, chunk_size=512).run(acl_small_trace)
        assert res.cache_hits is None
        assert res.cache_hit_rate is None
        assert all(c.cache_hits is None for c in res.chunks)

    def test_chunk_stats_sum_to_totals(self, acl_small, zipf_trace):
        cached = CachedClassifier(build_backend("linear", acl_small), entries=1024)
        res = ClassificationPipeline(cached, chunk_size=256).run(zipf_trace)
        assert sum(c.cache_hits for c in res.chunks) == res.cache_hits
        assert sum(c.cache_misses for c in res.chunks) == res.cache_misses
        assert res.cache_lookups == res.n_packets

    def test_warm_cache_second_run_all_hits(self, acl_small, zipf_trace):
        cached = CachedClassifier(build_backend("linear", acl_small), entries=1024)
        pipeline = ClassificationPipeline(cached, chunk_size=256)  # 1 shard
        pipeline.run(zipf_trace)
        res = pipeline.run(zipf_trace)  # 64 flows all fit: no misses left
        assert res.cache_hits == res.n_packets
        assert res.cache_hit_rate == 1.0

    def test_evictions_travel_back_from_forked_shards(
        self, acl_small, zipf_trace
    ):
        """Eviction counts happen inside forked workers; the pipeline
        must report them from the chunk outputs, not the parent cache
        (which forked runs never touch)."""
        cached = CachedClassifier(
            build_backend("linear", acl_small), entries=4, ways=1
        )
        res = ClassificationPipeline(
            cached, chunk_size=256, shards=2
        ).run(zipf_trace)
        assert res.cache_evictions is not None
        assert res.cache_evictions > 0  # 64 flows thrash a 4-entry cache
        assert sum(c.cache_evictions for c in res.chunks) == (
            res.cache_evictions
        )

    @pytest.mark.parametrize("shard_mode", ["processes", "threads"])
    def test_insert_between_runs_reaches_the_shard_owners(
        self, shard_mode, acl_small, acl_small_trace
    ):
        """Held workers serve the snapshot they forked with and thread
        clones a private cache; a rule inserted through the wrapper
        between two runs moves ``update_epoch``, so the second run
        re-forks / flushes before serving and needs no close()."""
        cached = CachedClassifier(
            build_backend("incremental", acl_small), entries=1024
        )
        with ClassificationPipeline(
            cached, chunk_size=512, shards=2, shard_mode=shard_mode
        ) as pipeline:
            before = pipeline.run(acl_small_trace).match
            missed = before < 0
            assert missed.any()
            catch_all = Rule(
                ranges=tuple(
                    (0, FIVE_TUPLE.max_value(d))
                    for d in range(FIVE_TUPLE.ndim)
                ),
                priority=len(acl_small),
                action=0,
            )
            cached.apply_updates((insert_op(catch_all),))  # + retires
            after = pipeline.run(acl_small_trace).match
        assert (after[missed] == len(acl_small)).all()
        assert np.array_equal(after[~missed], before[~missed])
        assert np.array_equal(
            after,
            build_backend("linear", cached.classifier.live_ruleset())
            .classify_trace(acl_small_trace),
        )

    def test_cached_accelerator_occupancy_drops(self, acl_small, zipf_trace):
        bare = build_backend("accelerator", acl_small)
        base = ClassificationPipeline(bare, chunk_size=256).run(zipf_trace)
        cached = CachedClassifier(bare, entries=1024, ways=4)
        res = ClassificationPipeline(cached, chunk_size=256).run(zipf_trace)
        assert np.array_equal(res.match, base.match)
        assert res.mean_occupancy() is not None
        assert res.mean_occupancy() <= base.mean_occupancy()


class TestCacheEnergyModel:
    def test_effective_accesses_interpolates(self):
        model = CacheEnergyModel(backend_accesses=10.0)
        assert model.effective_accesses_per_lookup(1.0) == 1.0
        assert model.effective_accesses_per_lookup(0.0) == 12.0
        mid = model.effective_accesses_per_lookup(0.5)
        assert mid == pytest.approx(6.5)
        assert model.effective_lookup_speedup(0.9) > 2.0

    def test_energy_split_monotone_in_hit_rate(self):
        model = CacheEnergyModel(backend_accesses=10.0)
        assert (
            model.energy_per_packet_j(0.9)
            < model.energy_per_packet_j(0.5)
            < model.energy_per_packet_j(0.0)
        )
        assert model.uncached_energy_per_packet_j() == pytest.approx(
            10.0 * model.energy_per_access_j
        )

    def test_for_classifier_unwraps_cache(self, acl_small):
        cached = CachedClassifier(build_backend("linear", acl_small), entries=64)
        model = CacheEnergyModel.for_classifier(cached)
        assert model.backend_accesses == float(
            cached.classifier.memory_accesses_per_lookup()
        )

    def test_bad_hit_rate_rejected(self):
        model = CacheEnergyModel(backend_accesses=10.0)
        with pytest.raises(ValueError):
            model.energy_per_packet_j(1.5)
