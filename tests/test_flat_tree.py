"""Conformance suite for the compiled flat-array traversal kernel.

The load-bearing property: :meth:`FlatTree.batch_lookup` is bit-for-bit
identical to the object-walking reference traversal
(:meth:`DecisionTree.batch_lookup_reference`) on every
:class:`BatchLookup` field, and both agree with the scalar ``lookup`` —
on grid trees (congruence/mask-shift indexing) and on software trees
including the compacted-region dead path, where packets fall outside a
node's shrunk bounding box and must die with ``leaf_size == 0``.  The
identity classes run once per kernel: as written on the default one (the
native C loop wherever it loaded) and again, as ``...Portable``, on the
portable NumPy walk.  That walk takes its input in tiles; the same
identity is asserted with the tile shrunk to 64 packets, at every trace
length around its boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PacketTrace, RuleSet, generate_ruleset
from repro.core.rules import DEMO_SCHEMA
from repro.algorithms import (
    FlatTree,
    IncrementalClassifier,
    build_hicuts,
    build_hypercuts,
    flat_tree,
    native,
)
from repro.core.rules import Rule, make_demo_ruleset
from repro.hw import Accelerator

from tests.conftest import FIELDS

def random_headers(schema, n, seed=0):
    rng = np.random.default_rng(seed)
    cols = [
        rng.integers(0, schema.max_value(d) + 1, size=n, dtype=np.uint32)
        for d in range(schema.ndim)
    ]
    return np.stack(cols, axis=1)


def assert_batch_agreement(tree, trace, flat=None):
    """Reference and flat batch results identical on all fields+dtypes
    (``flat``: the kernel to check, a fresh compile by default)."""
    ref = tree.batch_lookup_reference(trace)
    got = (flat or FlatTree(tree)).batch_lookup(trace)
    for name in FIELDS:
        a, b = getattr(ref, name), getattr(got, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    return ref


def assert_scalar_agreement(tree, headers, batch):
    """The scalar traversal agrees with the batch results packet-for-
    packet on all five LookupResult statistics."""
    for i, header in enumerate(headers):
        res = tree.lookup(header)
        assert res.rule_id == batch.match[i]
        assert res.internal_nodes == batch.internal_nodes[i]
        assert res.leaf_size == batch.leaf_size[i]
        assert res.match_pos == batch.match_pos[i]
        assert res.rules_compared == batch.rules_compared[i]


def clustered_ruleset(rng, n_rules: int) -> RuleSet:
    """Random rules clustered well inside the universe, so compaction
    (and hull merging) shrinks node regions and uniform packets land
    outside them."""
    rules = []
    for _ in range(n_rules):
        ranges = []
        for _d in range(DEMO_SCHEMA.ndim):
            lo = int(rng.integers(60, 180))
            hi = min(lo + int(rng.integers(0, 40)), 255)
            ranges.append((lo, hi))
        rules.append(Rule(ranges=tuple(ranges)))
    return RuleSet(rules, DEMO_SCHEMA, "clustered")


class TestGridTrees:
    @pytest.mark.parametrize("build", [build_hicuts, build_hypercuts])
    def test_acl_grid_tree_matches_reference_and_scalar(
        self, build, acl_small, acl_small_trace
    ):
        tree = build(acl_small, binth=30, spfac=4, hw_mode=True)
        batch = assert_batch_agreement(tree, acl_small_trace)
        assert_scalar_agreement(
            tree, acl_small_trace.headers[:200], batch
        )

    def test_mask_shift_fast_path_engaged(self, hw_tree_small):
        assert FlatTree(hw_tree_small).pow2


class TestSoftwareDeadPath:
    """hw_mode=False trees: region compaction / hull merging shrink node
    boxes; packets outside them must die exactly like the reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("build", [build_hicuts, build_hypercuts])
    def test_random_clustered_trees(self, build, seed):
        rng = np.random.default_rng(seed)
        ruleset = clustered_ruleset(rng, 60)
        tree = build(ruleset, binth=4, spfac=3, hw_mode=False)
        assert not tree.grid_mode
        headers = random_headers(DEMO_SCHEMA, 1500, seed=seed + 10)
        trace = PacketTrace(headers, DEMO_SCHEMA)
        batch = assert_batch_agreement(tree, trace)
        # The scenario must actually exercise the dead path: packets
        # that entered the tree but never reached a leaf.
        died = (batch.leaf_id < 0) & (batch.internal_nodes > 0)
        assert died.any()
        assert (batch.leaf_size[died] == 0).all()
        assert (batch.match[died] == -1).all()
        assert_scalar_agreement(tree, headers[:300], batch)

    def test_demo_hypercuts_with_pushed_rules(self):
        ruleset = RuleSet(make_demo_ruleset(), DEMO_SCHEMA, "table1")
        tree = build_hypercuts(ruleset, binth=2, spfac=4, hw_mode=False)
        assert any(n.pushed.size for n in tree.nodes)  # push-common ran
        headers = random_headers(DEMO_SCHEMA, 2000, seed=5)
        trace = PacketTrace(headers, DEMO_SCHEMA)
        batch = assert_batch_agreement(tree, trace)
        assert_scalar_agreement(tree, headers[:300], batch)


@pytest.mark.usefixtures("portable_kernel")
class TestGridTreesPortable(TestGridTrees):
    """The same cases on the portable walk (ids of the default-kernel
    classes are unchanged, so the kernel is a subclass, not a param)."""


@pytest.mark.usefixtures("portable_kernel")
class TestSoftwareDeadPathPortable(TestSoftwareDeadPath):
    pass


class TestKernelPlumbing:
    def test_batch_lookup_delegates_to_cached_flat(self, hw_tree_small):
        flat = hw_tree_small.flat
        assert hw_tree_small.flat is flat  # cached
        hw_tree_small.invalidate_cache()
        assert hw_tree_small.flat is not flat  # recompiled on demand

    def test_empty_trace(self, hw_tree_small):
        trace = PacketTrace(
            np.empty((0, 5), dtype=np.uint32), hw_tree_small.schema
        )
        out = hw_tree_small.batch_lookup(trace)
        assert out.match.shape == (0,)

    def test_nbytes_reported(self, hw_tree_small):
        assert FlatTree(hw_tree_small).nbytes() > 0

    def test_incremental_insert_invalidates_compiled_kernel(self):
        ruleset = RuleSet(make_demo_ruleset(), DEMO_SCHEMA, "table1")
        clf = IncrementalClassifier(
            ruleset, algorithm="hicuts", binth=2, hw_mode=True
        )
        header = np.asarray([[7, 7, 7, 7, 7]], dtype=np.uint32)
        assert clf.classify_batch(header)[0] == -1  # kernel compiled here
        clf.insert(Rule(ranges=tuple((0, 20) for _ in range(5))))
        new_id = len(make_demo_ruleset())
        assert clf.classify_batch(header)[0] == new_id

    def test_incremental_remove_invalidates_compiled_kernel(self):
        ruleset = RuleSet(make_demo_ruleset(), DEMO_SCHEMA, "table1")
        clf = IncrementalClassifier(
            ruleset, algorithm="hicuts", binth=2, hw_mode=True
        )
        header = np.asarray([[135, 100, 30, 180, 134]], dtype=np.uint32)
        first = int(clf.classify_batch(header)[0])
        assert first >= 0
        clf.remove(first)
        assert int(clf.classify_batch(header)[0]) != first


# ---------------------------------------------------------------------------
# Tiled walk: identity at every tile boundary
# ---------------------------------------------------------------------------
TILE = 64
TILE_EDGE_SIZES = (0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5)


def _tile_grid(acl_small, acl_small_trace):
    tree = build_hypercuts(acl_small, binth=30, spfac=4, hw_mode=True)
    assert FlatTree(tree).pow2
    return tree, acl_small_trace.headers


def _tile_clustered(acl_small, acl_small_trace):
    ruleset = clustered_ruleset(np.random.default_rng(1), 60)
    tree = build_hicuts(ruleset, binth=4, spfac=3, hw_mode=False)
    return tree, random_headers(DEMO_SCHEMA, 3 * TILE + 5, seed=11)


def _tile_pushed(acl_small, acl_small_trace):
    ruleset = RuleSet(make_demo_ruleset(), DEMO_SCHEMA, "table1")
    tree = build_hypercuts(ruleset, binth=2, spfac=4, hw_mode=False)
    assert FlatTree(tree).has_pushed
    return tree, random_headers(DEMO_SCHEMA, 3 * TILE + 5, seed=5)


def _tile_patched(acl_small, acl_small_trace):
    inc = IncrementalClassifier(
        acl_small, algorithm="hypercuts", binth=16, hw_mode=True
    )
    inc.tree.flat  # compile, so the updates below are patched in
    for rule in generate_ruleset("acl1", 3, seed=105).rules:
        inc.insert(rule)
    for rule_id in (2, 9):
        inc.remove(rule_id)
    inc.tree.flat  # apply the patch
    assert inc.tree.flat_patches and inc.tree.flat_compiles == 1
    return inc.tree, acl_small_trace.headers


@pytest.fixture(
    scope="module",
    params=[_tile_grid, _tile_clustered, _tile_pushed, _tile_patched],
    ids=["grid", "clustered-dead-path", "pushed", "patched"],
)
def tile_case(request, acl_small, acl_small_trace):
    return request.param(acl_small, acl_small_trace)


class TestTileBoundaries:
    @pytest.mark.parametrize("n", TILE_EDGE_SIZES)
    def test_all_fields_identical(self, monkeypatch, tile_case, n):
        monkeypatch.setattr(flat_tree, "_TILE_PACKETS", TILE)
        tree, headers = tile_case
        trace = PacketTrace(headers[:n], tree.schema)
        flat = tree.flat  # the live kernel (patched, in that case)
        ref = assert_batch_agreement(tree, trace, flat)
        lean = flat.batch_match(trace.headers)
        assert lean.dtype == ref.match.dtype
        assert np.array_equal(lean, ref.match)

    @pytest.mark.parametrize("n", TILE_EDGE_SIZES)
    def test_accelerator_occupancy_is_tile_independent(
        self, monkeypatch, portable_kernel, hw_hyper_image_small,
        acl_small_trace, n,
    ):
        acc = Accelerator(hw_hyper_image_small)
        trace = acl_small_trace.subset(n)
        one_tile = acc.run_trace(trace)
        monkeypatch.setattr(flat_tree, "_TILE_PACKETS", TILE)
        tiled = acc.run_trace(trace)
        assert np.array_equal(tiled.occupancy, one_tile.occupancy)
        assert np.array_equal(tiled.match, one_tile.match)

    def test_tiles_are_actually_walked(self, monkeypatch, portable_kernel,
                                       hw_tree_small, acl_small_trace):
        """The constant the tests above shrink is the one the portable
        walk reads: 3 * TILE + 5 packets make four walks."""
        monkeypatch.setattr(flat_tree, "_TILE_PACKETS", TILE)
        flat = FlatTree(hw_tree_small)
        sizes = []
        walk = flat._walk_tile

        def spy(headers32, *out):
            sizes.append(len(headers32))
            walk(headers32, *out)

        monkeypatch.setattr(flat, "_walk_tile", spy)
        flat.batch_lookup(acl_small_trace.subset(3 * TILE + 5))
        assert sizes == [TILE, TILE, TILE, 5]

    def test_native_walk_is_the_default_and_is_not_tiled(
        self, monkeypatch, native_kernel, hw_tree_small, acl_small_trace
    ):
        """With the library loaded and nobody asking for it, the whole
        input goes to the C loop in one call and no tile is walked."""
        monkeypatch.setattr(flat_tree, "_TILE_PACKETS", TILE)
        flat = FlatTree(hw_tree_small)
        calls = []

        def spy(tables, placement, headers, n, *out):
            calls.append(n)
            return native_kernel.fn(tables, placement, headers, n, *out)

        monkeypatch.setattr(native, "_kernel", native._Kernel(fn=spy))
        monkeypatch.setattr(
            flat, "_walk_tile", lambda *a: pytest.fail("portable tile walked")
        )
        trace = acl_small_trace.subset(3 * TILE + 5)
        got = flat.batch_lookup(trace)
        assert calls == [3 * TILE + 5]
        want = hw_tree_small.batch_lookup_reference(trace)
        assert np.array_equal(got.match, want.match)


@pytest.mark.usefixtures("portable_kernel")
class TestTileBoundariesPortable:
    """Where tiles exist: the identity at every tile edge on the portable
    walk (the class above runs it on the default kernel)."""

    test_all_fields_identical = TestTileBoundaries.test_all_fields_identical


class TestFirstMatch:
    """The segmented first-match kernel on hand-built CSR lists over a
    three-field slot table (slot s accepts field values s..s+1 on every
    dimension but the last, which accepts only ``last[s]``)."""

    LAST = np.array([7, 7, 9, 7, 8, 9, 9], dtype=np.uint32)

    def run(self, base, lens, headers):
        slots = np.arange(self.LAST.size, dtype=np.uint32)
        lo_tab = np.stack([slots, slots, self.LAST])
        span_tab = np.stack([
            np.ones_like(slots), np.ones_like(slots), np.zeros_like(slots),
        ])
        headers32 = np.asarray(headers, dtype=np.uint32)
        # Search packets in reverse order, as any ``sel`` may.
        sel = np.arange(len(headers))[::-1].copy()
        hit, first = FlatTree._first_match(
            sel, np.asarray(base, dtype=np.int64)[::-1].copy(),
            np.asarray(lens, dtype=np.int64)[::-1].copy(),
            lo_tab, span_tab, headers32,
        )
        return {int(sel[i]): int(f) for i, f in zip(hit, first)}

    def test_hit_slots_misses_and_empty_lists(self):
        got = self.run(
            #     slot 0  last   none   empty  late-dim miss
            base=[0,     0,     0,     3,     0],
            lens=[3,     3,     3,     0,     2],
            headers=[
                [1, 1, 7],   # slots 0 and 1 both accept: the first wins
                [3, 3, 9],   # only slot 2 accepts (3 in 2..3, last 9)
                [5, 5, 7],   # outside every slot of the list
                [3, 3, 7],   # empty list: no pair at all
                [1, 1, 9],   # slots 0,1 pass the lead fields, fail the last
            ],
        )
        assert got == {0: 0, 1: 2}

    def test_two_packets_share_a_leaf(self):
        got = self.run(
            base=[3, 3, 3],
            lens=[4, 4, 4],
            headers=[[4, 4, 8], [4, 4, 7], [6, 6, 9]],
        )
        # slots 3..6: packet 0 -> slot 4 (index 1), packet 1 -> slot 3
        # (index 0; slot 4 wants last == 8), packet 2 -> slot 5 (index 2),
        # the first of slots 5 and 6.
        assert got == {0: 1, 1: 0, 2: 2}

    def test_single_list_without_hit(self):
        assert self.run(base=[0], lens=[7], headers=[[0, 0, 1]]) == {}
