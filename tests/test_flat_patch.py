"""FlatTree CSR row-splice patching and epoch-tagged cache invalidation.

The incremental updater reports touched node ids; :meth:`FlatTree.patch`
splices exactly those rows.  The contract under test is the strongest
one available: after every patch, every compiled buffer is **bit
identical** to a fresh ``FlatTree`` compile of the mutated tree — same
dtypes, same shapes, same contents, same (C-contiguous) memory layout,
same mask/shift fast-path flag — and the patched kernel walks like the
reference on all six statistics, on the native and the portable kernel.
A second group pins the serving-path fix: ``DecisionTree.batch_lookup``
after an update takes the patch path (the patch counter moves, the
recompile counter does not), so a silent fallback to full recompilation
fails loudly.  The last group covers the flow cache's O(1) epoch-tagged
invalidation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import generate_ruleset, generate_trace
from repro.algorithms.flat_tree import FlatTree
from repro.algorithms.incremental import IncrementalClassifier
from repro.core.updates import insert_op, remove_op
from repro.engine import CachedClassifier, FlowCache, build_updatable_backend


def assert_bit_identical(tree, tag="") -> None:
    """The live (possibly patched) kernel equals a from-scratch compile."""
    got = tree.flat
    fresh = FlatTree(tree)
    assert got.naxes == fresh.naxes, (tag, "naxes")
    assert got.pow2 == fresh.pow2, (tag, "pow2")
    names = list(FlatTree.BUFFER_NAMES)
    if fresh.pow2:
        names += ["ax_mask", "ax_shift"]
    for name in names:
        a, b = getattr(got, name), getattr(fresh, name)
        assert a.dtype == b.dtype, (tag, name, a.dtype, b.dtype)
        assert a.shape == b.shape, (tag, name, a.shape, b.shape)
        assert np.array_equal(a, b), (tag, name)
        # Same memory layout too: the kernel gathers from per-dimension
        # rows of the bound tables, which must stay unit-stride.
        assert a.flags["C_CONTIGUOUS"], (tag, name)
        assert a.strides == b.strides, (tag, name, a.strides, b.strides)


@pytest.mark.parametrize("algorithm,family,hw_mode,binth", [
    ("hicuts", "acl1", True, 30),
    ("hicuts", "fw1", True, 8),       # small binth: subtree rebuilds
    ("hypercuts", "ipc1", True, 30),  # pushed rules in play
    ("hypercuts", "acl1", False, 16),  # software mode (non-pow2 path)
])
def test_patched_buffers_bit_identical_after_every_update(
    algorithm, family, hw_mode, binth, assert_kernels_agree
):
    rs = generate_ruleset(family, 250, seed=51)
    inc = IncrementalClassifier(
        rs, algorithm=algorithm, binth=binth, spfac=4, hw_mode=hw_mode
    )
    tree = inc.tree
    tree.flat  # initial compile
    expected_patches = 0
    for i, rule in enumerate(generate_ruleset(family, 20, seed=52).rules):
        inc.insert(rule)
        expected_patches += bool(tree._flat_dirty)
        assert_bit_identical(tree, f"{algorithm}/{family} insert {i}")
    for rid in (2, 17, 101, 230, 255):
        inc.remove(rid)
        # A remove can touch nothing (the rule had no leaf occurrences);
        # only updates with dirty rows should patch.
        expected_patches += bool(tree._flat_dirty)
        assert_bit_identical(tree, f"{algorithm}/{family} remove {rid}")
    assert tree.flat_compiles == 1
    assert tree.flat_patches == expected_patches
    assert expected_patches >= 20  # every insert touches at least a leaf
    # And the patched kernel — its native pointer table re-bound by
    # every patch — still classifies correctly: all six fields on both
    # kernels.
    trace = generate_trace(inc.live_ruleset(), 1000, seed=53,
                           background_fraction=0.2)
    ref = assert_kernels_agree(tree, trace)
    assert np.array_equal(inc.classify_trace(trace), ref.match)


def test_serving_thread_patches_instead_of_recompiling():
    """The pinned fix: batch_lookup after an update must take the patch
    path.  If patching silently fell back to a full recompile, the
    compile counter would move and this test fails loudly."""
    rs = generate_ruleset("acl1", 300, seed=54)
    inc = IncrementalClassifier(rs, algorithm="hicuts", binth=30, spfac=4)
    tree = inc.tree
    trace = generate_trace(rs, 500, seed=55)
    inc.classify_trace(trace)  # compile once
    assert (tree.flat_compiles, tree.flat_patches) == (1, 0)
    kernel_before = tree.flat
    for step, rule in enumerate(generate_ruleset("acl1", 5, seed=56).rules):
        inc.insert(rule)
        assert tree._flat_dirty, "updater must mark dirty rows"
        inc.classify_trace(trace)  # serving lookup applies the patch
        assert tree.flat_patches == step + 1
        assert tree.flat_compiles == 1, "silent recompile on serving thread"
    # Patching is in place: the kernel object identity is preserved.
    assert tree.flat is kernel_before
    # invalidate_cache remains the explicit full-recompile hammer.
    tree.invalidate_cache()
    inc.classify_trace(trace)
    assert tree.flat_compiles == 2


def test_patch_rejects_unknown_node_ids():
    rs = generate_ruleset("acl1", 100, seed=57)
    inc = IncrementalClassifier(rs, binth=30)
    flat = inc.tree.flat
    assert flat.patch({len(inc.tree.nodes) + 5}) is False
    assert flat.patch(set()) is True  # nothing to do is a no-op success


def test_apply_updates_keeps_kernel_patched(assert_kernels_agree):
    """The engine-level update surface drives the same patch path."""
    rs = generate_ruleset("acl1", 200, seed=58)
    clf = build_updatable_backend("incremental", rs, binth=30)
    trace = generate_trace(rs, 400, seed=59)
    clf.classify_trace(trace)
    extra = list(generate_ruleset("acl1", 4, seed=60).rules)
    clf.apply_updates(tuple(insert_op(r) for r in extra) + (remove_op(7),))
    clf.classify_trace(trace)
    assert clf.tree.flat_compiles == 1
    assert clf.tree.flat_patches == 1  # one batch -> one splice
    assert_bit_identical(clf.tree, "apply_updates")
    assert_kernels_agree(clf.tree, trace)


# ---------------------------------------------------------------------------
# Epoch-tagged flow-cache invalidation
# ---------------------------------------------------------------------------
def _headers(rows):
    return np.asarray(rows, dtype=np.uint32)


class TestFlowCacheEpochs:
    def test_advance_epoch_invalidates_in_o1(self):
        cache = FlowCache(8, ways=2)
        hdr = _headers([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
        cache.fill(hdr, np.array([3, 4], dtype=np.int64))
        assert cache.probe(hdr)[0].all()
        assert cache.occupancy_fraction() > 0
        cache.advance_epoch()
        # No table writes happened, yet nothing is served any more.
        assert not cache.probe(hdr)[0].any()
        assert cache.occupancy_fraction() == 0.0
        assert cache.stats.invalidations == 1

    def test_stale_epoch_slots_are_reclaimed_not_evicted(self):
        cache = FlowCache(2, ways=2)  # one set, two ways
        a = _headers([[1, 0, 0, 0, 0]])
        b = _headers([[2, 0, 0, 0, 0]])
        cache.fill(a, np.array([10], dtype=np.int64))
        cache.advance_epoch()
        cache.fill(b, np.array([11], dtype=np.int64))
        # Overwriting A's stale slot is reclamation, not an eviction...
        assert cache.stats.evictions == 0
        assert cache.probe(b)[0].all()
        assert not cache.probe(a)[0].any()
        # ...and refilling A under the new epoch serves again.
        cache.fill(a, np.array([10], dtype=np.int64))
        assert cache.probe(a)[0].all()

    def test_cached_classifier_epoch_invalidation_end_to_end(self):
        rs = generate_ruleset("acl1", 150, seed=61)
        cached = CachedClassifier(
            build_updatable_backend("incremental", rs, binth=30),
            entries=512, ways=4,
        )
        trace = generate_trace(rs, 800, seed=62, background_fraction=0.2)
        cached.classify_trace(trace)          # fill
        cached.classify_trace(trace)          # mostly hits
        assert cached.cache.stats.hits > 0
        # A rule update epoch-invalidates; results must track the new
        # ruleset immediately (no stale entries served).
        wild = generate_ruleset("acl1", 1, seed=63).rules[0]
        res = cached.apply_updates((remove_op(0), insert_op(wild)))
        assert cached.cache.stats.invalidations == 1
        assert res.epoch == 1 == cached.update_epoch
        want = cached.classifier.classify_trace(trace)
        assert np.array_equal(cached.classify_trace(trace), want)
        assert (cached.classify_trace(trace) != 0).all()  # rule 0 is dead
