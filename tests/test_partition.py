"""Tests for the vectorised partition kernels (_partition.py).

Each kernel is checked against a brute-force reference implementation and
with hypothesis over random rule interval sets.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms._partition import (
    all_rules_identical_in_region,
    assign_children,
    child_counts_1d,
    clipped_bounds,
    coord_spans,
    eliminate_redundant,
    max_count_grid,
    refs_and_max_1d,
)
from repro.core.geometry import child_index
from repro.core.rules import DEMO_SCHEMA, Rule, RuleArrays


def brute_counts(rlo, rhi, lo, hi, ncuts):
    """Reference per-child counts by scanning every value."""
    counts = np.zeros(ncuts, dtype=np.int64)
    for a, b in zip(rlo, rhi):
        hit = set()
        for v in range(max(a, lo), min(b, hi) + 1):
            hit.add(child_index(int(v), lo, hi, ncuts))
        for j in hit:
            counts[j] += 1
    return counts


intervals = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 63)).map(
        lambda t: (min(t), max(t))
    ),
    min_size=1,
    max_size=20,
)


class TestCoordSpans:
    @given(intervals, st.integers(1, 16))
    @settings(max_examples=60)
    def test_against_brute_force(self, rules, ncuts):
        lo, hi = 0, 63
        rlo = np.array([a for a, _ in rules], dtype=np.int64)
        rhi = np.array([b for _, b in rules], dtype=np.int64)
        first, last = coord_spans(rlo, rhi, lo, hi, ncuts)
        ref = brute_counts(rlo, rhi, lo, hi, ncuts)
        got = child_counts_1d(first, last, ncuts)
        assert np.array_equal(got, ref)

    def test_clipping(self):
        rlo = np.array([0], dtype=np.int64)
        rhi = np.array([255], dtype=np.int64)
        first, last = coord_spans(rlo, rhi, 64, 127, 4)
        assert first[0] == 0 and last[0] == 3

    def test_refs_and_max(self):
        rlo = np.array([0, 10, 0], dtype=np.int64)
        rhi = np.array([15, 11, 3], dtype=np.int64)
        first, last = coord_spans(rlo, rhi, 0, 15, 4)
        refs, maxc = refs_and_max_1d(first, last, 4)
        # rule0 spans all 4, rule1 child 2, rule2 child 0.
        assert refs == 6
        assert maxc == 2


class TestMaxCountGrid:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7), st.integers(0, 7),
                st.integers(0, 7), st.integers(0, 7),
            ),
            min_size=1,
            max_size=15,
        ),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    @settings(max_examples=60)
    def test_against_brute_force(self, boxes, e0, e1):
        c0, c1 = 1 << e0, 1 << e1
        f0 = np.array([min(a, b) * c0 // 8 for a, b, _, _ in boxes])
        l0 = np.array([max(a, b) * c0 // 8 for a, b, _, _ in boxes])
        f1 = np.array([min(c, d) * c1 // 8 for _, _, c, d in boxes])
        l1 = np.array([max(c, d) * c1 // 8 for _, _, c, d in boxes])
        grid = np.zeros((c0, c1), dtype=np.int64)
        for i in range(len(boxes)):
            grid[f0[i] : l0[i] + 1, f1[i] : l1[i] + 1] += 1
        assert max_count_grid([f0, f1], [l0, l1], (c0, c1)) == grid.max()


class TestAssignChildren:
    def test_one_dim(self):
        ids = np.array([5, 9, 11], dtype=np.int64)
        firsts = [np.array([0, 1, 0], dtype=np.int64)]
        lasts = [np.array([1, 1, 0], dtype=np.int64)]
        out = assign_children(ids, firsts, lasts, (2,))
        assert list(out[0]) == [5, 11]
        assert list(out[1]) == [5, 9]

    def test_priority_order_preserved(self):
        rng = np.random.default_rng(0)
        n = 200
        ids = np.sort(rng.choice(10_000, size=n, replace=False)).astype(np.int64)
        f = rng.integers(0, 4, size=n)
        last = f + rng.integers(0, 4 - f)
        out = assign_children(ids, [f], [last], (4,))
        for child in out:
            assert np.all(np.diff(child) > 0)  # still ascending

    def test_two_dims_row_major(self):
        ids = np.array([3], dtype=np.int64)
        firsts = [np.array([1]), np.array([0])]
        lasts = [np.array([1]), np.array([1])]
        out = assign_children(ids, firsts, lasts, (2, 2))
        # child (1,0) -> flat 2, child (1,1) -> flat 3.
        assert [len(c) for c in out] == [0, 0, 1, 1]

    def test_empty_input(self):
        out = assign_children(
            np.empty(0, dtype=np.int64), [np.empty(0)], [np.empty(0)], (4,)
        )
        assert len(out) == 4 and all(len(c) == 0 for c in out)

    @given(
        st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 31)),
            min_size=1, max_size=12,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=40)
    def test_assignment_matches_spans(self, rules, exp):
        ncuts = 1 << exp
        rlo = np.array([min(t) for t in rules], dtype=np.int64)
        rhi = np.array([max(t) for t in rules], dtype=np.int64)
        ids = np.arange(len(rules), dtype=np.int64)
        f, l = coord_spans(rlo, rhi, 0, 31, ncuts)
        out = assign_children(ids, [f], [l], (ncuts,))
        for j, child in enumerate(out):
            for i in ids:
                should = f[i] <= j <= l[i]
                assert (i in child) == should


class TestEliminateRedundant:
    def _arrays(self, ranges_list):
        rules = [
            Rule(ranges=tuple(r), priority=i) for i, r in enumerate(ranges_list)
        ]
        return RuleArrays(rules, DEMO_SCHEMA)

    def test_shadowed_rule_removed(self):
        full = ((0, 255),) * 5
        arr = self._arrays([full, full])
        kept = eliminate_redundant(arr, np.array([0, 1]), DEMO_SCHEMA.universe())
        assert list(kept) == [0]

    def test_partial_overlap_kept(self):
        a = ((0, 100),) + ((0, 255),) * 4
        b = ((50, 200),) + ((0, 255),) * 4
        arr = self._arrays([a, b])
        kept = eliminate_redundant(arr, np.array([0, 1]), DEMO_SCHEMA.universe())
        assert list(kept) == [0, 1]

    def test_region_clipping_enables_removal(self):
        # b is wider than a globally, but inside the region a covers b.
        a = ((0, 100),) + ((0, 255),) * 4
        b = ((50, 200),) + ((0, 255),) * 4
        arr = self._arrays([a, b])
        region = ((50, 100),) + ((0, 255),) * 4
        kept = eliminate_redundant(arr, np.array([0, 1]), region)
        assert list(kept) == [0]

    def test_priority_direction(self):
        # The broader rule comes later: nothing is removable.
        narrow = ((10, 20),) + ((0, 255),) * 4
        broad = ((0, 255),) * 5
        arr = self._arrays([narrow, broad])
        kept = eliminate_redundant(arr, np.array([0, 1]), DEMO_SCHEMA.universe())
        assert list(kept) == [0, 1]

    @given(
        st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 31)),
            min_size=2, max_size=10,
        )
    )
    @settings(max_examples=40)
    def test_semantics_preserved(self, spans):
        """First-match results are identical before and after elimination."""
        ranges_list = [
            ((min(s), max(s)),) + ((0, 255),) * 4 for s in spans
        ]
        arr = self._arrays(ranges_list)
        ids = np.arange(len(spans), dtype=np.int64)
        kept = eliminate_redundant(arr, ids, DEMO_SCHEMA.universe())
        for v in range(32):
            want = next(
                (int(i) for i in ids if arr.lo[0, i] <= v <= arr.hi[0, i]), -1
            )
            got = next(
                (int(i) for i in kept if arr.lo[0, i] <= v <= arr.hi[0, i]), -1
            )
            assert got == want


class TestIdenticalInRegion:
    def test_identical(self):
        full = ((0, 255),) * 5
        rules = [Rule(ranges=full, priority=i) for i in range(3)]
        arr = RuleArrays(rules, DEMO_SCHEMA)
        assert all_rules_identical_in_region(
            arr, np.arange(3), DEMO_SCHEMA.universe()
        )

    def test_differs(self):
        a = ((0, 10),) + ((0, 255),) * 4
        b = ((0, 20),) + ((0, 255),) * 4
        rules = [Rule(ranges=a, priority=0), Rule(ranges=b, priority=1)]
        arr = RuleArrays(rules, DEMO_SCHEMA)
        assert not all_rules_identical_in_region(
            arr, np.arange(2), DEMO_SCHEMA.universe()
        )
        # But inside a region where both clip to the same box, identical.
        region = ((0, 5),) + ((0, 255),) * 4
        assert all_rules_identical_in_region(arr, np.arange(2), region)

    def test_clipped_bounds(self):
        lo = np.array([0, 100], dtype=np.uint32)
        hi = np.array([255, 200], dtype=np.uint32)
        clo, chi = clipped_bounds(lo, hi, 50, 150)
        assert list(clo) == [50, 100]
        assert list(chi) == [150, 150]
