"""Vectorised partition primitives shared by the HiCuts/HyperCuts builders.

Building a decision tree is dominated by one kernel: *given a node region,
a candidate cut (dimension(s) + cut counts), how many rules land in each
child?*  The original algorithms evaluate this kernel for every candidate
while doubling cut counts (HiCuts eq (1)) or enumerating combinations
(HyperCuts eqs (2)/(4)), so it must be fast.

Following the HPC guides, the kernel never loops over rules in Python:

* a rule's child span in one dimension is two integer expressions
  (``first``/``last`` child coordinate) evaluated on whole arrays;
* per-child counts come from a difference array (+1 at ``first``, -1 after
  ``last``; prefix-sum) — O(N + ncuts) per candidate instead of O(N*ncuts);
* multi-dimensional max-child counts use the k-dimensional inclusion-
  exclusion version of the same trick (2^k scatter passes);
* the final rule->children assignment expands (rule, child) pairs with
  ``np.repeat`` and groups them with one stable argsort.

All coordinates are ``int64``; field values are < 2^32 and cut counts
<= 2^16, so products stay well inside the 63-bit range.

HyperCuts' combination search runs ``coord_spans`` and
``max_count_grid`` in C where the native library loaded: ``_partition.c``'s
``cs_search`` (``native.search_cuts``) serves one node's whole search in
one call, with the same spans, counts and chosen cut; the functions here
are its oracle and the fallback.
"""

from __future__ import annotations

import numpy as np

from .opcount import NULL_COUNTER


def coord_spans(
    rlo: np.ndarray,
    rhi: np.ndarray,
    region_lo: int,
    region_hi: int,
    ncuts: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Child-coordinate interval of each rule for an equal-interval cut.

    ``rlo``/``rhi`` are the rules' bounds in the cut dimension (already
    known to overlap the region).  Returns ``(first, last)`` int64 arrays.
    Uses the same indexing function as lookup (``(v - lo) * ncuts // span``)
    so assignment and traversal can never disagree.
    """
    lo = np.int64(region_lo)
    span = np.int64(region_hi) - lo + 1
    clo = np.maximum(rlo.astype(np.int64), lo)
    chi = np.minimum(rhi.astype(np.int64), np.int64(region_hi))
    if ncuts >= span:
        return clo - lo, chi - lo
    first = ((clo - lo) * ncuts) // span
    last = ((chi - lo) * ncuts) // span
    return first, last


def child_counts_1d(
    first: np.ndarray, last: np.ndarray, ncuts: int
) -> np.ndarray:
    """Per-child rule counts via a difference array (O(N + ncuts))."""
    diff = np.zeros(ncuts + 1, dtype=np.int64)
    np.add.at(diff, first, 1)
    np.add.at(diff, last + 1, -1)
    return np.cumsum(diff[:ncuts])


def refs_and_max_1d(
    first: np.ndarray, last: np.ndarray, ncuts: int
) -> tuple[int, int]:
    """(total child references, max rules in any child) for a 1-D cut.

    ``total`` is the Σ-rules-at-children term of HiCuts' space measure
    (eq (1)/(3)); ``max`` is the dimension-choice heuristic the paper uses
    ("pick the dimension which returns the smallest largest child").
    """
    counts = child_counts_1d(first, last, ncuts)
    refs = int((last - first + 1).sum())
    return refs, int(counts.max()) if ncuts else 0


def max_count_grid(
    firsts: list[np.ndarray], lasts: list[np.ndarray], counts: tuple[int, ...]
) -> int:
    """Max rules in any child of a multi-dimensional cut grid.

    k-dimensional inclusion-exclusion difference array: for every corner
    subset S of the k axes we scatter (-1)^|S| at the rule's box corner,
    then prefix-sum along every axis.  Cost: 2^k scatters of N indices
    plus a prod(counts)-cell cumsum, instead of N * prod(counts) work.
    """
    k = len(counts)
    shape = tuple(c + 1 for c in counts)
    diff = np.zeros(shape, dtype=np.int64)
    for corner in range(1 << k):
        idx = []
        sign = 1
        for d in range(k):
            if corner >> d & 1:
                idx.append(lasts[d] + 1)
                sign = -sign
            else:
                idx.append(firsts[d])
        np.add.at(diff, tuple(idx), sign)
    for axis in range(k):
        np.cumsum(diff, axis=axis, out=diff)
    core = diff[tuple(slice(0, c) for c in counts)]
    return int(core.max()) if core.size else 0


def assign_children(
    rule_ids: np.ndarray,
    firsts: list[np.ndarray],
    lasts: list[np.ndarray],
    counts: tuple[int, ...],
    ops=NULL_COUNTER,
) -> list[np.ndarray]:
    """Split ``rule_ids`` into ``prod(counts)`` per-child arrays.

    ``firsts[d][i]``/``lasts[d][i]`` give rule i's child-coordinate span in
    cut axis d; a rule lands in the Cartesian product of its spans.  The
    expansion is done axis by axis with ``np.repeat``; a final stable sort
    groups references by flat child index while preserving rule priority
    order inside each child (rule_ids are ascending and the expansion is
    lexicographic in (rule, child)).

    Returns a list of int64 arrays, one per flat child index (row-major in
    the order of ``counts``); empty children get empty arrays.
    """
    n = len(rule_ids)
    n_children = 1
    for c in counts:
        n_children *= c
    if n == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n_children)]

    strides = []
    acc = 1
    for c in reversed(counts):
        strides.append(acc)
        acc *= c
    strides.reverse()

    # Iteratively expand (rule_ref, flat_base) by each axis.
    ref = np.arange(n, dtype=np.int64)  # index into rule_ids
    flat = np.zeros(n, dtype=np.int64)
    for f, l, stride in zip(firsts, lasts, strides):
        lens = (l - f + 1)[ref]
        total = int(lens.sum())
        base = np.repeat(flat + f[ref] * stride, lens)
        # offset within each group: arange(total) - start-of-group
        starts = np.cumsum(lens) - lens
        offs = (np.arange(total, dtype=np.int64) - np.repeat(starts, lens)) * stride
        flat = base + offs
        ref = np.repeat(ref, lens)
    ops.add("mem_write", len(flat))
    ops.add("alu", 2 * len(flat))

    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    ids_sorted = rule_ids[ref[order]]
    # Boundaries of each child's slice inside the sorted reference list.
    bounds = np.searchsorted(flat_sorted, np.arange(n_children + 1, dtype=np.int64))
    return [
        ids_sorted[bounds[j]: bounds[j + 1]] for j in range(n_children)
    ]


def clipped_bounds(
    rlo: np.ndarray, rhi: np.ndarray, region_lo: int, region_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rule bounds clipped to a region interval (int64)."""
    clo = np.maximum(rlo.astype(np.int64), np.int64(region_lo))
    chi = np.minimum(rhi.astype(np.int64), np.int64(region_hi))
    return clo, chi


def all_rules_identical_in_region(
    arrays, rule_ids: np.ndarray, region: tuple[tuple[int, int], ...]
) -> bool:
    """True when every rule clips to the same box inside ``region``.

    If so, no cut on any dimension can separate the rules and the node must
    become a leaf regardless of binth (wildcard-heavy firewall sets hit
    this constantly; it is what creates their oversized leaves).
    """
    for d, (lo, hi) in enumerate(region):
        clo, chi = clipped_bounds(arrays.lo[d, rule_ids], arrays.hi[d, rule_ids], lo, hi)
        if clo.size and (clo.min() != clo.max() or chi.min() != chi.max()):
            return False
    return True


def eliminate_redundant(
    arrays, rule_ids: np.ndarray, region: tuple[tuple[int, int], ...],
    ops=NULL_COUNTER,
) -> np.ndarray:
    """Drop rules shadowed inside ``region`` by a single earlier rule.

    Rule r is removable when some higher-priority rule s in the same list
    satisfies clip(s) ⊇ clip(r) on every dimension: any packet in the
    region matching r would already have matched s, so r can never be the
    first match here.  This is the standard HiCuts/HyperCuts leaf pruning;
    it preserves first-match semantics exactly (tests verify against the
    linear-search oracle).

    Because coverage is transitive (⊇ chains bottom out at a surviving
    rule), "r is covered by *some* earlier rule" — removed or not — is
    equivalent to the sequential keep/remove recurrence, so the whole
    check is one O(n² · ndim) boolean matrix with no Python loop.
    """
    n = len(rule_ids)
    if n <= 1:
        return rule_ids
    nd = len(region)
    covered = np.ones((n, n), dtype=bool)  # covered[i, j]: rule j ⊇ rule i
    for d, (lo, hi) in enumerate(region):
        clo, chi = clipped_bounds(
            arrays.lo[d, rule_ids], arrays.hi[d, rule_ids], lo, hi
        )
        covered &= (clo[None, :] <= clo[:, None]) & (chi[:, None] <= chi[None, :])
    ops.add("alu", 4 * nd * n * n)
    ops.add("mem_read", 2 * n * n)
    # Only earlier (higher-priority, lower index) rules may shadow.
    covered &= np.tri(n, k=-1, dtype=bool)
    keep = ~covered.any(axis=1)
    return rule_ids[keep]
