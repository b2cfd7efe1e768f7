"""Decision-tree data model shared by HiCuts / HyperCuts and the hardware.

Trees are stored as a flat node table (:class:`DecisionTree.nodes`, index 0
is the root) with children referenced by integer node id.  Child merging
(Section 2: "merging child nodes which have associated with them the same
set of rules") makes the structure a DAG: the same node id may appear in
several child slots.  Empty children are the sentinel ``EMPTY_CHILD``.

Two kinds of trees flow through the library:

* *software trees* (original HiCuts/HyperCuts) — node regions are
  arbitrary integer boxes, child indexing requires division;
* *grid trees* (the paper's modified, hardware-oriented algorithms) —
  node regions are power-of-two aligned boxes on the 8-MSB grid, child
  indexing is mask/shift/add, and every internal node has at most 256
  children so it fits one 4800-bit memory word.

Both kinds share this data model; ``DecisionTree.grid_mode`` records which
invariants hold (and tests assert them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.errors import BuildError
from ..core.geometry import child_index
from ..core.packet import PacketTrace
from ..core.rules import FieldSchema
from ..core.ruleset import RuleSet
from .opcount import NULL_COUNTER, OpCounter

#: Child-slot sentinel: no rules fall in this sub-region.
EMPTY_CHILD = -1

INTERNAL = 0
LEAF = 1


@dataclass
class Node:
    """One decision-tree node.

    ``region`` is the full-precision box; ``grid_region`` (grid trees only)
    the 8-MSB-grid box.  For internal nodes ``cut_dims``/``cut_counts``
    describe the cut grid and ``children`` holds ``prod(cut_counts)`` node
    ids in row-major order (first cut dim = slowest varying).  For leaves
    ``rule_ids`` holds the stored rules in priority order.  ``pushed``
    holds rules moved up by HyperCuts' push-common-subsets heuristic.
    """

    kind: int
    region: tuple[tuple[int, int], ...]
    grid_region: tuple[tuple[int, int], ...] | None = None
    cut_dims: tuple[int, ...] = ()
    cut_counts: tuple[int, ...] = ()
    children: np.ndarray | None = None  # int32 node ids / EMPTY_CHILD
    rule_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    pushed: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.kind == LEAF

    @property
    def n_children(self) -> int:
        return 0 if self.children is None else len(self.children)

    def child_strides(self) -> tuple[int, ...]:
        """Row-major strides matching ``cut_counts``."""
        strides = []
        acc = 1
        for c in reversed(self.cut_counts):
            strides.append(acc)
            acc *= c
        return tuple(reversed(strides))


@dataclass
class LookupResult:
    """Outcome of a single software-semantics lookup."""

    rule_id: int  # matched rule (ruleset index) or -1
    internal_nodes: int  # internal nodes traversed, root included
    leaf_size: int  # rules stored in the final leaf (0 if path died)
    match_pos: int  # index of match within the leaf list, -1 if none
    rules_compared: int  # linear-search comparisons performed (incl. pushed)


class DecisionTree:
    """A built HiCuts/HyperCuts search structure plus its statistics."""

    def __init__(
        self,
        ruleset: RuleSet,
        nodes: list[Node],
        grid_mode: bool,
        params: dict,
        build_ops: OpCounter | None = None,
    ) -> None:
        if not nodes:
            raise BuildError("tree has no nodes")
        self.ruleset = ruleset
        self.schema: FieldSchema = ruleset.schema
        self.nodes = nodes
        self.grid_mode = grid_mode
        self.params = dict(params)
        self.build_ops = build_ops
        self._flat = None  # lazily compiled FlatTree kernel
        self._flat_dirty: set[int] = set()  # node ids awaiting a patch
        #: Serving-path counters: full kernel compiles vs row-splice
        #: patches.  The update-serving tests pin the patch path with
        #: these, so a silent fallback to recompiling fails loudly.
        self.flat_compiles = 0
        self.flat_patches = 0

    # ------------------------------------------------------------------
    # Basic structure queries
    # ------------------------------------------------------------------
    @property
    def root(self) -> Node:
        return self.nodes[0]

    def __len__(self) -> int:
        return len(self.nodes)

    def internal_ids(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if not n.is_leaf]

    def leaf_ids(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.is_leaf]

    # ------------------------------------------------------------------
    # Software-semantics lookup (the oracle-checked reference traversal)
    # ------------------------------------------------------------------
    def lookup(
        self, header: Sequence[int], ops: OpCounter | None = None
    ) -> LookupResult:
        """Traverse the tree for one header, first-match semantics.

        Counts the work a software implementation performs: one node-header
        read plus one child-pointer read per internal node, and one rule
        read + compare per linear-search step.
        """
        counter = ops if ops is not None else NULL_COUNTER
        arrays = self.ruleset.arrays
        best = -1
        internal = 0
        compared = 0
        node = self.root
        while True:
            if node.is_leaf:
                pos = -1
                for j, rid in enumerate(node.rule_ids):
                    counter.add("mem_read", 5)  # five field interval reads
                    counter.add("alu", 10)
                    compared += 1
                    r = int(rid)
                    if all(
                        arrays.lo[d, r] <= header[d] <= arrays.hi[d, r]
                        for d in range(self.schema.ndim)
                    ):
                        pos = j
                        if best < 0 or r < best:
                            best = r
                        break
                return LookupResult(best, internal, len(node.rule_ids), pos, compared)
            # Internal node.  Costs are charged per node (not per cut
            # axis) so that the analytic trace aggregation in
            # :func:`repro.energy.software_lookup_ops` is exact.
            internal += 1
            counter.add("mem_read", 2)  # node header + child pointer
            counter.add("branch", 1)
            counter.add("alu", 3)
            if self.grid_mode:
                counter.add("alu", 3)  # mask/shift/add index
            else:
                counter.add("div", 1)  # software child index divides
            # HyperCuts pushed-rule check happens while traversing.
            for rid in node.pushed:
                counter.add("mem_read", 5)
                counter.add("alu", 10)
                compared += 1
                r = int(rid)
                if all(
                    arrays.lo[d, r] <= header[d] <= arrays.hi[d, r]
                    for d in range(self.schema.ndim)
                ):
                    if best < 0 or r < best:
                        best = r
                    break  # pushed list is priority sorted
            flat = 0
            dead = False
            for dim, ncuts, stride in zip(
                node.cut_dims, node.cut_counts, node.child_strides()
            ):
                lo, hi = node.region[dim]
                v = int(header[dim])
                if self.grid_mode:
                    # Mirror the hardware datapath: extract the cut bits
                    # relative to the node's aligned power-of-two box.
                    # This is position-independent, exactly like the
                    # mask/shift unit, so congruence-merged nodes decode
                    # correctly for every merged sibling.
                    span = hi - lo + 1
                    coord = ((v % span) * ncuts) // span
                else:
                    if not lo <= v <= hi:
                        # Region compaction shrank this node to its
                        # rules' bounding box; a packet outside it
                        # matches nothing in this subtree.
                        dead = True
                        break
                    coord = child_index(v, lo, hi, ncuts)
                flat += coord * stride
            if dead:
                return LookupResult(best, internal, 0, -1, compared)
            child = int(node.children[flat])
            if child == EMPTY_CHILD:
                return LookupResult(best, internal, 0, -1, compared)
            node = self.nodes[child]

    def classify(self, header: Sequence[int]) -> int:
        """Convenience: matched rule id only."""
        return self.lookup(header).rule_id

    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        """Engine-protocol batch lookup: matched rule ids only (the
        match-only walk; :meth:`batch_lookup` adds the statistics)."""
        return self.flat.batch_match(headers)

    def classify_trace(self, trace: PacketTrace) -> np.ndarray:
        return self.flat.batch_match(trace.headers)

    # ------------------------------------------------------------------
    # Vectorised batch traversal
    # ------------------------------------------------------------------
    @property
    def flat(self) -> "FlatTree":
        """The compiled flat-array kernel (built once, kept current).

        In-place structural mutations report their touched node ids via
        :meth:`mark_dirty`; the next access *patches* the compiled
        buffers (a row splice, bit-identical to a fresh compile) instead
        of recompiling the whole kernel on the serving thread.
        :meth:`invalidate_cache` remains the big hammer that forces a
        full recompile.
        """
        if self._flat is not None and self._flat_dirty:
            if self._flat.patch(self._flat_dirty):
                self.flat_patches += 1
            else:
                self._flat = None
            self._flat_dirty.clear()
        if self._flat is None:
            from .flat_tree import FlatTree

            self._flat = FlatTree(self)
            self.flat_compiles += 1
            self._flat_dirty.clear()
        return self._flat

    def mark_dirty(self, node_ids) -> None:
        """Record mutated node ids for incremental kernel patching.

        With no compiled kernel yet there is nothing to patch — the
        first :attr:`flat` access compiles fresh anyway.
        """
        if self._flat is not None:
            self._flat_dirty.update(int(i) for i in node_ids)

    def invalidate_cache(self) -> None:
        """Drop the compiled kernel after a structural mutation."""
        self._flat = None
        self._flat_dirty.clear()

    def batch_lookup(self, trace: PacketTrace) -> "BatchLookup":
        """Classify a whole trace, returning per-packet path statistics.

        Delegates to the compiled :class:`~repro.algorithms.flat_tree.
        FlatTree` kernel, which advances all active packets one level per
        iteration over pure structure-of-arrays buffers and is verified
        bit-for-bit against :meth:`batch_lookup_reference`.
        """
        return self.flat.batch_lookup(trace)

    def batch_lookup_reference(self, trace: PacketTrace) -> "BatchLookup":
        """The object-walking reference traversal (conformance oracle).

        Packets are advanced level-synchronously: at each step the active
        packets are grouped by current node (``np.unique``), each group's
        child coordinates are computed with one vectorised expression per
        cut dimension, and leaf groups are resolved with a vectorised
        first-match over the leaf's rule list.  No per-packet Python work,
        but the per-node grouping loop makes it several times slower than
        the compiled kernel on large traces.
        """
        headers = trace.headers
        n = headers.shape[0]
        arrays = self.ruleset.arrays
        match = np.full(n, -1, dtype=np.int64)
        internal_nodes = np.zeros(n, dtype=np.int32)
        match_pos = np.full(n, -1, dtype=np.int32)
        leaf_id = np.full(n, -1, dtype=np.int32)
        leaf_size = np.zeros(n, dtype=np.int32)
        rules_compared = np.zeros(n, dtype=np.int32)

        cur = np.zeros(n, dtype=np.int32)  # current node id per packet
        active = np.arange(n, dtype=np.int64)
        guard = 0
        while active.size:
            guard += 1
            if guard > 10_000:
                raise BuildError("batch traversal did not terminate")
            cur_nodes = cur[active]
            for nid in np.unique(cur_nodes):
                node = self.nodes[int(nid)]
                sel = active[cur_nodes == nid]
                if node.is_leaf:
                    self._resolve_leaf(
                        node, int(nid), sel, headers, arrays, match, match_pos,
                        leaf_id, leaf_size, rules_compared,
                    )
                    cur[sel] = -2  # done
                    continue
                internal_nodes[sel] += 1
                if node.pushed.size:
                    self._match_pushed(node, sel, headers, arrays, match,
                                       rules_compared)
                flat = np.zeros(sel.size, dtype=np.int64)
                outside = np.zeros(sel.size, dtype=bool)
                for dim, ncuts, stride in zip(
                    node.cut_dims, node.cut_counts, node.child_strides()
                ):
                    lo, hi = node.region[dim]
                    span = hi - lo + 1
                    raw = headers[sel, dim].astype(np.int64)
                    if self.grid_mode:
                        # Position-independent relative bits, as the
                        # mask/shift datapath computes them (sound for
                        # congruence-merged siblings).
                        v = raw % span
                    else:
                        # Packets outside a compacted region match
                        # nothing in this subtree.
                        outside |= (raw < lo) | (raw > hi)
                        v = np.clip(raw - lo, 0, span - 1)
                    if ncuts >= span:
                        coord = v
                    else:
                        coord = (v * ncuts) // span
                    flat += coord * stride
                nxt = np.asarray(node.children[flat])
                dead = (nxt == EMPTY_CHILD) | outside
                if dead.any():
                    cur[sel[dead]] = -2
                    leaf_size[sel[dead]] = 0
                cur[sel[~dead]] = nxt[~dead]
            alive = cur[active] >= 0
            active = active[alive]
        return BatchLookup(
            match=match,
            internal_nodes=internal_nodes,
            leaf_id=leaf_id,
            leaf_size=leaf_size,
            match_pos=match_pos,
            rules_compared=rules_compared,
        )

    def _resolve_leaf(
        self, node: Node, nid: int, sel: np.ndarray, headers: np.ndarray,
        arrays, match: np.ndarray, match_pos: np.ndarray, leaf_id: np.ndarray,
        leaf_size: np.ndarray, rules_compared: np.ndarray,
    ) -> None:
        leaf_id[sel] = nid
        leaf_size[sel] = node.rule_ids.size
        if node.rule_ids.size == 0:
            return
        rids = node.rule_ids
        # (n_sel, n_rules) boolean match matrix, vectorised over both axes.
        ok = np.ones((sel.size, rids.size), dtype=bool)
        for d in range(self.schema.ndim):
            v = headers[sel, d][:, None]
            ok &= (arrays.lo[d, rids][None, :] <= v) & (v <= arrays.hi[d, rids][None, :])
        any_match = ok.any(axis=1)
        first = np.where(any_match, ok.argmax(axis=1), -1)
        match_pos[sel] = first
        # Linear search stops at the first hit; count compares accordingly.
        rules_compared[sel] += np.where(any_match, first + 1, rids.size)
        hit = sel[any_match]
        cand = rids[first[any_match]]
        cur_best = match[hit]
        better = (cur_best < 0) | (cand < cur_best)
        match[hit[better]] = cand[better]

    def _match_pushed(
        self, node: Node, sel: np.ndarray, headers: np.ndarray, arrays,
        match: np.ndarray, rules_compared: np.ndarray,
    ) -> None:
        rids = node.pushed
        ok = np.ones((sel.size, rids.size), dtype=bool)
        for d in range(self.schema.ndim):
            v = headers[sel, d][:, None]
            ok &= (arrays.lo[d, rids][None, :] <= v) & (v <= arrays.hi[d, rids][None, :])
        any_match = ok.any(axis=1)
        first = np.where(any_match, ok.argmax(axis=1), -1)
        rules_compared[sel] += np.where(any_match, first + 1, rids.size)
        hit = sel[any_match]
        cand = rids[first[any_match]]
        cur_best = match[hit]
        better = (cur_best < 0) | (cand < cur_best)
        match[hit[better]] = cand[better]

    # ------------------------------------------------------------------
    # Structure statistics (Tables 2/4/8 inputs)
    # ------------------------------------------------------------------
    def stats(self) -> "TreeStats":
        n_internal = n_leaf = 0
        leaf_refs = 0
        max_leaf = 0
        for node in self.nodes:
            if node.is_leaf:
                n_leaf += 1
                leaf_refs += int(node.rule_ids.size)
                max_leaf = max(max_leaf, int(node.rule_ids.size))
            else:
                n_internal += 1
        depth, wc_leaf, wc_sw = self._worst_case_paths()
        return TreeStats(
            n_nodes=len(self.nodes),
            n_internal=n_internal,
            n_leaves=n_leaf,
            total_leaf_rule_refs=leaf_refs,
            max_leaf_rules=max_leaf,
            max_depth=depth,
            worst_path_leaf_rules=wc_leaf,
            worst_case_sw_accesses=wc_sw,
        )

    def _worst_case_paths(self) -> tuple[int, int, int]:
        """(max internal depth, leaf size on the worst path, worst-case
        software memory accesses per DESIGN.md §6 conventions).

        Memoised DFS over the DAG; the software access count charges 2
        reads per internal node and (1 + rules) per leaf plus pushed-rule
        reads, the grid/hardware analysis lives in :mod:`repro.hw`.
        """
        memo: dict[int, tuple[int, int, int]] = {}

        def visit(nid: int) -> tuple[int, int, int]:
            if nid in memo:
                return memo[nid]
            node = self.nodes[nid]
            if node.is_leaf:
                res = (0, int(node.rule_ids.size), 1 + int(node.rule_ids.size))
                memo[nid] = res
                return res
            best = (0, 0, 0)
            for child in set(int(c) for c in node.children):
                if child == EMPTY_CHILD:
                    continue
                d, lf, acc = visit(child)
                cand = (d + 1, lf, acc + 2 + int(node.pushed.size))
                if (cand[2], cand[0]) > (best[2], best[0]):
                    best = cand
            memo[nid] = best
            return best

        depth, leaf_rules, accesses = visit(0)
        return depth, leaf_rules, accesses

    def software_memory_bytes(self) -> int:
        """Model of the *software* search-structure size (Table 2 left).

        Conventions (DESIGN.md §6): an internal node costs a 16-byte header
        plus 4 bytes per child pointer; a leaf costs an 8-byte header plus
        4 bytes per rule pointer (software stores pointers, not rules —
        that is precisely the indirection the paper's modification
        removes); pushed rules cost a pointer each; plus the ruleset
        itself at 20 bytes (160 bits) per rule.
        """
        total = len(self.ruleset) * 20
        for node in self.nodes:
            if node.is_leaf:
                total += 8 + 4 * int(node.rule_ids.size)
            else:
                total += 16 + 4 * node.n_children + 4 * int(node.pushed.size)
        return total


@dataclass(frozen=True)
class TreeStats:
    """Aggregate structure statistics."""

    n_nodes: int
    n_internal: int
    n_leaves: int
    total_leaf_rule_refs: int
    max_leaf_rules: int
    max_depth: int
    worst_path_leaf_rules: int
    worst_case_sw_accesses: int


@dataclass
class BatchLookup:
    """Per-packet results of :meth:`DecisionTree.batch_lookup`.

    All arrays are length ``n_packets``.  ``internal_nodes`` counts every
    internal node on the path *including the root* — the hardware cycle
    model subtracts the register-resident root itself.
    """

    match: np.ndarray
    internal_nodes: np.ndarray
    leaf_id: np.ndarray
    leaf_size: np.ndarray
    match_pos: np.ndarray
    rules_compared: np.ndarray

    @property
    def n_packets(self) -> int:
        return len(self.match)
