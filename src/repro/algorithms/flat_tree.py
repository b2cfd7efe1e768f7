"""Compiled flat-array traversal kernels for decision trees.

The paper's core insight is a *layout* insight: one pointer-free 4800-bit
word per node and mask/shift/add child indexing make hardware traversal
fast and energy-cheap.  :class:`FlatTree` applies the same insight to the
simulator itself.  It compiles a built :class:`~repro.algorithms.base.
DecisionTree` — a list of Python ``Node`` objects — into pure NumPy
structure-of-arrays buffers:

* per-node scalars: ``kind``, children/leaf/pushed CSR offsets;
* per-(axis-slot, node) cut tables: cut dimension, cut count, row-major
  stride, region bounds and span (padded to the tree's widest node, so
  gather shapes are static);
* a CSR children table (``child_base`` + one flat ``int32`` id array);
* CSR leaf rule lists and pushed rule lists;
* for grid trees, precomputed per-node masks and shifts — the software
  twin of the hardware's mask/shift/add unit (spans and cut counts are
  powers of two on the grid, so ``(v % span) * ncuts // span`` is exactly
  ``(v & mask) >> shift``).

:meth:`FlatTree.batch_lookup` walks those buffers on one of two kernels,
bit-identical on every :class:`~repro.algorithms.base.BatchLookup` field.

**Native walk.**  When :mod:`~repro.algorithms.native` could build and
load ``_flat_walk.c`` (once, with the C compiler that is here), the
whole input goes to its per-packet loop — the paper's FSM: one node per
step, a leaf linear search that stops at the first hit — over these
same buffers, ~10x the portable walk.  There is no switch;
``native.status()`` says which kernel serves and why.

**Portable walk.**  Otherwise (tier-1 is green with no compiler) NumPy
advances *all* active packets one tree level per iteration with
gather/scatter indexing; the only Python-level loops are over axis
slots, tree depth and tiles.  Leaf and pushed-rule searches are one
segmented first-match (:meth:`FlatTree._first_match`) over an exact-size
``np.repeat`` expansion of the (packet, rule) pairs.  The input is
walked ``_TILE_PACKETS`` packets at a time into outputs allocated once:
the engine coalesces dispatches to 65,536 packets to amortise IPC, a
walk of that many expands ~1M pairs into 4-8 MB temporaries, and a
tile's stay in L2.  Tiles apply to this walk only.

Both reproduce :meth:`DecisionTree.batch_lookup_reference` bit-for-bit
(``match``, ``internal_nodes``, ``leaf_id``, ``leaf_size``, ``match_pos``,
``rules_compared``), grid-mode congruence indexing and the non-grid
compacted-region dead path included — ``tests/test_flat_tree.py``
asserts it on each kernel, which keeps the energy and occupancy models
built on those statistics valid.  :meth:`FlatTree.batch_match` is the
same walk handed no statistics arrays: it writes ``match`` only, and is
what ``classify_batch`` of every tree-backed classifier runs.

**Incremental kernel patching.**  The incremental updater
(:mod:`repro.algorithms.incremental`) mutates a handful of nodes per
rule update; recompiling the whole kernel for that would put an
O(all-nodes) Python pass on the control-plane path.  :meth:`FlatTree.
patch` instead *splices* only the rows of the touched node ids: per-node
scalar and axis-table columns are rewritten in place, each CSR table is
reassembled with one gather/scatter that moves every unchanged row and
writes the recomputed rows at their canonical offsets, and the
mask/shift tables are re-derived.  The patched buffers are **bit
identical to a fresh compile of the mutated tree** (base offsets are
recomputed with the same cumulative-sum convention the compiler uses),
so every downstream consumer — and the bit-for-bit conformance suite —
is oblivious to which path built them.  ``tests/test_flat_patch.py``
asserts the identity after every patch; the benchmark suite gates the
patch at >= 3x a full recompile for single-rule updates on a 10k-rule
tree (``update_patch`` in ``BENCH_engine.json``).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import BuildError
from ..core.packet import PacketTrace

from . import native
from .base import EMPTY_CHILD, LEAF, BatchLookup

#: Packets walked at a time: a tile's (packet, rule) pair temporaries stay
#: in a core's L2, whatever size the engine coalesced the dispatch to.
_TILE_PACKETS = 8192

#: Padding upper bound for unused axis slots in software mode — larger
#: than any 32-bit field value, so padded slots never flag "outside".
_PAD_HI = np.int64(1) << 40


class FlatTree:
    """A decision tree compiled into structure-of-arrays kernel buffers."""

    def __init__(self, tree) -> None:
        self.tree = tree
        self.schema = tree.schema
        self.grid_mode = bool(tree.grid_mode)
        nodes = tree.nodes
        n_nodes = len(nodes)
        arrays = tree.ruleset.arrays

        self.kind = np.empty(n_nodes, dtype=np.int8)

        # Axis-slot tables, padded to the widest internal node.
        naxes = 1
        for node in nodes:
            if not node.is_leaf and len(node.cut_dims) > naxes:
                naxes = len(node.cut_dims)
        self.naxes = naxes
        shape = (naxes, n_nodes)
        self.ax_dim = np.zeros(shape, dtype=np.int64)
        self.ax_ncuts = np.ones(shape, dtype=np.int64)
        self.ax_stride = np.zeros(shape, dtype=np.int64)
        self.ax_lo = np.zeros(shape, dtype=np.int64)
        self.ax_hi = np.full(shape, _PAD_HI, dtype=np.int64)
        self.ax_span = np.ones(shape, dtype=np.int64)

        # CSR tables: children, leaf rule lists, pushed rule lists.
        # ``*_len`` records every row's width (``child_len`` exists so the
        # patcher can recompute canonical base offsets without touching
        # the node objects of unchanged rows).
        self.child_base = np.zeros(n_nodes, dtype=np.int64)
        self.child_len = np.zeros(n_nodes, dtype=np.int64)
        self.leaf_base = np.zeros(n_nodes, dtype=np.int64)
        self.leaf_len = np.zeros(n_nodes, dtype=np.int64)
        self.push_base = np.zeros(n_nodes, dtype=np.int64)
        self.push_len = np.zeros(n_nodes, dtype=np.int64)
        children: list[np.ndarray] = []
        leaf_rules: list[np.ndarray] = []
        push_rules: list[np.ndarray] = []
        child_off = leaf_off = push_off = 0

        for nid, node in enumerate(nodes):
            self.kind[nid] = node.kind
            if node.is_leaf:
                self.leaf_base[nid] = leaf_off
                self.leaf_len[nid] = node.rule_ids.size
                leaf_rules.append(np.asarray(node.rule_ids, dtype=np.int64))
                leaf_off += node.rule_ids.size
                continue
            self._fill_internal_axes(nid, node)
            self.child_base[nid] = child_off
            self.child_len[nid] = node.n_children
            children.append(np.asarray(node.children, dtype=np.int32))
            child_off += node.n_children
            if node.pushed.size:
                self.push_base[nid] = push_off
                self.push_len[nid] = node.pushed.size
                push_rules.append(np.asarray(node.pushed, dtype=np.int64))
                push_off += node.pushed.size

        def _cat(parts: list[np.ndarray], dtype) -> np.ndarray:
            return (
                np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
            ).astype(dtype, copy=False)

        self.children = _cat(children, np.int32)
        self.leaf_rules = _cat(leaf_rules, np.int64)
        self.push_rules = _cat(push_rules, np.int64)
        self._refresh_bounds(arrays)
        self._finalize_pow2()
        # How many internal nodes use every axis slot.  The patcher
        # keeps this current so it can detect — without rescanning all
        # nodes — when an update would change the padded table width
        # (either direction), which forces a full recompile.
        widths = (self.ax_stride > 0).sum(axis=0)
        self._n_widest = int((widths == self.naxes).sum())
        self._native = native.bind(self)

    # ------------------------------------------------------------------
    def _fill_internal_axes(self, nid: int, node) -> None:
        """Write an internal node's axis-slot columns (slots beyond its
        arity keep the padded defaults)."""
        strides = node.child_strides()
        for a, (dim, ncuts, stride) in enumerate(
            zip(node.cut_dims, node.cut_counts, strides)
        ):
            lo, hi = node.region[dim]
            self.ax_dim[a, nid] = dim
            self.ax_ncuts[a, nid] = ncuts
            self.ax_stride[a, nid] = stride
            self.ax_lo[a, nid] = lo
            self.ax_hi[a, nid] = hi
            self.ax_span[a, nid] = hi - lo + 1

    def _refresh_bounds(self, arrays) -> None:
        # Rule intervals re-ordered by CSR slot (``bounds[d, pos]`` is the
        # bound of the rule stored at flat leaf/pushed position ``pos``).
        # Positions within a packet's list are consecutive, so the lookup
        # gathers walk these tables almost sequentially — and ``uint32``
        # keeps them half the width of rule-id indirection.  ``*_span``
        # holds ``hi - lo`` so the interval test is a single unsigned
        # compare: ``(v - lo) <= span`` (uint32 wraparound makes ``v < lo``
        # read as a huge value).  Identical outcome to ``lo <= v <= hi``.
        # ``np.take`` returns C order (``lo[:, ids]`` comes back F-ordered):
        # the kernel gathers from one dimension's row at a time.
        self.leaf_lo = np.take(arrays.lo, self.leaf_rules, axis=1)
        self.leaf_span = np.take(arrays.span, self.leaf_rules, axis=1)
        self.push_lo = np.take(arrays.lo, self.push_rules, axis=1)
        self.push_span = np.take(arrays.span, self.push_rules, axis=1)
        self.has_pushed = bool(self.push_rules.size)

    def _finalize_pow2(self) -> None:
        # Grid fast path: every internal span and cut count is a power of
        # two (the alignment invariant grid trees are built around), so
        # child indexing compiles to the hardware's mask/shift unit.
        # ``(v % span) * ncuts // span == (v & (span-1)) >> log2(span/ncuts)``.
        self.pow2 = False
        if self.grid_mode:
            spans = self.ax_span
            ncuts = self.ax_ncuts
            if (
                bool((spans & (spans - 1) == 0).all())
                and bool((ncuts & (ncuts - 1) == 0).all())
            ):
                self.pow2 = True
                self.ax_mask, self.ax_shift = self._mask_shift(spans, ncuts)
        if not self.pow2:
            # A fresh compile of a non-pow2 tree has no mask/shift tables;
            # keep the patched object shape-identical.
            for name in ("ax_mask", "ax_shift"):
                if hasattr(self, name):
                    delattr(self, name)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.kind)

    #: Every buffer the kernel is made of; the patch conformance suite
    #: asserts bit-identity with a fresh compile over exactly this list.
    BUFFER_NAMES = (
        "kind", "ax_dim", "ax_ncuts", "ax_stride",
        "ax_lo", "ax_hi", "ax_span", "child_base", "child_len",
        "leaf_base", "leaf_len", "push_base", "push_len", "children",
        "leaf_rules", "push_rules", "leaf_lo", "leaf_span", "push_lo",
        "push_span",
    )

    def nbytes(self) -> int:
        """Total size of the compiled kernel buffers."""
        names = self.BUFFER_NAMES + ("ax_mask", "ax_shift") * self.pow2
        return sum(getattr(self, name).nbytes for name in names)

    # ------------------------------------------------------------------
    # Incremental kernel patching (update serving)
    # ------------------------------------------------------------------
    def patch(self, dirty) -> bool:
        """Splice the rows of the ``dirty`` node ids into the buffers.

        ``dirty`` is the set of node ids the incremental updater touched
        (mutated leaves, cloned/rebased nodes, re-pointed parents);
        appended nodes are picked up automatically.  On success the
        buffers are bit-identical to ``FlatTree(self.tree)`` compiled
        from scratch.  Returns ``False`` — leaving the buffers untouched
        — when the mutation cannot be expressed as a row splice (the
        padded axis-table width changed), in which case the caller must
        recompile.
        """
        nodes = self.tree.nodes
        n_new = len(nodes)
        n_old = self.kind.size
        if n_new < n_old:
            return False  # nodes are never deleted; defensive
        dirty = {int(d) for d in dirty}
        dirty.update(range(n_old, n_new))
        if not dirty:
            return True
        if min(dirty) < 0 or max(dirty) >= n_new:
            return False
        # The padded axis-table width is a global property (the widest
        # internal node); a width change in either direction reshapes
        # every gather, so those rare updates fall back to a full
        # recompile.  ``_n_widest`` tracks how many nodes pin the
        # current width, so no rescan of unchanged nodes is needed.
        delta_widest = 0
        for nid in dirty:
            node = nodes[nid]
            new_w = 0 if node.is_leaf else len(node.cut_dims)
            if new_w > self.naxes:
                return False  # would widen the padded tables
            if self.grid_mode and self.pow2 and not node.is_leaf:
                # Validate the alignment *before* any buffer mutation so
                # a False return really does leave the kernel untouched.
                for dim, ncuts in zip(node.cut_dims, node.cut_counts):
                    lo, hi = node.region[dim]
                    span = hi - lo + 1
                    if span & (span - 1) or ncuts & (ncuts - 1):
                        return False  # lost pow2; caller recompiles
            old_w = (
                int((self.ax_stride[:, nid] > 0).sum()) if nid < n_old else 0
            )
            delta_widest += (new_w == self.naxes) - (old_w == self.naxes)
        if self._n_widest + delta_widest <= 0:
            return False  # the widest node vanished; tables would narrow
        self._n_widest += delta_widest

        arrays = self.tree.ruleset.arrays
        # Participation snapshot before the dirty loop mutates ``kind``.
        old_internal = self.kind != LEAF
        old_n_old = self.kind.size
        old_tables = {
            "children": (self.children, self.child_base,
                         self.child_len.copy()),
            "leaf": (self.leaf_rules, self.leaf_base, self.leaf_len.copy()),
            "push": (self.push_rules, self.push_base, self.push_len.copy()),
        }

        grow = n_new - n_old
        ax_defaults = (
            ("ax_dim", 0), ("ax_ncuts", 1), ("ax_stride", 0),
            ("ax_lo", 0), ("ax_hi", _PAD_HI), ("ax_span", 1),
        )
        if grow:
            self.kind = np.concatenate(
                [self.kind, np.empty(grow, dtype=np.int8)]
            )
            names = list(ax_defaults)
            if self.pow2:
                # Padded defaults: mask = span-1 = 0, shift = 0.
                names += [("ax_mask", 0), ("ax_shift", 0)]
            for name, fill in names:
                tab = getattr(self, name)
                pad = np.full((self.naxes, grow), fill, dtype=tab.dtype)
                setattr(self, name, np.concatenate([tab, pad], axis=1))
            for name in ("child_len", "leaf_len", "push_len"):
                setattr(self, name, np.concatenate(
                    [getattr(self, name), np.zeros(grow, dtype=np.int64)]
                ))

        # Recompute the touched rows from their (mutated) node objects.
        new_children: dict[int, np.ndarray] = {}
        new_leaf: dict[int, np.ndarray] = {}
        new_push: dict[int, np.ndarray] = {}
        empty32 = np.empty(0, dtype=np.int32)
        empty64 = np.empty(0, dtype=np.int64)
        for nid in dirty:
            node = nodes[nid]
            self.kind[nid] = node.kind
            for name, fill in ax_defaults:
                getattr(self, name)[:, nid] = fill
            if node.is_leaf:
                self.child_len[nid] = 0
                self.push_len[nid] = 0
                self.leaf_len[nid] = node.rule_ids.size
                new_children[nid] = empty32
                new_push[nid] = empty64
                new_leaf[nid] = np.asarray(node.rule_ids, dtype=np.int64)
            else:
                self._fill_internal_axes(nid, node)
                self.leaf_len[nid] = 0
                self.child_len[nid] = node.n_children
                self.push_len[nid] = node.pushed.size
                new_leaf[nid] = empty64
                new_children[nid] = np.asarray(node.children, dtype=np.int32)
                new_push[nid] = (
                    np.asarray(node.pushed, dtype=np.int64)
                    if node.pushed.size else empty64
                )

        # Canonical participation masks, exactly the compiler's layout:
        # every internal node owns a children row, every leaf a leaf row,
        # and only internal nodes with pushed rules own a push row.
        internal = self.kind != LEAF

        data, base, _, _ = self._patch_table(
            *old_tables["children"], old_internal, self.child_len,
            internal, new_children, dirty, old_n_old,
        )
        self.children, self.child_base = data, base
        data, base, lo, span = self._patch_table(
            *old_tables["leaf"], ~old_internal, self.leaf_len,
            ~internal, new_leaf, dirty, old_n_old,
            bounds=(self.leaf_lo, self.leaf_span, arrays),
        )
        self.leaf_rules, self.leaf_base = data, base
        self.leaf_lo, self.leaf_span = lo, span
        data, base, lo, span = self._patch_table(
            *old_tables["push"],
            old_internal & (old_tables["push"][2] > 0), self.push_len,
            internal & (self.push_len > 0), new_push, dirty, old_n_old,
            bounds=(self.push_lo, self.push_span, arrays),
        )
        self.push_rules, self.push_base = data, base
        self.push_lo, self.push_span = lo, span
        self.has_pushed = bool(self.push_rules.size)

        if self.grid_mode:
            if self.pow2:
                # Alignment was validated in the pre-mutation pass, so
                # this is a pure column refresh.
                self._patch_pow2(dirty)
            else:  # pragma: no cover - grid trees are pow2 by invariant
                self._finalize_pow2()
        self._native = native.bind(self)  # the buffers were re-bound
        return True

    @staticmethod
    def _csr_bases(lens: np.ndarray, part: np.ndarray) -> np.ndarray:
        """Compile-order base offsets: cumulative row widths over the
        participating nodes, zero elsewhere (the compiler's convention)."""
        contrib = np.where(part, lens, 0)
        off = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(contrib[:-1], out=off[1:])
        return np.where(part, off, 0)

    def _patch_table(
        self, old_data, old_base, old_len, old_part, lens, part,
        changed: dict[int, np.ndarray], dirty: set[int], n_old: int,
        bounds=None,
    ):
        """Patch one CSR table, preserving the canonical row order.

        Two regimes:

        * every dirty row keeps its length and participation — rows are
          rewritten **in place** (no reassembly at all);
        * otherwise the table is re-stitched from at most
          ``O(len(dirty))`` contiguous segments of the old data plus the
          recomputed rows, and base offsets are recomputed with the
          compiler's cumulative-sum convention.

        ``bounds`` — ``(lo_tab, span_tab, arrays)`` — threads the
        slot-aligned rule-bound tables through the identical segmenting,
        so they never need a full re-gather.
        Returns ``(data, base, lo_tab, span_tab)``.
        """
        inplace = True
        for nid in dirty:
            was = nid < n_old and bool(old_part[nid])
            now = bool(part[nid])
            if was != now or (now and int(old_len[nid]) != int(lens[nid])):
                inplace = False
                break
        if bounds is not None:
            lo_tab, span_tab, arrays = bounds
        if inplace:
            for nid in dirty:
                row = changed[nid]
                if not part[nid] or not row.size:
                    continue
                b = int(old_base[nid])
                old_data[b : b + row.size] = row
                if bounds is not None:
                    lo_tab[:, b : b + row.size] = arrays.lo[:, row]
                    span_tab[:, b : b + row.size] = arrays.span[:, row]
            if old_base.size < lens.size:
                # Appended nodes that do not participate here still need
                # base slots (canonically zero).
                old_base = np.concatenate([
                    old_base,
                    np.zeros(lens.size - old_base.size, dtype=np.int64),
                ])
            if bounds is None:
                return old_data, old_base, None, None
            return old_data, old_base, lo_tab, span_tab

        base = self._csr_bases(lens, part)
        old_ids = np.nonzero(old_part)[0]
        segs: list[np.ndarray] = []
        lo_segs: list[np.ndarray] = []
        span_segs: list[np.ndarray] = []
        cursor = 0
        for nid in sorted(changed):
            was = nid < n_old and bool(old_part[nid])
            if was:
                start, ln = int(old_base[nid]), int(old_len[nid])
            else:
                # Node joins the table: its canonical position is just
                # before the next old participant with a larger id.
                j = int(np.searchsorted(old_ids, nid))
                start = (
                    int(old_base[old_ids[j]])
                    if j < old_ids.size else old_data.size
                )
                ln = 0
            segs.append(old_data[cursor:start])
            if bounds is not None:
                lo_segs.append(lo_tab[:, cursor:start])
                span_segs.append(span_tab[:, cursor:start])
            row = changed[nid]
            if part[nid] and row.size:
                segs.append(row)
                if bounds is not None:
                    # C-ordered like the old table's segments, so the
                    # stitched table is too (``concatenate`` follows
                    # its inputs' layout).
                    lo_segs.append(np.take(arrays.lo, row, axis=1))
                    span_segs.append(np.take(arrays.span, row, axis=1))
            cursor = start + ln
        segs.append(old_data[cursor:])
        data = np.concatenate(segs)
        if bounds is None:
            return data, base, None, None
        lo_segs.append(lo_tab[:, cursor:])
        span_segs.append(span_tab[:, cursor:])
        return (
            data, base,
            np.concatenate(lo_segs, axis=1),
            np.concatenate(span_segs, axis=1),
        )

    def _patch_pow2(self, dirty: set[int]) -> None:
        """Refresh the mask/shift columns of the dirty nodes (their
        power-of-two alignment was validated before any mutation)."""
        ids = np.fromiter(dirty, dtype=np.int64)
        self.ax_mask[:, ids], self.ax_shift[:, ids] = self._mask_shift(
            self.ax_span[:, ids], self.ax_ncuts[:, ids]
        )

    @staticmethod
    def _mask_shift(spans: np.ndarray, ncuts: np.ndarray):
        # log2 of a power of two is exact in float64 (spans fit well
        # under 2**53).
        log2span = np.log2(spans.astype(np.float64)).astype(np.int64)
        log2cuts = np.log2(ncuts.astype(np.float64)).astype(np.int64)
        return spans - 1, np.maximum(log2span - log2cuts, 0)

    # ------------------------------------------------------------------
    def batch_lookup(self, trace: PacketTrace) -> BatchLookup:
        """Classify a whole trace; see module docstring for the scheme."""
        headers32 = np.ascontiguousarray(trace.headers, dtype=np.uint32)
        n = headers32.shape[0]
        out = BatchLookup(
            match=np.full(n, -1, dtype=np.int64),
            internal_nodes=np.zeros(n, dtype=np.int32),
            leaf_id=np.full(n, -1, dtype=np.int32),
            leaf_size=np.zeros(n, dtype=np.int32),
            match_pos=np.full(n, -1, dtype=np.int32),
            rules_compared=np.zeros(n, dtype=np.int32),
        )
        self._walk(headers32, out.match, (
            out.internal_nodes, out.leaf_id, out.leaf_size, out.match_pos,
            out.rules_compared,
        ))
        return out

    def batch_match(self, headers32: np.ndarray) -> np.ndarray:
        """Match-only traversal: what ``classify_batch`` of every
        tree-backed classifier runs, a flow cache's miss serve included.

        The walk of :meth:`batch_lookup` with no statistics: the five
        arrays are neither allocated nor written (5-13% of a portable
        walk).  Takes the raw ``(n, ndim)`` uint32 header array a cache
        miss-set already is, not a ``PacketTrace``.  Matches are
        bit-identical to ``batch_lookup(...).match``
        (``tests/test_match_walk.py`` asserts it).
        """
        headers32 = np.ascontiguousarray(headers32, dtype=np.uint32)
        match = np.full(headers32.shape[0], -1, dtype=np.int64)
        self._walk(headers32, match)
        return match

    def walk_cycles(
        self, headers32, placement, match, cycles, tally=None
    ) -> int:
        """The native walk writing ``match`` and, under an accelerator's
        leaf ``placement`` (:func:`native.place`), each packet's
        memory-port cycles ``cycles = (occupancy[, internal_fetches,
        leaf_words])``, counted by the iteration that finishes the packet,
        once every header's fields are within the placement's widths
        (:class:`~repro.core.errors.PacketFormatError` if not); the
        packets that matched and their cycles are added to ``tally``
        when given.  Returns the k it ran on, or 0, nothing
        written, where the native kernel does not serve: the caller
        computes them from :meth:`batch_lookup`."""
        return native.walk(
            self._native, headers32, match, placement=placement,
            cycles=cycles, tally=tally,
        )

    def miss_walk(self, placement=None):
        """What a flow cache's one-call miss serve
        (:func:`native.serve`) walks for a backend that is this walk:
        ``(tables, placement)``, the pointer table over the current
        buffers and an accelerator's leaf placement (``None``: a
        match-only walk).  ``None`` for a tree the native walk does not
        serve."""
        return None if self._native is None else (self._native, placement)

    def _walk(self, headers32, match: np.ndarray, stats=None) -> None:
        """The native loop over the whole input when it is loaded, else
        the portable walk a tile at a time."""
        if native.walk(self._native, headers32, match, stats):
            return
        for lo in range(0, match.size, _TILE_PACKETS):
            tile = slice(lo, lo + _TILE_PACKETS)
            self._walk_tile(
                headers32[tile], match[tile],
                stats and tuple(s[tile] for s in stats),
            )

    def _walk_tile(self, headers32, match: np.ndarray, stats=None) -> None:
        """Walk one tile of packets root to leaf, writing its slice of
        ``match`` and — when the caller wants them — of the five
        statistics arrays ``stats = (internal_nodes, leaf_id, leaf_size,
        match_pos, rules_compared)`` (views into arrays allocated once
        per call, like ``match``)."""
        if stats is not None:
            internal_nodes, leaf_id, leaf_size, match_pos, compared = stats
        else:
            match_pos = compared = None
        headers = headers32.astype(np.int64)  # traversal arithmetic
        n = headers.shape[0]
        cur = np.zeros(n, dtype=np.int32)
        active = np.arange(n, dtype=np.int64)
        guard = 0
        while active.size:
            guard += 1
            if guard > 10_000:
                raise BuildError("batch traversal did not terminate")
            nodes = cur[active].astype(np.int64)
            at_leaf = self.kind[nodes] == LEAF
            if at_leaf.any():
                sel = active[at_leaf]
                nids = nodes[at_leaf]
                lens = self.leaf_len[nids]
                if stats is not None:
                    leaf_id[sel] = nids
                    leaf_size[sel] = lens
                nz = lens > 0
                if nz.any():
                    self._match_lists(
                        sel[nz], self.leaf_base[nids[nz]], lens[nz],
                        self.leaf_rules, self.leaf_lo, self.leaf_span,
                        headers32, match, compared, match_pos,
                    )
                cur[sel] = -2
            internal = ~at_leaf
            if internal.any():
                sel = active[internal]
                nids = nodes[internal]
                if stats is not None:
                    internal_nodes[sel] += 1
                if self.has_pushed:
                    plen = self.push_len[nids]
                    pm = plen > 0
                    if pm.any():
                        self._match_lists(
                            sel[pm], self.push_base[nids[pm]], plen[pm],
                            self.push_rules, self.push_lo, self.push_span,
                            headers32, match, compared,
                        )
                child, dead = self._advance(sel, nids, headers)
                if stats is not None and dead.any():
                    leaf_size[sel[dead]] = 0
                cur[sel] = np.where(dead, np.int32(-2), child)
            active = active[cur[active] >= 0]

    # ------------------------------------------------------------------
    def _advance(
        self, sel: np.ndarray, nids: np.ndarray, headers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Child node id per packet plus the dead-path mask.

        One gathered expression per axis slot; padded slots contribute
        stride 0, so mixed-arity nodes advance in the same pass.
        """
        flat = np.zeros(sel.size, dtype=np.int64)
        outside = np.zeros(sel.size, dtype=bool)
        for a in range(self.naxes):
            raw = headers[sel, self.ax_dim[a, nids]]
            stride = self.ax_stride[a, nids]
            if self.pow2:
                # The hardware datapath: mask the position-independent
                # relative bits, shift down to the cut resolution.
                coord = (raw & self.ax_mask[a, nids]) >> self.ax_shift[a, nids]
            else:
                span = self.ax_span[a, nids]
                ncuts = self.ax_ncuts[a, nids]
                if self.grid_mode:
                    v = raw % span
                else:
                    lo = self.ax_lo[a, nids]
                    outside |= (raw < lo) | (raw > self.ax_hi[a, nids])
                    v = np.clip(raw - lo, 0, span - 1)
                coord = np.where(ncuts >= span, v, (v * ncuts) // span)
            flat += coord * stride
        child = self.children[self.child_base[nids] + flat]
        return child, (child == EMPTY_CHILD) | outside

    # ------------------------------------------------------------------
    @staticmethod
    def _first_match(
        sel: np.ndarray, base: np.ndarray, lens: np.ndarray,
        lo_tab: np.ndarray, span_tab: np.ndarray, headers32: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented first-match over per-packet rule lists (CSR).

        Packet ``sel[i]`` searches slots ``base[i]`` to ``base[i] +
        lens[i]`` of ``lo_tab`` / ``span_tab`` (a list may be empty,
        ``lens`` may not).  Returns ``(hit, first)``: the indices ``i``
        whose list holds a matching rule, ascending, and the within-list
        index of the first one.

        Expands exactly ``lens.sum()`` (packet, rule) pairs.  The first
        two dimensions (the highly selective IP prefixes on 5-tuple
        rulesets) are tested over all pairs; only the survivors are
        tested on the rest.  Pairs are laid out list after list, so the
        final survivors are sorted by packet and by slot within a
        packet: the first hit of a packet is the survivor whose
        predecessor belongs to another packet.
        """
        starts = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        total = int(starts[-1] + lens[-1])
        pos = np.arange(total, dtype=np.int64) + np.repeat(base - starts, lens)
        ndim = headers32.shape[1]
        lead = min(2, ndim)
        ok = np.ones(total, dtype=bool)
        for d in range(lead):
            v = np.repeat(headers32[sel, d], lens)
            ok &= (v - lo_tab[d][pos]) <= span_tab[d][pos]
        alive = np.nonzero(ok)[0]
        pk = np.searchsorted(starts, alive, side="right") - 1
        for d in range(lead, ndim):
            pa = pos[alive]
            keep = (headers32[sel[pk], d] - lo_tab[d][pa]) <= span_tab[d][pa]
            alive = alive[keep]
            pk = pk[keep]
        is_first = np.ones(pk.size, dtype=bool)
        is_first[1:] = pk[1:] != pk[:-1]
        hit = pk[is_first]
        return hit, alive[is_first] - starts[hit]

    @staticmethod
    def _keep_best(
        match: np.ndarray, pkts: np.ndarray, cand: np.ndarray
    ) -> None:
        """Priority resolution against the running best (pushed rules
        seen higher up the path): the reference's compare-and-keep-
        smaller update."""
        cur_best = match[pkts]
        better = (cur_best < 0) | (cand < cur_best)
        match[pkts[better]] = cand[better]

    def _match_lists(
        self, sel: np.ndarray, base: np.ndarray, lens: np.ndarray,
        rules_flat: np.ndarray, lo_tab: np.ndarray, span_tab: np.ndarray,
        headers32: np.ndarray, match: np.ndarray,
        rules_compared: np.ndarray | None, match_pos: np.ndarray | None = None,
    ) -> None:
        """First match per list.  A walk that keeps statistics charges
        the comparisons the reference counts (up to and including the
        hit, or the whole list) to ``rules_compared`` and, on a leaf,
        records the hit's ``match_pos``."""
        hit, first = self._first_match(
            sel, base, lens, lo_tab, span_tab, headers32
        )
        pkts = sel[hit]
        if rules_compared is not None:
            compared = lens.astype(np.int32)
            compared[hit] = first + 1
            rules_compared[sel] += compared
        if match_pos is not None:
            match_pos[pkts] = first  # a miss keeps the initial -1
        self._keep_best(match, pkts, rules_flat[base[hit] + first])
