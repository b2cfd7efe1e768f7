"""Incremental rule updates on built decision trees.

The paper picks HiCuts/HyperCuts over RFC specifically because they
"allow incremental updates to a ruleset" (Sections 1/2), and Section 4
sketches the deployment: the control plane keeps a copy of the search
structure, updates it, and re-syncs the accelerator's memory through the
shared write interface.  The paper never specifies the update algorithm;
this module provides the standard one:

* **insert** — descend from the root into every child slot the new
  rule's footprint overlaps; append the rule to each reached leaf; a
  leaf that grows beyond ``binth`` has its subtree rebuilt in place with
  the same builder configuration.  Empty child slots covered by the rule
  become fresh leaves.
* **remove** — delete the rule id from every leaf (a tombstone remains
  in the rule table so existing ids stay stable; ``rebuild()`` compacts).

Merged children make the tree a DAG, so blind mutation of a shared node
would leak the update into sibling regions that the rule does not cover.
The updater therefore maintains reference counts and **clones shared
nodes copy-on-write** before touching them — the soundness property the
tests check is, as everywhere in this library, exact agreement with a
first-match linear search over the live rules.

Updates are billed to an :class:`OpCounter` so the control-plane energy
cost of an update batch can be compared with a full rebuild (see
``examples/incremental_updates.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import BuildError
from ..core.geometry import child_index
from ..core.packet import PacketTrace
from ..core.rules import Rule
from ..core.ruleset import RuleSet
from ..core.updates import OP_INSERT, OP_REMOVE, RuleUpdate, UpdateResult
from ._builder import TreeBuilder, child_boxes
from .base import EMPTY_CHILD, LEAF, DecisionTree, Node
from .opcount import NULL_COUNTER, OpCounter
from .trees import tree_builder


@dataclass
class UpdateStats:
    """What one insert/remove touched.

    ``touched`` holds the node ids whose compiled-kernel rows changed
    (mutated leaves, cloned/rebased nodes, re-pointed parents, spliced
    subtrees); the updater hands it to
    :meth:`~repro.algorithms.base.DecisionTree.mark_dirty` so the flat
    kernel is *patched* instead of recompiled.
    """

    leaves_touched: int = 0
    nodes_cloned: int = 0
    subtrees_rebuilt: int = 0
    new_leaves: int = 0
    touched: set[int] = field(default_factory=set)
    #: The stable id an insert gave its rule (-1 for a removal).
    rule_id: int = -1


class IncrementalClassifier:
    """A decision-tree classifier supporting in-place rule updates.

    Parameters mirror the builders; ``algorithm`` selects HiCuts or
    HyperCuts.  Inserted rules take the lowest priority (appended at the
    bottom of the ruleset), which is the common ACL-update pattern; a
    priority-ordered batch can be applied with :meth:`rebuild`.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        algorithm: str = "hicuts",
        binth: int = 30,
        spfac: float = 4.0,
        hw_mode: bool = True,
        ops: OpCounter | None = None,
    ) -> None:
        self.ops = ops if ops is not None else NULL_COUNTER
        self.algorithm = algorithm
        self.binth = binth
        self.spfac = spfac
        self.hw_mode = hw_mode
        # Private ruleset copy: ids must stay stable across updates.
        self._ruleset = RuleSet(list(ruleset.rules), ruleset.schema, ruleset.name)
        self._live = np.ones(len(self._ruleset), dtype=bool)
        self.tree = self._build(self._ruleset)
        self._refcounts = self._count_refs()
        #: rule id -> ids of the nodes storing it (in a leaf's list or
        #: an internal node's pushed list), so a removal edits its
        #: holders instead of scanning the tree.  Kept exact by every
        #: edit of a stored list: leaf append, fresh leaf, CoW clone,
        #: subtree splice, removal.
        self._holders = self._index_holders()
        #: Ruleset version: bumped once per applied update batch.
        self.update_epoch = 0
        #: Node ids the most recent :meth:`apply_updates` batch touched
        #: (for incremental hardware re-sync; empty before any batch).
        self.last_touched: set[int] = set()

    # ------------------------------------------------------------------
    def _builder(self, ruleset: RuleSet, ops: OpCounter | None = None) -> TreeBuilder:
        """The tree builder for an *updatable* tree.

        Redundancy elimination is disabled: dropping a rule because an
        earlier rule shadows it is only sound while the shadowing rule
        is live, and :meth:`remove` merely strips ids from leaves — a
        later removal of the shadower would leave the eliminated rule
        unrecoverable (first found by the update fuzzer: insert a rule
        twice, rebuild a leaf, remove the first copy — the second copy
        had been eliminated and silently vanished).  Updatable trees
        therefore keep every overlapping rule in every leaf.
        """
        return tree_builder(
            self.algorithm, ruleset, ops, binth=self.binth, spfac=self.spfac,
            hw_mode=self.hw_mode, redundancy_elimination=False,
        )

    def _build(self, ruleset: RuleSet) -> DecisionTree:
        ops = self.ops if isinstance(self.ops, OpCounter) else None
        return self._builder(ruleset, ops).build()

    def _count_refs(self, node_ids=None, refs=None) -> dict[int, int]:
        """Add the child pointers of nodes ``node_ids`` (default: the
        whole tree, into a fresh table) to the reference counts."""
        if refs is None:
            refs = {0: 1}
        if node_ids is None:
            node_ids = range(len(self.tree.nodes))
        for nid in node_ids:
            children = self.tree.nodes[nid].children
            if children is not None:
                for c in children[children != EMPTY_CHILD].tolist():
                    refs[c] = refs.get(c, 0) + 1
        return refs

    def _index_holders(self, node_ids=None, index=None) -> dict[int, set[int]]:
        """Enter nodes ``node_ids`` (default: the whole tree, into a
        fresh index) under every rule they store."""
        if index is None:
            index = {}
        if node_ids is None:
            node_ids = range(len(self.tree.nodes))
        for nid in node_ids:
            node = self.tree.nodes[nid]
            for rid in (node.rule_ids if node.is_leaf else node.pushed).tolist():
                index.setdefault(rid, set()).add(nid)
        return index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_live_rules(self) -> int:
        return int(self._live.sum())

    def live_ruleset(self) -> RuleSet:
        """The semantically live rules, in priority order (the oracle's
        view; ids are compacted)."""
        rules = [
            r for i, r in enumerate(self._ruleset.rules) if self._live[i]
        ]
        return RuleSet(rules, self._ruleset.schema, f"{self._ruleset.name}+upd")

    def classify(self, header) -> int:
        """First-match over live rules (stable-id result)."""
        return self.tree.lookup(header).rule_id

    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        """``flat`` flushes any pending kernel patch first, so the walk
        always sees the current ruleset epoch."""
        return self.tree.flat.batch_match(headers)

    def classify_trace(self, trace: PacketTrace) -> np.ndarray:
        return self.tree.flat.batch_match(trace.headers)

    @property
    def miss_walk(self):
        """``classify_batch`` is one match-only walk of the patched tree:
        a flow cache may serve its misses in the same native call."""
        return self.tree.flat.miss_walk()

    def memory_bytes(self) -> int:
        """Software search-structure model of the current (live) tree."""
        return self.tree.software_memory_bytes()

    def memory_accesses_per_lookup(self) -> int:
        return self.tree.stats().worst_case_sw_accesses

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, rule: Rule) -> UpdateStats:
        """Insert a rule at the lowest priority; returns touch stats."""
        rule.validate(self._ruleset.schema)
        # ``append`` extends the cached SoA view in place, so the new
        # rule's bounds are visible without an O(n) arrays rebuild.
        self._ruleset.append(rule)
        self._live = np.append(self._live, True)
        rid = len(self._ruleset) - 1

        stats = UpdateStats(rule_id=rid)
        root = self.tree.nodes[0]
        self._insert_into(
            0, rid, parent=None, slot=None,
            true_region=root.region, true_grid=root.grid_region, stats=stats,
        )
        self.ops.add("mem_write", 1)
        # Patch (not recompile) the compiled kernel rows we touched.
        self.tree.mark_dirty(stats.touched)
        self.update_epoch += 1
        return stats

    def _is_live(self, rule_id: int) -> bool:
        return 0 <= rule_id < len(self._ruleset) and bool(self._live[rule_id])

    def remove(self, rule_id: int) -> UpdateStats:
        """Remove a rule by stable id (tombstoned until :meth:`rebuild`).

        The rule is deleted from the leaves and pushed lists holding it
        — the holder index names those nodes, so a removal costs its
        holders, not a tree scan."""
        if not self._is_live(rule_id):
            raise BuildError(f"rule {rule_id} is not live")
        self._live[rule_id] = False
        stats = UpdateStats()
        # A tombstoned id never comes back, so its index entry goes too.
        stats.touched = self._holders.pop(rule_id, set())
        for nid in stats.touched:
            node = self.tree.nodes[nid]
            if node.is_leaf:
                node.rule_ids = node.rule_ids[node.rule_ids != rule_id]
                stats.leaves_touched += 1
                self.ops.add("mem_write", 1)
            else:
                node.pushed = node.pushed[node.pushed != rule_id]
        self.tree.mark_dirty(stats.touched)
        self.update_epoch += 1
        return stats

    def apply_updates(self, batch) -> UpdateResult:
        """Apply one control-plane batch of :class:`RuleUpdate` ops, in
        order.

        Inserts take the next stable id; removals of ids that are not
        live are *skipped* (counted, not raised) — under churn an update
        stream may legitimately race its own earlier removals, and the
        serving path must not die for it.  Every batch — including an
        empty one — advances :attr:`update_epoch` by one, so epochs
        number ruleset versions deterministically.  (A direct
        :meth:`insert` / :meth:`remove` / :meth:`rebuild` bumps it too:
        serving layers watch it for mutations that bypassed them.)
        """
        epoch = self.update_epoch
        inserted = removed = skipped = 0
        ids: list[int] = []
        touched: set[int] = set()
        for op in batch:
            if not isinstance(op, RuleUpdate):
                raise BuildError(f"not a RuleUpdate: {op!r}")
            if op.op == OP_INSERT:
                stats = self.insert(op.rule)
                ids.append(stats.rule_id)
                inserted += 1
            elif op.op == OP_REMOVE:
                if not self._is_live(op.rule_id):
                    skipped += 1
                    continue
                stats = self.remove(op.rule_id)
                removed += 1
            else:  # pragma: no cover - RuleUpdate validates op
                raise BuildError(f"unknown update op {op.op!r}")
            touched.update(stats.touched)
        self.update_epoch = epoch + 1
        # Node ids whose kernel rows this batch changed — what an
        # incremental hardware re-sync (repro.hw.resync) needs to know.
        self.last_touched = touched
        return UpdateResult(
            epoch=self.update_epoch, inserted=inserted, removed=removed,
            skipped=skipped, inserted_ids=tuple(ids),
        )

    def rebuild(self) -> None:
        """Compact tombstones and rebuild the tree from scratch."""
        self._ruleset = self.live_ruleset()
        self._live = np.ones(len(self._ruleset), dtype=bool)
        self.tree = self._build(self._ruleset)
        self._refcounts = self._count_refs()
        self._holders = self._index_holders()
        self.update_epoch += 1

    # ------------------------------------------------------------------
    def _clone_if_shared(
        self, nid: int, parent: int | None, slot: int | None
    ) -> tuple[int, bool]:
        """Copy-on-write: give ``parent``'s ``slot`` a private copy of
        node ``nid`` when other child slots also point at it."""
        if parent is None or self._refcounts.get(nid, 1) <= 1:
            return nid, False
        node = self.tree.nodes[nid]
        clone = Node(
            kind=node.kind,
            region=node.region,
            grid_region=node.grid_region,
            cut_dims=node.cut_dims,
            cut_counts=node.cut_counts,
            children=None if node.children is None else node.children.copy(),
            rule_ids=node.rule_ids.copy(),
            pushed=node.pushed.copy(),
            depth=node.depth,
        )
        new_id = len(self.tree.nodes)
        self.tree.nodes.append(clone)
        parent_node = self.tree.nodes[parent]
        assert parent_node.children is not None
        # Re-point only THIS slot; congruent duplicates of the same slot
        # value that this rule also covers are handled by the caller
        # visiting each overlapping slot independently.
        parent_node.children[slot] = new_id
        self._refcounts[nid] -= 1
        self._refcounts[new_id] = 1
        self._count_refs((new_id,), self._refcounts)
        self._index_holders((new_id,), self._holders)
        return new_id, True

    def _insert_into(
        self, nid: int, rid: int, parent: int | None, slot: int | None,
        true_region, true_grid, stats: UpdateStats,
    ) -> None:
        """Insert ``rid`` into the subtree rooted at ``nid``.

        ``true_region`` is the node's actual catchment box along this
        path.  Congruence-merged nodes store the *representative*
        sibling's box, which is position-shifted from the true one;
        lookup is position-independent (relative-bit arithmetic) so that
        is harmless, but insertion clips the new rule against a concrete
        box — so before mutating we give the node a private copy (CoW if
        shared) and *rebase* it onto the true box.  After the rebase all
        global-footprint math is exact.
        """
        node = self.tree.nodes[nid]
        needs_rebase = node.region != true_region
        if self._refcounts.get(nid, 1) > 1:
            nid, cloned = self._clone_if_shared(nid, parent, slot)
            node = self.tree.nodes[nid]
            stats.nodes_cloned += 1
            if cloned:
                # The clone's rows must be created and the parent's
                # children row now points at it.
                stats.touched.add(nid)
                if parent is not None:
                    stats.touched.add(parent)
        if needs_rebase:
            node.region = true_region
            node.grid_region = true_grid
            stats.touched.add(nid)  # region feeds the axis tables
        self.ops.add("mem_read", 1)

        if node.is_leaf:
            # Plain append: redundant rules are only an optimisation
            # concern, never a correctness one, and eliminating against a
            # possibly-hulled leaf region is not worth the subtlety here.
            node.rule_ids = np.append(node.rule_ids, rid)
            self._holders.setdefault(rid, set()).add(nid)
            stats.leaves_touched += 1
            stats.touched.add(nid)
            if node.rule_ids.size > self.binth:
                self._rebuild_subtree(nid, stats)
            return

        # Internal node: every overlapped child slot receives the rule.
        rule = self._ruleset.rules[rid]
        spans: list[range] = []
        for dim, ncuts in zip(node.cut_dims, node.cut_counts):
            lo, hi = node.region[dim]
            rlo, rhi = rule.ranges[dim]
            clo, chi = max(rlo, lo), min(rhi, hi)
            if clo > chi:
                return  # the rule does not reach this node's region
            spans.append(
                range(
                    child_index(clo, lo, hi, ncuts),
                    child_index(chi, lo, hi, ncuts) + 1,
                )
            )
        strides = node.child_strides()
        slots = [
            sum(c * s for c, s in zip(coords, strides))
            for coords in itertools.product(*spans)
        ]
        boxes = child_boxes(
            node.region, node.grid_region, node.cut_dims, node.cut_counts,
            slots, self.tree.schema.widths,
        )
        self.ops.add("alu", 4 * len(spans))
        for flat, box in zip(slots, boxes):
            self._insert_slot(nid, flat, rid, box, stats)

    def _insert_slot(
        self, nid: int, flat: int, rid: int, box, stats: UpdateStats
    ) -> None:
        """Insert ``rid`` into child slot ``flat`` of node ``nid``, whose
        box is ``box`` (``(region, grid_region)``)."""
        node = self.tree.nodes[nid]
        assert node.children is not None
        child = int(node.children[flat])
        region, grid = box
        if child == EMPTY_CHILD:
            # A fresh leaf materialises in this sub-region.
            new_id = len(self.tree.nodes)
            self.tree.nodes.append(
                Node(
                    kind=LEAF, region=region, grid_region=grid,
                    rule_ids=np.array([rid], dtype=np.int64),
                    depth=node.depth + 1,
                )
            )
            node.children[flat] = new_id
            self._refcounts[new_id] = 1
            self._holders.setdefault(rid, set()).add(new_id)
            stats.new_leaves += 1
            stats.touched.add(new_id)
            stats.touched.add(nid)  # children row gained the new leaf
            self.ops.add("alloc", 1)
            return
        self._insert_into(
            child, rid, parent=nid, slot=flat,
            true_region=region, true_grid=grid, stats=stats,
        )

    def _rebuild_subtree(self, nid: int, stats: UpdateStats) -> None:
        """Re-run the builder on an oversized leaf's rules and region,
        splicing the produced nodes into the tree."""
        node = self.tree.nodes[nid]
        sub_rules = node.rule_ids
        # Rule ids are global, so the subtree is built over the tree's
        # ruleset, in the leaf's box.
        nodes = self._builder(self.tree.ruleset).build_subtree(
            sub_rules, node.region, node.grid_region, node.depth
        )

        # Splice: the subtree's root replaces `nid`; the rest append with
        # offset ids.
        offset = len(self.tree.nodes)
        remap = {0: nid}
        for i in range(1, len(nodes)):
            remap[i] = offset + i - 1
        for i, built in enumerate(nodes):
            if built.children is not None:
                built.children = np.array(
                    [
                        EMPTY_CHILD if int(c) == EMPTY_CHILD else remap[int(c)]
                        for c in built.children
                    ],
                    dtype=np.int32,
                )
            if i == 0:
                self.tree.nodes[nid] = built
            else:
                self.tree.nodes.append(built)
        # The spliced nodes point only at each other (the leaf they
        # replace had no children), and its rules now live in them.
        spliced = [nid, *range(offset, offset + len(nodes) - 1)]
        self._count_refs(spliced, self._refcounts)
        for rid in sub_rules.tolist():
            self._holders[rid].discard(nid)
        self._index_holders(spliced, self._holders)
        stats.subtrees_rebuilt += 1
        stats.touched.update(spliced)
        self.ops.add("alloc", len(nodes))
