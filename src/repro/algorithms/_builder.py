"""Common construction machinery for HiCuts/HyperCuts (original + modified).

The two algorithms differ only in *how a node decides its cut* (one
dimension with doubling vs. a multi-dimension combination search); the
surrounding mechanics are shared and live here:

* work-list driven construction (explicit stack, no Python recursion) of
  a whole tree or of one subtree in a given box
  (:meth:`TreeBuilder.build_subtree`, which incremental updates splice
  into a live tree),
* the stop rules, below,
* leaf creation with redundancy elimination,
* child merging ("merging child nodes which have associated with them the
  same set of rules" — Section 2) and empty-child removal,
* region bookkeeping in full precision and, for the modified algorithms,
  on the 8-MSB hardware grid where every region is a power-of-two aligned
  box (the invariant that makes mask/shift child indexing possible);
  :func:`child_boxes` gives children's boxes to the builder and to the
  incremental updater alike.

Stop rules: ``binth`` is a target, not a bound.  A node with at most
``binth`` rules is a leaf; a node with more becomes a leaf too when its
rules are identical inside its region, at ``_MAX_DEPTH``, when no
dimension can be cut, or when the chosen cut keeps every rule in one
child (it separates nothing; cutting on would only shrink the box around
the same rules).  Under the last rule a node's rule count strictly falls
along every path, so a tree is at most ``n - binth`` deep.  A leaf larger
than ``binth`` spans several memory words, which the placement already
prices (``Placement.words_spanned``).

Merging correctness: in software mode siblings with identical rule sets
merge and the surviving node's region is the per-dimension hull of the
merged regions — sound because every merged sibling overlaps every rule
in the shared set, so the hull partition covers every packet that can
arrive.  In grid mode regions must stay aligned, so siblings merge only
when their rules' footprints are *congruent* relative to each sibling's
box (bitwise-identical discrimination); leaf-sized children
(n <= binth) merge unconditionally since leaves never cut again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import BuildError, ConfigError
from ..core.geometry import cut_interval, grid_cell_to_range
from ..core.ruleset import RuleSet
from .base import EMPTY_CHILD, INTERNAL, LEAF, DecisionTree, Node
from .opcount import NULL_COUNTER, OpCounter
from ._partition import (
    all_rules_identical_in_region,
    assign_children,
    clipped_bounds,
    eliminate_redundant,
)

#: A node this deep becomes a leaf whatever its rule count.
_MAX_DEPTH = 64


def child_boxes(
    region: tuple[tuple[int, int], ...],
    grid_region: tuple[tuple[int, int], ...] | None,
    dims: tuple[int, ...],
    counts: tuple[int, ...],
    flats: list[int],
    widths: tuple[int, ...],
) -> list[tuple[tuple, tuple | None]]:
    """(region, grid_region) of each child in ``flats`` (flat indexes,
    row-major over the cut axes) of a node cut ``counts`` ways along
    ``dims``.  Each axis's cells are computed once, in the coordinates
    the node is cut in (grid cells in grid mode, field values otherwise).
    """
    box = region if grid_region is None else grid_region
    cells = [cut_interval(*box[d], c) for d, c in zip(dims, counts)]
    boxes = []
    for flat in flats:
        child = list(region)
        grid = None if grid_region is None else list(grid_region)
        for dim, axis in zip(reversed(dims), reversed(cells)):
            flat, coord = divmod(flat, len(axis))
            if grid is None:
                child[dim] = axis[coord]
            else:
                grid[dim] = axis[coord]
                child[dim] = grid_cell_to_range(*axis[coord], widths[dim])
        boxes.append((tuple(child), None if grid is None else tuple(grid)))
    return boxes


@dataclass
class CutDecision:
    """Outcome of a node's cut-selection heuristic.

    ``dims``/``counts`` name the cut axes; ``firsts``/``lasts`` give every
    rule's child-coordinate interval per axis (aligned with the node's
    rule-id array); ``max_child`` is the most rules any child receives,
    which the stop rule reads.
    """

    dims: tuple[int, ...]
    counts: tuple[int, ...]
    firsts: list[np.ndarray]
    lasts: list[np.ndarray]
    max_child: int


@dataclass
class BuilderConfig:
    """Parameters shared by every tree builder.

    ``binth`` and ``spfac`` are the paper's knobs; ``hw_mode`` selects the
    modified (hardware-oriented, grid-cutting) algorithm variant.
    ``binth`` is a target, not a bound: a node with more rules still
    becomes a leaf when its rules are identical in its region, at
    ``_MAX_DEPTH``, when no dimension can be cut, or when the chosen cut
    keeps every rule in one child.
    """

    binth: int = 16
    spfac: float = 4.0
    hw_mode: bool = False
    redundancy_elimination: bool = True

    def validate(self) -> None:
        if self.binth < 1:
            raise ConfigError("binth must be >= 1")
        if self.spfac <= 0:
            raise ConfigError("spfac must be > 0")


@dataclass
class _WorkItem:
    node_id: int
    rule_ids: np.ndarray
    region: tuple[tuple[int, int], ...]
    grid_region: tuple[tuple[int, int], ...] | None
    depth: int


class TreeBuilder:
    """Base class driving construction; subclasses implement `_decide_cut`."""

    algorithm = "base"

    def __init__(
        self,
        ruleset: RuleSet,
        config: BuilderConfig,
        ops: OpCounter | None = None,
    ) -> None:
        config.validate()
        self.ruleset = ruleset
        self.schema = ruleset.schema
        self.config = config
        self.ops = ops if ops is not None else NULL_COUNTER
        self.arrays = ruleset.arrays
        self.nodes: list[Node] = []

    # ------------------------------------------------------------------
    def build(self) -> DecisionTree:
        if len(self.ruleset) == 0:
            raise BuildError("cannot build a tree for an empty ruleset")
        root_grid = (
            tuple((0, 255) for _ in range(self.schema.ndim))
            if self.config.hw_mode
            else None
        )
        nodes = self.build_subtree(
            np.arange(len(self.ruleset), dtype=np.int64),
            self.schema.universe(),
            root_grid,
            0,
        )
        return DecisionTree(
            self.ruleset,
            nodes,
            grid_mode=self.config.hw_mode,
            params={
                "algorithm": self.algorithm,
                "binth": self.config.binth,
                "spfac": self.config.spfac,
                "hw_mode": self.config.hw_mode,
            },
            build_ops=self.ops if isinstance(self.ops, OpCounter) else None,
        )

    def build_subtree(
        self,
        rule_ids: np.ndarray,
        region: tuple[tuple[int, int], ...],
        grid_region: tuple[tuple[int, int], ...] | None,
        depth: int,
    ) -> list[Node]:
        """Grow the subtree over ``rule_ids`` in the box ``region`` (and
        ``grid_region`` in grid mode), its root at ``depth``.

        Returns the subtree's nodes, root first; child ids index the
        returned list."""
        self.nodes = [
            Node(kind=LEAF, region=region, grid_region=grid_region, depth=depth)
        ]
        stack = [_WorkItem(0, rule_ids, region, grid_region, depth)]
        while stack:
            self._build_node(stack.pop(), stack)
        return self.nodes

    # ------------------------------------------------------------------
    def _build_node(self, item: _WorkItem, stack: list[_WorkItem]) -> None:
        cfg = self.config
        rule_ids = item.rule_ids
        self.ops.add("mem_read", len(rule_ids))
        # Nodes larger than ``max(4 * binth, 64)`` skip redundancy
        # elimination: it is a near-leaf optimisation, and a fixed cliff
        # would make build cost non-monotonic in ruleset size (an O(n²)
        # scan at the root for sets just under the cliff).
        if (
            cfg.redundancy_elimination
            and 1 < len(rule_ids) <= max(4 * cfg.binth, 64)
        ):
            rule_ids = eliminate_redundant(
                self.arrays, rule_ids, item.region, self.ops
            )
        if (
            len(rule_ids) <= cfg.binth
            or item.depth >= _MAX_DEPTH
            or all_rules_identical_in_region(self.arrays, rule_ids, item.region)
        ):
            self._make_leaf(item.node_id, rule_ids, item)
            return

        decision = self._decide_cut(rule_ids, item)
        # The stop rule: a cut that keeps every rule in one child separates
        # nothing, so cutting on would only shrink the box around them.
        if decision is None or decision.max_child >= len(rule_ids):
            self._make_leaf(item.node_id, rule_ids, item)
            return
        self._apply_cut(item, rule_ids, decision, stack)

    # ------------------------------------------------------------------
    def _make_leaf(self, node_id: int, rule_ids: np.ndarray, item: _WorkItem) -> None:
        node = self.nodes[node_id]
        node.kind = LEAF
        node.rule_ids = np.asarray(rule_ids, dtype=np.int64)
        node.region = item.region
        node.grid_region = item.grid_region
        node.depth = item.depth
        self.ops.add("alloc", 1)
        self.ops.add("mem_write", max(1, len(rule_ids)))

    # ------------------------------------------------------------------
    def _apply_cut(
        self,
        item: _WorkItem,
        rule_ids: np.ndarray,
        decision: CutDecision,
        stack: list[_WorkItem],
    ) -> None:
        cfg = self.config
        node = self.nodes[item.node_id]
        node.kind = INTERNAL
        node.cut_dims = decision.dims
        node.cut_counts = decision.counts
        node.region = item.region
        node.grid_region = item.grid_region
        node.depth = item.depth
        self.ops.add("alloc", 1)

        firsts, lasts = decision.firsts, decision.lasts
        part_ids = rule_ids
        pushed = self._common_rules(decision)
        if pushed is not None and pushed.any():
            node.pushed = rule_ids[pushed]
            keep = ~pushed
            part_ids = rule_ids[keep]
            firsts = [f[keep] for f in firsts]
            lasts = [l[keep] for l in lasts]
            self.ops.add("mem_write", int(node.pushed.size))

        children_lists = assign_children(
            part_ids, firsts, lasts, decision.counts, self.ops
        )
        child_ids = np.full(len(children_lists), EMPTY_CHILD, dtype=np.int32)
        # An empty child stays EMPTY_CHILD, so only the others need a box.
        filled = [j for j, lst in enumerate(children_lists) if lst.size]
        boxes = dict(zip(filled, child_boxes(
            item.region, item.grid_region, decision.dims, decision.counts,
            filled, self.schema.widths,
        )))

        # --- merge identical siblings --------------------------------
        groups: dict[bytes, list[int]] = {}
        for j in filled:
            groups.setdefault(children_lists[j].tobytes(), []).append(j)

        for sig, members in groups.items():
            lst = children_lists[members[0]]
            leaf_sized = lst.size <= cfg.binth
            if cfg.hw_mode and not leaf_sized:
                subgroups = self._congruent_subgroups(
                    lst, members, boxes, decision.dims
                )
            else:
                subgroups = [members]
            for sub in subgroups:
                rep_region, rep_grid = self._merged_region(
                    sub, boxes, leaf_sized
                )
                new_id = len(self.nodes)
                self.nodes.append(
                    Node(
                        kind=LEAF,
                        region=rep_region,
                        grid_region=rep_grid,
                        depth=item.depth + 1,
                    )
                )
                for j in sub:
                    child_ids[j] = new_id
                stack.append(
                    _WorkItem(
                        new_id, lst, rep_region, rep_grid, item.depth + 1
                    )
                )
        node.children = child_ids

    # ------------------------------------------------------------------
    def _congruent_subgroups(
        self,
        rule_list: np.ndarray,
        members: list[int],
        boxes: dict[int, tuple[tuple, tuple | None]],
        dims: tuple[int, ...],
    ) -> list[list[int]]:
        """Split same-rule-set siblings into relative-footprint-congruent
        groups (grid mode).  Two siblings are congruent when every shared
        rule clips to the same offsets inside each sibling's box along
        every cut dimension; then one subtree discriminates identically
        for both and may be shared."""

        def signature(j: int) -> bytes:
            region = boxes[j][0]
            parts = []
            for d in dims:
                lo, hi = region[d]
                clo, chi = clipped_bounds(
                    self.arrays.lo[d, rule_list],
                    self.arrays.hi[d, rule_list],
                    lo,
                    hi,
                )
                parts.append((clo - lo).tobytes())
                parts.append((chi - lo).tobytes())
            self.ops.add("alu", 4 * len(dims) * len(rule_list))
            return b"".join(parts)

        buckets: dict[bytes, list[int]] = {}
        for j in members:
            buckets.setdefault(signature(j), []).append(j)
        return list(buckets.values())

    # ------------------------------------------------------------------
    def _merged_region(
        self,
        members: list[int],
        boxes: dict[int, tuple[tuple, tuple | None]],
        leaf_sized: bool,
    ) -> tuple[tuple, tuple | None]:
        """Region of a merged node.

        Congruence-merged internal groups (grid mode, > binth) keep the
        representative's box: congruence makes every region-relative
        decision (further cuts, redundancy comparisons) identical across
        the merged siblings.  Every other merge — software mode and
        leaf-sized grid merges — takes the per-dimension hull: the hull is
        a box containing every packet that can reach the node, so
        redundancy elimination against it is sound for all siblings
        (eliminating against one sibling's box is NOT: a rule shadowed in
        one sibling may be the match in another).  Leaf hulls on the grid
        may lose power-of-two alignment, which is harmless because leaves
        are never cut again.
        """
        if len(members) == 1:
            return boxes[members[0]]
        if self.config.hw_mode and not leaf_sized:
            return boxes[members[0]]
        regions = [boxes[j][0] for j in members]
        hull = tuple(
            (min(r[d][0] for r in regions), max(r[d][1] for r in regions))
            for d in range(self.schema.ndim)
        )
        if not self.config.hw_mode:
            return hull, None
        grids = [boxes[j][1] for j in members]
        grid_hull = tuple(
            (min(g[d][0] for g in grids), max(g[d][1] for g in grids))
            for d in range(self.schema.ndim)
        )
        return hull, grid_hull

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _decide_cut(
        self, rule_ids: np.ndarray, item: _WorkItem
    ) -> CutDecision | None:
        raise NotImplementedError

    def _common_rules(self, decision: CutDecision) -> np.ndarray | None:
        """Mask of the rules an internal node keeps itself instead of
        passing to its children (HyperCuts' push-common-subsets); asked
        only once the stop rule has let the cut through."""
        return None

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _axis_bounds(
        self, rule_ids: np.ndarray, item: _WorkItem, dim: int
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Rule bounds and region interval along ``dim`` in the coordinate
        system the builder cuts in (grid cells for hw_mode, raw values
        otherwise)."""
        if self.config.hw_mode:
            assert item.grid_region is not None
            lo, hi = item.grid_region[dim]
            return (
                self.arrays.glo[dim, rule_ids],
                self.arrays.ghi[dim, rule_ids],
                lo,
                hi,
            )
        lo, hi = item.region[dim]
        return self.arrays.lo[dim, rule_ids], self.arrays.hi[dim, rule_ids], lo, hi

    def _span_of(self, item: _WorkItem, dim: int) -> int:
        if self.config.hw_mode:
            assert item.grid_region is not None
            lo, hi = item.grid_region[dim]
        else:
            lo, hi = item.region[dim]
        return hi - lo + 1

    def _charge_eval(self, n: int, uses_division: bool) -> None:
        """Bill one candidate-cut evaluation over ``n`` rules."""
        self.ops.add("mem_read", 2 * n)
        self.ops.add("alu", 6 * n)
        self.ops.add("branch", n)
        if uses_division:
            self.ops.add("div", 2 * n)
        else:
            self.ops.add("alu", 2 * n)
