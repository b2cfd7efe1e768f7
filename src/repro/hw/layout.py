"""Tree -> memory-image layout (Section 3's node rearrangement).

"In order to reduce memory consumption the nodes are rearranged after the
search structure has been built.  All the internal nodes are stored first
followed by the leaf nodes" — internal nodes get one word each (BFS order,
root at word 0, mirroring the register-resident root of Figure 4); leaves
are then packed into the remaining words under the ``speed`` parameter:

* ``speed=0`` — leaves stored contiguously (densest; a leaf may start at
  any position and straddle words; per-packet cycles follow eq (5));
* ``speed=1`` — a leaf starts mid-word only when it fits entirely
  (eq (6): ``RulesStoredInLeaf + pos <= 30``), so no leaf smaller than a
  word ever straddles a boundary and cycles follow eq (7).

Because merged children are shared *node ids* in the tree DAG, each shared
leaf is stored once and pointed to by many child entries, which is exactly
how the hardware saves the replicated storage.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.errors import CapacityError, ConfigError, EncodingError
from ..core.rules import FIVE_TUPLE
from ..algorithms.base import EMPTY_CHILD, DecisionTree
from .encoding import (
    EMPTY_ADDR,
    RULES_PER_WORD,
    ChildEntry,
    empty_rule_slot,
    encode_internal_node,
    encode_rule,
    pack_leaf_word,
)
from .memory import DEFAULT_CAPACITY_WORDS, MemoryArray, Placement


@dataclass
class MemoryImage:
    """A fully placed and encoded search structure."""

    tree: DecisionTree
    memory: MemoryArray
    placements: dict[int, Placement]  # node id -> placement
    speed: int
    root_wrapped: bool  # True when a leaf-only tree got a synthetic root
    n_internal_words: int
    n_leaf_words: int

    @property
    def words_used(self) -> int:
        return self.memory.words_used

    @property
    def bytes_used(self) -> int:
        return self.memory.bytes_used

    # ------------------------------------------------------------------
    def worst_case_occupancy(self) -> int:
        """Max memory words fetched for any packet (= Table 8's hardware
        "worst case memory accesses"): internal nodes after the register-
        resident root plus the full scan of the worst leaf on the path."""
        return _worst_case_occupancy(self.tree, self.placements, self.root_wrapped)

    def worst_case_cycles(self) -> int:
        """Tables 4/8 'worst case clock cycles': occupancy + the root
        index-computation cycle that pipelining hides in steady state."""
        return self.worst_case_occupancy() + 1


def _worst_case_occupancy(
    tree: DecisionTree, placements: dict[int, Placement], root_wrapped: bool
) -> int:
    """Memoised DFS over the tree DAG for the worst fetch count."""
    memo: dict[int, int] = {}

    def visit(nid: int) -> int:
        if nid in memo:
            return memo[nid]
        node = tree.nodes[nid]
        if node.is_leaf:
            res = placements[nid].words_spanned if node.rule_ids.size else 0
        else:
            best = 0
            for child in set(int(c) for c in node.children):
                if child != EMPTY_CHILD:
                    best = max(best, visit(child))
            res = best + 1  # this internal node's own word fetch
        memo[nid] = res
        return res

    root = visit(0)
    if root_wrapped:
        # The tree root is a leaf; the register-resident synthetic
        # wrapper contributes no fetch, the leaf scan is the cost.
        return max(root, 1)
    # The real root's own fetch never happens (it lives in Reg A).
    return max(root - 1, 1)


@dataclass
class LayoutMeasurement:
    """Size/shape of a placed structure without encoding it.

    Table 4 reports structures (fw1 at 20k+ rules) far beyond what the
    1024-word accelerator—or even its 12-bit address space—can hold; the
    paper measures them anyway and notes the capacity trade-off.  This is
    the placement-only path for that measurement.
    """

    words_used: int
    bytes_used: int
    n_internal_words: int
    n_leaf_words: int
    worst_case_occupancy: int
    worst_case_cycles: int

    def fits(self, capacity_words: int = DEFAULT_CAPACITY_WORDS) -> bool:
        return self.words_used <= capacity_words


def measure_layout(tree: DecisionTree, speed: int = 1) -> LayoutMeasurement:
    """Place a grid tree and measure it (no encoding, no capacity limit)."""
    placements, n_internal_words, total_words, root_wrapped, _, _ = _place(
        tree, speed
    )
    occ = _worst_case_occupancy(tree, placements, root_wrapped)
    return LayoutMeasurement(
        words_used=total_words,
        bytes_used=total_words * 600,
        n_internal_words=n_internal_words,
        n_leaf_words=total_words - n_internal_words,
        worst_case_occupancy=occ,
        worst_case_cycles=occ + 1,
    )


def _place(tree: DecisionTree, speed: int):
    """Shared placement passes: BFS order + leaf packing.

    Returns ``(placements, n_internal_words, total_words, root_wrapped,
    internal_order, leaf_order)``.
    """
    if not tree.grid_mode:
        raise ConfigError(
            "only grid-mode (hw_mode=True) trees are hardware-encodable; "
            "the original software algorithms use arbitrary regions"
        )
    if tree.schema is not FIVE_TUPLE:
        raise ConfigError("the accelerator classifies the 5-tuple schema")
    if speed not in (0, 1):
        raise ConfigError("speed must be 0 or 1 (Section 3)")

    nodes = tree.nodes
    root_wrapped = nodes[0].is_leaf

    # ------------------------------------------------------------------
    # Pass 1: BFS order, internal nodes first.
    # ------------------------------------------------------------------
    internal_order: list[int] = []
    leaf_order: list[int] = []
    seen = {0}
    queue = deque([0])
    while queue:
        nid = queue.popleft()
        node = nodes[nid]
        if node.is_leaf:
            leaf_order.append(nid)
            continue
        internal_order.append(nid)
        for child in node.children:
            c = int(child)
            if c != EMPTY_CHILD and c not in seen:
                seen.add(c)
                queue.append(c)

    n_internal_words = len(internal_order) + (1 if root_wrapped else 0)
    placements: dict[int, Placement] = {}
    for i, nid in enumerate(internal_order):
        addr = i + (1 if root_wrapped else 0)
        placements[nid] = Placement(node_id=nid, is_leaf=False, addr=addr, pos=0)

    # ------------------------------------------------------------------
    # Pass 2: leaf packing.
    # ------------------------------------------------------------------
    addr = n_internal_words
    pos = 0
    for nid in leaf_order:
        n = int(nodes[nid].rule_ids.size)
        if n == 0:
            placements[nid] = Placement(nid, True, addr=EMPTY_ADDR, pos=0,
                                        n_rules=0, words_spanned=0)
            continue
        if speed == 1 and pos > 0 and pos + n > RULES_PER_WORD:
            addr += 1  # eq (6): start a fresh word instead of straddling
            pos = 0
        start_addr, start_pos = addr, pos
        end_slot = pos + n - 1
        words = end_slot // RULES_PER_WORD + 1
        placements[nid] = Placement(
            nid, True, addr=start_addr, pos=start_pos, n_rules=n,
            words_spanned=words,
        )
        total = pos + n
        addr += total // RULES_PER_WORD
        pos = total % RULES_PER_WORD
    total_words = addr + (1 if pos else 0)
    return placements, n_internal_words, total_words, root_wrapped, internal_order, leaf_order


def build_memory_image(
    tree: DecisionTree,
    speed: int = 1,
    capacity_words: int = DEFAULT_CAPACITY_WORDS,
) -> MemoryImage:
    """Place and encode a grid-mode decision tree into accelerator memory.

    Raises :class:`~repro.core.errors.CapacityError` when the structure
    does not fit ``capacity_words`` (the paper's fw1 sets beyond ~10k rules
    hit this on the 1024-word FPGA configuration).  Use
    :func:`measure_layout` to size structures beyond capacity.
    """
    (placements, n_internal_words, total_words, root_wrapped,
     internal_order, leaf_order) = _place(tree, speed)
    if total_words > capacity_words:
        raise CapacityError(
            f"search structure needs {total_words} words "
            f"({total_words * 600:,} bytes) but the accelerator holds "
            f"{capacity_words} (= {capacity_words * 600:,} bytes); "
            f"reduce spfac or binth to trade throughput for memory"
        )

    # ------------------------------------------------------------------
    # Pass 3: encode.
    # ------------------------------------------------------------------
    memory = MemoryArray(capacity_words)
    if root_wrapped:
        memory.write(0, _encode_wrapped_root(placements))
    for nid in internal_order:
        memory.write(placements[nid].addr, _encode_node(tree, nid, placements))
    for addr, leaves in _leaf_words(leaf_order, placements).items():
        memory.write(addr, _encode_leaf_word(tree, addr, leaves, placements))

    return MemoryImage(
        tree=tree,
        memory=memory,
        placements=placements,
        speed=speed,
        root_wrapped=root_wrapped,
        n_internal_words=n_internal_words,
        n_leaf_words=total_words - n_internal_words,
    )


def _encode_node(
    tree: DecisionTree, nid: int, placements: dict[int, Placement]
) -> int:
    """Encode one internal node: datapath masks/shifts + child entries."""
    node = tree.nodes[nid]
    assert node.grid_region is not None
    masks = [0] * 5
    shifts = [0] * 5

    # Row-major strides over the cut axes (first axis slowest).
    strides: list[int] = []
    acc = 1
    for c in reversed(node.cut_counts):
        strides.append(acc)
        acc *= c
    strides.reverse()

    for (dim, count, stride) in zip(node.cut_dims, node.cut_counts, strides):
        k = count.bit_length() - 1  # cuts are powers of two on the grid
        glo, ghi = node.grid_region[dim]
        m = (ghi - glo + 1).bit_length() - 1  # region size 2^m cells
        if k > m:
            raise EncodingError("cut finer than the node's grid resolution")
        masks[dim] = ((1 << k) - 1) << (m - k)
        # masked >> shift must equal coord * stride.
        shifts[dim] = (m - k) - (stride.bit_length() - 1)

    entries: list[ChildEntry] = []
    for child in node.children:
        c = int(child)
        if c == EMPTY_CHILD:
            entries.append(ChildEntry(is_leaf=True, addr=EMPTY_ADDR, pos=0))
            continue
        p = placements[c]
        if p.addr == EMPTY_ADDR:  # empty leaf (no rules stored)
            entries.append(ChildEntry(is_leaf=True, addr=EMPTY_ADDR, pos=0))
            continue
        entries.append(ChildEntry(is_leaf=p.is_leaf, addr=p.addr, pos=p.pos))
    return encode_internal_node(masks, shifts, entries)


def _encode_wrapped_root(placements: dict[int, Placement]) -> int:
    """The register-root word of a leaf-only tree: a synthetic 2-cut
    root on dim 0 (mask the top grid bit) whose children both point at
    the single leaf."""
    leaf = placements[0]
    entry = ChildEntry(is_leaf=True, addr=leaf.addr, pos=leaf.pos)
    return encode_internal_node(
        masks=[0x80, 0, 0, 0, 0], shifts=[7, 0, 0, 0, 0],
        entries=[entry, entry],
    )


def _leaf_words(
    leaf_order: list[int], placements: dict[int, Placement]
) -> dict[int, list[int]]:
    """Word address -> the leaves with rule slots in it, in leaf order
    (consecutive leaves share a partially filled word)."""
    words: dict[int, list[int]] = {}
    for nid in leaf_order:
        p = placements[nid]
        for addr in range(p.addr, p.addr + p.words_spanned):
            words.setdefault(addr, []).append(nid)
    return words


def _encode_leaf_word(
    tree: DecisionTree,
    addr: int,
    leaves: list[int],
    placements: dict[int, Placement],
) -> int:
    """Pack word ``addr`` from the slots ``leaves`` store in it
    (slot-accurate; unused slots are empty)."""
    rules = tree.ruleset.rules
    slots = [empty_rule_slot()] * RULES_PER_WORD
    word_start = addr * RULES_PER_WORD
    for nid in leaves:
        p = placements[nid]
        first = p.addr * RULES_PER_WORD + p.pos  # absolute slot of rule 0
        rule_ids = tree.nodes[nid].rule_ids
        lo = max(0, word_start - first)
        hi = min(p.n_rules, word_start + RULES_PER_WORD - first)
        for j in range(lo, hi):
            rid = int(rule_ids[j])
            slots[first + j - word_start] = encode_rule(
                rules[rid], rid, end_of_leaf=(j == p.n_rules - 1)
            )
    return pack_leaf_word(slots)
