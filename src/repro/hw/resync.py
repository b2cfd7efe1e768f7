"""Incremental `MemoryImage` re-sync after in-place tree updates.

The incremental classifier patches the flat software kernel through
``FlatTree.patch`` after every update batch, but until this module the
hardware image had to be rebuilt from scratch — a full 3-pass place and
re-encode of every word — to reflect the same patch.  The load
interface of Figure 4 is a single shared write port, so re-sync cost
*is* the paper's update story on hardware: what matters is how many
600-byte word writes an update costs, not how fast Python re-encodes.

:func:`resync_memory_image` re-places the (already patched) tree —
placement is pure bookkeeping, no encoding — diffs the new placement
map against the image's, and rewrites **only** the words whose content
can have changed:

* internal nodes that were touched by the update, moved, or have a
  child whose placement (leaf/addr/pos triple, including the
  empty-leaf ``EMPTY_ADDR`` state) changed — a child entry embeds its
  target's address;
* every word overlapped by a touched/moved/resized leaf's old or new
  span (leaf words are shared between consecutive leaves, so the whole
  word is re-packed from the leaves that now live there);
* the synthetic register-root word, when a wrapped root's leaf moved.

Words that fall out of the layout are discarded without a write-port
transaction; a net-growing layout still raises
:class:`~repro.core.errors.CapacityError` like a full build.  The
word-level write counter (``ResyncStats.words_rewritten``, a delta of
the array's write-port accounting) is what the tests pin ≪ the full
re-encode word count.

One structural escape hatch: when the root flips between leaf and
internal (a wrapped root got split by an update), the BFS numbering of
every word shifts at once — the re-sync falls back to a full in-place
rebuild and says so (``ResyncStats.full_rebuild``).

**Caches:** :class:`~repro.hw.Accelerator` precomputes dense
placement arrays at construction and ``AcceleratorFSM`` memoises
decoded words — build a *fresh* accelerator from the image after a
re-sync; the image itself is updated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms.base import EMPTY_CHILD
from ..core.errors import CapacityError
from .encoding import EMPTY_ADDR
from .layout import (
    MemoryImage,
    _encode_leaf_word,
    _encode_node,
    _encode_wrapped_root,
    _leaf_words,
    _place,
)
from .memory import Placement


@dataclass
class ResyncStats:
    """Write-port accounting of one incremental re-sync."""

    #: Word writes issued (the shared load-interface transactions).
    words_rewritten: int = 0
    #: Stale words dropped from the array (no write-port cost).
    words_discarded: int = 0
    #: Internal-node words among the rewrites (incl. a synthetic root).
    internal_rewritten: int = 0
    #: Leaf words among the rewrites.
    leaf_words_rewritten: int = 0
    #: Words the re-synced layout occupies in total.
    total_words: int = 0
    #: True when a structural change forced a full in-place rebuild.
    full_rebuild: bool = False


def _triple(p: Placement) -> tuple:
    return (p.is_leaf, p.addr, p.pos)


def _full_rebuild(image: MemoryImage) -> ResyncStats:
    """Escape hatch: re-place and re-encode everything in place."""
    from .layout import build_memory_image

    fresh = build_memory_image(
        image.tree, image.speed, image.memory.capacity_words
    )
    image.memory = fresh.memory
    image.placements = fresh.placements
    image.root_wrapped = fresh.root_wrapped
    image.n_internal_words = fresh.n_internal_words
    image.n_leaf_words = fresh.n_leaf_words
    return ResyncStats(
        words_rewritten=fresh.memory.writes,
        total_words=fresh.memory.words_used,
        full_rebuild=True,
    )


def resync_memory_image(image: MemoryImage, touched=()) -> ResyncStats:
    """Patch ``image`` to match its (already updated) tree.

    ``touched`` is the set of node ids whose *content* changed —
    :attr:`UpdateStats.touched <repro.algorithms.incremental.
    UpdateStats>` from the incremental classifier's last batch (the
    object itself is accepted), or any iterable of ids.  Placement
    drift (moved/new/resized nodes) is detected by the diff itself;
    ``touched`` covers content changes that leave placement untouched
    (a rule swapped inside a same-size leaf, a re-cut internal node).
    """
    tree = image.tree
    touched_set = {int(n) for n in getattr(touched, "touched", touched)}
    (placements, n_internal_words, total_words, root_wrapped,
     internal_order, leaf_order) = _place(tree, image.speed)
    if root_wrapped != image.root_wrapped:
        return _full_rebuild(image)
    memory = image.memory
    if total_words > memory.capacity_words:
        raise CapacityError(
            f"re-synced structure needs {total_words} words but the "
            f"accelerator holds {memory.capacity_words}; reduce spfac "
            f"or binth to trade throughput for memory"
        )
    old = image.placements
    stats = ResyncStats(total_words=total_words)
    writes_before = memory.writes

    # -- internal nodes -------------------------------------------------
    dirty_internal: list[int] = []
    for nid in internal_order:
        p = placements[nid]
        op = old.get(nid)
        dirty = (
            nid in touched_set
            or op is None
            or _triple(op) != _triple(p)
        )
        if not dirty:
            for child in tree.nodes[nid].children:
                c = int(child)
                if c == EMPTY_CHILD:
                    continue
                ocp = old.get(c)
                if ocp is None or _triple(ocp) != _triple(placements[c]):
                    dirty = True
                    break
        if dirty:
            dirty_internal.append(nid)
    for nid in dirty_internal:
        memory.write(placements[nid].addr, _encode_node(tree, nid, placements))
    stats.internal_rewritten = len(dirty_internal)

    # -- leaves ----------------------------------------------------------
    word_leaves = _leaf_words(leaf_order, placements)
    changed_leaves: set[int] = set()
    dirty_words: set[int] = set()
    for nid in leaf_order:
        p = placements[nid]
        op = old.get(nid)
        if (
            nid not in touched_set
            and op is not None
            and op.is_leaf == p.is_leaf
            and op.addr == p.addr
            and op.pos == p.pos
            and op.n_rules == p.n_rules
        ):
            continue
        changed_leaves.add(nid)
        if p.addr != EMPTY_ADDR:
            dirty_words.update(range(p.addr, p.addr + p.words_spanned))
        if op is not None and op.is_leaf and op.addr != EMPTY_ADDR:
            dirty_words.update(
                range(op.addr, op.addr + max(op.words_spanned, 1))
            )
    for w in sorted(dirty_words):
        if w < n_internal_words or w >= total_words:
            # Now an internal word (its mover re-encoded it above) or
            # fallen off the end of the layout (discarded below).
            continue
        memory.write(
            w, _encode_leaf_word(tree, w, word_leaves.get(w, []), placements)
        )
        stats.leaf_words_rewritten += 1

    # -- synthetic register root (wrapped leaf-only tree) ---------------
    if root_wrapped and (0 in changed_leaves or 0 in touched_set):
        memory.write(0, _encode_wrapped_root(placements))
        stats.internal_rewritten += 1

    # -- drop stale words ------------------------------------------------
    used = {placements[nid].addr for nid in internal_order}
    used.update(word_leaves)
    if root_wrapped:
        used.add(0)
    for addr in [a for a in memory.addresses() if a not in used]:
        memory.discard(addr)
        stats.words_discarded += 1
    missing = sorted(a for a in used if a not in memory)
    assert not missing, f"re-sync left unwritten words: {missing[:5]}"

    image.placements = placements
    image.n_internal_words = n_internal_words
    image.n_leaf_words = total_words - n_internal_words
    stats.words_rewritten = memory.writes - writes_before
    return stats
