"""Geometric primitives for packet classification.

The paper (like HiCuts/HyperCuts before it) takes a *geometric view* of
classification: every rule is an axis-aligned hypercube in the F-dimensional
space spanned by the packet-header fields, and a packet is a point in that
space.  This module provides the integer interval/prefix arithmetic that
view rests on:

* prefix <-> range conversion for IP-style fields,
* range -> minimal prefix cover (needed by the TCAM baseline, whose poor
  storage efficiency on ranges the paper quotes from Spitznagel et al.),
* power-of-two interval cutting used by the tree builders,
* the "grid" projection onto the 8 most significant bits of each dimension
  that the hardware datapath operates on (Section 3 of the paper: the cut
  index is computed from the 8 MSBs of each of the 5 dimensions).

All functions operate on plain Python ints (values fit in 32 bits) or on
NumPy ``uint32``/``int64`` arrays for the vectorised paths.
"""

from __future__ import annotations

from .errors import RuleFormatError

#: Number of most-significant bits of every dimension visible to the
#: hardware cut-index datapath (Section 3: "ANDing the mask values with the
#: corresponding 8 most significant bits from each of the packets 5
#: dimensions").
HW_GRID_BITS = 8

#: Number of grid cells per dimension seen by the hardware (2 ** HW_GRID_BITS).
HW_GRID_CELLS = 1 << HW_GRID_BITS


def prefix_to_range(value: int, prefix_len: int, width: int) -> tuple[int, int]:
    """Convert ``value/prefix_len`` on a ``width``-bit field to ``(lo, hi)``.

    ``prefix_len`` counts the number of significant high-order bits; the
    remaining ``width - prefix_len`` bits are wildcarded.

    >>> prefix_to_range(0xC0A80000, 16, 32)
    (3232235520, 3232301055)
    """
    if not 0 <= prefix_len <= width:
        raise RuleFormatError(f"prefix length {prefix_len} out of [0, {width}]")
    if value >> width:
        raise RuleFormatError(f"value {value:#x} wider than {width} bits")
    host_bits = width - prefix_len
    lo = (value >> host_bits) << host_bits
    hi = lo | ((1 << host_bits) - 1)
    return lo, hi


def range_is_prefix(lo: int, hi: int, width: int) -> bool:
    """Return True when ``[lo, hi]`` is expressible as a single prefix."""
    if lo > hi:
        return False
    span = hi - lo + 1
    # A prefix covers a power-of-two sized block aligned to its size.
    return span & (span - 1) == 0 and lo % span == 0 and hi < (1 << width)


def range_to_prefix(lo: int, hi: int, width: int) -> tuple[int, int]:
    """Inverse of :func:`prefix_to_range`; raises if not a prefix block."""
    if not range_is_prefix(lo, hi, width):
        raise RuleFormatError(f"[{lo}, {hi}] is not a prefix block")
    span = hi - lo + 1
    prefix_len = width - span.bit_length() + 1
    return lo, prefix_len


def range_to_prefix_cover(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Minimal set of prefixes covering ``[lo, hi]`` (value, prefix_len).

    This is the classical splitting a TCAM must perform to store a range
    rule; an arbitrary range on a ``w``-bit field needs up to ``2w - 2``
    prefixes, which is the root cause of the 16-53 % TCAM storage
    efficiency the paper cites.

    >>> range_to_prefix_cover(1, 14, 4)
    [(1, 4), (2, 3), (4, 2), (8, 2), (12, 3), (14, 4)]
    """
    if lo > hi or hi >= (1 << width):
        raise RuleFormatError(f"bad range [{lo}, {hi}] for width {width}")
    cover: list[tuple[int, int]] = []
    cur = lo
    while cur <= hi:
        # Largest aligned block starting at cur ...
        max_align = cur & -cur if cur else 1 << width
        # ... that still fits within [cur, hi].
        remaining = hi - cur + 1
        block = min(max_align, 1 << (remaining.bit_length() - 1))
        prefix_len = width - block.bit_length() + 1
        cover.append((cur, prefix_len))
        cur += block
    return cover


def ranges_overlap(alo: int, ahi: int, blo: int, bhi: int) -> bool:
    """True when the closed intervals ``[alo, ahi]`` and ``[blo, bhi]`` meet."""
    return alo <= bhi and blo <= ahi


def range_contains(outer_lo: int, outer_hi: int, lo: int, hi: int) -> bool:
    """True when ``[lo, hi]`` lies entirely inside ``[outer_lo, outer_hi]``."""
    return outer_lo <= lo and hi <= outer_hi


def cut_interval(lo: int, hi: int, ncuts: int) -> list[tuple[int, int]]:
    """Split ``[lo, hi]`` into ``ncuts`` near-equal sub-intervals.

    This mirrors the software algorithms' behaviour: the original HiCuts /
    HyperCuts divide a node's region into equal pieces with integer
    division (the floating-point/divide cost of which is one of the reasons
    the paper strips region compaction from the hardware variant).  When
    the interval does not divide evenly the boundaries are chosen so that
    child ``j`` covers exactly the values with
    ``(v - lo) * ncuts // span == j`` — the same indexing function
    :func:`child_index` and the builders' rule-assignment kernel use, so
    the three can never disagree (a property test pins this).
    """
    span = hi - lo + 1
    if ncuts <= 0:
        raise ValueError("ncuts must be positive")
    if ncuts >= span:
        return [(v, v) for v in range(lo, hi + 1)]
    bounds = [lo + (span * k + ncuts - 1) // ncuts for k in range(ncuts + 1)]
    return [(bounds[k], bounds[k + 1] - 1) for k in range(ncuts)]


def child_index(value: int, lo: int, hi: int, ncuts: int) -> int:
    """Index of the child interval of :func:`cut_interval` containing value."""
    span = hi - lo + 1
    if not lo <= value <= hi:
        raise ValueError(f"value {value} outside [{lo}, {hi}]")
    if ncuts >= span:
        return value - lo
    return ((value - lo) * ncuts) // span


def grid_cell(value: int, width: int) -> int:
    """Project a ``width``-bit field value onto the hardware 8-MSB grid.

    Fields narrower than 8 bits occupy the *high* end of the 8-bit grid
    (they are left-aligned into the datapath), so an F-bit field maps each
    value ``v`` to ``v << (8 - F)``.
    """
    if width >= HW_GRID_BITS:
        return value >> (width - HW_GRID_BITS)
    return value << (HW_GRID_BITS - width)


def grid_span(lo: int, hi: int, width: int) -> tuple[int, int]:
    """Grid-cell interval covered by the field range ``[lo, hi]``."""
    glo = grid_cell(lo, width)
    ghi = grid_cell(hi, width)
    if width < HW_GRID_BITS:
        # A single narrow-field value owns a block of grid cells.
        ghi |= (1 << (HW_GRID_BITS - width)) - 1
    return glo, ghi


def grid_cell_to_range(glo: int, ghi: int, width: int) -> tuple[int, int]:
    """Field-value range covered by the grid-cell interval ``[glo, ghi]``."""
    if width >= HW_GRID_BITS:
        shift = width - HW_GRID_BITS
        return glo << shift, ((ghi + 1) << shift) - 1
    shift = HW_GRID_BITS - width
    return glo >> shift, ghi >> shift


def pow2_at_most(n: int) -> int:
    """Largest power of two that is <= ``n`` (n >= 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 << (n.bit_length() - 1)
