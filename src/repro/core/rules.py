"""Rules and field schemas.

A classification *rule* is, per the paper's geometric view, a hypercube: one
closed integer interval per packet-header dimension plus a priority (its
position in the ruleset) and an action identifier.

Two schemas matter for the reproduction:

* :data:`FIVE_TUPLE` — the real schema the hardware targets: source IP
  (32 bits), destination IP (32 bits), source port (16), destination port
  (16), protocol (8).  This matches the 160-bit leaf encoding of Section 3.
* :data:`DEMO_SCHEMA` — five 8-bit fields, the shape of the paper's Table 1
  example ruleset used for Figures 1-3.

Rules are stored internally as ranges; prefix/exact/wildcard views are
derived (and validated) on demand.  For bulk work the companion
:class:`RuleArrays` structure-of-arrays holds the whole ruleset in NumPy
``uint32`` buffers, which is what the vectorised tree builders and the
batch classifier traverse (see the hpc guides: SoA + views, no per-rule
Python objects on the hot path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RuleFormatError
from .geometry import (
    grid_span,
    prefix_to_range,
    range_is_prefix,
)


@dataclass(frozen=True)
class FieldSchema:
    """Describes the dimensions of a classification space."""

    names: tuple[str, ...]
    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.widths):
            raise RuleFormatError("schema names/widths length mismatch")
        for w in self.widths:
            if not 1 <= w <= 32:
                raise RuleFormatError(f"field width {w} out of [1, 32]")

    @property
    def ndim(self) -> int:
        return len(self.widths)

    def max_value(self, dim: int) -> int:
        return (1 << self.widths[dim]) - 1

    def full_range(self, dim: int) -> tuple[int, int]:
        return 0, self.max_value(dim)

    def universe(self) -> tuple[tuple[int, int], ...]:
        """The full hyperspace: one (lo, hi) per dimension."""
        return tuple(self.full_range(d) for d in range(self.ndim))


#: The 5-tuple schema used by the hardware accelerator (Section 3).
FIVE_TUPLE = FieldSchema(
    names=("src_ip", "dst_ip", "src_port", "dst_port", "proto"),
    widths=(32, 32, 16, 16, 8),
)

#: Field indices into the 5-tuple, in the order the paper lists them.
DIM_SRC_IP, DIM_DST_IP, DIM_SRC_PORT, DIM_DST_PORT, DIM_PROTO = range(5)

#: Schema of the paper's Table 1 example: five 8-bit fields.
DEMO_SCHEMA = FieldSchema(
    names=("field0", "field1", "field2", "field3", "field4"),
    widths=(8, 8, 8, 8, 8),
)


@dataclass(frozen=True)
class Rule:
    """A single classification rule.

    Attributes
    ----------
    ranges:
        One inclusive ``(lo, hi)`` interval per dimension.
    priority:
        Position in the ruleset; smaller wins (first-match semantics).
    action:
        Opaque action id carried through to classification results.
    """

    ranges: tuple[tuple[int, int], ...]
    priority: int = 0
    action: int = 0

    def validate(self, schema: FieldSchema) -> None:
        if len(self.ranges) != schema.ndim:
            raise RuleFormatError(
                f"rule has {len(self.ranges)} dims, schema {schema.ndim}"
            )
        for d, (lo, hi) in enumerate(self.ranges):
            if lo > hi:
                raise RuleFormatError(f"dim {d}: lo {lo} > hi {hi}")
            if lo < 0 or hi > schema.max_value(d):
                raise RuleFormatError(
                    f"dim {d}: [{lo}, {hi}] outside field width "
                    f"{schema.widths[d]}"
                )

    # ------------------------------------------------------------------
    # Matching / geometry
    # ------------------------------------------------------------------
    def matches(self, header: Sequence[int]) -> bool:
        """True when every header field falls inside the rule's interval."""
        return all(lo <= v <= hi for (lo, hi), v in zip(self.ranges, header))

    def overlaps(self, other: "Rule") -> bool:
        """True when the two hypercubes intersect."""
        return all(
            alo <= bhi and blo <= ahi
            for (alo, ahi), (blo, bhi) in zip(self.ranges, other.ranges)
        )

    def covers(self, other: "Rule") -> bool:
        """True when this rule's hypercube contains ``other``'s entirely."""
        return all(
            alo <= blo and bhi <= ahi
            for (alo, ahi), (blo, bhi) in zip(self.ranges, other.ranges)
        )

    def is_wildcard(self, dim: int, schema: FieldSchema) -> bool:
        return self.ranges[dim] == schema.full_range(dim)

    def is_prefix(self, dim: int, schema: FieldSchema) -> bool:
        lo, hi = self.ranges[dim]
        return range_is_prefix(lo, hi, schema.widths[dim])

    def is_exact(self, dim: int) -> bool:
        lo, hi = self.ranges[dim]
        return lo == hi

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_5tuple(
        src_ip: tuple[int, int],
        dst_ip: tuple[int, int],
        src_port: tuple[int, int],
        dst_port: tuple[int, int],
        proto: tuple[int, int],
        priority: int = 0,
        action: int = 0,
    ) -> "Rule":
        """Build a 5-tuple rule; each argument is (value, prefix_len) for the
        IPs, (lo, hi) for the ports, and (value, mask_flag) for protocol
        where ``mask_flag`` 1 means exact and 0 means wildcard (matching the
        9-bit protocol encoding of Section 3)."""
        sip = prefix_to_range(src_ip[0], src_ip[1], 32)
        dip = prefix_to_range(dst_ip[0], dst_ip[1], 32)
        prot = (proto[0], proto[0]) if proto[1] else (0, 255)
        rule = Rule(
            ranges=(sip, dip, tuple(src_port), tuple(dst_port), prot),
            priority=priority,
            action=action,
        )
        rule.validate(FIVE_TUPLE)
        return rule

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"[{lo}-{hi}]" for lo, hi in self.ranges)
        return f"Rule#{self.priority}({parts})"


def first_match_blocked(
    lo: np.ndarray,
    span: np.ndarray,
    headers: np.ndarray,
    *,
    chunk_size: int = 512,
    rule_block: int = 256,
) -> np.ndarray:
    """Lowest interval-table column matching each header; -1 for none.

    ``lo`` / ``span`` are ``(ndim, n)`` ``uint32`` tables (``span = hi -
    lo``, so ``(v - lo) <= span`` is the whole interval test: uint32
    wraparound turns ``v < lo`` into a huge value), in priority order.
    Packets are processed in chunks and, within a chunk, columns in
    blocks: each block is one ``(chunk, rule_block)`` vectorised test
    over the packets still unresolved, and the scan stops early once
    every packet in the chunk has matched — worst case O(n_packets * n),
    typical cost proportional to how deep the first match sits.  Shared
    by the linear oracle (:meth:`RuleArrays.batch_match`) and the TCAM
    model's expanded slots.
    """
    headers = np.asarray(headers)
    n_pkts, n = headers.shape[0], lo.shape[1]
    out = np.full(n_pkts, -1, dtype=np.int64)
    if n_pkts == 0 or n == 0:
        return out
    headers = headers.astype(np.uint32, copy=False)
    for p0 in range(0, n_pkts, chunk_size):
        chunk = headers[p0:p0 + chunk_size]
        unresolved = np.arange(chunk.shape[0], dtype=np.int64)
        for r0 in range(0, n, rule_block):
            r1 = min(r0 + rule_block, n)
            h = chunk[unresolved]
            ok = (
                (h[:, 0][:, None] - lo[0, r0:r1][None, :])
                <= span[0, r0:r1][None, :]
            )
            for d in range(1, lo.shape[0]):
                v = h[:, d][:, None]
                ok &= (v - lo[d, r0:r1][None, :]) <= span[d, r0:r1][None, :]
            hit = ok.any(axis=1)
            if hit.any():
                out[p0 + unresolved[hit]] = r0 + ok[hit].argmax(axis=1)
                unresolved = unresolved[~hit]
                if unresolved.size == 0:
                    break
    return out


class RuleArrays:
    """Structure-of-arrays view of a list of rules.

    ``lo[d]`` and ``hi[d]`` are ``uint32`` arrays of length ``n_rules``
    holding the inclusive bounds of every rule in dimension ``d``; ``glo``
    and ``ghi`` hold the same intervals projected onto the 8-MSB hardware
    grid.  Builders index these arrays with rule-id arrays instead of
    carrying Python ``Rule`` objects, which keeps the per-node work inside
    NumPy.

    The seven arrays are views of the first ``n`` columns of buffers with
    room to spare (a ``(ndim, n)`` table is then not C-contiguous: its
    rows are, and a consumer that needs the whole table contiguous takes
    it through ``np.take`` or ``np.ascontiguousarray``), so
    :meth:`append_rule` writes one column in place and re-allocates only
    when the room runs out, doubling it.
    """

    __slots__ = (
        "schema", "n", "lo", "hi", "span", "glo", "ghi", "priority", "action",
        "_room",
    )

    #: Columns of the buffers, in ``_room``'s order.
    _FIELDS = ("lo", "hi", "span", "glo", "ghi", "priority", "action")

    def __init__(self, rules: Sequence[Rule], schema: FieldSchema) -> None:
        self.schema = schema
        self.n = len(rules)
        nd = schema.ndim
        self.lo = np.empty((nd, self.n), dtype=np.uint32)
        self.hi = np.empty((nd, self.n), dtype=np.uint32)
        self.glo = np.empty((nd, self.n), dtype=np.uint32)
        self.ghi = np.empty((nd, self.n), dtype=np.uint32)
        self.priority = np.empty(self.n, dtype=np.int64)
        self.action = np.empty(self.n, dtype=np.int64)
        for i, rule in enumerate(rules):
            self.priority[i] = rule.priority
            self.action[i] = rule.action
            for d, (lo, hi) in enumerate(rule.ranges):
                self.lo[d, i] = lo
                self.hi[d, i] = hi
                g0, g1 = grid_span(lo, hi, schema.widths[d])
                self.glo[d, i] = g0
                self.ghi[d, i] = g1
        # Interval widths for the single-compare test ``(v - lo) <= span``
        # (uint32 wraparound turns ``v < lo`` into a huge value).
        self.span = self.hi - self.lo
        self._room = tuple(getattr(self, name) for name in self._FIELDS)

    def append_rule(self, rule: Rule) -> None:
        """Extend the view with one more rule (incremental inserts): one
        column written in place, the buffers doubled when full, so an
        insert costs amortized O(1) instead of a copy of every array.
        The result is value-identical to constructing :class:`RuleArrays`
        from the extended rule list."""
        if self.n == self._room[-1].shape[0]:
            grown = []
            for buf in self._room:
                wider = np.empty(
                    (*buf.shape[:-1], max(8, 2 * self.n)), dtype=buf.dtype
                )
                wider[..., : self.n] = buf
                grown.append(wider)
            self._room = tuple(grown)
        lo, hi, span, glo, ghi, priority, action = self._room
        i = self.n
        for d, (r_lo, r_hi) in enumerate(rule.ranges):
            lo[d, i], hi[d, i], span[d, i] = r_lo, r_hi, r_hi - r_lo
            glo[d, i], ghi[d, i] = grid_span(r_lo, r_hi, self.schema.widths[d])
        priority[i], action[i] = rule.priority, rule.action
        self.n += 1
        for name, buf in zip(self._FIELDS, self._room):
            setattr(self, name, buf[..., : self.n])

    def match_mask(self, header: Sequence[int]) -> np.ndarray:
        """Boolean mask of rules matching ``header`` (vectorised)."""
        mask = np.ones(self.n, dtype=bool)
        for d, v in enumerate(header):
            mask &= (self.lo[d] <= v) & (v <= self.hi[d])
        return mask

    def first_match(self, header: Sequence[int]) -> int:
        """Lowest rule index matching ``header``; -1 when none match."""
        mask = self.match_mask(header)
        idx = np.nonzero(mask)[0]
        return int(idx[0]) if idx.size else -1

    def batch_match(
        self,
        headers: np.ndarray,
        *,
        chunk_size: int = 512,
        rule_block: int = 256,
    ) -> np.ndarray:
        """First-match indices for an ``(n_packets, ndim)`` header matrix.

        This is the linear-search oracle used by tests and the energy model
        for the software baseline: :func:`first_match_blocked` (chunked,
        priority-blocked, early exit) over the rules' own tables.
        """
        return first_match_blocked(
            self.lo, self.span, headers,
            chunk_size=chunk_size, rule_block=rule_block,
        )

    def distinct_range_counts(self, rule_ids: np.ndarray) -> list[int]:
        """Number of distinct (lo, hi) specs per dimension over a subset.

        HyperCuts uses this to decide which dimensions to consider for
        cutting (Section 2.2: dims with #distinct specs >= mean).
        """
        counts = []
        for d in range(self.schema.ndim):
            pairs = np.stack([self.lo[d, rule_ids], self.hi[d, rule_ids]], axis=1)
            counts.append(len(np.unique(pairs, axis=0)))
        return counts


def make_demo_ruleset() -> list[Rule]:
    """The paper's Table 1: ten rules over five 8-bit fields (verbatim)."""
    table1 = [
        ((128, 240), (15, 15), (40, 40), (180, 180), (120, 140)),
        ((90, 100), (0, 80), (0, 200), (190, 200), (130, 132)),
        ((130, 255), (60, 140), (0, 60), (180, 180), (133, 135)),
        ((90, 92), (200, 200), (40, 40), (180, 180), (136, 138)),
        ((130, 255), (60, 140), (40, 40), (190, 200), (60, 63)),
        ((140, 150), (60, 140), (0, 255), (0, 255), (140, 255)),
        ((160, 165), (80, 80), (0, 255), (0, 255), (0, 80)),
        ((48, 50), (0, 80), (40, 40), (0, 255), (0, 10)),
        ((26, 36), (50, 50), (40, 40), (180, 180), (30, 40)),
        ((40, 40), (40, 70), (40, 40), (0, 255), (0, 60)),
    ]
    rules = [
        Rule(ranges=ranges, priority=i, action=i) for i, ranges in enumerate(table1)
    ]
    for rule in rules:
        rule.validate(DEMO_SCHEMA)
    return rules
