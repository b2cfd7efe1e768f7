"""Functional TCAM classifier with range-to-prefix expansion.

A TCAM stores ternary (0/1/don't-care) entries and returns the first
matching entry in O(1).  Arbitrary port ranges cannot be expressed as a
single ternary entry, so each rule expands into the cross product of the
minimal prefix covers of its two port ranges — the storage blow-up behind
the 16-53 % efficiency the paper quotes from Spitznagel et al. [14].

This model provides (a) a correctness-checked classifier (expansion
preserves first-match semantics exactly) and (b) the slot counts that the
Section 5.3 power comparison converts into TCAM die size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import CapacityError
from ..core.geometry import range_to_prefix_cover
from ..core.packet import PacketTrace
from ..core.rules import first_match_blocked
from ..core.ruleset import RuleSet
from ..energy.tcam import TCAM_ENTRY_BYTES


@dataclass(frozen=True)
class TcamStats:
    """Storage accounting for an expanded ruleset."""

    n_rules: int
    n_slots: int
    expansion_factor: float
    storage_efficiency: float  # rules / slots, the paper's [14] metric
    size_bytes: int  # slots x 18 bytes (144-bit entries)


class TcamClassifier:
    """First-match ternary CAM over prefix-expanded 5-tuple rules."""

    def __init__(self, ruleset: RuleSet, max_slots: int = 4_000_000) -> None:
        from ..core.rules import FIVE_TUPLE

        if ruleset.schema is not FIVE_TUPLE:
            raise CapacityError("TCAM model targets the 5-tuple schema")
        self.ruleset = ruleset
        slots_lo: list[list[int]] = []
        slots_hi: list[list[int]] = []
        slot_rule: list[int] = []
        for r, rule in enumerate(ruleset.rules):
            sip, dip, sport, dport, proto = rule.ranges
            sport_cover = range_to_prefix_cover(sport[0], sport[1], 16)
            dport_cover = range_to_prefix_cover(dport[0], dport[1], 16)
            for sp_val, sp_len in sport_cover:
                sp_hi = sp_val | ((1 << (16 - sp_len)) - 1)
                for dp_val, dp_len in dport_cover:
                    dp_hi = dp_val | ((1 << (16 - dp_len)) - 1)
                    slots_lo.append([sip[0], dip[0], sp_val, dp_val, proto[0]])
                    slots_hi.append([sip[1], dip[1], sp_hi, dp_hi, proto[1]])
                    slot_rule.append(r)
                    if len(slot_rule) > max_slots:
                        raise CapacityError(
                            f"range expansion exceeds {max_slots:,} TCAM slots"
                        )
        # (ndim, slots) interval tables in slot (= priority) order, the
        # layout :func:`~repro.core.rules.first_match_blocked` scans.
        lo = np.asarray(slots_lo, dtype=np.uint32).reshape(-1, 5)
        hi = np.asarray(slots_hi, dtype=np.uint32).reshape(-1, 5)
        self._lo = np.ascontiguousarray(lo.T)
        self._span = np.ascontiguousarray((hi - lo).T)
        self._rule = np.asarray(slot_rule, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def n_slots(self) -> int:
        return len(self._rule)

    def stats(self) -> TcamStats:
        n_rules = len(self.ruleset)
        n_slots = self.n_slots
        return TcamStats(
            n_rules=n_rules,
            n_slots=n_slots,
            expansion_factor=n_slots / n_rules if n_rules else 0.0,
            storage_efficiency=n_rules / n_slots if n_slots else 0.0,
            size_bytes=n_slots * TCAM_ENTRY_BYTES,
        )

    # ------------------------------------------------------------------
    def classify(self, header) -> int:
        """First matching slot's rule id (all slots compared in parallel
        in a real TCAM; priority encoder picks the lowest index)."""
        h = np.asarray([int(v) for v in header], dtype=np.uint32)
        return int(self.classify_batch(h[None, :])[0])

    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        """Rule id of each header's first matching slot, -1 for none:
        the oracle's priority-blocked early-exit scan over the slot
        tables (a dense packets x slots compare costs ~10x as much on
        the 7.6k slots of acl1-2500), slot -> rule id after."""
        slot = first_match_blocked(self._lo, self._span, headers)
        return np.append(self._rule, np.int64(-1))[slot]  # slot -1: no match

    def classify_trace(self, trace: PacketTrace) -> np.ndarray:
        return self.classify_batch(trace.headers)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Expanded-slot storage (144-bit entries), the Section 5.3 size."""
        return self.stats().size_bytes

    def memory_accesses_per_lookup(self) -> int:
        """All slots are compared in one parallel CAM access."""
        return 1
