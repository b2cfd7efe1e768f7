"""HiCuts — Hierarchical Intelligent Cuttings (Gupta & McKeown) and the
paper's hardware-oriented modification.

Original algorithm (Section 2.1): at every oversized node pick one
dimension and cut the node's region into ``np`` equal intervals.  ``np``
starts at 2 and doubles while the space-measure condition (eq (1)) holds::

    spfac * rules(i)  >=  sum(rules at each child of i) + np

The dimension-choice heuristic is the one the paper states it uses:
evaluate every dimension, record the largest child produced, and pick the
dimension minimising that number.

Modified algorithm (Section 3, ``hw_mode=True``): cutting happens on the
8-MSB grid so the child index is computable with mask/shift/add (no
divider); ``np`` starts at 32 and doubles under eq (3), which adds the
``np < 129`` guard so the number of cuts is capped at 256 — the largest
internal node that still fits one 4800-bit memory word.  The paper found
the 32-cut floor "leads to a significant decrease in computation [... and]
an insignificant increase to memory consumption".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigError
from ..core.geometry import pow2_at_most
from ..core.ruleset import RuleSet
from .base import DecisionTree
from .opcount import OpCounter
from ._builder import BuilderConfig, CutDecision, TreeBuilder, _WorkItem
from ._partition import coord_spans, refs_and_max_1d

#: eq (3) floor and cap on cuts per internal node in the modified algorithm.
HW_MIN_CUTS = 32
HW_MAX_CUTS = 256


#: Dimension-choice heuristics.  Gupta & McKeown list several; the IPDPS
#: paper states it uses ``min_max_rules`` ("record the largest number of
#: rules contained in a child after cutting each dimension and pick the
#: dimension which returns the smallest number").  The alternatives are
#: provided for the X-series ablations.
DIM_HEURISTICS = ("min_max_rules", "max_distinct", "min_replication")


@dataclass
class HiCutsConfig(BuilderConfig):
    """HiCuts parameters.

    ``start_cuts``/``max_cuts`` default to the paper's values per mode:
    2/unbounded for the original software algorithm, 32/256 for the
    modified hardware-oriented one.  ``dim_heuristic`` selects among the
    original paper's dimension-choice heuristics (default: the one the
    IPDPS paper uses).
    """

    start_cuts: int | None = None
    max_cuts: int | None = None
    dim_heuristic: str = "min_max_rules"

    def resolved_start(self) -> int:
        if self.start_cuts is not None:
            return self.start_cuts
        return HW_MIN_CUTS if self.hw_mode else 2

    def resolved_cap(self) -> int:
        if self.max_cuts is not None:
            return self.max_cuts
        return HW_MAX_CUTS if self.hw_mode else 1 << 16

    def validate(self) -> None:  # noqa: D102
        super().validate()
        start, cap = self.resolved_start(), self.resolved_cap()
        if start < 2 or start & (start - 1):
            raise ConfigError("start_cuts must be a power of two >= 2")
        if cap < start or cap & (cap - 1):
            raise ConfigError("max_cuts must be a power of two >= start_cuts")
        if self.dim_heuristic not in DIM_HEURISTICS:
            raise ConfigError(
                f"dim_heuristic must be one of {DIM_HEURISTICS}"
            )


class HiCutsBuilder(TreeBuilder):
    """Work-list HiCuts builder; see module docstring for the algorithm."""

    algorithm = "hicuts"

    def __init__(
        self,
        ruleset: RuleSet,
        config: HiCutsConfig | None = None,
        ops: OpCounter | None = None,
    ) -> None:
        super().__init__(ruleset, config or HiCutsConfig(), ops)
        self.cfg: HiCutsConfig = self.config  # typed alias

    # ------------------------------------------------------------------
    def _decide_cut(self, rule_ids: np.ndarray, item: _WorkItem):
        n = len(rule_ids)
        spfac = self.cfg.spfac
        start = self.cfg.resolved_start()
        cap = self.cfg.resolved_cap()
        uses_div = not self.cfg.hw_mode
        heuristic = self.cfg.dim_heuristic

        best = None  # ((score, np, dim), first, last, max_child)
        for dim in range(self.schema.ndim):
            span = self._span_of(item, dim)
            dim_cap = min(cap, pow2_at_most(span)) if span > 1 else 0
            if dim_cap < 2:
                continue  # dimension cannot be cut further
            rlo, rhi, reg_lo, reg_hi = self._axis_bounds(rule_ids, item, dim)
            np_cur = min(start, dim_cap)
            first, last = coord_spans(rlo, rhi, reg_lo, reg_hi, np_cur)
            refs, max_child = refs_and_max_1d(first, last, np_cur)
            self._charge_eval(n, uses_div)
            # Doubling loop: grow while eq (1)/(3) accepts the next size.
            while np_cur * 2 <= dim_cap:
                cand = np_cur * 2
                f2, l2 = coord_spans(rlo, rhi, reg_lo, reg_hi, cand)
                refs2, max2 = refs_and_max_1d(f2, l2, cand)
                self._charge_eval(n, uses_div)
                if refs2 + cand > spfac * n:
                    break
                np_cur, first, last, refs, max_child = cand, f2, l2, refs2, max2
            if refs >= n * np_cur:
                continue  # every rule spans every child: no discrimination
            score = self._dim_score(
                heuristic, rule_ids, item, dim, max_child, refs, np_cur
            )
            key = (score, np_cur, dim)
            if best is None or key < best[0]:
                best = (key, first, last, max_child)
        if best is None:
            return None  # no dimension discriminates -> leaf
        (_, np_cur, dim), first, last, max_child = best
        return CutDecision(
            dims=(dim,),
            counts=(np_cur,),
            firsts=[first],
            lasts=[last],
            max_child=max_child,
        )

    def _dim_score(
        self, heuristic: str, rule_ids: np.ndarray, item: _WorkItem,
        dim: int, max_child: int, refs: int, np_cur: int,
    ) -> float:
        """Lower is better.  ``min_max_rules`` is the paper's heuristic;
        ``max_distinct`` prefers the dimension with the most distinct
        (clipped) range specifications; ``min_replication`` minimises the
        average rule replication refs / cuts."""
        if heuristic == "min_max_rules":
            return float(max_child)
        if heuristic == "min_replication":
            return refs / np_cur
        # max_distinct: negated so that "more distinct" sorts first.
        from ._partition import clipped_bounds

        lo, hi = item.region[dim]
        clo, chi = clipped_bounds(
            self.arrays.lo[dim, rule_ids], self.arrays.hi[dim, rule_ids], lo, hi
        )
        pairs = np.stack([clo, chi], axis=1)
        self.ops.add("alu", 2 * len(rule_ids))
        return -float(len(np.unique(pairs, axis=0)))


def build_hicuts(
    ruleset: RuleSet,
    binth: int = 16,
    spfac: float = 4.0,
    hw_mode: bool = False,
    ops: OpCounter | None = None,
    **kwargs,
) -> DecisionTree:
    """Build a HiCuts tree (original by default, ``hw_mode=True`` for the
    paper's modified hardware-oriented variant)."""
    cfg = HiCutsConfig(binth=binth, spfac=spfac, hw_mode=hw_mode, **kwargs)
    return HiCutsBuilder(ruleset, cfg, ops).build()
