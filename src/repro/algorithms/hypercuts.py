"""HyperCuts — multidimensional cutting (Singh et al.) and the paper's
hardware-oriented modification.

Original algorithm (Section 2.2):

* consider for cutting the dimensions whose number of distinct range
  specifications is >= the mean over all dimensions;
* bound the number of children by eq (2):
  ``max child nodes at i <= spfac * sqrt(rules at i)``;
* among cut combinations obeying the bound, pick the one minimising the
  largest child (the heuristic the paper says it chose, since Singh et al.
  "never made it clear how to choose the best combination");
* heuristics: *region compaction* (shrink the node region to the rules'
  bounding box before cutting) and *pushing common rule subsets upwards*
  (rules present in every child are stored at the internal node instead).

Modified algorithm (Section 3, ``hw_mode=True``): region compaction is
removed (it needs per-node division in hardware) and push-common-upwards
is removed (it would force rule searches while traversing, stalling the
pipeline); cuts live on the 8-MSB grid and the combination bound becomes
eq (4): ``np <= 2^(4 + spfac)`` and ``np >= 32`` with integer spfac in
{1, 2, 3, 4} — i.e. between 32 and 256 children, one memory word.

Combination search: exhaustive enumeration of power-of-two cut vectors
when the candidate space is small, otherwise a deterministic greedy ascent
(add one bit of cutting to the dimension that minimises the largest
child).  Both paths are exercised by tests.  Either runs as one native
call per node (``_partition.c``'s ``cs_search``) where the library
loaded, the NumPy search being its oracle and fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigError
from ..core.geometry import pow2_at_most
from ..core.ruleset import RuleSet
from .base import DecisionTree
from . import native
from .opcount import OpCounter
from ._builder import BuilderConfig, CutDecision, TreeBuilder, _WorkItem
from ._partition import clipped_bounds, coord_spans, max_count_grid

#: eq (4) floor on total cuts in the modified algorithm.
HW_MIN_CUTS = 32

#: Above this many (combo, rule) evaluations the builder switches from
#: exhaustive combination search to greedy ascent.
EXHAUSTIVE_BUDGET = 3_000_000


@dataclass
class HyperCutsConfig(BuilderConfig):
    """HyperCuts parameters; heuristic toggles follow the paper's modes."""

    region_compaction: bool | None = None  # default: on for sw, off for hw
    push_common: bool | None = None  # default: on for sw, off for hw

    def resolved_compaction(self) -> bool:
        if self.region_compaction is None:
            return not self.hw_mode
        return self.region_compaction

    def resolved_push(self) -> bool:
        if self.push_common is None:
            return not self.hw_mode
        return self.push_common

    def validate(self) -> None:  # noqa: D102
        super().validate()
        if self.hw_mode:
            if self.resolved_compaction():
                raise ConfigError(
                    "region compaction requires division; the modified "
                    "algorithm (hw_mode) removes it (paper Section 3)"
                )
            if not float(self.spfac).is_integer() or not 1 <= int(self.spfac) <= 4:
                raise ConfigError("hw_mode spfac must be an integer in 1..4 (eq 4)")

    def hw_max_cuts(self) -> int:
        """eq (4) cap: 2 ** (4 + spfac)."""
        return 1 << (4 + int(self.spfac))


class HyperCutsBuilder(TreeBuilder):
    """Work-list HyperCuts builder; see module docstring."""

    algorithm = "hypercuts"

    def __init__(
        self,
        ruleset: RuleSet,
        config: HyperCutsConfig | None = None,
        ops: OpCounter | None = None,
    ) -> None:
        super().__init__(ruleset, config or HyperCutsConfig(), ops)
        self.cfg: HyperCutsConfig = self.config  # typed alias

    # ------------------------------------------------------------------
    def _build_node(self, item: _WorkItem, stack) -> None:  # type: ignore[override]
        # Region compaction happens before anything else at the node
        # (original algorithm only): shrink each dimension of the region to
        # the bounding box of the rules inside it.
        if self.cfg.resolved_compaction() and item.rule_ids.size:
            item.region = self._compact_region(item.rule_ids, item.region)
            self.ops.add("div", 2 * self.schema.ndim)  # the FP divide the
            self.ops.add("mem_read", 2 * item.rule_ids.size)  # paper removed
        super()._build_node(item, stack)

    def _compact_region(
        self, rule_ids: np.ndarray, region: tuple[tuple[int, int], ...]
    ) -> tuple[tuple[int, int], ...]:
        out = []
        for d, (lo, hi) in enumerate(region):
            clo, chi = clipped_bounds(
                self.arrays.lo[d, rule_ids], self.arrays.hi[d, rule_ids], lo, hi
            )
            out.append((int(clo.min()), int(chi.max())))
        return tuple(out)

    # ------------------------------------------------------------------
    def _decide_cut(self, rule_ids: np.ndarray, item: _WorkItem):
        n = len(rule_ids)
        dims = self._candidate_dims(rule_ids, item)
        if not dims:
            return None
        if self.cfg.hw_mode:
            lo_bound, hi_bound = HW_MIN_CUTS, self.cfg.hw_max_cuts()
        else:
            lo_bound = 2
            hi_bound = max(2, int(self.cfg.spfac * math.sqrt(n)))

        # Per-dimension data and caps.
        axes = []
        for dim in dims:
            span = self._span_of(item, dim)
            cap = pow2_at_most(span)
            if cap < 2:
                continue
            rlo, rhi, reg_lo, reg_hi = self._axis_bounds(rule_ids, item, dim)
            axes.append((dim, cap, rlo, rhi, reg_lo, reg_hi))
        if not axes:
            return None

        return self._search_combo(axes, n, lo_bound, hi_bound)

    def _common_rules(self, decision: CutDecision) -> np.ndarray | None:
        """Rules spanning every child (push-common-subsets, original
        algorithm only)."""
        if not self.cfg.resolved_push():
            return None
        pushed = np.ones(len(decision.firsts[0]), dtype=bool)
        for f, l, c in zip(decision.firsts, decision.lasts, decision.counts):
            pushed &= (f == 0) & (l == c - 1)
        self.ops.add("alu", 2 * pushed.size * len(decision.counts))
        return pushed

    # ------------------------------------------------------------------
    def _candidate_dims(self, rule_ids: np.ndarray, item: _WorkItem) -> list[int]:
        """Dimensions with distinct-range-spec count >= the mean (Sec 2.2)."""
        counts = []
        for d in range(self.schema.ndim):
            lo, hi = item.region[d]
            clo, chi = clipped_bounds(
                self.arrays.lo[d, rule_ids], self.arrays.hi[d, rule_ids], lo, hi
            )
            pairs = np.stack([clo, chi], axis=1)
            counts.append(len(np.unique(pairs, axis=0)))
            self.ops.add("alu", 2 * len(rule_ids))
            self.ops.add("mem_read", 2 * len(rule_ids))
        mean = sum(counts) / len(counts)
        return [d for d, c in enumerate(counts) if c >= mean]

    # ------------------------------------------------------------------
    def _search_combo(
        self,
        axes: list[tuple],
        n: int,
        lo_bound: int,
        hi_bound: int,
    ) -> CutDecision | None:
        """Find the exponent vector minimising the largest child; the cut
        on the axes it cuts, or None when no cutting is possible.

        The search is one native call (``native.search_cuts``) where the
        library loaded, :meth:`_search_portable` otherwise; both charge
        the same ops: ``(1 << j) * n`` ALU per evaluated combination of
        ``j`` cut axes and one :meth:`_charge_eval` per span computed."""
        k = len(axes)
        max_exp = [min(int(math.log2(axes[i][1])), int(math.log2(hi_bound))) for i in range(k)]
        if sum(max_exp) == 0:
            return None
        n_combos = 1
        for m in max_exp:
            n_combos *= m + 1
        exhaustive = n_combos * n <= EXHAUSTIVE_BUDGET
        found = native.search_cuts(
            [axis[2:] for axis in axes], max_exp, n, lo_bound, hi_bound,
            exhaustive,
        )
        if found is None:
            chosen = self._search_portable(
                axes, max_exp, n, lo_bound, hi_bound, exhaustive
            )
        else:
            best, fallback, evals, n_spans = found
            for j, count in enumerate(evals):
                self.ops.add("alu", (1 << j) * n * count)
            for _ in range(n_spans):
                self._charge_eval(n, not self.cfg.hw_mode)
            chosen = best if best is not None else fallback
        if chosen is None:
            return None
        maxc, _, exps = chosen
        cut = [i for i, e in enumerate(exps) if e]
        spans = [coord_spans(*axes[i][2:], 1 << exps[i]) for i in cut]
        return CutDecision(
            dims=tuple(axes[i][0] for i in cut),
            counts=tuple(1 << exps[i] for i in cut),
            firsts=[f for f, _ in spans],
            lasts=[l for _, l in spans],
            max_child=maxc,
        )

    def _search_portable(
        self,
        axes: list[tuple],
        max_exp: list[int],
        n: int,
        lo_bound: int,
        hi_bound: int,
        exhaustive: bool,
    ) -> tuple[int, int, tuple[int, ...]] | None:
        """The NumPy search, the oracle of ``_partition.c``'s
        ``cs_search``: the chosen ``(maxc, prod, exps)``, or None."""
        k = len(axes)
        # Precompute spans per axis per exponent, lazily cached.
        span_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

        def spans(i: int, e: int) -> tuple[np.ndarray, np.ndarray]:
            key = (i, e)
            if key not in span_cache:
                dim, cap, rlo, rhi, reg_lo, reg_hi = axes[i]
                span_cache[key] = coord_spans(rlo, rhi, reg_lo, reg_hi, 1 << e)
                self._charge_eval(n, not self.cfg.hw_mode)
            return span_cache[key]

        def evaluate(exps: tuple[int, ...]) -> int:
            fs, ls, cs = [], [], []
            for i, e in enumerate(exps):
                if e:
                    f, l = spans(i, e)
                    fs.append(f)
                    ls.append(l)
                    cs.append(1 << e)
            if not cs:
                return n + 1
            self.ops.add("alu", (1 << len(cs)) * n)
            return max_count_grid(fs, ls, tuple(cs))

        # ``best`` respects the lo_bound floor (eq 4's np >= 32 in hw mode);
        # ``fallback`` records the best smaller combo, used when the grid
        # has too little resolution left to reach the floor.
        best: tuple[int, int, tuple[int, ...]] | None = None  # (maxc, prod, exps)
        fallback: tuple[int, int, tuple[int, ...]] | None = None

        def consider(maxc: int, prod: int, exps: tuple[int, ...]) -> None:
            nonlocal best, fallback
            key = (maxc, prod, exps)
            if prod >= max(2, lo_bound):
                if best is None or key < best:
                    best = key
            elif prod >= 2:
                if fallback is None or key < fallback:
                    fallback = key

        if exhaustive:
            # Exhaustive enumeration of admissible exponent vectors.
            def rec(i: int, exps: list[int], prod: int) -> None:
                if i == k:
                    if prod > hi_bound:
                        return
                    consider(evaluate(tuple(exps)), prod, tuple(exps))
                    return
                e = 0
                while True:
                    exps.append(e)
                    rec(i + 1, exps, prod << e)
                    exps.pop()
                    e += 1
                    if e > max_exp[i] or (prod << e) > hi_bound:
                        break

            rec(0, [], 1)
        else:
            # Greedy ascent: repeatedly add one bit of cutting to the axis
            # that minimises the resulting largest child.
            exps = [0] * k
            prod = 1
            while prod < hi_bound:
                step_best: tuple[int, int] | None = None  # (maxc, axis)
                for i in range(k):
                    if exps[i] < max_exp[i] and prod * 2 <= hi_bound:
                        trial = list(exps)
                        trial[i] += 1
                        maxc = evaluate(tuple(trial))
                        if step_best is None or (maxc, i) < step_best:
                            step_best = (maxc, i)
                if step_best is None:
                    break
                exps[step_best[1]] += 1
                prod <<= 1
                consider(step_best[0], prod, tuple(exps))

        return best if best is not None else fallback


def build_hypercuts(
    ruleset: RuleSet,
    binth: int = 16,
    spfac: float = 4.0,
    hw_mode: bool = False,
    ops: OpCounter | None = None,
    **kwargs,
) -> DecisionTree:
    """Build a HyperCuts tree (original by default, ``hw_mode=True`` for
    the paper's modified hardware-oriented variant)."""
    cfg = HyperCutsConfig(binth=binth, spfac=spfac, hw_mode=hw_mode, **kwargs)
    return HyperCutsBuilder(ruleset, cfg, ops).build()
