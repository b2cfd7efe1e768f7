"""Tests for HyperCuts — original and hardware-modified variants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Rule, RuleSet, generate_ruleset, generate_trace
from repro.algorithms import (
    LinearSearchClassifier,
    OpCounter,
    build_hicuts,
    build_hypercuts,
    hypercuts,
    native,
)
from repro.algorithms.flat_tree import FlatTree
from repro.algorithms.hypercuts import (
    HW_MIN_CUTS,
    HyperCutsBuilder,
    HyperCutsConfig,
)
from repro.core.errors import ConfigError
from repro.core.geometry import pow2_at_most
from repro.core.rules import FIVE_TUPLE


class TestFigure3:
    """The paper's Figure 3 example (binth 3, spfac 2, no extra
    heuristics — the figure cuts the full region)."""

    @pytest.fixture()
    def fig3(self, demo_ruleset):
        return build_hypercuts(
            demo_ruleset, binth=3, spfac=2,
            redundancy_elimination=False, region_compaction=False,
            push_common=False,
        )

    def test_root_cut_2x2_fields_0_and_4(self, fig3):
        assert fig3.root.cut_dims == (0, 4)
        assert fig3.root.cut_counts == (2, 2)

    def test_all_children_are_leaves(self, fig3):
        for c in fig3.root.children:
            assert fig3.nodes[int(c)].is_leaf

    def test_leaf_contents(self, fig3):
        leaf_sets = sorted(
            tuple(int(r) for r in fig3.nodes[int(c)].rule_ids)
            for c in set(map(int, fig3.root.children))
        )
        assert leaf_sets == [(0, 2, 5), (0, 4, 6), (1, 3), (7, 8, 9)]

    def test_candidate_dims_rule(self, demo_ruleset):
        """Section 2.2: dims with distinct specs >= mean (9,7,4,3,10 ->
        mean 6.6 -> dims 0, 1, 4)."""
        counts = demo_ruleset.arrays.distinct_range_counts(np.arange(10))
        mean = sum(counts) / 5
        assert [d for d, c in enumerate(counts) if c >= mean] == [0, 1, 4]


class TestCorrectness:
    @pytest.mark.parametrize("hw_mode", [False, True])
    @pytest.mark.parametrize("family", ["acl1", "fw1", "ipc1"])
    def test_oracle_equality(self, family, hw_mode):
        rs = generate_ruleset(family, 250, seed=23)
        trace = generate_trace(rs, 1500, seed=24, background_fraction=0.1)
        binth = 30 if hw_mode else 16
        tree = build_hypercuts(rs, binth=binth, spfac=4, hw_mode=hw_mode)
        want = LinearSearchClassifier(rs).classify_trace(trace)
        got = tree.batch_lookup(trace).match
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"region_compaction": False},
            {"push_common": False},
            {"region_compaction": False, "push_common": False},
            {"redundancy_elimination": False},
        ],
    )
    def test_heuristic_toggles_preserve_semantics(
        self, acl_small, acl_small_trace, acl_small_oracle, kwargs
    ):
        tree = build_hypercuts(acl_small, binth=16, spfac=4, **kwargs)
        got = tree.batch_lookup(acl_small_trace).match
        assert np.array_equal(got, acl_small_oracle)

    def test_compaction_with_background_traffic(self, acl_small):
        """Packets outside compacted regions must dead-end, not crash."""
        trace = generate_trace(acl_small, 2000, seed=31, background_fraction=0.5)
        tree = build_hypercuts(acl_small, binth=16, spfac=4)
        want = LinearSearchClassifier(acl_small).classify_trace(trace)
        assert np.array_equal(tree.batch_lookup(trace).match, want)


class TestPushCommon:
    def test_pushed_rules_exist_for_overlapping_sets(self, fw_small):
        tree = build_hypercuts(fw_small, binth=8, spfac=4, push_common=True)
        pushed = sum(int(n.pushed.size) for n in tree.nodes)
        leaf_refs = tree.stats().total_leaf_rule_refs
        no_push = build_hypercuts(fw_small, binth=8, spfac=4, push_common=False)
        # Pushing reduces replicated leaf storage when it fires.
        if pushed:
            assert leaf_refs <= no_push.stats().total_leaf_rule_refs

    def test_hw_mode_never_pushes(self, acl_small):
        tree = build_hypercuts(acl_small, binth=30, spfac=4, hw_mode=True)
        assert all(n.pushed.size == 0 for n in tree.nodes)


class TestHwInvariants:
    def test_children_bounded_by_eq4(self, acl_medium):
        for spfac in (1, 2, 3, 4):
            tree = build_hypercuts(
                acl_medium, binth=30, spfac=spfac, hw_mode=True
            )
            cap = 1 << (4 + spfac)
            for node in tree.nodes:
                if not node.is_leaf:
                    n_children = 1
                    for c in node.cut_counts:
                        n_children *= c
                    assert n_children <= cap
                    assert n_children <= 256

    def test_root_has_at_least_32_cuts(self, acl_medium):
        tree = build_hypercuts(acl_medium, binth=30, spfac=4, hw_mode=True)
        n_children = 1
        for c in tree.root.cut_counts:
            n_children *= c
        assert n_children >= HW_MIN_CUTS

    def test_hw_mode_rejects_compaction(self):
        cfg = HyperCutsConfig(hw_mode=True, region_compaction=True, spfac=4)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_hw_mode_requires_integer_spfac(self):
        cfg = HyperCutsConfig(hw_mode=True, spfac=2.5)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_internal_grid_regions_stay_aligned(self, acl_medium):
        tree = build_hypercuts(acl_medium, binth=30, spfac=4, hw_mode=True)
        for node in tree.nodes:
            if node.is_leaf:
                continue
            assert node.grid_region is not None
            for glo, ghi in node.grid_region:
                span = ghi - glo + 1
                assert span & (span - 1) == 0
                assert glo % span == 0


class TestHeuristicEffects:
    def test_compaction_reduces_or_equals_memory(self, acl_small):
        with_c = build_hypercuts(acl_small, binth=16, spfac=4,
                                 region_compaction=True)
        without = build_hypercuts(acl_small, binth=16, spfac=4,
                                  region_compaction=False)
        # Compaction cuts only the occupied region, so trees are no worse
        # (allow a little slack for heuristic noise).
        assert (
            with_c.software_memory_bytes()
            <= without.software_memory_bytes() * 1.25
        )

    def test_multi_dim_cuts_happen(self, acl_medium):
        tree = build_hypercuts(acl_medium, binth=16, spfac=4)
        assert any(
            len(n.cut_dims) > 1 for n in tree.nodes if not n.is_leaf
        ), "HyperCuts should cut multiple dimensions somewhere"

    def test_build_ops_counted(self, acl_small):
        ops = OpCounter()
        build_hypercuts(acl_small, binth=16, spfac=4, ops=ops)
        assert ops.total() > 0
        assert ops["div"] > 0  # compaction + index division in sw mode


# ---------------------------------------------------------------------------
# The native cut search (``_partition.c``'s ``cs_search``) against the NumPy
# search it replaces (``HyperCutsBuilder._search_portable``, the oracle)
# ---------------------------------------------------------------------------


def _both_kernels(run):
    """``run()`` on the native kernel, then on the portable one."""
    said = [run()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_kernel", native._Kernel(reason="oracle side"))
        said.append(run())
    return said


def _decision(decision):
    if decision is None:
        return None
    return (decision.dims, decision.counts, decision.max_child,
            [f.tolist() for f in decision.firsts],
            [l.tolist() for l in decision.lasts])


@st.composite
def _search_nodes(draw):
    """One node's candidate axes as ``_decide_cut`` hands them over:
    k = 1-5 axes, each a region (as small as two cells, so eq 4's floor
    can be out of reach: a fallback-only node) and every rule's raw
    bounds overlapping it; hw or software bounds.  Few distinct values,
    so many combinations tie on their largest child."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 30))
    hw = draw(st.booleans())
    spfac = draw(st.integers(1, 4)) if hw else draw(
        st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    axes = []
    for dim in range(k):
        lo = draw(st.integers(0, 40))
        span = draw(st.sampled_from([2, 3, 4, 7, 8, 64, 255, 256, 300]))
        hi = lo + span - 1
        edges = st.sampled_from(sorted({lo, lo + 1, (lo + hi) // 2, hi}))
        rlo = np.array([draw(edges) - draw(st.sampled_from([0, 0, 5]))
                        for _ in range(n)])
        rhi = np.array([max(int(a), draw(edges)) + draw(st.sampled_from([0, 0, 9]))
                        for a in rlo])
        rlo = np.maximum(rlo, 0)
        axes.append((dim, pow2_at_most(span), rlo.astype(np.uint32),
                     rhi.astype(np.uint32), lo, hi))
    return hw, spfac, axes, n


class TestNativeCutSearch:
    """One node's search is one native call with the NumPy search's
    answer: the same ``CutDecision`` (dims, counts, spans, largest
    child) and the same ``OpCounter`` totals, on both branches."""

    @staticmethod
    def _search(hw, spfac, axes, n, demo_ruleset):
        def run():
            ops = OpCounter()
            cfg = HyperCutsConfig(hw_mode=hw, spfac=spfac)
            builder = HyperCutsBuilder(demo_ruleset, cfg, ops)
            if hw:
                lo_bound, hi_bound = HW_MIN_CUTS, cfg.hw_max_cuts()
            else:
                lo_bound, hi_bound = 2, max(2, int(spfac * math.sqrt(n)))
            found = builder._search_combo(axes, n, lo_bound, hi_bound)
            return _decision(found), ops.as_dict()
        return _both_kernels(run)

    @pytest.mark.parametrize("budget", [hypercuts.EXHAUSTIVE_BUDGET, 0],
                             ids=["exhaustive", "greedy"])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(node=_search_nodes())
    def test_native_and_portable_choose_the_same_cut(
        self, native_kernel, demo_ruleset, monkeypatch, budget, node
    ):
        monkeypatch.setattr(hypercuts, "EXHAUSTIVE_BUDGET", budget)
        said = self._search(*node, demo_ruleset)
        assert said[0] == said[1]

    @pytest.mark.parametrize("budget", [hypercuts.EXHAUSTIVE_BUDGET, 0],
                             ids=["exhaustive", "greedy"])
    def test_fallback_only_node(self, native_kernel, demo_ruleset,
                                monkeypatch, budget):
        """Two 4-cell axes reach 16 children, below eq 4's 32: the cut
        is the best fallback (the fewest children among the smallest
        largest child), on both kernels."""
        monkeypatch.setattr(hypercuts, "EXHAUSTIVE_BUDGET", budget)
        rlo = np.array([0, 1, 2, 3, 0], np.uint32)
        rhi = np.array([0, 1, 2, 3, 3], np.uint32)
        axes = [(0, 4, rlo, rhi, 0, 3), (3, 4, rlo[::-1].copy(),
                                         rhi[::-1].copy(), 0, 3)]
        said = self._search(True, 4, axes, 5, demo_ruleset)
        assert said[0] == said[1]
        assert said[0][0][1:3] == ((4,), 2)

    def test_every_combination_ties(self, native_kernel, demo_ruleset):
        """Rules spanning the whole region tie every combination at n:
        the key's product and then its exponents decide."""
        n = 6
        full = np.zeros(n, np.uint32), np.full(n, 255, np.uint32)
        axes = [(d, 256, *full, 0, 255) for d in range(3)]
        said = self._search(True, 3, axes, n, demo_ruleset)
        assert said[0] == said[1]
        assert said[0][0][2] == n


    def test_a_rule_outside_its_region_is_refused(self, native_kernel):
        """The native search serves only nodes whose rules overlap the
        region on every axis (as the builder's always do); any other
        goes to the NumPy search."""
        inside = np.array([0, 3], np.uint32), np.array([1, 7], np.uint32)
        outside = np.array([0, 9], np.uint32), np.array([1, 12], np.uint32)
        args = ([3], 2, HW_MIN_CUTS, 256, True)
        assert native.search_cuts([(*inside, 0, 7)], *args) is not None
        assert native.search_cuts([(*outside, 0, 7)], *args) is None


def edge_biased_ruleset(seed: int, n: int = 24) -> RuleSet:
    """Small wildcard-heavy 5-tuple rulesets on the field edges: /0 or
    /32 addresses, wildcard or exact ports and protocols, all from a few
    repeated values.  Hardware HyperCuts at ``binth=4`` searches every
    admissible combination at each of their 24-rule nodes, the slowest
    builds of their size."""
    rng = np.random.default_rng(seed)
    small = [0, 1, 2, 3]

    def address():
        return (int(rng.choice([*small, 2**32 - 1])), int(rng.choice([0, 32])))

    def port():
        if rng.random() < 0.5:
            return (0, 65535)
        value = int(rng.choice([*small, 80, 65535]))
        return (value, value)

    def proto():
        return (0, 0) if rng.random() < 0.5 else (int(rng.choice([6, 17])), 1)

    return RuleSet([
        Rule.from_5tuple(address(), address(), port(), port(), proto())
        for _ in range(n)
    ], FIVE_TUPLE)


def _flat_buffers(tree) -> dict:
    flat = FlatTree(tree)
    out = {name: getattr(flat, name).tolist() for name, _, _ in native._BUFFERS
           if getattr(flat, name, None) is not None}
    out.update(naxes=flat.naxes, pow2=flat.pow2)
    return out


class TestNativeBuildIdentity:
    """Whole builds through the native search: every ``FlatTree`` buffer
    and the ``OpCounter`` totals equal the portable build's."""

    @staticmethod
    def _build(ruleset, builder, hw_mode):
        def run():
            ops = OpCounter()
            tree = builder(ruleset, binth=30 if hw_mode else 16, spfac=4,
                           hw_mode=hw_mode, ops=ops)
            return _flat_buffers(tree), ops.as_dict()
        return _both_kernels(run)

    @pytest.mark.parametrize("hw_mode", [False, True], ids=["sw", "hw"])
    @pytest.mark.parametrize("builder", [build_hicuts, build_hypercuts],
                             ids=["hicuts", "hypercuts"])
    @pytest.mark.parametrize("family", ["acl1", "fw1", "ipc1"])
    def test_classbench_builds(self, native_kernel, family, builder, hw_mode):
        ruleset = generate_ruleset(family, 600, seed=7)
        said = self._build(ruleset, builder, hw_mode)
        assert said[0] == said[1]

    @pytest.mark.parametrize("seed", [66, 122])
    def test_edge_biased_draws(self, native_kernel, seed):
        def run():
            ops = OpCounter()
            tree = build_hypercuts(edge_biased_ruleset(seed), binth=4,
                                   spfac=4, hw_mode=True, ops=ops)
            return _flat_buffers(tree), ops.as_dict()
        said = _both_kernels(run)
        assert said[0] == said[1]
