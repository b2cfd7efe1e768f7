"""End-to-end property-based tests: every classifier agrees with the
first-match linear-search oracle on randomly generated workloads.

These are the library's core invariant: HiCuts, HyperCuts (both modes),
RFC, TSS, TCAM and the hardware accelerator are all just accelerated
implementations of the same function.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import generate_ruleset, generate_trace
from repro.algorithms import (
    LinearSearchClassifier,
    TupleSpaceClassifier,
    build_hicuts,
    build_hypercuts,
)
from repro.algorithms.rfc import build_rfc
from repro.baselines import TcamClassifier
from repro.core.geometry import prefix_to_range
from repro.core.packet import PacketTrace
from repro.core.rules import FIVE_TUPLE, Rule
from repro.core.ruleset import RuleSet
from repro.hw import Accelerator, AcceleratorFSM, build_memory_image

# ---------------------------------------------------------------------------
# Strategies: random hardware-encodable 5-tuple rules and headers.
# ---------------------------------------------------------------------------
ip_prefix = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32))
port_range = st.tuples(st.integers(0, 65535), st.integers(0, 65535)).map(
    lambda t: (min(t), max(t))
)
proto = st.one_of(st.just((0, 0)), st.integers(0, 255).map(lambda p: (p, 1)))


@st.composite
def rulesets(draw, min_rules=1, max_rules=24):
    n = draw(st.integers(min_rules, max_rules))
    rules = []
    for _ in range(n):
        rules.append(
            Rule.from_5tuple(
                draw(ip_prefix), draw(ip_prefix),
                draw(port_range), draw(port_range), draw(proto),
            )
        )
    return RuleSet(rules, FIVE_TUPLE)


@st.composite
def headers_for(draw, ruleset, n=24):
    """Headers biased toward rule corners plus uniform noise."""
    arrays = ruleset.arrays
    rows = []
    for _ in range(n):
        if draw(st.booleans()) and arrays.n:
            r = draw(st.integers(0, arrays.n - 1))
            row = []
            for d in range(5):
                lo, hi = int(arrays.lo[d, r]), int(arrays.hi[d, r])
                row.append(draw(st.sampled_from([lo, hi, (lo + hi) // 2])))
            rows.append(row)
        else:
            rows.append(
                [
                    draw(st.integers(0, 2**32 - 1)),
                    draw(st.integers(0, 2**32 - 1)),
                    draw(st.integers(0, 65535)),
                    draw(st.integers(0, 65535)),
                    draw(st.integers(0, 255)),
                ]
            )
    return PacketTrace(np.asarray(rows, dtype=np.uint32), FIVE_TUPLE)


common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@common_settings
@given(data=st.data())
def test_decision_trees_match_oracle(data):
    rs = data.draw(rulesets())
    trace = data.draw(headers_for(rs))
    want = LinearSearchClassifier(rs).classify_trace(trace)
    binth = 4 if len(rs) > 4 else 2
    for builder in (build_hicuts, build_hypercuts):
        for hw_mode in (False, True):
            tree = builder(
                rs, binth=binth, spfac=2 if not hw_mode else 4,
                hw_mode=hw_mode,
            )
            got = tree.batch_lookup(trace).match
            assert np.array_equal(got, want), (
                f"{builder.__name__} hw={hw_mode} diverged from oracle"
            )
            # The stop rule makes a node's rule count fall strictly along
            # every path, so no tree is deeper than n - binth.
            depth = max(node.depth for node in tree.nodes)
            assert depth <= max(0, len(rs) - binth), (
                f"{builder.__name__} hw={hw_mode}: depth {depth}"
            )


@pytest.mark.parametrize("hw_mode", [False, True])
@pytest.mark.parametrize("builder", [build_hicuts, build_hypercuts])
def test_a_cut_that_separates_nothing_makes_a_leaf(builder, hw_mode):
    """Every cut of these two rules keeps one of them whole in every
    child, so the largest child always holds both: the root is a leaf of
    both rules, not a chain of cuts down one field."""
    rs = RuleSet(
        [
            Rule.from_5tuple((3, 32), (0, 0), (0, 65535), (0, 65535), (0, 0)),
            Rule.from_5tuple((0, 0), (0, 0), (0, 65535), (80, 80), (0, 0)),
        ],
        FIVE_TUPLE,
    )
    tree = builder(rs, binth=1, hw_mode=hw_mode)
    assert len(tree.nodes) == 1
    assert tree.nodes[0].rule_ids.tolist() == [0, 1]
    trace = PacketTrace(
        np.array([[3, 0, 0, 80, 0], [3, 9, 0, 81, 6], [4, 0, 0, 80, 0],
                  [4, 0, 0, 81, 0]], dtype=np.uint32),
        FIVE_TUPLE,
    )
    want = LinearSearchClassifier(rs).classify_trace(trace)
    assert want.tolist() == [0, 0, 1, -1]
    assert np.array_equal(tree.batch_lookup(trace).match, want)


@common_settings
@given(data=st.data())
def test_hardware_pipeline_matches_oracle(data):
    """Full path: build -> encode -> FSM on raw words == oracle."""
    rs = data.draw(rulesets())
    trace = data.draw(headers_for(rs, n=16))
    want = LinearSearchClassifier(rs).classify_trace(trace)
    tree = build_hypercuts(rs, binth=6, spfac=4, hw_mode=True)
    speed = data.draw(st.sampled_from([0, 1]))
    img = build_memory_image(tree, speed=speed)
    run = Accelerator(img).run_trace(trace)
    recs = AcceleratorFSM(img).run(trace)
    assert np.array_equal(run.match, want)
    assert [r.match for r in recs] == list(want)
    assert [r.occupancy for r in recs] == list(run.occupancy)


@common_settings
@given(data=st.data())
def test_baselines_match_oracle(data):
    rs = data.draw(rulesets(max_rules=12))
    trace = data.draw(headers_for(rs, n=12))
    want = LinearSearchClassifier(rs).classify_trace(trace)
    assert np.array_equal(TcamClassifier(rs).classify_trace(trace), want)
    assert np.array_equal(
        TupleSpaceClassifier(rs).classify_trace(trace), want
    )
    rfc = build_rfc(rs)
    assert np.array_equal(rfc.classify_trace(trace), want)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(["acl1", "fw1", "ipc1"]),
    n=st.integers(20, 120),
    seed=st.integers(0, 1000),
)
def test_generated_workloads_end_to_end(family, n, seed):
    """Generator-driven end-to-end agreement on all classifier paths."""
    rs = generate_ruleset(family, n, seed=seed)
    trace = generate_trace(rs, 200, seed=seed + 1, background_fraction=0.25)
    want = LinearSearchClassifier(rs).classify_trace(trace)
    tree = build_hicuts(rs, binth=30, spfac=4, hw_mode=True)
    img = build_memory_image(tree, speed=1)
    assert np.array_equal(Accelerator(img).run_trace(trace).match, want)


@settings(max_examples=50, deadline=None)
@given(value=st.integers(0, 2**32 - 1), plen=st.integers(0, 32))
def test_prefix_grid_consistency(value, plen):
    """A prefix's grid footprint always contains its value range."""
    lo, hi = prefix_to_range(value, plen, 32)
    assert lo >> 24 <= (value >> 24) <= hi >> 24
