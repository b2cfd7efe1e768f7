"""Tests for the ClassBench-style workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classbench import (
    FAMILIES,
    generate_ruleset,
    generate_trace,
    generate_zipf_trace,
)
from repro.classbench.seeds import ACL1, FW1, IPC1, get_seed
from repro.classbench.trace import trace_locality
from repro.core.errors import ConfigError
from repro.core.rules import FIVE_TUPLE
from repro.experiments import common
from repro.experiments.paper_values import ACL1_SIZES, TABLE4_SIZES


class TestSeeds:
    def test_registry(self):
        assert set(FAMILIES) == {"acl1", "fw1", "ipc1"}
        assert get_seed("acl1") is ACL1
        with pytest.raises(KeyError):
            get_seed("nope")

    def test_models_normalised(self):
        for model in (ACL1, FW1, IPC1):
            assert abs(sum(model.proto_weights.values()) - 1.0) < 0.2
            for pm in (model.src_port, model.dst_port):
                assert abs(sum(pm.class_weights.values()) - 1.0) < 1e-6


class TestGenerator:
    def test_exact_size_and_unique(self):
        rs = generate_ruleset("acl1", 500, seed=1)
        assert len(rs) == 500
        assert len({r.ranges for r in rs}) == 500

    def test_determinism(self):
        a = generate_ruleset("fw1", 300, seed=9)
        b = generate_ruleset("fw1", 300, seed=9)
        assert [r.ranges for r in a] == [r.ranges for r in b]

    def test_seed_changes_output(self):
        a = generate_ruleset("acl1", 200, seed=1)
        b = generate_ruleset("acl1", 200, seed=2)
        assert [r.ranges for r in a] != [r.ranges for r in b]

    def test_rules_are_valid_5tuple(self):
        rs = generate_ruleset("ipc1", 300, seed=3)
        for rule in rs:
            rule.validate(FIVE_TUPLE)
            # IPs must be prefix blocks (hardware-encodable).
            assert rule.is_prefix(0, FIVE_TUPLE)
            assert rule.is_prefix(1, FIVE_TUPLE)
            # Protocol exact or wildcard.
            lo, hi = rule.ranges[4]
            assert lo == hi or (lo, hi) == (0, 255)

    def test_specific_before_general(self):
        rs = generate_ruleset("fw1", 400, seed=5)
        vol = []
        for rule in rs:
            v = sum(float(np.log2(hi - lo + 1)) for lo, hi in rule.ranges)
            vol.append(v)
        assert vol == sorted(vol)

    def test_family_signatures(self):
        acl = generate_ruleset("acl1", 1500, seed=7)
        fw = generate_ruleset("fw1", 1500, seed=7)
        # Firewall sets wildcard the source IP more often than ACLs.
        assert fw.wildcard_fraction(0) > acl.wildcard_fraction(0)
        # ACL destinations are almost never wildcarded.
        assert acl.wildcard_fraction(1) < 0.05

    def test_default_rule(self):
        rs = generate_ruleset("acl1", 50, seed=1, add_default_rule=True)
        assert len(rs) == 51
        assert rs[len(rs) - 1].ranges == FIVE_TUPLE.universe()

    def test_bad_size(self):
        with pytest.raises(ConfigError):
            generate_ruleset("acl1", 0)

    def test_paper_grids(self):
        assert ACL1_SIZES == (60, 150, 500, 1000, 1600, 2191)
        assert TABLE4_SIZES["fw1"][-1] == 23087
        assert common.ACL1_SIZES is ACL1_SIZES
        assert common.TABLE4_SIZES is TABLE4_SIZES


class TestTraceGenerator:
    def test_length_and_determinism(self, acl_small):
        a = generate_trace(acl_small, 1000, seed=2)
        b = generate_trace(acl_small, 1000, seed=2)
        assert a.n_packets == 1000
        assert np.array_equal(a.headers, b.headers)

    def test_headers_mostly_match_rules(self, acl_small):
        trace = generate_trace(acl_small, 2000, seed=3)
        matches = acl_small.classify_trace(trace)
        assert (matches >= 0).mean() > 0.95

    def test_burst_locality(self, acl_small):
        trace = generate_trace(acl_small, 5000, seed=4)
        assert trace_locality(trace) > 0.1  # Pareto bursts repeat headers

    def test_background_fraction_misses(self, acl_small):
        trace = generate_trace(
            acl_small, 2000, seed=5, background_fraction=0.5
        )
        matches = acl_small.classify_trace(trace)
        # Uniform random 5-tuples almost never match a 150-rule ACL.
        assert (matches < 0).mean() > 0.2

    def test_bad_params(self, acl_small):
        with pytest.raises(ConfigError):
            generate_trace(acl_small, 0)
        with pytest.raises(ConfigError):
            generate_trace(acl_small, 10, background_fraction=1.5)

    def test_corner_bias_hits_rule_low_corner(self, acl_small):
        trace = generate_trace(acl_small, 500, seed=6, corner_bias=1.0)
        arrays = acl_small.arrays
        matches = acl_small.classify_trace(trace)
        hit = matches >= 0
        assert hit.any()
        # With full corner bias every generated field equals some rule's
        # low corner; check source port of matched packets.
        lows = set(int(v) for v in arrays.lo[2])
        sports = set(int(v) for v in trace.headers[hit][:, 2])
        assert sports <= lows


class TestZipfTrace:
    def test_shape_and_reproducibility(self, acl_small):
        a = generate_zipf_trace(acl_small, 1500, n_flows=64, skew=1.0, seed=9)
        b = generate_zipf_trace(acl_small, 1500, n_flows=64, skew=1.0, seed=9)
        assert a.headers.shape == (1500, 5)
        assert np.array_equal(a.headers, b.headers)
        c = generate_zipf_trace(acl_small, 1500, n_flows=64, skew=1.0, seed=10)
        assert not np.array_equal(a.headers, c.headers)

    def test_flow_pool_bounds_distinct_headers(self, acl_small):
        trace = generate_zipf_trace(
            acl_small, 3000, n_flows=32, skew=1.0, seed=11
        )
        distinct = np.unique(trace.headers, axis=0)
        assert len(distinct) <= 32

    def test_skew_concentrates_popularity(self, acl_small):
        def top_share(skew):
            trace = generate_zipf_trace(
                acl_small, 4000, n_flows=256, skew=skew, seed=12
            )
            _, counts = np.unique(trace.headers, axis=0, return_counts=True)
            return counts.max() / counts.sum()

        # Zipf(1.2) piles far more traffic onto the hottest flow than a
        # uniform (skew=0) draw over the same flow pool.
        assert top_share(1.2) > 3 * top_share(0.0)

    def test_headers_mostly_match_rules(self, acl_small):
        trace = generate_zipf_trace(
            acl_small, 1000, n_flows=64, skew=1.0, seed=13
        )
        matches = acl_small.classify_trace(trace)
        assert (matches >= 0).mean() > 0.8  # headers sampled from rules

    def test_bad_params(self, acl_small):
        with pytest.raises(ConfigError):
            generate_zipf_trace(acl_small, 0)
        with pytest.raises(ConfigError):
            generate_zipf_trace(acl_small, 10, n_flows=0)
        with pytest.raises(ConfigError):
            generate_zipf_trace(acl_small, 10, skew=-0.5)
