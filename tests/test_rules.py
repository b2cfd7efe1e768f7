"""Tests for repro.core.rules: Rule semantics and RuleArrays."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.classbench import generate_ruleset
from repro.core.errors import RuleFormatError
from repro.core.rules import (
    DEMO_SCHEMA,
    DIM_PROTO,
    DIM_SRC_IP,
    FIVE_TUPLE,
    FieldSchema,
    Rule,
    RuleArrays,
    make_demo_ruleset,
)


class TestFieldSchema:
    def test_five_tuple_shape(self):
        assert FIVE_TUPLE.ndim == 5
        assert FIVE_TUPLE.widths == (32, 32, 16, 16, 8)
        assert FIVE_TUPLE.max_value(DIM_SRC_IP) == 0xFFFFFFFF
        assert FIVE_TUPLE.max_value(DIM_PROTO) == 255

    def test_universe(self):
        uni = DEMO_SCHEMA.universe()
        assert uni == tuple((0, 255) for _ in range(5))

    def test_bad_schema(self):
        with pytest.raises(RuleFormatError):
            FieldSchema(names=("a",), widths=(1, 2))
        with pytest.raises(RuleFormatError):
            FieldSchema(names=("a",), widths=(33,))


class TestRule:
    def test_matches(self):
        rule = Rule(ranges=((0, 10), (5, 5), (0, 255), (0, 255), (7, 7)))
        assert rule.matches((3, 5, 100, 200, 7))
        assert not rule.matches((11, 5, 100, 200, 7))
        assert not rule.matches((3, 4, 100, 200, 7))

    def test_overlap_and_cover(self):
        a = Rule(ranges=((0, 10),))
        b = Rule(ranges=((5, 20),))
        c = Rule(ranges=((2, 8),))
        assert a.overlaps(b) and b.overlaps(a)
        assert a.covers(c) and not c.covers(a)
        assert not a.covers(b)

    def test_validation(self):
        bad_dim_count = Rule(ranges=((0, 1),))
        with pytest.raises(RuleFormatError):
            bad_dim_count.validate(DEMO_SCHEMA)
        inverted = Rule(ranges=((5, 1),) + ((0, 255),) * 4)
        with pytest.raises(RuleFormatError):
            inverted.validate(DEMO_SCHEMA)
        too_big = Rule(ranges=((0, 256),) + ((0, 255),) * 4)
        with pytest.raises(RuleFormatError):
            too_big.validate(DEMO_SCHEMA)

    def test_from_5tuple(self):
        rule = Rule.from_5tuple(
            src_ip=(0xC0A80000, 16),
            dst_ip=(0, 0),
            src_port=(0, 65535),
            dst_port=(80, 80),
            proto=(6, 1),
        )
        assert rule.ranges[0] == (0xC0A80000, 0xC0A8FFFF)
        assert rule.ranges[1] == (0, 0xFFFFFFFF)
        assert rule.ranges[3] == (80, 80)
        assert rule.ranges[4] == (6, 6)

    def test_from_5tuple_wildcard_proto(self):
        rule = Rule.from_5tuple((0, 0), (0, 0), (0, 65535), (0, 65535), (0, 0))
        assert rule.ranges[4] == (0, 255)

    def test_wildcard_and_exact(self):
        rule = Rule.from_5tuple((0, 0), (1, 32), (0, 65535), (53, 53), (17, 1))
        assert rule.is_wildcard(0, FIVE_TUPLE)
        assert not rule.is_wildcard(1, FIVE_TUPLE)
        assert rule.is_exact(3)
        assert rule.is_prefix(1, FIVE_TUPLE)


class TestDemoRuleset:
    def test_verbatim_table1(self):
        rules = make_demo_ruleset()
        assert len(rules) == 10
        assert rules[0].ranges[0] == (128, 240)
        assert rules[9].ranges == ((40, 40), (40, 70), (40, 40), (0, 255), (0, 60))
        for i, rule in enumerate(rules):
            assert rule.priority == i


class TestRuleArrays:
    def test_match_consistency(self, demo_ruleset):
        arrays = RuleArrays(demo_ruleset.rules, DEMO_SCHEMA)
        rng = np.random.default_rng(3)
        for _ in range(300):
            header = tuple(int(v) for v in rng.integers(0, 256, size=5))
            want = -1
            for i, rule in enumerate(demo_ruleset.rules):
                if rule.matches(header):
                    want = i
                    break
            assert arrays.first_match(header) == want

    def test_batch_match(self, demo_ruleset):
        arrays = RuleArrays(demo_ruleset.rules, DEMO_SCHEMA)
        rng = np.random.default_rng(4)
        headers = rng.integers(0, 256, size=(100, 5), dtype=np.uint32)
        batch = arrays.batch_match(headers)
        for row, got in zip(headers, batch):
            assert got == arrays.first_match(row)

    def test_batch_match_chunk_and_block_boundaries(self, demo_ruleset):
        # The chunked kernel must agree with the scalar oracle whatever
        # the chunk/rule-block geometry — including blocks smaller than
        # the ruleset (early-exit path) and chunks that do not divide
        # the packet count.
        arrays = RuleArrays(demo_ruleset.rules, DEMO_SCHEMA)
        rng = np.random.default_rng(11)
        headers = rng.integers(0, 256, size=(131, 5), dtype=np.uint32)
        want = np.asarray([arrays.first_match(h) for h in headers])
        for chunk_size, rule_block in [(1, 1), (7, 3), (131, 4), (64, 100)]:
            got = arrays.batch_match(
                headers, chunk_size=chunk_size, rule_block=rule_block
            )
            assert np.array_equal(got, want), (chunk_size, rule_block)

    def test_batch_match_no_match_and_empty(self, demo_ruleset):
        arrays = RuleArrays(demo_ruleset.rules, DEMO_SCHEMA)
        # All-zero headers match none of Table 1's rules: the kernel must
        # scan every rule block and report -1.
        zeros = np.zeros((5, 5), dtype=np.uint32)
        assert (arrays.batch_match(zeros) == -1).all()
        assert arrays.batch_match(
            np.empty((0, 5), dtype=np.uint32)
        ).shape == (0,)

    def test_distinct_range_counts_table1(self, demo_ruleset):
        arrays = demo_ruleset.arrays
        ids = np.arange(10)
        counts = arrays.distinct_range_counts(ids)
        # Hand-computed from Table 1 (see Figure 3 analysis).
        assert counts == [9, 7, 4, 3, 10]

    def test_appends_equal_a_fresh_build_through_every_growth_step(self):
        """300 appends onto 0 and onto 11 rules (the buffers double at 8,
        16, ... columns): after each, every array holds the values,
        dtype and shape of a fresh build over the extended list, a batch
        match agrees, and each row of a table is contiguous."""
        extra = generate_ruleset("acl1", 300, seed=5).rules
        rng = np.random.default_rng(8)
        headers = rng.integers(0, 2**16, size=(64, 5), dtype=np.uint32)
        for base in ([], extra[:11]):
            arrays = RuleArrays(base, FIVE_TUPLE)
            rules = list(base)
            for rule in extra:
                rule = Rule(ranges=rule.ranges, priority=len(rules),
                            action=rule.action)
                arrays.append_rule(rule)
                rules.append(rule)
                fresh = RuleArrays(rules, FIVE_TUPLE)
                assert arrays.n == fresh.n == len(rules)
                for name in RuleArrays._FIELDS:
                    got, want = getattr(arrays, name), getattr(fresh, name)
                    assert got.dtype == want.dtype, name
                    assert got.shape == want.shape, name
                    assert np.array_equal(got, want), name
                    assert all(row.flags["C_CONTIGUOUS"]
                               for row in np.atleast_2d(got)), name
                assert np.array_equal(arrays.batch_match(headers),
                                      fresh.batch_match(headers))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 32))
    def test_grid_footprint_consistent(self, value, plen):
        rule = Rule.from_5tuple(
            (value, plen), (0, 0), (0, 65535), (0, 65535), (6, 1)
        )
        arrays = RuleArrays([rule], FIVE_TUPLE)
        lo, hi = rule.ranges[0]
        assert arrays.glo[0, 0] == lo >> 24
        assert arrays.ghi[0, 0] == hi >> 24
