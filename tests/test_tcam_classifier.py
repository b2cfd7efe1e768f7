"""Tests for the functional TCAM baseline with range expansion."""

from __future__ import annotations

import numpy as np
import pytest

from repro import generate_ruleset, generate_trace
from repro.algorithms import LinearSearchClassifier
from repro.baselines import TcamClassifier
from repro.core.errors import CapacityError
from repro.core.rules import FIVE_TUPLE, Rule
from repro.core.ruleset import RuleSet


class TestCorrectness:
    @pytest.mark.parametrize("family", ["acl1", "fw1"])
    def test_oracle_equality(self, family):
        rs = generate_ruleset(family, 150, seed=81)
        tcam = TcamClassifier(rs)
        trace = generate_trace(rs, 800, seed=82, background_fraction=0.2)
        want = LinearSearchClassifier(rs).classify_trace(trace)
        got = tcam.classify_trace(trace)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("family", ["acl1", "fw1", "ipc1"])
    def test_batch_is_oracle_and_dense_compare(self, family):
        """``classify_batch`` runs the oracle's early-exit kernel over
        the expanded slots; it must equal both the oracle over the rules
        and the dense every-slot compare it replaced."""
        rs = generate_ruleset(family, 300, seed=84)
        tcam = TcamClassifier(rs)
        assert tcam.n_slots > len(rs)  # port ranges really expanded
        trace = generate_trace(rs, 1500, seed=85, background_fraction=0.3)
        h = trace.headers.astype(np.int64)
        lo = tcam._lo.T.astype(np.int64)
        hi = lo + tcam._span.T
        ok = np.all(
            (lo[None] <= h[:, None, :]) & (h[:, None, :] <= hi[None]), axis=2
        )
        dense = np.where(ok.any(axis=1), tcam._rule[ok.argmax(axis=1)], -1)
        got = tcam.classify_batch(trace.headers)
        assert (got == -1).any() and (got >= 0).any()
        assert np.array_equal(got, dense)
        assert np.array_equal(got, rs.arrays.batch_match(trace.headers))

    def test_single_classify(self, acl_small):
        tcam = TcamClassifier(acl_small)
        lin = LinearSearchClassifier(acl_small)
        arrays = acl_small.arrays
        for r in range(0, len(acl_small), 11):
            header = tuple(int(arrays.lo[d, r]) for d in range(5))
            assert tcam.classify(header) == lin.classify(header)


class TestExpansion:
    def _rs(self, sport, dport):
        rule = Rule.from_5tuple((0, 0), (0, 0), sport, dport, (6, 1))
        return RuleSet([rule], FIVE_TUPLE)

    def test_exact_ports_one_slot(self):
        tcam = TcamClassifier(self._rs((80, 80), (443, 443)))
        assert tcam.n_slots == 1

    def test_hi_port_expands_six_ways(self):
        tcam = TcamClassifier(self._rs((1024, 65535), (80, 80)))
        assert tcam.n_slots == 6

    def test_two_ranges_multiply(self):
        tcam = TcamClassifier(self._rs((1024, 65535), (1024, 65535)))
        assert tcam.n_slots == 36

    def test_worst_case_range(self):
        # [1, 65534] needs 2w-2 = 30 prefixes per dimension.
        tcam = TcamClassifier(self._rs((1, 65534), (0, 65535)))
        assert tcam.n_slots == 30

    def test_stats_efficiency(self, acl_small):
        stats = TcamClassifier(acl_small).stats()
        assert stats.n_rules == len(acl_small)
        assert stats.n_slots >= stats.n_rules
        assert stats.storage_efficiency == pytest.approx(
            stats.n_rules / stats.n_slots
        )
        assert stats.size_bytes == stats.n_slots * 18

    def test_acl_efficiency_in_published_band(self):
        """[14]: real sets land at 16-53 % storage efficiency; our acl1
        model with its AR/HI port mix should be comfortably below 100 %."""
        rs = generate_ruleset("acl1", 800, seed=83)
        stats = TcamClassifier(rs).stats()
        assert stats.storage_efficiency < 0.9
        assert stats.expansion_factor > 1.1

    def test_slot_guard(self, acl_small):
        with pytest.raises(CapacityError):
            TcamClassifier(acl_small, max_slots=10)

    def test_wrong_schema(self, demo_ruleset):
        with pytest.raises(CapacityError):
            TcamClassifier(demo_ruleset)
