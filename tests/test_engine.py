"""Cross-backend conformance suite for the unified classifier engine.

Every backend in the registry is built on shared ClassBench rulesets and
must agree packet-for-packet with the linear-search oracle — the one
semantic contract the whole library hangs off.  Edge cases (empty trace,
single-rule ruleset) and the registry API itself are covered here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PacketTrace, Rule, RuleSet
from repro.core.rules import FIVE_TUPLE
from repro.core.errors import ConfigError
from repro.engine import (
    available_backends,
    backend_spec,
    batch_stats_of,
    build_backend,
    register_backend,
)

ALL_BACKENDS = available_backends()


@pytest.fixture(scope="module", params=ALL_BACKENDS)
def backend_on_acl_small(request, acl_small):
    """Each registered backend built once on the shared 150-rule set."""
    return request.param, build_backend(request.param, acl_small)


@pytest.fixture(scope="module")
def single_rule_set() -> RuleSet:
    rule = Rule(
        ranges=(
            (0x0A000000, 0x0AFFFFFF),  # 10.0.0.0/8
            (0xC0A80000, 0xC0A8FFFF),  # 192.168.0.0/16
            (0, 0xFFFF),
            (80, 80),
            (6, 6),
        ),
        priority=0,
        action=0,
    )
    return RuleSet([rule], FIVE_TUPLE, "single")


def empty_trace() -> PacketTrace:
    return PacketTrace(np.empty((0, 5), dtype=np.uint32), FIVE_TUPLE)


class TestRegistry:
    def test_at_least_six_backends(self):
        assert len(ALL_BACKENDS) >= 6

    def test_expected_names_present(self):
        for name in ("linear", "rfc", "tuple_space", "hicuts", "hypercuts",
                     "incremental", "tcam", "accelerator"):
            assert name in ALL_BACKENDS

    def test_aliases_resolve(self):
        assert backend_spec("tss").name == "tuple_space"
        assert backend_spec("hw").name == "accelerator"

    def test_unknown_backend_raises(self, acl_small):
        with pytest.raises(ConfigError, match="unknown backend"):
            build_backend("no-such-engine", acl_small)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend("linear", lambda rs: None)

    def test_alias_conflict_leaves_registry_unchanged(self):
        from repro.engine import registered_aliases

        before = available_backends()
        with pytest.raises(ConfigError, match="alias 'tss'"):
            register_backend("brand-new", lambda rs: None, aliases=("tss",))
        assert available_backends() == before
        assert "brand-new" not in registered_aliases().values()

    def test_tree_flag(self):
        assert backend_spec("hicuts").builds_tree
        assert backend_spec("hypercuts").builds_tree
        assert not backend_spec("rfc").builds_tree


class TestConformance:
    def test_trace_agrees_with_oracle(
        self, backend_on_acl_small, acl_small_trace, acl_small_oracle
    ):
        name, clf = backend_on_acl_small
        got = clf.classify_trace(acl_small_trace)
        assert np.array_equal(got, acl_small_oracle), name

    def test_batch_agrees_with_oracle(
        self, backend_on_acl_small, acl_small_trace, acl_small_oracle
    ):
        name, clf = backend_on_acl_small
        got = clf.classify_batch(acl_small_trace.headers)
        assert np.array_equal(got, acl_small_oracle), name

    def test_scalar_agrees_with_batch(
        self, backend_on_acl_small, acl_small_trace
    ):
        name, clf = backend_on_acl_small
        headers = acl_small_trace.headers[:25]
        batch = clf.classify_batch(headers)
        for i, row in enumerate(headers):
            assert clf.classify(row) == batch[i], name

    def test_empty_trace(self, backend_on_acl_small):
        name, clf = backend_on_acl_small
        got = clf.classify_trace(empty_trace())
        assert got.shape == (0,), name

    def test_stats_hooks(self, backend_on_acl_small):
        name, clf = backend_on_acl_small
        assert clf.memory_bytes() > 0, name
        assert clf.memory_accesses_per_lookup() >= 1, name


class TestSingleRule:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_single_rule_match_and_miss(self, name, single_rule_set):
        clf = build_backend(name, single_rule_set)
        hit = (0x0A010203, 0xC0A80101, 1234, 80, 6)
        miss_port = (0x0A010203, 0xC0A80101, 1234, 443, 6)
        miss_ip = (0x0B010203, 0xC0A80101, 1234, 80, 6)
        trace = PacketTrace(
            np.asarray([hit, miss_port, miss_ip], dtype=np.uint32), FIVE_TUPLE
        )
        assert clf.classify_trace(trace).tolist() == [0, -1, -1], name
        assert clf.classify(hit) == 0, name


class TestBatchStats:
    def test_accelerator_reports_occupancy(self, acl_small, acl_small_trace):
        clf = build_backend("accelerator", acl_small)
        stats = batch_stats_of(clf, acl_small_trace.headers)
        assert stats.occupancy is not None
        assert stats.occupancy.shape == stats.match.shape
        assert int(stats.occupancy.min()) >= 1

    def test_plain_backend_has_no_occupancy(self, acl_small, acl_small_trace):
        clf = build_backend("linear", acl_small)
        stats = batch_stats_of(clf, acl_small_trace.headers)
        assert stats.occupancy is None
        assert stats.n_packets == acl_small_trace.n_packets


class TestTupleSpaceVectorised:
    """The scalar path is the oracle for the new NumPy batch path."""

    def test_batch_matches_scalar(self, acl_small, acl_small_trace):
        clf = build_backend("tuple_space", acl_small)
        headers = acl_small_trace.headers[:400]
        scalar = np.asarray([clf.classify(row) for row in headers])
        assert np.array_equal(clf.classify_batch(headers), scalar)

    def test_batch_matches_scalar_fw(self, fw_small):
        from repro import generate_trace

        clf = build_backend("tss", fw_small)
        trace = generate_trace(fw_small, 300, seed=11)
        scalar = np.asarray([clf.classify(row) for row in trace.headers])
        assert np.array_equal(clf.classify_batch(trace.headers), scalar)
