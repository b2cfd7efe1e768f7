"""Shared fixtures: small rulesets, traces, and built structures.

Heavy artefacts are session-scoped so the suite stays fast; tests that
mutate state build their own objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import RuleSet, generate_ruleset, generate_trace
from repro.core.rules import DEMO_SCHEMA, make_demo_ruleset
from repro.algorithms import (
    LinearSearchClassifier,
    build_hicuts,
    build_hypercuts,
    native,
)
from repro.hw import build_memory_image


@pytest.fixture(scope="session")
def demo_ruleset() -> RuleSet:
    """The paper's Table 1 ruleset (10 rules, five 8-bit fields)."""
    return RuleSet(make_demo_ruleset(), DEMO_SCHEMA, "table1")


@pytest.fixture(scope="session")
def acl_small() -> RuleSet:
    return generate_ruleset("acl1", 150, seed=101)


@pytest.fixture(scope="session")
def acl_medium() -> RuleSet:
    return generate_ruleset("acl1", 1000, seed=102)


@pytest.fixture(scope="session")
def fw_small() -> RuleSet:
    return generate_ruleset("fw1", 300, seed=103)


@pytest.fixture(scope="session")
def ipc_small() -> RuleSet:
    return generate_ruleset("ipc1", 300, seed=104)


@pytest.fixture(scope="session")
def acl_small_trace(acl_small):
    return generate_trace(acl_small, 2000, seed=201, background_fraction=0.1)


@pytest.fixture(scope="session")
def acl_medium_trace(acl_medium):
    return generate_trace(acl_medium, 5000, seed=202, background_fraction=0.05)


@pytest.fixture(scope="session")
def acl_small_oracle(acl_small, acl_small_trace):
    return LinearSearchClassifier(acl_small).classify_trace(acl_small_trace)


@pytest.fixture(scope="session")
def acl_medium_oracle(acl_medium, acl_medium_trace):
    return LinearSearchClassifier(acl_medium).classify_trace(acl_medium_trace)


@pytest.fixture(scope="session")
def hw_tree_small(acl_small):
    return build_hicuts(acl_small, binth=30, spfac=4, hw_mode=True)


@pytest.fixture(scope="session")
def hw_image_small(hw_tree_small):
    return build_memory_image(hw_tree_small, speed=1)


@pytest.fixture(scope="session")
def hw_hyper_tree_small(acl_small):
    return build_hypercuts(acl_small, binth=30, spfac=4, hw_mode=True)


@pytest.fixture(scope="session")
def hw_hyper_image_small(hw_hyper_tree_small):
    return build_memory_image(hw_hyper_tree_small, speed=1)


def _unload_native(monkeypatch) -> None:
    monkeypatch.setattr(
        native, "_kernel", native._Kernel(reason="portable_kernel fixture")
    )


@pytest.fixture
def portable_kernel(monkeypatch):
    """The rest of the test serves from the portable NumPy walk, as a
    process whose native library did not load does — trees compiled
    earlier included, since the walk asks at call time.  Test code, not
    a product switch: ``src/`` has none."""
    _unload_native(monkeypatch)


@pytest.fixture
def native_kernel():
    """The loaded native kernel; skips, with the recorded reason, on a
    host where the library could not be built or loaded."""
    status = native.status()
    if status["kernel"] != "native":
        pytest.skip(f"native kernel unavailable: {status['reason']}")
    return native._load()


FIELDS = (
    "match", "internal_nodes", "leaf_id", "leaf_size", "match_pos",
    "rules_compared",
)


@pytest.fixture
def assert_kernels_agree(monkeypatch):
    """``check(tree, trace)``: the live kernel ``tree.flat`` equals
    ``batch_lookup_reference`` on all six fields and their dtypes, and
    ``batch_match`` equals ``.match`` — on the default kernel (native
    wherever it loaded), then on the portable one.  Returns the
    reference result."""

    def check(tree, trace):
        ref = tree.batch_lookup_reference(trace)
        with monkeypatch.context() as patch:
            for portable in (False, True):
                if portable:
                    _unload_native(patch)
                got = tree.flat.batch_lookup(trace)
                for name in FIELDS:
                    a, b = getattr(ref, name), getattr(got, name)
                    assert a.dtype == b.dtype, (name, portable)
                    assert np.array_equal(a, b), (name, portable)
                lean = tree.flat.batch_match(trace.headers)
                assert lean.dtype == ref.match.dtype
                assert np.array_equal(lean, ref.match), portable
        return ref

    return check


def random_headers(schema, n, seed=0):
    """Uniform random headers for a schema (helper, not a fixture)."""
    rng = np.random.default_rng(seed)
    cols = [
        rng.integers(0, schema.max_value(d) + 1, size=n, dtype=np.uint32)
        for d in range(schema.ndim)
    ]
    return np.stack(cols, axis=1)
