"""Shared benchmark fixtures.

Benchmarks use moderate workload sizes so a full ``pytest benchmarks/
--benchmark-only`` run finishes in minutes while still exercising the
pipeline end-to-end.  The *full* paper grids are regenerated by
``python -m repro.cli tables``.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import generate_ruleset, generate_trace, generate_zipf_trace
from repro.algorithms import build_hicuts, native
from repro.experiments.common import Pipeline
from repro.hw import Accelerator, build_memory_image


@pytest.fixture
def portable_kernel(monkeypatch):
    """``with portable_kernel():`` — inside the block every FlatTree walk
    takes the portable NumPy kernel, as in a process whose native library
    did not load (the walk asks at call time, so trees compiled outside
    the block are covered too).  The gates whose denominator is the bare
    kernel take both sides under it: their floors were derived on the
    portable walk and guard the Python layers above it.  Test code, not
    a product switch: ``src/`` has none."""

    @contextlib.contextmanager
    def portable():
        with monkeypatch.context() as patch:
            patch.setattr(
                native, "_kernel",
                native._Kernel(reason="portable_kernel fixture"),
            )
            yield

    return portable


@pytest.fixture(scope="session")
def pipeline():
    return Pipeline(seed=7, quick=True, trace_packets=10_000)


@pytest.fixture(scope="session")
def acl1k():
    return generate_ruleset("acl1", 1000, seed=7)


@pytest.fixture(scope="session")
def acl1k_trace(acl1k):
    return generate_trace(acl1k, 20_000, seed=8)


@pytest.fixture(scope="session")
def acl1k_zipf_trace(acl1k):
    """The flow-cache workload: Zipf(1.0) flow popularity, 512 flows."""
    return generate_zipf_trace(acl1k, 20_000, n_flows=512, skew=1.0, seed=9)


@pytest.fixture(scope="session")
def acl10k():
    """The flat-kernel gate workload: 10k acl-style rules."""
    return generate_ruleset("acl1", 10_000, seed=7)


@pytest.fixture(scope="session")
def acl10k_trace(acl10k):
    return generate_trace(acl10k, 100_000, seed=8)


@pytest.fixture(scope="session")
def acl1k_hw_tree(acl1k):
    return build_hicuts(acl1k, binth=30, spfac=4, hw_mode=True)


@pytest.fixture(scope="session")
def acl1k_image(acl1k_hw_tree):
    return build_memory_image(acl1k_hw_tree, speed=1)


@pytest.fixture(scope="session")
def acl1k_accelerator(acl1k_image):
    return Accelerator(acl1k_image)
