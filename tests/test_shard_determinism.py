"""Per-chunk telemetry is a function of the shard plan, not of scheduling.

Every tier gives each shard one long-lived owner that serves chunks
``s, s + W, s + 2W, ...`` in order, so two independently built
pipelines serving the same traffic report the same per-chunk cache
counters, epochs and shard ids run after run — on the forked tier as
in process.  (A ``multiprocessing.Pool`` let whichever worker was free
draw the next chunk: matches were right, but the counters depended on
the draw.)  ``"auto"`` is held to the same: its tier follows from the
run's size, the config and the CPU count, never from timings.  A run
that carries updates is planned in-process in every ``shard_mode``:
under ``"processes"`` and ``"auto"`` the update cells serve on one
shard, and the planned map they are held to is all zeros.  Every case
runs on the default kernel and on the portable one.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pytest

from repro import generate_zipf_trace
from repro.engine import ClassificationPipeline

from test_match_walk import _make_cached, _update_schedule
from test_update_serving import OracleStore

TIERS = ("auto", "processes", "threads")


@pytest.fixture(scope="module")
def zipf_trace(acl_small):
    return generate_zipf_trace(acl_small, 2000, n_flows=128, skew=1.0, seed=31)


def _oracle_three_times(ruleset, trace, schedule, chunk_size=256):
    """Linear-search matches for three back-to-back runs, each batch
    taking effect at the first chunk starting at or after its offset
    (the rules keep the previous runs' updates)."""
    store = OracleStore(ruleset)
    starts = list(range(0, trace.n_packets, chunk_size))
    runs = []
    for _ in range(3):
        out = np.empty(trace.n_packets, dtype=np.int64)
        pending = sorted(schedule, key=lambda u: u.at_packet)
        for i, start in enumerate(starts):
            while pending and bisect_left(starts, pending[0].at_packet) <= i:
                store.apply(pending.pop(0).batch)
            end = start + chunk_size
            out[start:end] = store.classify(trace.headers[start:end])
        for late in pending:
            store.apply(late.batch)
        runs.append(out)
    return runs


def _serve_three_times(tier, shards, with_updates, ruleset, trace):
    """One freshly built cached pipeline serving the trace three times
    in a row: per run, the per-chunk telemetry, the planned shard map
    and the matches."""
    kind = "updatable" if with_updates else "tree"
    runs = []
    with ClassificationPipeline(
        _make_cached(kind, ruleset),
        chunk_size=256, shards=shards, shard_mode=tier,
    ) as pipeline:
        for _ in range(3):
            result = pipeline.run(
                trace,
                updates=_update_schedule(ruleset) if with_updates else None,
            )
            plan = pipeline.plan(trace.n_packets, updates=with_updates)
            runs.append((
                [
                    (c.shard, c.cache_hits, c.cache_misses,
                     c.cache_evictions, c.epoch)
                    for c in result.chunks
                ],
                [plan.shard_of(c.index) for c in result.chunks],
                result.match,
            ))
    return runs


@pytest.mark.parametrize("with_updates", [False, True], ids=["static", "updates"])
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("tier", TIERS)
def test_telemetry_repeats_across_independent_pipelines(
    tier, shards, with_updates, acl_small, zipf_trace
):
    first = _serve_three_times(tier, shards, with_updates, acl_small, zipf_trace)
    second = _serve_three_times(tier, shards, with_updates, acl_small, zipf_trace)
    want = _oracle_three_times(
        acl_small, zipf_trace,
        _update_schedule(acl_small) if with_updates else [],
    )
    for run in range(3):
        telemetry, planned, match = first[run]
        assert telemetry == second[run][0], (
            f"run {run}: per-chunk telemetry depends on scheduling"
        )
        assert [shard for shard, *_ in telemetry] == planned
        assert all(hits is not None for _, hits, *_ in telemetry)
        assert np.array_equal(match, want[run])
        assert np.array_equal(second[run][2], want[run])


@pytest.mark.usefixtures("portable_kernel")
class TestTelemetryPortable:
    """The test above on the portable flow cache and walk: both kernels
    give the same per-chunk counters (``TestNativeCacheKernels`` in
    test_flowcache.py pins one against the other)."""

    test_telemetry_repeats_across_independent_pipelines = staticmethod(
        test_telemetry_repeats_across_independent_pipelines
    )
