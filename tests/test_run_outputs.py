"""Run-sized outputs and the kernels' tallies.

A pipeline run allocates its ``match`` (and ``occupancy``) array once
and each chunk writes its slice in place; the kernels that write the
cells count each chunk's tallies (``matched``, ``occupancy_sum``), and
the report's counts, mean occupancy and energy come from those tallies
alone.  Every test here checks them against the NumPy reductions over
the delivered arrays, bit for bit, on the native and the portable
kernels.  A stage graph's ``match`` and ``occupancy`` are aligned to the
stream's packets, a dropped one reading -1 / 0, and its tallies count
the classified packets alone.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import Engine, EngineConfig, PacketTrace
from repro.algorithms import native
from repro.core.errors import InjectedFault
from repro.core.rules import DIM_PROTO
from repro.core.updates import ScheduledUpdate, remove_op
from repro.energy import asic_model
from repro.engine import (
    CachedClassifier,
    ClassificationPipeline,
    SupervisionPolicy,
    available_backends,
    build_backend,
    build_updatable_backend,
    pipeline,
)
from repro.engine.faults import FaultPlan, FaultSpec
from repro.stages import StageGraph, StageGraphSpec, StageSpec, default_graph

CHUNK = 300  # does not divide any trace length below
FAST_RETRY = dict(max_retries=2, backoff_base_s=0.0, backoff_max_s=0.0)


@pytest.fixture(params=["native", "portable"])
def kernel(request):
    """Each test runs on the native kernels and on the NumPy paths."""
    request.getfixturevalue(f"{request.param}_kernel")
    return request.param


@pytest.fixture(params=[1, 2], ids=["k1", "k2"])
def walk_threads(request, monkeypatch):
    """Every native walk of the test splits into ``k`` slices, and every
    cached serve's misses over ``k`` set owners."""
    for name in ("walk", "serve"):
        monkeypatch.setattr(native, name, functools.partial(
            getattr(native, name), threads=request.param))
    return request.param


@pytest.fixture(scope="module")
def traffic(acl_small, acl_small_trace):
    """The fixture trace (some packets match nothing) and a repeat of
    its first 700 packets, so a flow cache hits in the later chunks."""
    headers = acl_small_trace.headers
    return PacketTrace(
        np.concatenate([headers, headers[:700]]), acl_small.schema
    )


@functools.cache
def _backend(name: str, ruleset):
    return build_backend(name, ruleset)


def assert_tallied(report) -> None:
    """Every count of ``report`` equals the NumPy reduction over the
    arrays it delivers, and its mean occupancy and energy equal
    ``float(occupancy.mean())``'s, bit for bit."""
    match, occupancy = report.match, report.occupancy
    assert len(match) == report.n_packets
    assert sum(c.n_packets for c in report.chunks) == report.n_packets
    for c in report.chunks:
        window = slice(c.start, c.start + c.n_packets)
        assert c.matched == int(np.count_nonzero(match[window] >= 0)), c
        if occupancy is None:
            assert c.occupancy_sum is None
        else:
            assert c.occupancy_sum == int(occupancy[window].sum()), c
    assert report.matched == int(np.count_nonzero(match >= 0))
    if occupancy is None or not occupancy.size:
        assert report.mean_occupancy() is None
        return
    mean = float(occupancy.mean())
    assert report.mean_occupancy() == mean
    report.with_energy("asic")
    model = asic_model()
    assert report.energy_per_packet_j == model.energy_per_packet_j(mean)
    assert report.device_throughput_pps == model.device.freq_hz / mean


def assert_aligned(report, alive, bare, same_occupancy=True) -> None:
    """``report`` is a stage graph's over ``bare``'s trace, and ``alive``
    marks the packets that reached its classify stage.  Its ``match``
    and ``occupancy`` hold one entry per packet: a survivor's equal the
    bare run's (the occupancy unless ``same_occupancy`` is off), a
    dropped packet reads -1 / 0.  Its chunks tile the survivors in
    stream order, each starting at the stream position of its first
    one, and its mean occupancy and energy are the survivors' mean."""
    match, occupancy = report.match, report.occupancy
    assert report.n_packets == match.size == occupancy.size == alive.size
    assert (match[~alive] == -1).all()
    assert (occupancy[~alive] == 0).all()
    assert np.array_equal(match[alive], bare.match[alive])
    if same_occupancy:
        assert np.array_equal(occupancy[alive], bare.occupancy[alive])
    where = np.flatnonzero(alive)
    done = 0
    for c in report.chunks:
        mine = where[done:done + c.n_packets]
        assert c.start == mine[0], c
        assert c.matched == int(np.count_nonzero(match[mine] >= 0)), c
        assert c.occupancy_sum == int(occupancy[mine].sum()), c
        done += c.n_packets
    assert done == where.size
    assert report.matched == int(np.count_nonzero(match >= 0))
    mean = float(occupancy[alive].mean())
    assert report.mean_occupancy() == mean
    assert report.energy_per_packet_j == asic_model().energy_per_packet_j(
        mean
    )


@pytest.mark.usefixtures("walk_threads")
class TestEveryBackend:
    @pytest.mark.parametrize("n", [0, 1, 2700])
    @pytest.mark.parametrize("cached", [False, True], ids=["bare", "cached"])
    @pytest.mark.parametrize("name", available_backends())
    def test_tallies_are_the_reductions(
        self, kernel, name, cached, n, acl_small, traffic, acl_small_oracle
    ):
        clf = _backend(name, acl_small)
        if cached:
            clf = CachedClassifier(clf, entries=256)
        report = ClassificationPipeline(clf, chunk_size=CHUNK).run(
            traffic.subset(n)
        )
        assert report.n_chunks == len(range(0, n, CHUNK))
        assert np.array_equal(report.match[:2000], acl_small_oracle[:n])
        assert (report.occupancy is None) == (name != "accelerator" or not n)
        assert_tallied(report)

    def test_the_inline_tier_concatenates_nothing(
        self, kernel, monkeypatch, acl_small, traffic
    ):
        class NoJoin:
            """``numpy`` as the pipeline sees it, without a join."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def concatenate(*args, **kwargs):
                raise AssertionError("the inline tier concatenated")

        monkeypatch.setattr(pipeline, "np", NoJoin())
        clf = CachedClassifier(_backend("accelerator", acl_small), entries=256)
        for shards in (1, 2):
            report = ClassificationPipeline(
                clf, chunk_size=CHUNK, shards=shards, shard_mode="threads"
            ).run(traffic)
            assert_tallied(report)


class FailsAfterWriting(CachedClassifier):
    """A flow-cached accelerator whose first serve of a ``length``-packet
    chunk writes its slice and tallies, scribbles over the slice and
    then fails: the retry must rewrite all of it and count only
    itself (its cache is warm by then, so its occupancy differs)."""

    def __init__(self, inner, length: int) -> None:
        super().__init__(inner, entries=256)
        self.length, self.failed = length, False

    def batch_stats(self, headers, out=None):
        stats = super().batch_stats(headers, out=out)
        if len(headers) == self.length and not self.failed:
            self.failed = True
            stats.match[:] = 7
            if stats.occupancy is not None:
                stats.occupancy[:] = 7
            raise InjectedFault("after the write", kind="error")
        return stats


class TestRecovery:
    def test_an_injected_chunk_fault_is_retried(
        self, kernel, acl_small, traffic, acl_small_oracle
    ):
        clf = CachedClassifier(_backend("accelerator", acl_small), entries=256)
        report = ClassificationPipeline(
            clf, chunk_size=CHUNK,
            policy=SupervisionPolicy(fault_policy="retry", **FAST_RETRY),
        ).run(traffic, faults=[FaultSpec(kind="error", chunk=2)])
        assert report.fault.retries == 1
        assert np.array_equal(report.match[:2000], acl_small_oracle)
        assert_tallied(report)

    def test_a_retried_chunk_rewrites_its_slice_and_recounts(
        self, kernel, acl_small, traffic, acl_small_oracle
    ):
        clf = FailsAfterWriting(_backend("accelerator", acl_small), CHUNK)
        report = ClassificationPipeline(
            clf, chunk_size=CHUNK,
            policy=SupervisionPolicy(fault_policy="retry", **FAST_RETRY),
        ).run(traffic)
        assert clf.failed and report.fault.retries == 1
        assert np.array_equal(report.match[:2000], acl_small_oracle)
        assert_tallied(report)

    def test_forked_degrades_to_inline(self, kernel, acl_small, traffic):
        clf = CachedClassifier(_backend("accelerator", acl_small), entries=256)
        policy = SupervisionPolicy(fault_policy="degrade", **FAST_RETRY)
        with ClassificationPipeline(
            clf, chunk_size=CHUNK, shards=2, shard_mode="processes",
            policy=policy,
        ) as pipe:
            if not pipe._fork_available():  # pragma: no cover
                pytest.skip("fork multiprocessing unavailable")
            report = pipe.run(
                traffic, faults=[FaultSpec(kind="arena", times=10)]
            )
        assert report.fault.degradations == [
            "forked->inline:ArenaCorruptionError"
        ]
        assert_tallied(report)


class TestEveryTier:
    @pytest.mark.parametrize("cached", [False, True], ids=["bare", "cached"])
    def test_a_forked_run(self, kernel, cached, acl_small, traffic):
        clf = _backend("accelerator", acl_small)
        if cached:
            clf = CachedClassifier(clf, entries=256)
        with ClassificationPipeline(
            clf, chunk_size=CHUNK, shards=2, shard_mode="processes"
        ) as pipe:
            if not pipe._fork_available():  # pragma: no cover
                pytest.skip("fork multiprocessing unavailable")
            report = pipe.run(traffic)
            assert report.worker_cpu_s > 0
        assert_tallied(report)

    def test_an_update_stream_mid_run(self, kernel, acl_small, traffic):
        clf = CachedClassifier(
            build_updatable_backend("incremental", acl_small), entries=256
        )
        oracle = build_updatable_backend("linear", acl_small)
        batch = tuple(remove_op(i) for i in range(10))
        report = ClassificationPipeline(clf, chunk_size=CHUNK).run(
            traffic, updates=[ScheduledUpdate(1000, batch)]
        )
        assert report.update_batches == 1
        before = oracle.classify_batch(traffic.headers[:1200])
        oracle.apply_updates(batch)
        after = oracle.classify_batch(traffic.headers[1200:])
        assert np.array_equal(report.match, np.concatenate([before, after]))
        assert_tallied(report)

    def test_stream_and_its_merge(self, kernel, acl_small, traffic):
        config = EngineConfig(
            backend="hypercuts", chunk_size=CHUNK, cache_entries=256
        )
        with Engine.open(config, acl_small) as engine:
            results = [
                chunk.result
                for chunk in engine.stream(traffic, segment_packets=1000)
            ]
            merged = engine.merged_report(results, 1.0)
        assert len(results) == 3
        for result in results:
            assert_tallied(result)
        assert_tallied(merged)

    def test_a_stage_graph(self, kernel, acl_small, traffic):
        """A graph's outputs are aligned to the stream's packets.  Its
        drop stage denies UDP and its TCAM prefilter drops what no rule
        matches; every other packet reaches classify."""
        spec = default_graph(cache_entries=0)
        spec = StageGraphSpec(name=spec.name, stages=tuple(
            StageSpec(kind="drop", params={"deny_proto": [17]})
            if s.kind == "drop" else s
            for s in spec.stages
        ))
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(traffic, segment_packets=1000)
        with Engine.open(spec.engine_config(), acl_small) as engine:
            bare = engine.classify(traffic)
        alive = (traffic.headers[:, DIM_PROTO] != 17) & (bare.match >= 0)
        assert 0 < alive.sum() < traffic.n_packets
        assert (bare.match[~alive] >= 0).any()  # some matched ones dropped
        assert_aligned(report, alive, bare)

    @pytest.mark.parametrize("cache_entries", [0, 256], ids=["bare", "cached"])
    def test_a_graph_segment_dropped_whole(
        self, kernel, cache_entries, acl_small, traffic
    ):
        """A drop storm empties segment 1 of 3, so classify sees none of
        its packets: the stream keeps its occupancy (zeros there) and
        its cache counters, and the mean occupancy and energy are the
        classified packets'."""
        plan = FaultPlan(specs=(
            FaultSpec(kind="drop_storm", stage="drop", segment=1),
        ))
        spec = default_graph(cache_entries=cache_entries)
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(traffic, faults=plan, segment_packets=1000)
        with Engine.open(spec.engine_config(), acl_small) as engine:
            bare = engine.classify(traffic)
        assert report.occupancy is not None
        assert (report.occupancy[1000:2000] == 0).all()
        assert (report.match[1000:2000] == -1).all()
        assert (report.cache_hits is None) == (not cache_entries)
        alive = bare.match >= 0  # the TCAM prefilter drops the rest
        alive[1000:2000] = False
        # A cache's hits cost fewer cycles than the bare walk.
        assert_aligned(report, alive, bare, same_occupancy=not cache_entries)
