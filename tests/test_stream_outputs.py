"""A streamed segment pays only for its packets.

* **Streams write like runs.**  ``classify_stream`` of a source whose
  length is known up front (a :class:`PacketTrace`, a header array)
  serves it into one stream-sized ``match`` / ``occupancy``: every
  segment's report holds a slice of the merged report's arrays, and the
  arrays are bit-identical to ``classify``'s, on both kernels, with the
  flow cache on and off, through a stage graph with and without drops.
  A path or an iterable source still gets the concatenating merge.
* **Views are served as views.**  A segment of an in-memory trace (and
  ``PacketTrace.subset``) is a view of the trace's rows, built without a
  second width pass.
* **A stream that served nothing** reports what ``classify`` reports for
  no packets (backend, chunk size, shard count), over no segment: the
  session, the stage graph and an idle tenant alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Engine, EngineConfig, PacketTrace
from repro.classbench import generate_ruleset, generate_trace
from repro.core import packet
from repro.core.rules import DIM_PROTO
from repro.engine.report import EngineReport
from repro.serve import MultiTenantEngine, TenantSpec, iter_trace_segments
from repro.stages import StageGraph, StageGraphSpec, StageSpec, default_graph

#: The chunk grid is the segment grid (each segment two chunks, nothing
#: coalesced), so a flow cache sees the same batches in a one-shot run
#: and in the stream, and the occupancy of its hits is the same too.
CHUNK, SEGMENT = 256, 512
ENGINE = dict(backend="hypercuts", chunk_size=CHUNK, min_chunk_packets=0)


@pytest.fixture(params=["native", "portable"])
def kernel(request):
    request.getfixturevalue(f"{request.param}_kernel")
    return request.param


@pytest.fixture(params=[0, 64], ids=["bare", "cached"])
def cache_entries(request):
    return request.param


@pytest.fixture(scope="module")
def traffic(acl_small, acl_small_trace):
    """The fixture trace and a repeat of its first 700 packets (the
    cache hits in the later segments), not a multiple of a segment."""
    headers = acl_small_trace.headers
    return PacketTrace(
        np.concatenate([headers, headers[:700]]), acl_small.schema
    )


@pytest.fixture
def merges(monkeypatch):
    """Every ``EngineReport.merge`` call's ``(results, outputs)``."""
    calls = []
    real = EngineReport.merge.__func__

    def spy(cls, results, elapsed_s, energy_model="none", outputs=None):
        calls.append((list(results), outputs))
        return real(cls, results, elapsed_s, energy_model, outputs)

    monkeypatch.setattr(EngineReport, "merge", classmethod(spy))
    return calls


def assert_written_in_place(report, calls) -> None:
    """``report`` is the one merge's, over stream-sized outputs that
    every segment's report holds a slice of, in stream order."""
    (results, outputs), = calls
    assert outputs is not None and outputs[0] is report.match
    start = 0
    for r in results:
        window = slice(start, start + r.n_packets)
        assert np.shares_memory(r.match, report.match)
        assert r.match.ctypes.data == report.match[window].ctypes.data
        if report.occupancy is not None:
            assert np.shares_memory(r.occupancy, report.occupancy)
            assert (r.occupancy.ctypes.data
                    == report.occupancy[window].ctypes.data)
        start += r.n_packets
    assert start == report.n_packets


def bare_run(ruleset, trace, **config):
    with Engine.open(EngineConfig(**ENGINE, **config), ruleset) as engine:
        return engine.classify(trace)


class TestStreamsWriteLikeRuns:
    @pytest.mark.parametrize("source", ["trace", "array"])
    def test_a_known_length_source(
        self, kernel, cache_entries, source, acl_small, traffic, merges
    ):
        bare = bare_run(acl_small, traffic, cache_entries=cache_entries)
        config = EngineConfig(**ENGINE, cache_entries=cache_entries)
        with Engine.open(config, acl_small) as engine:
            report = engine.classify_stream(
                traffic if source == "trace" else traffic.headers,
                segment_packets=SEGMENT,
            )
        assert np.array_equal(report.match, bare.match)
        assert np.array_equal(report.occupancy, bare.occupancy)
        assert report.mean_occupancy() == bare.mean_occupancy()
        assert report.cache_triple == bare.cache_triple
        assert report.n_segments == -(-traffic.n_packets // SEGMENT)
        assert_written_in_place(report, merges)

    @pytest.mark.parametrize("source", ["path", "iterable"])
    def test_other_sources_concatenate(
        self, kernel, source, acl_small, traffic, merges, tmp_path
    ):
        bare = bare_run(acl_small, traffic, cache_entries=64)
        if source == "path":
            segments = str(tmp_path / "trace.txt")
            traffic.save(segments)
        else:
            segments = iter_trace_segments(traffic, SEGMENT)
        config = EngineConfig(**ENGINE, cache_entries=64)
        with Engine.open(config, acl_small) as engine:
            report = engine.classify_stream(segments, segment_packets=SEGMENT)
        assert np.array_equal(report.match, bare.match)
        assert np.array_equal(report.occupancy, bare.occupancy)
        (results, outputs), = merges
        assert outputs is None and len(results) > 1
        for r in results:
            assert not np.shares_memory(r.match, report.match)

    @pytest.mark.parametrize("drops", [False, True], ids=["whole", "drops"])
    def test_a_stage_graph(
        self, kernel, cache_entries, drops, acl_small, traffic, merges
    ):
        """A graph writes the same slices: a segment with no drop hands
        its slice to the classify run, one with drops scatters its
        survivors into it (a dropped packet -1 / 0).  Without drops (no
        TCAM prefilter, which drops what no rule matches) the graph is a
        bare run; with them (UDP denied too) the known-length run equals
        the same graph over an iterable of the same segments."""
        spec = default_graph(engine=ENGINE, cache_entries=cache_entries)
        stages = (
            [StageSpec(kind="drop", params={"deny_proto": [17]})
             if s.kind == "drop" else s for s in spec.stages]
            if drops else
            [s for s in spec.stages if s.kind != "tcam_prefilter"]
        )
        spec = StageGraphSpec(name=spec.name, stages=tuple(stages))
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(traffic, segment_packets=SEGMENT)
        assert_written_in_place(report, merges[:1])
        if drops:
            with StageGraph(spec, acl_small) as graph:
                want = graph.run(iter_trace_segments(traffic, SEGMENT))
            assert merges[1][1] is None
            dropped = traffic.headers[:, DIM_PROTO] == 17
            assert dropped.any() and (report.match[dropped] == -1).all()
            assert (report.occupancy[dropped] == 0).all()
        else:
            want = bare_run(acl_small, traffic, cache_entries=cache_entries)
        assert np.array_equal(report.match, want.match)
        assert np.array_equal(report.occupancy, want.occupancy)
        assert report.mean_occupancy() == want.mean_occupancy()


class TestViewsAreViews:
    def test_a_segment_view_runs_no_width_pass(
        self, acl_small_trace, monkeypatch
    ):
        built = []
        real = packet.PacketTrace.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(packet.PacketTrace, "__init__", counted)
        trace = acl_small_trace
        segments = list(iter_trace_segments(trace, 300))
        head = trace.subset(10)
        assert not built
        for seg in (*segments, head):
            assert np.shares_memory(seg.headers, trace.headers)
            assert seg.schema is trace.schema
            assert seg.headers.flags.c_contiguous
        assert np.array_equal(
            np.concatenate([s.headers for s in segments]), trace.headers
        )


class TestEmptyStreamReport:
    """acl1-100 behind a 64-entry cache, on the accelerator."""

    FIELDS = ("backend", "n_packets", "matched", "n_shards", "chunk_size",
              "n_chunks", "cache_hits", "cache_misses", "cache_evictions",
              "final_epoch", "energy_model")

    @pytest.fixture(scope="class")
    def ruleset(self):
        return generate_ruleset("acl1", 100, seed=45)

    @pytest.fixture
    def config(self):
        return EngineConfig(backend="hypercuts", cache_entries=64)

    def empty(self, ruleset):
        return PacketTrace(
            np.empty((0, ruleset.schema.ndim), np.uint32), ruleset.schema
        )

    def assert_classify_of_nothing(self, report, ruleset, config) -> None:
        with Engine.open(config, ruleset) as engine:
            want = engine.classify(self.empty(ruleset))
        assert want.backend == "accelerator+cache" and want.n_shards == 1
        for name in self.FIELDS:
            assert getattr(report, name) == getattr(want, name), name
        assert report.n_segments == 0 and report.match.size == 0
        assert report.occupancy is None and report.chunks == []

    def test_classify_stream(self, ruleset, config):
        with Engine.open(config, ruleset) as engine:
            report = engine.classify_stream(self.empty(ruleset))
        self.assert_classify_of_nothing(report, ruleset, config)

    def test_stage_graph(self, ruleset, config):
        spec = default_graph(cache_entries=64)
        with StageGraph(spec, ruleset) as graph:
            report = graph.run(self.empty(ruleset))
        self.assert_classify_of_nothing(report, ruleset, spec.engine_config())
        assert [s.packets_in for s in report.stages] == [0] * 8

    def test_idle_tenant(self, ruleset, config):
        busy = generate_trace(ruleset, 600, seed=3)
        tenants = [(TenantSpec("idle", config), ruleset),
                   (TenantSpec("busy", config), ruleset)]
        with MultiTenantEngine.open(tenants) as fleet:
            report = fleet.serve(
                {"idle": self.empty(ruleset), "busy": busy},
                segment_packets=256,
            )
        by_name = {t.name: t.report for t in report.tenants}
        self.assert_classify_of_nothing(by_name["idle"], ruleset, config)
        assert by_name["busy"].n_packets == 600
