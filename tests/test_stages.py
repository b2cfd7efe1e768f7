"""Tests for the declarative line-card RX stage graph (repro.stages).

Covers the spec layer (validation, JSON round-trip), the runner's
bit-identity contract against a bare ``Engine.classify`` across
backend x shards x cache, per-stage telemetry and energy accounting,
stage-targeted fault injection, TCAM monitor mode under live updates,
file-source quarantine propagation into ``EngineReport.to_dict``, and
the TCAM prefilter's C flow hash and verdict memo against their NumPy
oracle.
The segment loop the graph shares with the session (source shapes,
``ingest`` faults, updates at the stream end) is pinned on all three
serving drivers in ``tests/test_segment_loop.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import generate_ruleset
from repro.algorithms import native
from repro.classbench import churn_schedule, generate_zipf_trace
from repro.core.errors import ConfigError, ServingFaultError
from repro.core.rules import DIM_PROTO
from repro.engine.faults import FaultPlan, FaultSpec
from repro.serve import Engine, EngineConfig
from repro.stages import (
    STAGE_KINDS,
    StageGraph,
    StageGraphSpec,
    StageSpec,
    default_graph,
)
from repro.engine.flowcache import FlowCache, flow_hash
from repro.stages.graph import _MEMO_SLOTS, _flow_hash

from tests.conftest import random_headers


@pytest.fixture(scope="module")
def zipf_small(acl_small):
    return generate_zipf_trace(
        acl_small, 3000, n_flows=256, skew=1.0, seed=11
    )


# ---------------------------------------------------------------------------
# Spec validation and round-trip
# ---------------------------------------------------------------------------


class TestStageSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown stage kind"):
            StageSpec(kind="decrypt")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown rewrite stage"):
            StageSpec(kind="rewrite", params={"bites": 14})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown StageSpec field"):
            StageSpec.from_dict({"kind": "parse", "color": "red"})

    def test_name_defaults_to_kind(self):
        assert StageSpec(kind="drop").name == "drop"

    @pytest.mark.parametrize(
        "kind, params, match",
        [
            ("parse", {"on_malformed": "explode"}, "on_malformed"),
            ("queue_select", {"policy": "rr"}, "policy"),
            ("queue_select", {"queues": 0}, "queues must be >= 1"),
            ("flow_cache", {"entries": 100, "ways": 8}, "multiple"),
            ("flow_cache", {"ways": 3}, r"flow_cache stage.*\(4096\).*ways \(3\)"),
            ("tcam_prefilter", {"max_slots": -1}, ">= 0"),
            ("rewrite", {"bytes": "wide"}, "must be an int"),
            ("drop", {"deny_proto": [6, -1]}, "non-negative"),
            ("drop", {"deny_dst_ports": [[80, 22]]}, "not a valid range"),
            ("drop", {"deny_dst_ports": [[80]]}, "pairs"),
            ("extract", {"fields": "all"}, "list of ints"),
            ("classify", {"engine": 7}, "must be a dict"),
            ("flow_cache", {"max_age": 5}, "max_age"),
        ],
    )
    def test_bad_params_rejected(self, kind, params, match):
        with pytest.raises(ConfigError, match=match):
            StageSpec(kind=kind, params=params)


class TestStageGraphSpec:
    def test_default_graph_has_every_kind(self):
        spec = default_graph()
        assert tuple(s.kind for s in spec.stages) == STAGE_KINDS

    def test_cache_entries_zero_omits_flow_cache(self):
        spec = default_graph(cache_entries=0)
        assert spec.stage("flow_cache") is None
        assert spec.engine_config().cache_entries == 0

    def test_json_round_trip_is_lossless(self, tmp_path):
        spec = default_graph(
            {"backend": "hicuts", "shards": 2}, cache_entries=1024, queues=4
        )
        path = tmp_path / "graph.json"
        spec.save(str(path))
        again = StageGraphSpec.load(str(path))
        assert again == spec
        assert StageGraphSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_needs_exactly_one_classify(self):
        with pytest.raises(ConfigError, match="exactly one classify"):
            StageGraphSpec(stages=(StageSpec(kind="parse"),))

    def test_duplicate_stage_rejected(self):
        with pytest.raises(ConfigError, match="duplicate 'rewrite'"):
            StageGraphSpec(
                stages=(
                    StageSpec(kind="classify"),
                    StageSpec(kind="rewrite"),
                    StageSpec(kind="rewrite", name="rewrite2"),
                )
            )

    def test_out_of_order_rejected(self):
        with pytest.raises(ConfigError, match="canonical order"):
            StageGraphSpec(
                stages=(
                    StageSpec(kind="classify"),
                    StageSpec(kind="drop"),
                )
            )

    def test_unknown_graph_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown StageGraphSpec"):
            StageGraphSpec.from_dict({"stages": [], "edges": []})

    def test_cache_overlay_clash_rejected(self):
        with pytest.raises(ConfigError, match="flow_cache stage owning"):
            StageGraphSpec(
                stages=(
                    StageSpec(kind="flow_cache", params={"entries": 1024}),
                    StageSpec(
                        kind="classify",
                        params={"engine": {"cache_entries": 64}},
                    ),
                )
            )

    def test_engine_config_merges_stage_ownership(self):
        spec = StageGraphSpec(
            stages=(
                StageSpec(kind="parse", params={"on_malformed": "raise"}),
                StageSpec(
                    kind="flow_cache", params={"entries": 512, "ways": 2}
                ),
                StageSpec(
                    kind="classify", params={"engine": {"backend": "hicuts"}}
                ),
            )
        )
        config = spec.engine_config()
        assert config.backend == "hicuts"
        assert config.cache_entries == 512
        assert config.cache_ways == 2
        assert config.on_malformed == "raise"

    def test_load_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot load stage graph"):
            StageGraphSpec.load(str(tmp_path / "absent.json"))


# ---------------------------------------------------------------------------
# Bit-identity against the bare engine
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["hypercuts", "hicuts"])
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("cache_entries", [0, 1024])
    def test_classify_stage_matches_bare_engine(
        self, acl_small, zipf_small, backend, shards, cache_entries
    ):
        overlay = {"backend": backend, "shards": shards, "chunk_size": 1000}
        config = EngineConfig.from_dict(
            {
                **EngineConfig().to_dict(),
                **overlay,
                "cache_entries": cache_entries,
            }
        )
        with Engine.open(config, acl_small) as engine:
            want = engine.classify(zipf_small).match
        spec = default_graph(overlay, cache_entries=cache_entries)
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(zipf_small, segment_packets=1000)
        assert np.array_equal(report.match, want)
        assert report.n_packets == zipf_small.n_packets

    def test_bit_identity_under_live_updates(self, acl_small, zipf_small):
        schedule = churn_schedule(
            acl_small, 40, zipf_small.n_packets, seed=5
        )
        overlay = {
            "backend": "hypercuts", "chunk_size": 1000, "updatable": True,
        }
        config = EngineConfig.from_dict(
            {**EngineConfig().to_dict(), **overlay, "cache_entries": 1024}
        )
        with Engine.open(config, acl_small) as engine:
            want = engine.classify(zipf_small, updates=schedule).match
        spec = default_graph(overlay, cache_entries=1024)
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(
                zipf_small, updates=schedule, segment_packets=1000
            )
        assert np.array_equal(report.match, want)
        tcam = next(s for s in report.stages if s.kind == "tcam_prefilter")
        # Live updates put the prefilter in monitor mode: it observes
        # but filters nothing (the image is the build-time ruleset).
        assert tcam.extra.get("mode") == "monitor"
        assert "tcam_miss" not in tcam.drops
        assert tcam.packets_in == tcam.packets_out

    def test_tcam_drops_only_no_match_packets(self, acl_small, zipf_small):
        spec = default_graph({"backend": "hypercuts"}, cache_entries=0)
        with Engine.open(
            EngineConfig(backend="hypercuts"), acl_small
        ) as engine:
            want = engine.classify(zipf_small).match
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(zipf_small, segment_packets=1000)
        tcam = next(s for s in report.stages if s.kind == "tcam_prefilter")
        n_miss = int((want < 0).sum())
        assert tcam.drops.get("tcam_miss", 0) == n_miss
        # Prefiltered packets report -1, exactly like a bare no-match.
        assert np.array_equal(report.match, want)


# ---------------------------------------------------------------------------
# Stage semantics and telemetry
# ---------------------------------------------------------------------------


class TestStageSemantics:
    def test_acl_drop_stage_filters_and_accounts(
        self, acl_small, zipf_small
    ):
        spec = StageGraphSpec(
            stages=(
                StageSpec(kind="drop", params={"deny_proto": [17]}),
                StageSpec(
                    kind="classify",
                    params={"engine": {"backend": "hypercuts"}},
                ),
            )
        )
        denied = zipf_small.headers[:, DIM_PROTO] == 17
        assert denied.any(), "trace must carry some UDP to be a real test"
        with Engine.open(
            EngineConfig(backend="hypercuts"), acl_small
        ) as engine:
            want = engine.classify(zipf_small).match
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(zipf_small, segment_packets=1000)
        drop = report.stages[0]
        assert drop.drops == {"acl_proto": int(denied.sum())}
        assert (report.match[denied] == -1).all()
        assert np.array_equal(report.match[~denied], want[~denied])

    def test_telemetry_conservation_and_energy(self, acl_small, zipf_small):
        spec = default_graph({"backend": "hypercuts"}, cache_entries=1024)
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(zipf_small, segment_packets=1000)
        for stage in report.stages:
            assert stage.packets_out == stage.packets_in - stage.dropped
            assert stage.energy_j > 0.0
            assert stage.busy_s >= 0.0
        cache = next(s for s in report.stages if s.kind == "flow_cache")
        assert cache.extra["hits"] == report.cache_hits
        assert cache.extra["misses"] == report.cache_misses
        tcam = next(s for s in report.stages if s.kind == "tcam_prefilter")
        assert tcam.extra["n_slots"] > 0
        assert 0 < tcam.extra["unique_flows"] <= zipf_small.n_packets

    def test_classify_energy_follows_ruleset_version(
        self, acl_small, zipf_small
    ):
        """The classify stage's energy model is derived once per ruleset
        version, not per run: an update-free run reuses it, a run that
        carried updates re-derives it from the updated tree."""
        from repro.energy import CacheEnergyModel

        overlay = {"backend": "hypercuts", "updatable": True}
        spec = default_graph(overlay, cache_entries=1024)
        schedule = churn_schedule(
            acl_small, 40, zipf_small.n_packets, seed=5
        )

        def classify_energy(report):
            stage = next(s for s in report.stages if s.kind == "classify")
            return stage.energy_j / stage.packets_in

        with StageGraph(spec, acl_small) as graph:
            graph.run(zipf_small)
            model = graph._classify_energy_model()
            graph.run(zipf_small)
            assert graph._classify_energy_model() is model
            report = graph.run(zipf_small, updates=schedule)
            fresh = CacheEnergyModel.for_classifier(graph.classifier)
            assert graph._classify_energy_model() is not model
            assert graph._classify_energy_model() == fresh
            assert classify_energy(report) == fresh.energy_per_packet_j(
                report.cache_hit_rate
            )

    @pytest.mark.parametrize("queues", [4, 6])
    @pytest.mark.parametrize("policy", ["hash", "match"])
    def test_queue_occupancy_sums_to_survivors(
        self, acl_small, zipf_small, policy, queues
    ):
        spec = StageGraphSpec(
            stages=(
                StageSpec(
                    kind="classify",
                    params={"engine": {"backend": "hypercuts"}},
                ),
                StageSpec(
                    kind="queue_select",
                    params={"queues": queues, "policy": policy},
                ),
            )
        )
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(zipf_small, segment_packets=1000)
        queue = report.stages[-1]
        occ = queue.extra["queue_occupancy"]
        assert len(occ) == queues
        assert sum(occ) == queue.packets_out == zipf_small.n_packets
        if policy == "hash":
            # The flow hash must actually spread flows across queues,
            # each to its hash modulo the queue count (a mask when that
            # is a power of two).
            assert sum(1 for c in occ if c) > 1
            hashed = flow_hash(zipf_small.headers) % np.uint64(queues)
            assert occ == np.bincount(hashed, minlength=queues).tolist()

    def test_rewrite_touches_only_matched(self, acl_small, zipf_small):
        spec = default_graph({"backend": "hypercuts"}, cache_entries=0)
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(zipf_small)
        rewrite = next(s for s in report.stages if s.kind == "rewrite")
        assert rewrite.extra["packets_rewritten"] == report.matched

    def test_report_to_dict_carries_stages(self, acl_small, zipf_small):
        spec = default_graph({"backend": "hypercuts"}, cache_entries=1024)
        with StageGraph(spec, acl_small) as graph:
            out = graph.run(zipf_small).to_dict()
        assert [s["kind"] for s in out["stages"]] == list(STAGE_KINDS)
        for stage in out["stages"]:
            assert stage["packets_in"] >= stage["packets_out"]
            assert stage["energy_per_packet_j"] > 0

    def test_tcam_bypassed_on_non_five_tuple_schema(self, demo_ruleset):
        from tests.conftest import random_headers

        spec = default_graph({"software": True}, cache_entries=0)
        headers = random_headers(demo_ruleset.schema, 200, seed=3)
        with StageGraph(spec, demo_ruleset) as graph:
            assert graph.tcam is None
            report = graph.run(headers)
        tcam = next(s for s in report.stages if s.kind == "tcam_prefilter")
        assert tcam.extra["bypassed"] == "schema"
        assert tcam.packets_in == tcam.packets_out == 200

    def test_tcam_bypassed_on_slot_budget(self, acl_small, acl_small_trace):
        spec = default_graph(cache_entries=0)
        spec = StageGraphSpec.from_dict(
            {
                "name": spec.name,
                "stages": [
                    {**s.to_dict(), "params": {"max_slots": 1}}
                    if s.kind == "tcam_prefilter"
                    else s.to_dict()
                    for s in spec.stages
                ],
            }
        )
        with StageGraph(spec, acl_small) as graph:
            assert graph.tcam is None
            report = graph.run(acl_small_trace)
            config = graph.config
        tcam = next(s for s in report.stages if s.kind == "tcam_prefilter")
        assert tcam.extra["bypassed"] == "max_slots"
        # The trace's background packets match no rule: a bypassed stage
        # passes them on anyway.
        assert (report.match < 0).any()
        assert tcam.packets_in == tcam.packets_out == acl_small_trace.n_packets
        assert "tcam_miss" not in tcam.drops
        with Engine.open(config, acl_small) as engine:
            want = engine.classify(acl_small_trace).match
        assert np.array_equal(report.match, want)


# ---------------------------------------------------------------------------
# The TCAM prefilter's two kernels: C against the NumPy oracle
# ---------------------------------------------------------------------------


def _prefilter_graph(ruleset) -> StageGraph:
    """A graph of the prefilter alone before a classify stage on the
    linear backend, which builds at once."""
    return StageGraph(
        StageGraphSpec(
            stages=(
                StageSpec(kind="tcam_prefilter"),
                StageSpec(
                    kind="classify", params={"engine": {"backend": "linear"}}
                ),
            )
        ),
        ruleset,
    )


def _on_both_kernels(monkeypatch, fn):
    """``[fn(0) on the native kernel, fn(1) on the NumPy path]``."""
    out = [fn(0)]
    with monkeypatch.context() as patch:
        patch.setattr(
            native, "_kernel", native._Kernel(reason="oracle side")
        )
        out.append(fn(1))
    return out


class TestPrefilterKernels:
    """The prefilter's flow hash and verdict memo in C (``pf_hash``,
    ``pf_probe`` + ``pf_insert``) return what the NumPy path returns,
    segment after segment, and a graph served on either kernel reports
    the same telemetry."""

    @pytest.mark.parametrize("width", range(1, 7))
    def test_flow_hash(self, native_kernel, width):
        rng = np.random.default_rng(width)
        rows = rng.integers(0, 1 << 32, (500, width), dtype=np.uint32)
        rows[0], rows[1], rows[2, 0] = 0, 0xFFFFFFFF, 0xFFFFFFFF
        for given in (rows, rows[::3], rows[:0]):  # strided, empty
            fast = _flow_hash(given)
            assert fast.dtype == np.uint64
            assert np.array_equal(fast, flow_hash(given))
        # One hash: the flow cache files each header in set flow_hash
        # modulo the set count (500 sets: a true modulo, not a mask).
        flows = np.unique(rows, axis=0)
        cache = FlowCache(entries=4000, ways=8)
        cache.fill(flows, np.arange(len(flows)))
        s, way = np.nonzero(cache._live(...))
        stored = cache._headers(s, way).astype(np.uint32)
        assert len(s) == len(flows)
        assert np.array_equal(flow_hash(stored) % np.uint64(cache.n_sets), s)

    def test_verdict_memo(self, native_kernel, monkeypatch, acl_small):
        rng = np.random.default_rng(5)
        # Flows that match (rule corners) and flows that mostly do not.
        corners = np.array(
            [[lo for lo, _ in rule.ranges] for rule in acl_small.rules],
            dtype=np.uint32,
        )
        pool = np.unique(
            np.concatenate(
                [corners, random_headers(acl_small.schema, 1800, seed=6)]
            ),
            axis=0,
        )
        pool = pool[rng.permutation(len(pool))]
        segments = [
            pool[np.arange(100).repeat(2)],   # first seen, each twice
            pool[:100],                       # repeated: all memoised
            pool[50:150],                     # mixed
            pool[:0],                         # empty
            pool[150:],                       # past the first table size
            pool[rng.integers(0, len(pool), 3000)],  # everything, shuffled
        ]
        twins = [_prefilter_graph(acl_small) for _ in range(2)]
        assert len(pool) > _MEMO_SLOTS  # the native table doubles twice

        def serve(side):
            got = twins[side]._tcam_verdicts(rows, _flow_hash(rows))
            return got.tolist(), twins[side]._unique_flows

        for rows in segments:
            served = _on_both_kernels(monkeypatch, serve)
            assert served[0] == served[1]
            assert served[0][0] == twins[0].tcam.classify_batch(rows).tolist()
        assert [twin._unique_flows for twin in twins] == [len(pool)] * 2
        assert twins[0]._memo.shape[0] == 4 * _MEMO_SLOTS

    @pytest.mark.parametrize("kernel", ["native", "portable"])
    def test_no_header_marks_an_empty_memo_row(self, request, kernel):
        """The tag, not a key value, marks an empty memo row: the
        all-zero and all-ones headers are real keys that read the -1
        they were given, and the memo counts headers, not hashes."""
        request.getfixturevalue(f"{kernel}_kernel")
        ruleset = generate_ruleset("acl1", 300, seed=11)
        rows = np.array(
            [[0] * 5, [0xFFFFFFFF] * 5, [1, 2, 3, 4, 250]], dtype=np.uint32
        )
        with _prefilter_graph(ruleset) as graph:
            assert graph.tcam.classify_batch(rows).tolist() == [-1] * 3
            for seg in (rows[:2], rows, rows[[2, 0, 2, 1, 0]]):
                got = graph._tcam_verdicts(seg, _flow_hash(seg))
                assert got.tolist() == [-1] * len(seg)
            assert graph._unique_flows == 3

    @pytest.mark.parametrize("kernel", ["native", "portable"])
    def test_two_headers_sharing_a_hash_read_their_own_verdicts(
        self, request, kernel
    ):
        """The hash finds a memo row and the header confirms it: ``b``,
        handed the hash of rule 0's low corner ``a``, reads its own
        no-match, not ``a``'s rule 0."""
        request.getfixturevalue(f"{kernel}_kernel")
        ruleset = generate_ruleset("acl1", 300, seed=11)
        a = [lo for lo, _ in ruleset.rules[0].ranges]
        rows = np.array([a, [1, 2, 3, 4, 250]], dtype=np.uint32)
        h = _flow_hash(rows[:1])[0]  # a's hash, handed to both
        with _prefilter_graph(ruleset) as graph:
            want = graph.tcam.classify_batch(rows).tolist()
            assert want == [0, -1]
            for seg in ([0], [1], [0, 1], [1, 0, 1]):
                got = graph._tcam_verdicts(rows[seg], np.full(len(seg), h))
                assert got.tolist() == [want[i] for i in seg], seg
            assert graph._unique_flows == 2

    def test_a_graph_run(self, native_kernel, monkeypatch, acl_small,
                         zipf_small):
        spec = default_graph({"backend": "hypercuts"}, cache_entries=1024)

        def run(side):
            with StageGraph(spec, acl_small) as graph:
                return graph.run(zipf_small, segment_packets=1000)

        fast, oracle = _on_both_kernels(monkeypatch, run)
        assert np.array_equal(fast.match, oracle.match)
        for a, b in zip(fast.stages, oracle.stages, strict=True):
            assert a.drops == b.drops, a.kind
            assert a.energy_j == b.energy_j, a.kind
            for key in ("unique_flows", "queue_occupancy"):
                assert a.extra.get(key) == b.extra.get(key), (a.kind, key)
        tcam = next(s for s in fast.stages if s.kind == "tcam_prefilter")
        assert tcam.extra["unique_flows"] > 0


# ---------------------------------------------------------------------------
# Stage-targeted fault injection
# ---------------------------------------------------------------------------


class TestStageFaults:
    def test_error_recovers_under_retry_and_stays_bit_identical(
        self, acl_small, zipf_small
    ):
        overlay = {"backend": "hypercuts", "fault_policy": "retry"}
        spec = default_graph(overlay, cache_entries=1024)
        plan = FaultPlan(
            specs=(FaultSpec(kind="error", stage="extract", segment=1),)
        )
        with Engine.open(
            EngineConfig.from_dict(
                {**EngineConfig().to_dict(), **overlay, "cache_entries": 1024}
            ),
            acl_small,
        ) as engine:
            want = engine.classify(zipf_small).match
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(zipf_small, faults=plan, segment_packets=1000)
        extract = next(s for s in report.stages if s.kind == "extract")
        assert extract.faults_injected == 1
        assert extract.retries == 1
        assert report.fault is not None and report.fault.retries >= 1
        assert np.array_equal(report.match, want)

    def test_crash_with_fail_policy_raises_serving_fault(
        self, acl_small, zipf_small
    ):
        spec = default_graph({"backend": "hypercuts"}, cache_entries=0)
        plan = FaultPlan(
            specs=(FaultSpec(kind="crash", stage="queue_select"),)
        )
        with StageGraph(spec, acl_small) as graph:
            with pytest.raises(ServingFaultError, match="queue_select"):
                graph.run(zipf_small, faults=plan)

    def test_drop_storm_drops_segment_and_degrades(
        self, acl_small, zipf_small
    ):
        overlay = {"backend": "hypercuts", "fault_policy": "retry"}
        spec = default_graph(overlay, cache_entries=0)
        plan = FaultPlan(
            specs=(FaultSpec(kind="drop_storm", stage="drop", segment=0),)
        )
        with Engine.open(
            EngineConfig.from_dict({**EngineConfig().to_dict(), **overlay}),
            acl_small,
        ) as engine:
            want = engine.classify(zipf_small).match
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(zipf_small, faults=plan, segment_packets=1000)
        drop = next(s for s in report.stages if s.kind == "drop")
        assert drop.drops["drop_storm"] == 1000
        assert (report.match[:1000] == -1).all()
        assert np.array_equal(report.match[1000:], want[1000:])
        assert "stage:drop:drop_storm@segment0" in report.fault.degradations

    def test_drop_storm_requires_stage(self):
        with pytest.raises(ConfigError, match="drop_storm"):
            FaultSpec(kind="drop_storm")

    def test_engine_faults_still_route_to_pipeline(
        self, acl_small, zipf_small
    ):
        overlay = {"backend": "hypercuts", "fault_policy": "retry"}
        spec = default_graph(overlay, cache_entries=0)
        plan = FaultPlan(specs=(FaultSpec(kind="crash", chunk=0),))
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(zipf_small, faults=plan, segment_packets=1000)
        assert report.fault is not None
        assert report.fault.faults >= 1
        assert report.n_packets == zipf_small.n_packets

    def test_stage_retry_sleeps_the_backoff_and_times_recovery(
        self, acl_small, zipf_small
    ):
        overlay = {"backend": "hypercuts", "fault_policy": "retry"}
        spec = default_graph(overlay, cache_entries=0)
        plan = FaultPlan(
            specs=(FaultSpec(kind="error", stage="rewrite", segment=0),)
        )
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(zipf_small, faults=plan, segment_packets=1000)
            base_s = graph.engine.pipeline.policy.backoff_base_s
        rewrite = next(s for s in report.stages if s.kind == "rewrite")
        assert rewrite.retries == 1
        assert report.fault.retries == 1
        assert len(report.fault.recovery_s) == 1
        assert report.fault.recovery_s[0] >= base_s > 0


# ---------------------------------------------------------------------------
# File sources and quarantine propagation
# ---------------------------------------------------------------------------


class TestFileSource:
    def test_quarantined_lines_reach_report_to_dict(
        self, acl_small, tmp_path
    ):
        path = tmp_path / "trace.txt"
        path.write_text(
            "# comment line\n"
            "16909060 84281096 80 443 6\n"
            "1.2.3.4 dotted quad is malformed\n"
            "16909060 84281096 80 443 17\n"
            "16909060 84281096 80\n"
        )
        spec = default_graph({"backend": "hypercuts"}, cache_entries=0)
        with StageGraph(spec, acl_small) as graph:
            report = graph.run(str(path), segment_packets=100)
        assert report.n_packets == 2
        assert report.fault is not None
        assert report.fault.quarantined == 2
        assert report.to_dict()["fault"]["quarantined"] == 2
        parse = next(s for s in report.stages if s.kind == "parse")
        assert parse.drops == {"malformed": 2}
        assert parse.packets_in == 4  # 2 good + 2 dead-lettered
        reasons = {r for _, _, r in graph.engine.quarantine.entries}
        assert any("columns" in r for r in reasons)
        assert any("non-numeric" in r for r in reasons)

    def test_parse_raise_policy_propagates(self, acl_small, tmp_path):
        from repro.core.errors import PacketFormatError

        path = tmp_path / "bad.txt"
        path.write_text("not a packet\n")
        spec = StageGraphSpec(
            stages=(
                StageSpec(kind="parse", params={"on_malformed": "raise"}),
                StageSpec(
                    kind="classify",
                    params={"engine": {"backend": "hypercuts"}},
                ),
            )
        )
        with StageGraph(spec, acl_small) as graph:
            with pytest.raises(PacketFormatError):
                graph.run(str(path))
