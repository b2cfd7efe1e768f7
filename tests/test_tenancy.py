"""Multi-tenant serving: the tenancy design contract.

Pins the four design points of :mod:`repro.serve.tenancy` — isolation
by construction (bit-identical per-tenant results, epoch bumps never
cross tenants), the single forked-worker lease, weighted-fair
deficit-round-robin admission, and fault containment — plus the
``serve`` CLI entry.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.classbench import (
    generate_ruleset,
    generate_trace,
    generate_update_stream,
)
from repro.core.errors import ConfigError
from repro.engine.faults import FaultSpec
from repro.serve import (
    Engine,
    EngineConfig,
    MultiTenantEngine,
    TenantSpec,
)
from repro.serve.tenancy import _PoolLease

CONFIG = EngineConfig(backend="linear", chunk_size=256)


def make_fleet(n=3, rules=80, packets=1024, weights=(), config=CONFIG):
    """N tenants with distinct rulesets/traces + their workloads."""
    weights = dict(weights)
    tenants, workloads = [], {}
    for i in range(n):
        name = f"t{i}"
        ruleset = generate_ruleset("acl1", rules, seed=301 + i)
        spec = TenantSpec(name, config, weight=weights.get(name, 1.0))
        tenants.append((spec, ruleset))
        workloads[name] = generate_trace(ruleset, packets, seed=401 + i)
    return tenants, workloads


def isolated_matches(tenants, workloads):
    """Each tenant's match array from a private single-tenant session."""
    out = {}
    for spec, ruleset in tenants:
        with Engine.open(spec.config, ruleset) as engine:
            out[spec.name] = engine.classify(workloads[spec.name]).match
    return out


# ---------------------------------------------------------------------------
# TenantSpec
# ---------------------------------------------------------------------------
class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ConfigError, match="non-empty"):
            TenantSpec("")
        with pytest.raises(ConfigError, match="weight"):
            TenantSpec("a", CONFIG, weight=0.0)
        with pytest.raises(ConfigError, match="config"):
            TenantSpec("a", config="linear")

    def test_dict_config_is_coerced(self):
        spec = TenantSpec("a", {"backend": "linear", "chunk_size": 64})
        assert isinstance(spec.config, EngineConfig)
        assert spec.config.chunk_size == 64

    def test_round_trip_and_unknown_keys(self):
        spec = TenantSpec("gold", CONFIG, weight=2.5)
        again = TenantSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        with pytest.raises(ConfigError, match="unknown TenantSpec"):
            TenantSpec.from_dict({"name": "a", "wight": 2})


# ---------------------------------------------------------------------------
# Session construction
# ---------------------------------------------------------------------------
class TestConstruction:
    def test_duplicate_names_rejected(self, acl_small):
        with pytest.raises(ConfigError, match="duplicate tenant"):
            MultiTenantEngine.open([("a", acl_small), ("a", acl_small)])

    def test_needs_at_least_one_tenant(self):
        with pytest.raises(ConfigError, match="at least one"):
            MultiTenantEngine.open([])

    def test_spec_coercion_and_registration_order(self, acl_small):
        with MultiTenantEngine.open([
            ("plain", acl_small),
            ({"name": "fromdict", "weight": 2.0}, acl_small),
            (TenantSpec("full", CONFIG), acl_small),
        ]) as mte:
            assert mte.names == ("plain", "fromdict", "full")
            assert mte.spec("fromdict").weight == 2.0
            assert mte.engine("full").config == CONFIG

    def test_unknown_workload_name_rejected(self, acl_small):
        tenants, workloads = make_fleet(1)
        with MultiTenantEngine.open(tenants) as mte:
            with pytest.raises(ConfigError, match="unknown tenant"):
                mte.serve({"nobody": workloads["t0"]})
            with pytest.raises(ConfigError, match="unknown tenant"):
                mte.engine("nobody")


# ---------------------------------------------------------------------------
# Isolation by construction
# ---------------------------------------------------------------------------
class TestIsolation:
    def test_per_tenant_results_bit_identical_to_isolated_runs(self):
        tenants, workloads = make_fleet(3)
        want = isolated_matches(tenants, workloads)
        with MultiTenantEngine.open(tenants) as mte:
            report = mte.serve(workloads, segment_packets=256)
        assert report.backend == "multi-tenant"
        assert report.n_packets == sum(t.n_packets for t in workloads.values())
        by_name = {t.name: t for t in report.tenants}
        assert set(by_name) == set(want)
        for name, match in want.items():
            assert np.array_equal(by_name[name].report.match, match)

    def test_epoch_bump_never_crosses_tenants(self):
        config = EngineConfig(
            backend="hypercuts", chunk_size=256, updatable=True,
            cache_entries=256,
        )
        tenants, workloads = make_fleet(2, config=config)
        updates = {
            "t0": generate_update_stream(
                tenants[0][1], 12, workloads["t0"].n_packets,
                batch_size=4, seed=77,
            )
        }
        want = isolated_matches(tenants, workloads)
        with MultiTenantEngine.open(tenants) as mte:
            report = mte.serve(workloads, segment_packets=256, updates=updates)
            quiet_cache = mte.engine("t1").classifier.cache
            # The updating tenant's epoch advanced; the quiet tenant's
            # cache saw no invalidation and its epoch never moved.
            assert quiet_cache.stats.invalidations == 0
        by_name = {t.name: t for t in report.tenants}
        assert by_name["t0"].report.update_ops > 0
        assert by_name["t0"].report.final_epoch > 0
        assert not by_name["t1"].report.update_ops
        assert (by_name["t1"].report.final_epoch or 0) == 0
        # The quiet tenant's output is byte-for-byte the isolated run.
        assert np.array_equal(by_name["t1"].report.match, want["t1"])

    def test_streamed_chunks_cover_every_tenant_in_order(self):
        tenants, workloads = make_fleet(2)
        with MultiTenantEngine.open(tenants) as mte:
            seen: dict[str, list] = {"t0": [], "t1": []}
            for name, chunk in mte.stream(workloads, segment_packets=256):
                seen[name].append(chunk)
        for name, chunks in seen.items():
            assert [c.index for c in chunks] == list(range(len(chunks)))
            assert sum(c.n_packets for c in chunks) == 1024
            starts = [c.start for c in chunks]
            assert starts == sorted(starts)


# ---------------------------------------------------------------------------
# Weighted-fair admission
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_deficit_round_robin_honours_weights(self):
        tenants, workloads = make_fleet(2, weights={"t0": 2.0})
        with MultiTenantEngine.open(tenants) as mte:
            order = [
                name for name, _chunk
                in mte.stream(workloads, segment_packets=256, quantum=256)
            ]
        # Round one credits t0 two segments' worth and t1 one.
        assert order[:3] == ["t0", "t0", "t1"]
        assert order.count("t0") == order.count("t1") == 4

    def test_quantum_must_be_positive(self):
        tenants, workloads = make_fleet(1)
        with MultiTenantEngine.open(tenants) as mte:
            with pytest.raises(ConfigError, match="quantum"):
                list(mte.stream(workloads, quantum=0))

    def test_quantum_is_checked_at_the_call(self):
        # Like the workloads: a bad quantum raises before any generator
        # is handed back, not at the first next().
        tenants, workloads = make_fleet(1)
        with MultiTenantEngine.open(tenants) as mte:
            with pytest.raises(ConfigError, match="quantum"):
                mte.stream(workloads, quantum=0)

    def test_oversized_segments_still_serve(self):
        # A segment bigger than one round's credit must not starve: the
        # deficit accumulates across rounds until the segment fits.
        tenants, workloads = make_fleet(2, weights={"t0": 2.0})
        with MultiTenantEngine.open(tenants) as mte:
            report = mte.serve(workloads, segment_packets=1024, quantum=64)
        assert all(t.n_packets == 1024 for t in report.tenants)


# ---------------------------------------------------------------------------
# The forked-worker lease
# ---------------------------------------------------------------------------
class _FakePipeline:
    def __init__(self, plans_fork=True):
        self._plans_fork = plans_fork
        self.closed = 0

    def plan(self, packets, updates=False):
        return SimpleNamespace(forks=self._plans_fork)

    def close(self):
        self.closed += 1


class TestPoolLease:
    def test_at_most_one_holder_with_handover(self):
        lease = _PoolLease()
        a, b = _FakePipeline(), _FakePipeline()
        lease.admit("a", a, 512)
        assert lease.holder == "a"
        lease.admit("a", a, 512)
        assert (lease.holder, a.closed) == ("a", 0)
        lease.admit("b", b, 512)  # handover tears the previous pool down
        assert (lease.holder, a.closed, b.closed) == ("b", 1, 0)
        lease.release("a")  # not the holder: no-op
        assert lease.holder == "b"
        lease.release("b")
        assert (lease.holder, b.closed) == (None, 1)

    def test_non_forking_plans_never_take_the_lease(self):
        lease = _PoolLease()
        lease.admit("a", _FakePipeline(plans_fork=False), 512)
        assert lease.holder is None
        lease.close()

    def test_close_drops_the_holder(self):
        lease = _PoolLease()
        p = _FakePipeline()
        lease.admit("a", p, 512)
        lease.close()
        assert (lease.holder, p.closed) == (None, 1)

    def test_forking_tenants_never_hold_workers_together(self):
        """Every forking pipeline holds its workers between runs, so
        the lease must cover ``persistent=False`` tenants too: after
        each admitted segment only the tenant just served may have
        workers alive."""
        config = EngineConfig(
            backend="linear", chunk_size=256, shards=2, persistent=False,
            shard_mode="processes", min_chunk_packets=0,
        )
        tenants, workloads = make_fleet(2, config=config)
        want = isolated_matches(tenants, workloads)
        got = {name: [] for name in workloads}
        with MultiTenantEngine.open(tenants) as mte:
            if not mte.engine("t0").pipeline._fork_available():
                pytest.skip("fork multiprocessing unavailable")
            for name, chunk in mte.stream(workloads, segment_packets=512):
                got[name].append(chunk.match)
                engaged = [
                    t for t in mte.names if mte.engine(t).pool_engaged
                ]
                assert engaged == [name] == [mte.pool_holder]
        assert not any(mte.engine(t).pool_engaged for t in mte.names)
        for name in workloads:
            assert np.array_equal(np.concatenate(got[name]), want[name])


    def test_an_inline_tenant_leaves_the_holder_its_workers(
        self, monkeypatch
    ):
        """The lease asks the plan of the segment it admits.  On two
        CPUs an ``auto`` tenant's 512-packet segments plan inline (below
        2 x 4096 packets), so its turns never take the lease: the
        forking tenant keeps the lease and the same held workers from
        its first segment to its last."""
        from repro.algorithms import native

        monkeypatch.setattr(native, "host_cpus", lambda: 2)
        base = dict(backend="linear", chunk_size=256, shards=2)
        configs = {
            "fork": EngineConfig(
                **base, shard_mode="processes", min_chunk_packets=0
            ),
            "inline": EngineConfig(
                **base, shard_mode="auto", min_chunk_packets=4096
            ),
        }
        tenants, workloads = [], {}
        for i, (name, config) in enumerate(configs.items()):
            ruleset = generate_ruleset("acl1", 80, seed=301 + i)
            tenants.append((TenantSpec(name, config), ruleset))
            workloads[name] = generate_trace(ruleset, 2048, seed=401 + i)
        want = isolated_matches(tenants, workloads)
        got = {name: [] for name in workloads}
        pids = set()
        with MultiTenantEngine.open(tenants) as mte:
            if not mte.engine("fork").pipeline._fork_available():
                pytest.skip("fork multiprocessing unavailable")
            for name, chunk in mte.stream(workloads, segment_packets=512):
                got[name].append(chunk.match)
                assert mte.pool_holder == "fork"
                assert not mte.engine("inline").pool_engaged
                workers = mte.engine("fork").pipeline._workers
                pids.add(tuple(proc.pid for proc in workers.procs))
        assert len(got["inline"]) == 4 and len(pids) == 1
        for name in workloads:
            assert np.array_equal(np.concatenate(got[name]), want[name])


# ---------------------------------------------------------------------------
# Fault containment
# ---------------------------------------------------------------------------
class TestFaultContainment:
    def test_faulted_tenant_leaves_others_bit_identical(self):
        tenants, workloads = make_fleet(3)
        want = isolated_matches(tenants, workloads)
        with MultiTenantEngine.open(tenants) as mte:
            def boom(*args, **kwargs):
                raise RuntimeError("injected tenant fault")

            mte.engine("t1").pipeline.run = boom
            report = mte.serve(workloads, segment_packets=256)
        by_name = {t.name: t for t in report.tenants}
        assert by_name["t1"].fault == "RuntimeError: injected tenant fault"
        assert by_name["t1"].n_packets == 0
        for name in ("t0", "t2"):
            assert by_name[name].fault is None
            assert np.array_equal(by_name[name].report.match, want[name])

    def test_fault_lands_in_the_aggregate_dict(self):
        tenants, workloads = make_fleet(2)
        with MultiTenantEngine.open(tenants) as mte:
            def boom(*args, **kwargs):
                raise ValueError("bad arena")

            mte.engine("t0").pipeline.run = boom
            report = mte.serve(workloads, segment_packets=256)
        data = report.to_dict()
        faults = {t["name"]: t.get("fault") for t in data["tenants"]}
        assert faults["t0"] == "ValueError: bad arena"
        assert faults.get("t1") is None


    @pytest.mark.parametrize("policy", ["retry", "fail"])
    def test_tenants_honour_ingest_fault_specs(self, policy):
        # Tenants ride Engine.stream, so an ``ingest`` spec fires at the
        # tenant's source pull like in a single session: retried in
        # place (no segment lost) or, under "fail", terminal for that
        # tenant only.
        config = EngineConfig(
            backend="linear", chunk_size=256, fault_policy=policy
        )
        tenants, workloads = make_fleet(3, config=config)
        want = isolated_matches(tenants, workloads)
        with MultiTenantEngine.open(tenants) as mte:
            clean = mte.serve(workloads, segment_packets=256)
        with MultiTenantEngine.open(tenants) as mte:
            report = mte.serve(
                workloads, segment_packets=256,
                faults={"t1": [FaultSpec(kind="ingest", segment=1)]},
            )
        by_name = {t.name: t for t in report.tenants}
        hit = by_name["t1"]
        if policy == "retry":
            assert hit.fault is None
            assert hit.report.fault.ingest_retries == 1
            assert hit.n_segments == 4
            assert np.array_equal(hit.report.match, want["t1"])
        else:
            assert hit.fault.startswith("ServingFaultError")
            assert hit.n_segments == 1  # segment 0 served, then out
        for other in clean.tenants:
            if other.name == "t1":
                continue
            got = by_name[other.name]
            assert got.fault is None and not got.report.fault.any()
            assert np.array_equal(got.report.match, want[other.name])
            for key in (
                "n_packets", "matched", "n_segments", "n_chunks",
                "cache_hits", "cache_misses", "update_batches",
            ):
                assert getattr(got.report, key) == getattr(other.report, key)


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------
class TestReporting:
    def test_slo_percentiles_and_throughput(self):
        tenants, workloads = make_fleet(2)
        with MultiTenantEngine.open(tenants) as mte:
            report = mte.serve(workloads, segment_packets=256)
        for tenant in report.tenants:
            slo = tenant.slo
            assert slo is not None
            assert slo["batches"] == tenant.n_segments == 4
            assert 0 < slo["p50_ms"] <= slo["p95_ms"] <= slo["p99_ms"]
            assert tenant.busy_s > 0
            assert tenant.throughput_pps > 0

    def test_aggregate_report_is_json_safe(self):
        tenants, workloads = make_fleet(2)
        with MultiTenantEngine.open(tenants) as mte:
            report = mte.serve(workloads, segment_packets=256)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["backend"] == "multi-tenant"
        assert [t["name"] for t in data["tenants"]] == ["t0", "t1"]
        for tenant in data["tenants"]:
            assert tenant["n_packets"] == 1024
            assert "slo" in tenant or "latency" not in tenant


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestServeCli:
    def test_serve_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        engine_json = tmp_path / "engine.json"
        engine_json.write_text(json.dumps(
            {"backend": "linear", "chunk_size": 256}
        ))
        tenants_json = tmp_path / "tenants.json"
        tenants_json.write_text(json.dumps([
            {"name": "gold", "weight": 2.0, "rules": 60, "seed": 11,
             "packets": 600},
            {"name": "bronze", "rules": 60, "seed": 23, "packets": 600,
             "zipf": 1.0, "flows": 32},
        ]))
        out_json = tmp_path / "report.json"
        rc = main([
            "serve", "--config", str(engine_json),
            "--tenants", str(tenants_json),
            "--segment-packets", "256", "-o", str(out_json),
        ])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "classified 1200 packets" in captured
        assert "2 tenants:" in captured
        assert "gold" in captured and "bronze" in captured
        data = json.loads(out_json.read_text())
        assert [t["name"] for t in data["tenants"]] == ["gold", "bronze"]

    def test_serve_rejects_unknown_tenant_keys(self, tmp_path, capsys):
        from repro.cli import main

        tenants_json = tmp_path / "tenants.json"
        tenants_json.write_text(json.dumps([{"name": "a", "rulez": 60}]))
        rc = main(["serve", "--tenants", str(tenants_json)])
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err
