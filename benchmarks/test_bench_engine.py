"""Benchmarks: the engine pipeline, flat-tree kernels, and batch oracles.

Tracks the serving subsystem this repo is growing toward: pipeline
throughput at 1/2/4 shards over the accelerator backend, the compiled
flat-array traversal kernel against the object-walking reference it
replaced, and the vectorised tuple-space batch lookup against the
per-packet scalar loop (the conformance oracle).

Every measurement lands in ``BENCH_engine.json`` at the repo root (CI
uploads it as a workflow artifact), so the performance trajectory is
tracked across PRs: pps, speedup ratios, and the hard gates — first
among them the flat kernel's >= 5x over the reference traversal.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import generate_ruleset, generate_trace, generate_zipf_trace
from repro.algorithms import TupleSpaceClassifier, build_hicuts, native
from repro.algorithms.flat_tree import FlatTree
from repro.algorithms.incremental import IncrementalClassifier
from repro.classbench import churn_schedule, generate_update_stream
from repro.energy import CacheEnergyModel
from repro.engine import (
    CachedClassifier,
    ClassificationPipeline,
    FaultSpec,
    FlowCache,
    SupervisionPolicy,
    build_backend,
)
from repro.serve import (
    Engine,
    EngineConfig,
    MultiTenantEngine,
    TenantSpec,
    iter_trace_file,
    iter_trace_segments,
)

pytestmark = pytest.mark.bench

#: Perf numbers recorded by the tests in this module; dumped to
#: ``BENCH_engine.json`` when the module finishes.
_PERF: dict = {}

_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: The six ``BatchLookup`` fields the kernel gates hold identical.
_FIELDS = (
    "match", "internal_nodes", "leaf_id", "leaf_size", "match_pos",
    "rules_compared",
)


def _host_fingerprint() -> dict:
    """The ledger's host fingerprint (``benchmarks/ledger/run.py``'s
    ``fingerprint``: CPU count and model, Python, NumPy, platform,
    commit), so both perf artifacts name the host the same way, plus
    ``native.status()``'s kernel and compiler version line."""
    ledger = Path(__file__).resolve().parent / "ledger"
    sys.path.insert(0, str(ledger))  # run.py imports its siblings by name
    try:
        spec = importlib.util.spec_from_file_location(
            "ledger_run", ledger / "run.py"
        )
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(ledger))
    # Plus which FlatTree kernel served (and what built it): a pps row
    # is never compared across kernels (``HOST_FIELDS``).
    status = native.status()
    return {
        **run.fingerprint(),
        "kernel": status["kernel"], "compiler": status["compiler"],
    }


@pytest.fixture(scope="module", autouse=True)
def bench_artifact():
    """Write every recorded measurement, stamped with the host it was
    taken on, to the perf artifact."""
    yield
    if _PERF:
        stamped = {**_PERF, "fingerprint": _host_fingerprint()}
        _ARTIFACT.write_text(
            json.dumps(stamped, indent=2, sort_keys=True) + "\n"
        )


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall-clock of ``repeats`` calls (damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _on_native(measure):
    """``measure()`` on the native kernel — the ungated ``*_native``
    reading the portable-pinned gates record beside the gated one — or
    ``None`` on a host where the library did not load."""
    return measure() if native.status()["kernel"] == "native" else None


@pytest.fixture(scope="module")
def acl1k_engine_accelerator(acl1k):
    return build_backend("accelerator", acl1k)


@pytest.fixture(scope="module")
def acl1k_tss(acl1k):
    clf = TupleSpaceClassifier(acl1k)
    clf.classify_batch(np.empty((0, 5), dtype=np.uint32))  # warm batch tables
    return clf


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_pipeline_throughput(benchmark, acl1k_engine_accelerator, acl1k_trace, shards):
    """Sharded streaming over the accelerator backend (20k packets)."""
    pipeline = ClassificationPipeline(
        acl1k_engine_accelerator, chunk_size=2048, shards=shards
    )
    res = benchmark(lambda: pipeline.run(acl1k_trace))
    assert res.n_packets == acl1k_trace.n_packets
    assert res.mean_occupancy() is not None


def test_tuple_space_batch(benchmark, acl1k_tss, acl1k_trace):
    """Vectorised TSS batch lookup over the full 20k-packet trace."""
    out = benchmark(lambda: acl1k_tss.classify_batch(acl1k_trace.headers))
    assert out.shape == (acl1k_trace.n_packets,)


def test_tuple_space_scalar_loop(benchmark, acl1k_tss, acl1k_trace):
    """The seed's per-packet loop (small slice; it is the oracle path)."""
    sub = acl1k_trace.headers[:500]
    benchmark(
        lambda: np.asarray([acl1k_tss.classify(row) for row in sub])
    )


def test_tuple_space_speedup_at_least_10x(acl1k_tss, acl1k_trace):
    """Acceptance gate: vectorised batch >= 10x the seed scalar loop on
    the 1k-rule benchmark ruleset."""
    headers = acl1k_trace.headers[:2000]
    t0 = time.perf_counter()
    scalar = np.asarray([acl1k_tss.classify(row) for row in headers])
    t_scalar = time.perf_counter() - t0
    acl1k_tss.classify_batch(headers)  # warm
    t0 = time.perf_counter()
    batch = acl1k_tss.classify_batch(headers)
    t_batch = time.perf_counter() - t0
    assert np.array_equal(scalar, batch)
    speedup = t_scalar / t_batch
    assert speedup >= 10, f"vectorised TSS only {speedup:.1f}x faster"


def test_registry_build_hypercuts(benchmark, acl1k):
    """Backend construction cost through the registry."""
    benchmark(lambda: build_backend("hypercuts", acl1k, binth=30, hw_mode=True))


# ---------------------------------------------------------------------------
# Flat-array traversal kernel vs the object-walking reference
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def acl10k_hw_tree(acl10k):
    """The gate workload's tree: the accelerator's default algorithm
    (modified HyperCuts, one-word leaves)."""
    return build_backend(
        "hypercuts", acl10k, binth=30, spfac=4, hw_mode=True
    ).tree


def test_flat_kernel_speedup_gate(acl10k_hw_tree, acl10k_trace):
    """Acceptance gate: the compiled FlatTree kernel is bit-for-bit
    identical to the reference batch traversal and >= 5x faster on the
    10k-rule / 100k-packet workload."""
    tree = acl10k_hw_tree
    flat = tree.flat  # compiled form (cached on the tree)
    ref = tree.batch_lookup_reference(acl10k_trace)
    got = flat.batch_lookup(acl10k_trace)
    for field in _FIELDS:
        assert np.array_equal(getattr(ref, field), getattr(got, field)), field
    t_ref = _best_of(lambda: tree.batch_lookup_reference(acl10k_trace))
    t_flat = _best_of(lambda: flat.batch_lookup(acl10k_trace))
    speedup = t_ref / t_flat
    _PERF["flat_kernel_gate"] = {
        "rules": 10_000,
        "packets": acl10k_trace.n_packets,
        "reference_s": round(t_ref, 4),
        "flat_s": round(t_flat, 4),
        "speedup": round(speedup, 2),
        "flat_pps": round(acl10k_trace.n_packets / t_flat),
    }
    assert speedup >= 5, f"flat kernel only {speedup:.1f}x the reference"


def _kernel_miss():
    """The ledger's ``kernel_miss`` shape: its ruleset and one new flow
    per packet (~16 rule pairs expanded per packet)."""
    rules = generate_ruleset("acl1", 2500, seed=11)
    return rules, generate_zipf_trace(
        rules, 65_536, n_flows=65_536, skew=0.0, seed=8
    )


def _kernel_miss_flat():
    """:func:`_kernel_miss`'s compiled tree (the accelerator's: modified
    HyperCuts, one-word leaves) and traffic."""
    rules, large = _kernel_miss()
    flat = build_backend(
        "hypercuts", rules, binth=30, spfac=4, hw_mode=True
    ).tree.flat
    return flat, large


def test_flat_kernel_scaling_gate(portable_kernel):
    """Acceptance gate: a packet costs the portable kernel no more in a
    large dispatch than in a small one — pps of one 65,536-packet
    ``batch_lookup`` is >= 0.8x the pps at 4,096 packets.  Same tree,
    same run, the two sizes interleaved, so the ratio carries no host
    speed.  The workload is the ledger's ``kernel_miss``.  The engine
    coalesces dispatches to 65,536 packets for IPC's sake; an untiled
    NumPy walk's pair temporaries then outgrow the cache and the ratio
    falls to 0.6-0.8.  Taken under ``portable_kernel``: tiles exist on
    that walk only (the C loop has no temporaries, and its fixed call
    cost makes the ratio >= 1 by construction)."""
    flat, large = _kernel_miss_flat()
    small = large.subset(4_096)
    t_small = t_large = float("inf")
    with portable_kernel():
        for _ in range(5):
            t_small = min(
                t_small, _best_of(lambda: flat.batch_lookup(small), repeats=4)
            )
            t_large = min(
                t_large, _best_of(lambda: flat.batch_lookup(large), repeats=1)
            )
    pps_small = small.n_packets / t_small
    pps_large = large.n_packets / t_large
    ratio = pps_large / pps_small
    _PERF["flat_kernel_scaling"] = {
        "rules": 2500,
        "small_packets": small.n_packets,
        "large_packets": large.n_packets,
        "small_pps": round(pps_small),
        "large_pps": round(pps_large),
        "large_over_small": round(ratio, 3),
    }
    assert ratio >= 0.8, (
        f"kernel at 65,536 packets runs at {ratio:.2f}x its 4,096-packet pps"
    )


def test_native_kernel_gate(portable_kernel):
    """Acceptance gate: the native walk (``_flat_walk.c``) is identical
    to the portable NumPy walk on all six ``BatchLookup`` fields and
    >= 5x faster on one 65,536-packet ``batch_lookup`` of the
    ``flat_kernel_scaling`` workload, the two kernels interleaved in one
    run.  Skipped — with ``native.status()``'s reason, never a silent
    pass — on a host where the library could not be built or loaded."""
    status = native.status()
    if status["kernel"] != "native":
        pytest.skip(f"native kernel unavailable: {status['reason']}")
    flat, trace = _kernel_miss_flat()
    got = flat.batch_lookup(trace)
    with portable_kernel():
        want = flat.batch_lookup(trace)
    for field in _FIELDS:
        a, b = getattr(want, field), getattr(got, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    t_native = t_portable = float("inf")
    for _ in range(5):
        t_native = min(t_native, _best_of(lambda: flat.batch_lookup(trace)))
        with portable_kernel():
            t_portable = min(
                t_portable, _best_of(lambda: flat.batch_lookup(trace), 1)
            )
    speedup = t_portable / t_native
    _PERF["native_kernel"] = {
        "rules": 2500,
        "packets": trace.n_packets,
        "portable_pps": round(trace.n_packets / t_portable),
        "native_pps": round(trace.n_packets / t_native),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 5, f"native walk only {speedup:.1f}x the portable one"


def test_accelerator_occupancy_gate(portable_kernel):
    """Acceptance gate: the paper's cycle model costs the walk it models
    at most 15%.  ``AcceleratorClassifier.batch_stats`` — matches plus
    each packet's eq (5)/(7) occupancy, counted by the C loop as it
    finishes the packet — serves >= 0.85x the pps of the bare
    ``flat.batch_match`` over the same tree, on one 65,536-packet
    dispatch of the ``kernel_miss`` workload, the two interleaved in one
    run; both fields bit-identical to the portable path (the NumPy
    formula over ``batch_lookup``).  Skipped — with ``native.status()``'s
    reason — on a host where the library could not be built or loaded."""
    status = native.status()
    if status["kernel"] != "native":
        pytest.skip(f"native kernel unavailable: {status['reason']}")
    rules, trace = _kernel_miss()
    accelerator = build_backend("accelerator", rules)
    flat, headers = accelerator.tree.flat, trace.headers
    got = accelerator.batch_stats(headers)
    with portable_kernel():
        want = accelerator.batch_stats(headers)
    for field in ("match", "occupancy"):
        a, b = getattr(want, field), getattr(got, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    t_match = t_stats = float("inf")
    for _ in range(5):
        t_match = min(t_match, _best_of(lambda: flat.batch_match(headers)))
        t_stats = min(
            t_stats, _best_of(lambda: accelerator.batch_stats(headers))
        )
    ratio = t_match / t_stats
    _PERF["accelerator_occupancy"] = {
        "rules": 2500,
        "packets": trace.n_packets,
        "match_pps": round(trace.n_packets / t_match),
        "batch_stats_pps": round(trace.n_packets / t_stats),
        "ratio": round(ratio, 3),
    }
    assert ratio >= 0.85, (
        f"batch_stats serves {ratio:.2f}x the bare walk's pps"
    )


@pytest.mark.parametrize("algorithm", ["hicuts", "hypercuts"])
def test_flat_batch_lookup(benchmark, algorithm, acl10k, acl10k_trace):
    """Flat-kernel throughput per tree algorithm (10k rules, hw mode)."""
    tree = build_backend(
        algorithm, acl10k, binth=30, spfac=4, hw_mode=True
    ).tree
    out = benchmark(lambda: tree.batch_lookup(acl10k_trace))
    _PERF.setdefault("flat_pps", {})[algorithm] = round(
        acl10k_trace.n_packets / benchmark.stats.stats.min
    )
    assert out.n_packets == acl10k_trace.n_packets


def test_object_reference_batch_lookup(benchmark, acl10k, acl10k_trace):
    """The replaced per-node-grouping traversal, kept for the trajectory
    comparison (same workload as the flat benchmarks)."""
    tree = build_hicuts(acl10k, binth=30, spfac=4, hw_mode=True)
    benchmark(lambda: tree.batch_lookup_reference(acl10k_trace))


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_persistent_pipeline_throughput(
    benchmark, acl1k_engine_accelerator, acl1k_trace, shards
):
    """Sharded streaming at the engine's serving defaults (20k packets).

    Runs ``shard_mode="auto"`` with the >= 64k-packet dispatch target —
    the configuration :class:`~repro.serve.EngineConfig` serves by
    default.  Display-only: the ``auto_pipeline_pps`` shards axis the
    monotone gate enforces is recorded by
    ``test_pipeline_shards_monotone_gate`` (interleaved rounds).
    """
    with ClassificationPipeline(
        acl1k_engine_accelerator, chunk_size=2048, shards=shards,
        shard_mode="auto", min_chunk_packets=65536,
    ) as pipeline:
        pipeline.run(acl1k_trace)  # fork/warm outside the timed region
        res = benchmark(lambda: pipeline.run(acl1k_trace))
    assert res.n_packets == acl1k_trace.n_packets


# ---------------------------------------------------------------------------
# Fault recovery: the cost of absorbing one worker crash
# ---------------------------------------------------------------------------
def test_fault_recovery_gate(acl1k_engine_accelerator, acl1k, portable_kernel):
    """Acceptance gate: a supervised run that absorbs one injected
    worker crash (detect via the exit-code watch, tear the workers
    down, re-fork, whole-dispatch replay) still delivers >= 0.5x the
    fault-free throughput on the same 200k-packet workload,
    bit-identically.  Lands as ``fault_recovery`` in
    ``BENCH_engine.json``; ``retried_throughput_ratio`` is gated by
    ``compare_baseline.py`` (a ratio of same-machine wall clocks, so it
    is runner-insensitive the way the other gated speedups are).

    Taken under ``portable_kernel`` (workers forked inside the block
    inherit it): the recovery is a fixed cost — teardown, re-fork, one
    replayed dispatch — priced against a fault-free run that is the
    kernel, and the 0.5 floor was derived on the NumPy walk.
    ``retried_throughput_ratio_native`` (ungated) is the same reading on
    the native kernel, where the fault-free run is several times
    shorter and the same recovery is a larger share of it."""
    trace = generate_trace(acl1k, 200_000, seed=83)
    policy = SupervisionPolicy(
        fault_policy="retry", max_retries=2,
        backoff_base_s=0.0, backoff_max_s=0.0,
    )

    def measure():
        with ClassificationPipeline(
            acl1k_engine_accelerator, chunk_size=2048, shards=2,
            shard_mode="processes", policy=policy,
        ) as pipeline:
            if not pipeline._fork_available():  # pragma: no cover - non-fork
                pytest.skip("fork multiprocessing unavailable")
            want = pipeline.run(trace)  # warm lazily-built structures
            t_free = _best_of(lambda: pipeline.run(trace), repeats=3)
            t_fault = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                res = pipeline.run(
                    trace, faults=[FaultSpec(kind="crash", chunk=1)]
                )
                t_fault = min(t_fault, time.perf_counter() - t0)
                assert np.array_equal(res.match, want.match)
                assert res.fault.worker_crashes == 1 and res.fault.retries == 1
        return t_free, t_fault, max(res.fault.recovery_s)

    with portable_kernel():
        t_free, t_fault, recovery_s = measure()
    ratio = t_free / t_fault
    _PERF["fault_recovery"] = {
        "packets": trace.n_packets,
        "fault_free_pps": round(trace.n_packets / t_free),
        "retried_pps": round(trace.n_packets / t_fault),
        "retried_throughput_ratio": round(ratio, 2),
        "recovery_max_s": round(recovery_s, 5),
    }
    on_native = _on_native(measure)
    if on_native:
        _PERF["fault_recovery"] |= {
            "fault_free_pps_native": round(trace.n_packets / on_native[0]),
            "retried_throughput_ratio_native": round(
                on_native[0] / on_native[1], 2
            ),
        }
    assert ratio >= 0.5, f"retried run only {ratio:.2f}x fault-free"


# ---------------------------------------------------------------------------
# Flow-cache front-end on a Zipf-skewed trace
# ---------------------------------------------------------------------------
def test_flowcache_zipf_gate(acl1k_tss, acl1k_zipf_trace):
    """Acceptance gate: on a Zipf(1.0) trace the flow cache serves the
    hot flows, cutting effective memory accesses per lookup >= 2x below
    the bare backend (tuple space: 267 worst-case accesses at 1k rules),
    bit-identically.  Hit rate and the hit/miss energy split land in
    ``BENCH_engine.json``."""
    bare = acl1k_tss
    trace = acl1k_zipf_trace
    want = bare.classify_trace(trace)
    cached = CachedClassifier(bare, entries=4096, ways=4)
    got = cached.classify_trace(trace)
    assert np.array_equal(got, want)

    hit_rate = cached.cache.stats.hit_rate
    model = CacheEnergyModel.for_classifier(cached)
    effective = model.effective_accesses_per_lookup(hit_rate)
    speedup = model.effective_lookup_speedup(hit_rate)
    # Deduplicated misses mean the backend only ever sees each flow
    # once: lookups served per backend lookup.
    lookup_reduction = trace.n_packets / cached.cache.stats.misses

    # Wall clock: warm cached pass vs the bare backend on the same trace.
    t_bare = _best_of(lambda: bare.classify_trace(trace))
    t_cached = _best_of(lambda: cached.classify_trace(trace))

    _PERF["flowcache"] = {
        "backend": "tuple_space",
        "entries": cached.cache.entries,
        "ways": cached.cache.ways,
        "flows": 512,
        "zipf_skew": 1.0,
        "packets": trace.n_packets,
        "hit_rate": round(hit_rate, 4),
        "backend_lookup_reduction": round(lookup_reduction, 2),
        "backend_accesses_per_lookup": model.backend_accesses,
        "effective_accesses_per_lookup": round(effective, 3),
        "effective_lookup_speedup": round(speedup, 2),
        "energy_per_packet_j": model.energy_per_packet_j(hit_rate),
        "energy_per_packet_uncached_j": model.uncached_energy_per_packet_j(),
        "bare_s": round(t_bare, 4),
        "cached_s": round(t_cached, 4),
        "wall_speedup": round(t_bare / t_cached, 2),
    }
    assert hit_rate > 0.5, f"Zipf(1.0) hit rate only {hit_rate:.1%}"
    assert speedup >= 2, (
        f"flow cache only cut effective lookups {speedup:.2f}x"
    )


def test_flowcache_spill_gate(acl1k, portable_kernel):
    """Acceptance gate: a cache must never serve slower than no cache.

    A Zipf(1.0) trace whose working set is 8x the cache (so fills and
    evictions run beside the probes, ~86% hits) is served in 65,536-
    packet dispatches by ``CachedClassifier(hypercuts)`` and by the bare
    backend, same trace, same run, interleaved rounds.  The ratio lands
    as ``flowcache_spill.cached_vs_bare_ratio`` in ``BENCH_engine.json``
    with a floor of 1.0 — a same-run ratio, not another host's wall
    clock (before the packed-key table it measured 0.63).

    Both sides are taken under ``portable_kernel``: the denominator is
    the bare kernel, and the floor guards the NumPy cache layer against
    the NumPy walk it was derived on.  The same ratio on the native
    kernel is recorded beside it, ungated
    (``cached_vs_bare_ratio_native``): ten standalone runs of this test
    read 0.53-0.81 (median 0.71; 0.36-0.59, median 0.44, before the
    cached serve became one native call).  The bare side's 65,536-packet
    match-only walks split over two threads; the cached side splits a
    dispatch over set owners only when the last one left
    ``native.MIN_OWNED`` distinct misses an owner, so there the cache of
    a tree backend buys modelled energy, not wall clock."""
    entries = 4096
    trace = generate_zipf_trace(
        acl1k, 200_000, n_flows=8 * entries, skew=1.0, seed=84
    )

    def measure():
        bare = build_backend("hypercuts", acl1k, binth=30, hw_mode=True)
        cached = CachedClassifier(bare, entries=entries, ways=4)
        serve = {
            name: ClassificationPipeline(clf, chunk_size=65536)
            for name, clf in (("bare", bare), ("cached", cached))
        }
        want = serve["bare"].run(trace)
        got = serve["cached"].run(trace)  # also warms the cache
        assert np.array_equal(got.match, want.match)
        pps = _interleaved_pps(
            {name: (lambda p=p: p.run(trace)) for name, p in serve.items()},
            trace.n_packets, rounds=7, inner=1,
        )
        return pps, cached.cache.stats.hit_rate

    with portable_kernel():
        pps, hit_rate = measure()
    ratio = pps["cached"] / pps["bare"]
    on_native = _on_native(measure)
    _PERF["flowcache_spill"] = {
        "backend": "hypercuts",
        "entries": entries,
        "flows": 8 * entries,
        "packets": trace.n_packets,
        "hit_rate": round(hit_rate, 4),
        "bare_pps": pps["bare"],
        "cached_pps": pps["cached"],
        "cached_vs_bare_ratio": round(ratio, 2),
    }
    if on_native:
        _PERF["flowcache_spill"] |= {
            "bare_pps_native": on_native[0]["bare"],
            "cached_pps_native": on_native[0]["cached"],
            "cached_vs_bare_ratio_native": round(
                on_native[0]["cached"] / on_native[0]["bare"], 2
            ),
        }
    assert ratio >= 1.0, (
        f"spilling flow cache serves at only {ratio:.2f}x the bare backend"
    )


def test_flowcache_native_gate(acl1k, portable_kernel):
    """Acceptance gate: the native flow-cache kernels (``_flow_cache.c``)
    serve the step ``benchmarks/ledger/layers.py`` times — one probe of
    the ``flowcache_spill`` trace, then one fill of its distinct misses
    (deduplicated outside the clock, as there) — >= 2x faster than the
    NumPy path, the two interleaved in one run, over two caches that
    hold identical tables, clocks and counters after every round.
    Skipped — with ``native.status()``'s reason — on a host where the
    library could not be built or loaded."""
    status = native.status()
    if status["kernel"] != "native":
        pytest.skip(f"native kernel unavailable: {status['reason']}")
    entries = 4096
    trace = generate_zipf_trace(
        acl1k, 200_000, n_flows=8 * entries, skew=1.0, seed=84
    )
    headers = trace.headers
    truth = build_backend("hypercuts", acl1k, binth=30, hw_mode=True)
    truth = truth.classify_batch(headers)

    def serve(cache) -> tuple[float, float]:
        """Probe, then fill the distinct misses: the seconds of both,
        and the share of the probe that hit."""
        t0 = time.perf_counter()
        hit, _ = cache.probe(headers)
        probe_s = time.perf_counter() - t0
        miss = np.flatnonzero(~hit)
        _, first = np.unique(headers[miss], axis=0, return_index=True)
        rows = miss[np.sort(first)]
        t0 = time.perf_counter()
        cache.fill(headers[rows], truth[rows])
        return probe_s + time.perf_counter() - t0, float(hit.mean())

    def state(cache) -> tuple:
        tables = ("_keyw", "_result", "_stamp", "_epoch", "_filled")
        return (*(getattr(cache, t).tobytes() for t in tables),
                int(cache._tick), cache.stats)

    on = {"native": FlowCache(entries, ways=4),
          "portable": FlowCache(entries, ways=4)}
    best = {"native": float("inf"), "portable": float("inf")}
    for _ in range(8):  # the first round fills the cold caches
        seconds, hit_rate = serve(on["native"])
        best["native"] = min(best["native"], seconds)
        with portable_kernel():
            seconds, _ = serve(on["portable"])
        best["portable"] = min(best["portable"], seconds)
        assert state(on["native"]) == state(on["portable"])
    speedup = best["portable"] / best["native"]
    _PERF["flowcache_native"] = {
        "entries": entries,
        "flows": 8 * entries,
        "packets": trace.n_packets,
        "hit_rate": round(hit_rate, 4),
        "portable_pps": round(trace.n_packets / best["portable"]),
        "native_pps": round(trace.n_packets / best["native"]),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 2, (
        f"native flow cache only {speedup:.2f}x the NumPy path"
    )


def test_inprocess_shards_gate(acl1k):
    """Acceptance gate: in-process shards (``shard_mode="threads"``: N
    private cache clones served on the calling thread) cost no more
    than the cache model itself.  One cached 65,536-packet spill job in
    1,024-packet chunks, ``shards=2`` (alternating between two clones)
    over ``shards=1``, same chunk grid, same run, interleaved rounds;
    ``inprocess_shards.over_inline`` has a floor of 0.8 (measured
    0.93-1.06; two threads trading the GIL 64 chunks long read
    0.3-0.65 on this grid whenever the shared host was busy)."""
    entries = 4096
    trace = generate_zipf_trace(
        acl1k, 65_536, n_flows=8 * entries, skew=1.0, seed=85
    )
    bare = build_backend("hypercuts", acl1k, binth=30, hw_mode=True)
    serve = {
        name: ClassificationPipeline(
            CachedClassifier(bare, entries=entries, ways=4),
            chunk_size=1024, **kwargs,
        )
        for name, kwargs in (
            ("inline", {"shards": 1}),
            ("shards2", {"shards": 2, "shard_mode": "threads"}),
        )
    }
    want = serve["inline"].run(trace)  # also warms the caches
    got = serve["shards2"].run(trace)
    assert np.array_equal(got.match, want.match)
    assert (want.n_shards, got.n_shards) == (1, 2)
    pps = _interleaved_pps(
        {name: (lambda p=p: p.run(trace)) for name, p in serve.items()},
        trace.n_packets, rounds=15, inner=1,
    )
    ratio = pps["shards2"] / pps["inline"]
    _PERF["inprocess_shards"] = {
        "packets": trace.n_packets,
        "inline_pps": pps["inline"],
        "shards2_pps": pps["shards2"],
        "over_inline": round(ratio, 2),
    }
    assert ratio >= 0.8, (
        f"in-process shards serve at only {ratio:.2f}x one inline shard"
    )


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_cached_pipeline_throughput(
    benchmark, acl1k_engine_accelerator, acl1k_zipf_trace, shards
):
    """Flow-cached streaming at the engine's serving defaults (20k Zipf
    packets): ``shard_mode="auto"`` plus the >= 64k-packet dispatch
    target, so a run this short serves inline at every shard count
    (two workers fork from 131,072 packets).  Display-only: the
    ``flowcache_pipeline_pps`` shards axis the monotone gate enforces
    is recorded by ``test_pipeline_shards_monotone_gate``."""
    cached = CachedClassifier(
        acl1k_engine_accelerator, entries=4096, ways=4
    )
    pipeline = ClassificationPipeline(
        cached, chunk_size=2048, shards=shards,
        shard_mode="auto", min_chunk_packets=65536,
    )
    res = benchmark(lambda: pipeline.run(acl1k_zipf_trace))
    assert res.cache_hit_rate is not None and res.cache_hit_rate > 0.5


def _interleaved_times(runs: dict, rounds: int = 25, inner: int = 4) -> dict:
    """Per-key wall-clock samples, one per round: each times ``inner``
    back-to-back runs, with the keys sampled round-robin inside every
    round.  Sequential per-key timing lets slow machine drift (thermal,
    background load) land on one shard count and fake a scaling
    inversion; interleaving gives every key the same conditions, and
    the multi-run samples (with the collector parked) keep
    single-digit-millisecond workloads out of the noise floor.  Each
    round starts one key further along, so no key always runs first
    (or always right after another): on a contended host a fixed order
    bent the paired ratios of identical inline pipelines to ~0.9x."""
    times: dict = {key: [] for key in runs}
    order = list(runs.items())
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for r in range(rounds):
            for key, run in order[r % len(order):] + order[:r % len(order)]:
                t0 = time.perf_counter()
                for _ in range(inner):
                    run()
                times[key].append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return times


def _min_pps(times: dict, n_packets: int, inner: int = 4) -> dict:
    """Per-key pps from the minimum of its :func:`_interleaved_times`
    samples."""
    return {key: round(inner * n_packets / min(ts)) for key, ts in times.items()}


def _interleaved_pps(
    runs: dict, n_packets: int, rounds: int = 25, inner: int = 4
) -> dict:
    return _min_pps(_interleaved_times(runs, rounds, inner), n_packets, inner)


def _counted(pipeline, trace, served: list):
    """One run of ``trace`` that records the shards it was served on."""
    def run() -> None:
        served.append(pipeline.run(trace).n_shards)
    return run


def test_pipeline_shards_monotone_gate(
    acl1k_engine_accelerator, acl1k_trace, acl1k_zipf_trace
):
    """Acceptance gate: at the engine's serving defaults (auto tier,
    >= 64k-packet dispatch target) adding shards never *costs*
    throughput.  Records the ``auto_pipeline_pps`` and
    ``flowcache_pipeline_pps`` shards axes (per-key minima) that
    ``compare_baseline.py`` reads, and asserts the step ratios, paired
    within the interleaved rounds, at the same 0.95 floor."""
    # family -> (trace, rounds, {shards key: warm pipeline}).  51
    # rounds each: a 1 ms run is noisy, and on a contended host 25
    # rounds let the uncached family's median step fall to ~0.92x.
    families = {
        "auto_pipeline_pps": (acl1k_trace, 51, {}),
        "flowcache_pipeline_pps": (acl1k_zipf_trace, 51, {}),
    }
    # One shared cached classifier: per-instance allocation (heap and
    # hardware-cache placement of the flow-cache arrays) shifts the
    # identical workload by a few percent, which would be read as an
    # axis inversion.  Only the shard count may vary between keys.
    classifiers = {
        "auto_pipeline_pps": acl1k_engine_accelerator,
        "flowcache_pipeline_pps": CachedClassifier(
            acl1k_engine_accelerator, entries=4096, ways=4
        ),
    }
    times: dict = {}
    # family -> shards key -> n_shards of every timed run.
    served: dict = {family: {} for family in families}
    with contextlib.ExitStack() as stack:
        for shards in (1, 2, 4):
            for family, (trace, _, pipes) in families.items():
                pipeline = stack.enter_context(ClassificationPipeline(
                    classifiers[family], chunk_size=2048, shards=shards,
                    shard_mode="auto", min_chunk_packets=65536,
                ))
                pipeline.run(trace)  # untimed: any fork, the cache warm-up
                pipes[f"shards_{shards}"] = pipeline
        for family, (trace, rounds, pipes) in families.items():
            times[family] = _interleaved_times(
                {
                    key: _counted(
                        p, trace, served[family].setdefault(key, [])
                    )
                    for key, p in pipes.items()
                },
                rounds=rounds,
            )
    for family, (trace, _, _) in families.items():
        _PERF[family] = _min_pps(times[family], trace.n_packets)
        # Asserted on a paired statistic: each round times every shard
        # count back to back, so the round's own ratio cancels whatever
        # the host was doing during it, and the median over rounds
        # ignores the odd disturbed one.  Two per-key minima (the
        # recorded axes) are not paired: identical inline pipelines
        # stepped 5-9% apart on them on a busy host.
        steps = {
            f"shards_{half}_to_{full}": float(np.median([
                t_half / t_full for t_half, t_full in zip(
                    times[family][f"shards_{half}"],
                    times[family][f"shards_{full}"],
                )
            ]))
            for half, full in ((1, 2), (2, 4))
        }
        _PERF.setdefault("shards_monotone", {})[
            family.removesuffix("_pipeline_pps")
        ] = {step: round(ratio, 3) for step, ratio in steps.items()}
        forked = ", ".join(
            f"{key} {sum(n > 1 for n in runs)}/{len(runs)}"
            for key, runs in served[family].items()
        )
        for step, ratio in steps.items():
            assert ratio >= 0.95, (
                f"{family} inverted along shards: {step} keeps "
                f"{ratio:.3f}x ({_PERF[family]}; forked runs: {forked})"
            )


def test_dispatch_coalescing_gate(acl1k, acl1k_trace):
    """Acceptance gate: coalescing dispatches (``min_chunk_packets``)
    serves the miss-heavy random trace >= 1.5x faster than 2048-packet
    dispatches, bit-identically — the measured win the option earns its
    place with.

    Both sides run the software hypercuts backend behind a 4096-entry
    flow cache on the 20k-packet random trace (low hit rate, so the
    backend kernel dominates) and serve misses the same way (probe,
    dedupe, one match-only walk, scatter, fill).  The only difference is
    the dispatch grid: ``min_chunk_packets=0`` keeps ten 2048-packet
    dispatches, ``65536`` serves the trace in one, so the ratio is the
    per-dispatch fixed cost (Python dispatch, small-array NumPy calls,
    per-chunk stats).  Lands as ``dispatch_coalescing`` in
    ``BENCH_engine.json`` and is gated by ``compare_baseline.py``.
    """
    backend = build_backend("hypercuts", acl1k, binth=30, hw_mode=True)
    trace = acl1k_trace

    def pipeline(min_chunk_packets):
        return ClassificationPipeline(
            CachedClassifier(backend, entries=4096, ways=4),
            chunk_size=2048, min_chunk_packets=min_chunk_packets,
        )

    chunked, coalesced = pipeline(0), pipeline(65536)
    want = chunked.run(trace)  # also warms that side's cache
    got = coalesced.run(trace)
    assert (want.n_chunks, got.n_chunks) == (10, 1)
    # Matches are bit-identical; cache counters differ by design (one
    # coalesced dispatch sees intra-batch repeats as deduplicated
    # misses, where the chunked path hits entries filled by earlier
    # chunks).
    assert np.array_equal(want.match, got.match)
    t_chunked = _best_of(lambda: chunked.run(trace), repeats=7)
    t_coalesced = _best_of(lambda: coalesced.run(trace), repeats=7)
    speedup = t_chunked / t_coalesced
    _PERF["dispatch_coalescing"] = {
        "backend": "hypercuts",
        "rules": len(acl1k),
        "packets": trace.n_packets,
        "entries": 4096,
        "chunked_s": round(t_chunked, 4),
        "coalesced_s": round(t_coalesced, 4),
        "speedup": round(speedup, 2),
        "coalesced_pps": round(trace.n_packets / t_coalesced),
    }
    assert speedup >= 1.5, f"coalesced dispatch only {speedup:.2f}x"


# ---------------------------------------------------------------------------
# Incremental kernel patching vs full recompilation
# ---------------------------------------------------------------------------
def test_flat_patch_vs_recompile_gate(acl10k):
    """Acceptance gate: a single-rule update on a 10k-rule tree patches
    the compiled kernel >= 3x faster than recompiling it, bit-identically
    (the conformance suite proves the identity; this gates the latency).
    Lands as ``update_patch`` in ``BENCH_engine.json``."""
    inc = IncrementalClassifier(
        acl10k, algorithm="hypercuts", binth=30, spfac=4, hw_mode=True
    )
    tree = inc.tree
    tree.flat  # initial compile outside the timed region
    updates = list(generate_ruleset("acl1", 12, seed=77).rules)
    patch_times = []
    for rule in updates:
        inc.insert(rule)
        t0 = time.perf_counter()
        tree.flat  # applies the row splice
        patch_times.append(time.perf_counter() - t0)
    assert tree.flat_compiles == 1, "update fell back to full recompile"
    assert tree.flat_patches == len(updates)
    t_patch = float(np.median(patch_times))
    t_recompile = _best_of(lambda: FlatTree(tree))
    speedup = t_recompile / t_patch
    _PERF["update_patch"] = {
        "rules": 10_000,
        "updates": len(updates),
        "nodes": len(tree.nodes),
        "patch_ms": round(t_patch * 1e3, 3),
        "recompile_ms": round(t_recompile * 1e3, 3),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 3, f"kernel patch only {speedup:.1f}x a recompile"


def test_update_cache_retention_gate():
    """Acceptance gate: rule churn does not flush the data plane — the
    flow-cache hit rate of a Zipf trace served under a churn schedule is
    >= 0.9x the hit rate of the same trace with no updates at all.  A
    count, not a clock: both runs are seeded and single-process, so the
    ratio repeats exactly on any host.  The workload is the ledger's
    ``rule_churn``: its ruleset, cache geometry and segment size, 65,536
    flows at skew 1.0, 8-op batches at one op per 1000 packets.  A
    whole-cache invalidation per batch reads 0.75 here; retiring only
    the entries a batch could have changed reads 0.98."""
    rules = generate_ruleset("acl1", 2500, seed=11)
    trace = generate_zipf_trace(
        rules, 1 << 18, n_flows=65_536, skew=1.0, seed=44
    )
    schedule = churn_schedule(
        rules, 1, trace.n_packets, batch_size=8, seed=20
    )
    config = EngineConfig(
        backend="hypercuts", updatable=True, cache_entries=8192, cache_ways=4
    )
    rates = []
    for updates in (schedule, None):
        with Engine.open(config, rules) as engine:
            report = engine.classify_stream(
                trace, updates, segment_packets=16_384
            )
        rates.append(report.cache_hit_rate)
    churned, quiet = rates
    retention = churned / quiet
    _PERF["update_cache_retention"] = {
        "rules": 2500,
        "packets": trace.n_packets,
        "batches": len(schedule),
        "quiet_hit_rate": round(quiet, 4),
        "churned_hit_rate": round(churned, 4),
        "retention": round(retention, 4),
    }
    assert retention >= 0.9, (
        f"under churn the cache keeps only {retention:.2f}x its hit rate"
    )


def test_update_serving_pipeline(acl1k, acl1k_trace):
    """Live-update serving throughput and apply-latency percentiles:
    an Engine session with an interleaved 64-op churn stream over the
    incremental backend (20k packets)."""
    schedule = generate_update_stream(
        acl1k, 64, acl1k_trace.n_packets, batch_size=8, seed=78
    )
    config = EngineConfig(
        backend="hicuts", updatable=True, chunk_size=2048, binth=30,
    )
    with Engine.open(config, acl1k) as engine:
        t0 = time.perf_counter()
        res = engine.classify(acl1k_trace, updates=schedule)
        elapsed = time.perf_counter() - t0
    assert res.update_ops == 64
    assert res.final_epoch == len(schedule)
    pct = res.update_latency
    assert pct is not None and pct["batches"] == len(schedule)
    _PERF["update_serving"] = {
        "updates": res.update_ops,
        "batches": res.update_batches,
        "packets": res.n_packets,
        "pps": round(res.n_packets / elapsed),
        "latency_p50_ms": round(pct["p50_ms"], 3),
        "latency_p95_ms": round(pct["p95_ms"], 3),
        "latency_p99_ms": round(pct["p99_ms"], 3),
        "latency_max_ms": round(pct["max_ms"], 3),
    }


# ---------------------------------------------------------------------------
# The streamed session vs the bare loop it wraps
# ---------------------------------------------------------------------------
def test_stream_session_over_direct_loop_gate(tmp_path):
    """Acceptance gate: what ``Engine.stream`` adds on top of the loop
    it is — ``for seg in iter_trace_file(...): pipeline.run(seg)`` — on
    the workload where it shows most: one flow-cached hot 1M-packet text
    trace, so classification is nearly free and both sides run the same
    parser.  Medians of interleaved rounds; the session must keep
    >= 0.85 of the bare loop's packets/second, bit-identically (to the
    loop and to ``classify`` of the in-memory trace the file was saved
    from).  Lands as ``stream_session`` in ``BENCH_engine.json``."""
    n_packets, segment, rounds = 1_000_000, 16_384, 9
    rules = generate_ruleset("acl1", 2500, seed=11)
    trace = generate_zipf_trace(
        rules, n_packets, n_flows=2048, skew=1.1, seed=83
    )
    path = str(tmp_path / "hot1m.txt")
    trace.save(path)
    config = EngineConfig(
        backend="hypercuts", cache_entries=8192, cache_ways=4
    )

    def segments():
        return iter_trace_file(path, segment_packets=segment)

    with Engine.open(config, rules) as engine:
        want = engine.classify(trace).match  # also warms the cache

        def streamed():
            return [chunk.match for chunk in engine.stream(segments())]

        def direct():
            return [engine.pipeline.run(seg).match for seg in segments()]

        times = {"stream": [], "direct": []}
        for _ in range(rounds):
            for key, run in (("stream", streamed), ("direct", direct)):
                t0 = time.perf_counter()
                parts = run()
                times[key].append(time.perf_counter() - t0)
                assert np.array_equal(np.concatenate(parts), want)
    stream_s = float(np.median(times["stream"]))
    direct_s = float(np.median(times["direct"]))
    ratio = direct_s / stream_s
    _PERF["stream_session"] = {
        "packets": n_packets,
        "segment_packets": segment,
        "rounds": rounds,
        "stream_pps": round(n_packets / stream_s),
        "direct_loop_pps": round(n_packets / direct_s),
        "over_direct_loop": round(ratio, 2),
    }
    assert ratio >= 0.85, (
        f"Engine.stream serves {ratio:.2f}x the bare "
        f"iter_trace_file + pipeline.run loop"
    )


# ---------------------------------------------------------------------------
# The vectorised linear-search oracle
# ---------------------------------------------------------------------------
def test_oracle_batch_match_speedup(acl1k, acl1k_trace):
    """The chunked (chunk, rule_block) oracle kernel vs the per-packet
    loop it replaced — the slowest tier-1 path before this change."""
    arrays = acl1k.arrays
    sub = acl1k_trace.headers[:2000]
    t0 = time.perf_counter()
    scalar = np.asarray([arrays.first_match(h) for h in sub])
    t_scalar = time.perf_counter() - t0
    arrays.batch_match(sub)  # warm
    t_batch = _best_of(lambda: arrays.batch_match(sub))
    assert np.array_equal(scalar, arrays.batch_match(sub))
    speedup = t_scalar / t_batch
    _PERF["oracle"] = {
        "rules": len(acl1k),
        "packets": len(sub),
        "scalar_s": round(t_scalar, 4),
        "batch_s": round(t_batch, 4),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 2, f"vectorised oracle only {speedup:.1f}x"


# ---------------------------------------------------------------------------
# Stage-graph RX pipeline vs bare classify
# ---------------------------------------------------------------------------
def test_stage_graph_overhead_gate(acl1k, acl1k_zipf_trace, portable_kernel):
    """Acceptance gate: what the full eight-stage line-card RX graph
    (parse -> drop -> extract -> tcam_prefilter -> flow_cache ->
    classify -> rewrite -> queue_select) *adds* to a bare flow-cached
    ``Engine.classify`` on the same classifier configuration —
    ``graph_s - bare_s`` — is at most a third of what the same engine
    takes with no flow cache on the same trace, with bit-identical
    verdicts.  The denominator is one the graph does not contain: the
    old ``bare_s / graph_s`` (``overhead_ratio``, still reported) fell
    every time the cached classify got faster.  Lands as ``stage_graph``
    in ``BENCH_engine.json``; ``uncached_over_added`` is gated by
    ``compare_baseline.py``.

    All three sides are taken under ``portable_kernel``: the uncached
    engine *is* the bare kernel, and the floor of 3.0 was derived
    against the NumPy walk.  ``uncached_over_added_native`` (ungated) is
    the same reading on the native kernel, where the yardstick got ~9x
    shorter and the graph's own work shrank less: of the stages, only
    the prefilter's flow hash and verdict memo run in C."""
    from repro.stages import StageGraph, default_graph

    trace = acl1k_zipf_trace
    overlay = {"backend": "hypercuts", "chunk_size": 4096}
    cached = {**EngineConfig().to_dict(), **overlay, "cache_ways": 4}
    spec = default_graph(overlay, cache_entries=4096)

    def open_engine(cache_entries: int) -> Engine:
        config = {**cached, "cache_entries": cache_entries}
        return Engine.open(EngineConfig.from_dict(config), acl1k)

    def measure() -> dict:
        with open_engine(4096) as bare, open_engine(0) as uncached, \
                StageGraph(spec, acl1k) as graph:
            want = bare.classify(trace)
            assert np.array_equal(uncached.classify(trace).match, want.match)
            assert np.array_equal(graph.run(trace).match, want.match)
            # Interleaved rounds, best of each: a host slow-down that
            # spans one ~2 ms measurement spans its two neighbours too.
            runs = {
                "bare": lambda: bare.classify(trace),
                "uncached": lambda: uncached.classify(trace),
                "graph": lambda: graph.run(trace),
            }
            times = dict.fromkeys(runs, float("inf"))
            for _ in range(7):
                for name, fn in runs.items():
                    times[name] = min(times[name], _best_of(fn, 1))
        times["added"] = max(times["graph"] - times["bare"], 1e-9)
        return times

    with portable_kernel():
        times = measure()
    added = times["added"]
    headroom = times["uncached"] / added
    _PERF["stage_graph"] = {
        "stages": len(spec.stages),
        "rules": len(acl1k),
        "packets": trace.n_packets,
        "bare_s": round(times["bare"], 4),
        "uncached_s": round(times["uncached"], 4),
        "graph_s": round(times["graph"], 4),
        "added_ns_per_packet": round(added / trace.n_packets * 1e9, 1),
        "uncached_over_added": round(headroom, 2),
        "overhead_ratio": round(times["bare"] / times["graph"], 2),
        "graph_pps": round(trace.n_packets / times["graph"]),
    }
    on_native = _on_native(measure)
    if on_native:
        _PERF["stage_graph"] |= {
            "uncached_s_native": round(on_native["uncached"], 4),
            "added_ns_per_packet_native": round(
                on_native["added"] / trace.n_packets * 1e9, 1
            ),
            "uncached_over_added_native": round(
                on_native["uncached"] / on_native["added"], 2
            ),
        }
    assert headroom >= 3.0, (
        f"the stage graph adds {added * 1e3:.2f} ms to a cached classify, "
        f"more than a third of the uncached {times['uncached'] * 1e3:.2f} ms"
    )


# ---------------------------------------------------------------------------
# Multi-tenant serving vs the single-tenant engine
# ---------------------------------------------------------------------------
def test_multi_tenant_aggregate_gate(acl1k, acl1k_trace, portable_kernel):
    """Acceptance gate: eight tenants interleaved through one
    :class:`MultiTenantEngine` sustain >= 0.7x the single-tenant
    aggregate pps on the same workload, every tenant's output is
    bit-identical to an isolated run, and a tenant crashing under the
    ``fail`` policy is quarantined without perturbing its neighbours.
    Lands as ``multi_tenant`` in ``BENCH_engine.json``.

    The ratio is taken under ``portable_kernel``: the single tenant is
    one uncached ``Engine.classify`` — the bare kernel — and the 0.7
    floor prices the scheduler's per-segment work against the NumPy
    walk.  ``aggregate_ratio_native`` (ungated) is the same ratio on the
    native kernel, where one tenant runs at 20M+ pps and the same
    per-segment work is a larger share."""
    n_tenants = 8
    # 20k packets *per tenant*: small enough to serve in a couple of
    # seconds, large enough that the scheduler's per-segment overhead
    # is measured against real serving work, not wall-clock noise.
    per = 20_000
    n_packets = n_tenants * per
    trace = generate_trace(acl1k, n_packets, seed=83)
    config = EngineConfig(backend="hypercuts", chunk_size=2048)
    names = [f"t{i}" for i in range(n_tenants)]
    workloads = dict(zip(names, iter_trace_segments(trace, per)))
    tenants = [(TenantSpec(name=n, config=config), acl1k) for n in names]

    def measure():
        with Engine.open(config, acl1k) as engine:
            engine.classify(trace)  # warm: compile the flat kernel
            t_single = _best_of(lambda: engine.classify(trace))
            isolated = {
                name: engine.classify(seg).match
                for name, seg in workloads.items()
            }
        with MultiTenantEngine.open(tenants) as mte:
            mte.serve(workloads, segment_packets=4096)  # warm
            t_multi = _best_of(
                lambda: mte.serve(workloads, segment_packets=4096)
            )
            report = mte.serve(workloads, segment_packets=4096)
        assert report.n_packets == n_packets
        for tenant in report.tenants:
            assert tenant.fault is None
            assert np.array_equal(tenant.report.match, isolated[tenant.name])
        return n_packets / t_single, n_packets / t_multi, isolated

    with portable_kernel():
        single_pps, aggregate_pps, isolated = measure()
    ratio = aggregate_pps / single_pps
    on_native = _on_native(measure)

    # Isolation under fault: the crashing tenant is quarantined, every
    # other tenant's output stays bit-identical.  The chaos tenant runs
    # sharded worker processes (the tier crash faults inject into).
    chaos_config = EngineConfig(
        backend="hypercuts", chunk_size=2048, shards=2,
        shard_mode="processes", min_chunk_packets=0,
    )
    fleet = [(TenantSpec(name="chaos", config=chaos_config), acl1k)] + tenants[1:]
    chaos_workloads = {"chaos": workloads["t0"], **{
        n: workloads[n] for n in names[1:]
    }}
    faults = {"chaos": [FaultSpec(kind="crash", segment=0, chunk=0)]}
    with MultiTenantEngine.open(fleet) as mte:
        chaos_report = mte.serve(
            chaos_workloads, faults=faults, segment_packets=4096
        )
    by_name = {t.name: t for t in chaos_report.tenants}
    assert by_name["chaos"].fault is not None
    survivors = [t for t in chaos_report.tenants if t.name != "chaos"]
    assert all(t.fault is None for t in survivors)
    for tenant in survivors:
        assert np.array_equal(tenant.report.match, isolated[tenant.name])

    _PERF["multi_tenant"] = {
        "tenants": n_tenants,
        "packets": n_packets,
        "single_tenant_pps": round(single_pps),
        "aggregate_pps": round(aggregate_pps),
        "aggregate_ratio": round(ratio, 3),
        "quarantined_survivors": len(survivors),
    }
    if on_native:
        _PERF["multi_tenant"] |= {
            "single_tenant_pps_native": round(on_native[0]),
            "aggregate_pps_native": round(on_native[1]),
            "aggregate_ratio_native": round(on_native[1] / on_native[0], 3),
        }
    assert ratio >= 0.7, (
        f"8-tenant aggregate only {ratio:.2f}x single-tenant throughput"
    )
