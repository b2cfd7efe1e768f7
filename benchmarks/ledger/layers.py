"""The outside-in per-layer ledger.

One slice of the benchmark's traffic is pushed through each layer in
turn — generators, oracle, tree kernels, accelerator model, flow cache,
pipeline tiers, update path, serving session, ingest, stage graph,
tenancy — by timing calls into each layer's public functions from
here.  Layer = module name.  A probe runs one untimed warm-up call
(lazy kernel compile, cold cache) and then ``probe_reps`` timed calls,
each under a span; the metric is the median.  Probes of slow layers run
once, on a shorter slice (``Sizes.slow_packets``).

The probes do not depend on which workload a run was asked for, so a
traced run of any workload emits the same ledger.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import replace

import numpy as np

from repro import (
    PacketTrace,
    RFCClassifier,
    RuleSet,
    TupleSpaceClassifier,
    build_hicuts,
    build_hypercuts,
)
from repro.classbench.updates import churn_schedule
from repro.engine import (
    CachedClassifier,
    ClassificationPipeline,
    FlowCache,
    build_backend,
    build_updatable_backend,
)
from repro.hw import build_memory_image
from repro.serve import (
    Engine,
    EngineConfig,
    MultiTenantEngine,
    TenantSpec,
    iter_trace_file,
)
from repro.stages import STAGE_KINDS, StageGraph, default_graph

from workloads import CACHE, CHURN_SEED, Inputs, run_rep

#: The waterfall's layers, innermost first, and the ledger metric that
#: holds each one's packets/second on the spill slice.
WATERFALL = (
    ("algorithms.flat_tree", "algorithms.flat_tree.pps.spill"),
    ("hw.accelerator", "hw.accelerator.pps.spill"),
    ("engine.flowcache", "engine.flowcache.cached_pps.spill"),
    ("engine.pipeline.inline", "engine.pipeline.inline_pps"),
    ("serve.session.classify", "serve.session.classify_pps"),
    ("serve.session.stream_mem", "serve.session.stream_mem_pps"),
    ("stages.graph", "stages.graph.pps"),
    ("serve.tenancy", "serve.tenancy.aggregate_pps.t8"),
)

TREE = {"binth": 30, "spfac": 4.0}
CACHE_ARGS = {"entries": CACHE["cache_entries"], "ways": CACHE["cache_ways"]}
#: How the slow probes are timed: no warm-up, one call.
ONCE = {"warm": False, "reps": 1}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


class Ledger:
    def __init__(self, inputs: Inputs, workloads: dict, tracer) -> None:
        self.inputs = inputs
        self.sizes = inputs.sizes
        self.rules = inputs.rules
        self.workloads = workloads  # by name; stream probes reuse their calls
        self.tracer = tracer
        self.metrics: dict[str, dict] = {}
        self.n = self.sizes.ledger_packets

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def value(self, name: str):
        return self.metrics[name]["value"]

    def timed(self, name: str, call, warm: bool = True, reps: int | None = None):
        """Median seconds of ``call()`` and its last return value."""
        if warm:
            call()
        times = []
        for _ in range(reps or self.sizes.probe_reps):
            with self.tracer.span(name):
                t0 = time.perf_counter()
                out = call()
                times.append(time.perf_counter() - t0)
        return statistics.median(times), out

    def seconds(self, name: str, call, **timed_kwargs):
        seconds, out = self.timed(name, call, **timed_kwargs)
        self.put(name, seconds, "s")
        return out

    def pps(self, name: str, packets: int, call, **timed_kwargs):
        seconds, out = self.timed(name, call, **timed_kwargs)
        self.put(name, packets / seconds, "pkt/s")
        return out

    # ------------------------------------------------------------------
    def measure(self) -> dict[str, dict]:
        self.tracer.workload = "ledger"
        self.tracer.round = None
        with self.tracer.span("ledger"):
            self.generators_and_core()
            acc = self.kernels()
            self.flowcache(acc)
            self.pipeline_tiers(acc)
            self.updates()
            self.session()
            self.ingest_and_streams()
            self.stage_graph()
            self.tenancy()
            self.waterfall()
        return self.metrics

    # -- classbench, core ------------------------------------------------
    def generators_and_core(self) -> None:
        inputs, n, slow = self.inputs, self.n, self.sizes.slow_packets
        self.put("classbench.ruleset_s", inputs.ruleset_s, "s")
        t0 = time.perf_counter()
        self.uniform = inputs.generate("uniform", n)
        self.hot = inputs.generate("hot", n)
        self.spill = inputs.generate("spill", n)
        self.put(
            "classbench.zipf_trace_pps", 3 * n / (time.perf_counter() - t0), "pkt/s"
        )
        self.seconds(
            "classbench.churn_schedule_s",
            lambda: churn_schedule(
                self.rules, 1, n, batch_size=8, seed=CHURN_SEED
            ),
        )
        short = self.spill.subset(slow)
        self.pps(
            "core.oracle.pps", slow,
            lambda: self.rules.arrays.batch_match(short.headers), **ONCE,
        )
        path = os.path.join(inputs.workdir, "ledger_classic.trace")
        self.pps("core.trace_save.pps", slow, lambda: short.save(path), **ONCE)
        self.pps(
            "core.trace_load.pps", slow, lambda: PacketTrace.load(path), **ONCE
        )

    # -- algorithms, hw --------------------------------------------------
    def kernels(self):
        rules, uniform, spill, n = self.rules, self.uniform, self.spill, self.n
        tree = self.seconds(
            "algorithms.hypercuts.build_s",
            lambda: build_hypercuts(rules, hw_mode=True, **TREE),
        )
        self.seconds("hw.image_build_s", lambda: build_memory_image(tree, speed=1))
        self.pps(
            "algorithms.flat_tree.pps.uniform", n,
            lambda: tree.batch_lookup(uniform),
        )
        self.pps(
            "algorithms.flat_tree.pps.spill", n, lambda: tree.batch_lookup(spill)
        )
        hicuts = build_hicuts(rules, hw_mode=True, **TREE)
        self.pps("algorithms.hicuts.pps", n, lambda: hicuts.batch_lookup(uniform))
        rfc = RFCClassifier(
            RuleSet(rules.rules[: self.sizes.rfc_rules], rules.schema)
        )
        self.pps(
            "algorithms.rfc.pps", n, lambda: rfc.classify_batch(uniform.headers)
        )
        tss = TupleSpaceClassifier(rules)
        short = uniform.headers[: self.sizes.tss_packets]
        self.pps(
            "algorithms.tuple_space.pps", len(short),
            lambda: tss.classify_batch(short),
        )
        acc = build_backend(
            "accelerator", rules, algorithm="hypercuts", speed=1, **TREE
        )
        self.pps(
            "hw.accelerator.pps", n, lambda: acc.classify_batch(uniform.headers)
        )
        self.put(
            "hw.accelerator.overhead_ratio",
            self.value("hw.accelerator.pps")
            / self.value("algorithms.flat_tree.pps.uniform"),
            "ratio",
        )
        self.pps(
            "hw.accelerator.pps.spill", n,
            lambda: acc.classify_batch(spill.headers),
        )
        return acc

    # -- engine.flowcache ------------------------------------------------
    def flowcache(self, acc) -> None:
        n = self.n
        for kind, trace in (("hot", self.hot), ("spill", self.spill)):
            headers = trace.headers
            truth = acc.classify_batch(headers)
            cache = FlowCache(**CACHE_ARGS)

            def serve():
                """What a cached lookup does, step by step: probe, then
                fill the distinct misses."""
                with self.tracer.span("engine.flowcache.probe"):
                    hit, _ = cache.probe(headers)
                miss = np.flatnonzero(~hit)
                _, first = np.unique(headers[miss], axis=0, return_index=True)
                rows = miss[np.sort(first)]
                with self.tracer.span("engine.flowcache.fill"):
                    cache.fill(headers[rows], truth[rows])
                return len(rows)

            serve()  # cold pass
            mark = self.tracer.mark()
            filled = [serve() for _ in range(self.sizes.probe_reps)]
            probe_s = statistics.median(
                self.tracer.durations("engine.flowcache.probe", mark)
            )
            self.put(f"engine.flowcache.probe_pps.{kind}", n / probe_s, "pkt/s")
            if kind == "spill":
                fill_s = statistics.median(
                    self.tracer.durations("engine.flowcache.fill", mark)
                )
                self.put(
                    "engine.flowcache.fill_pps",
                    statistics.median(filled) / fill_s, "pkt/s",
                )
            cached = CachedClassifier(acc, **CACHE_ARGS)
            stats = self.pps(
                f"engine.flowcache.cached_pps.{kind}", n,
                lambda: cached.batch_stats(headers),
            )
            self.put(
                f"engine.flowcache.hit_rate.{kind}", stats.cache_hits / n, "ratio"
            )
            if kind == "spill":
                self.put(
                    "engine.flowcache.evictions.spill",
                    stats.cache_evictions, "count",
                )

    # -- engine.pipeline -------------------------------------------------
    def pipeline_tiers(self, acc) -> None:
        shards = min(2, os.cpu_count() or 1)
        tiers = {
            "inline": {"shards": 1},
            "threads2": {"shards": shards, "shard_mode": "threads"},
            "processes2": {"shards": shards, "shard_mode": "processes"},
            "persistent2": {
                "shards": shards, "shard_mode": "processes", "persistent": True,
            },
            # What EngineConfig(shards=2) gives: the shards2_spill shape.
            "auto2": {"shards": shards, "shard_mode": "auto"},
        }
        engine_defaults = EngineConfig()
        for tier, kwargs in tiers.items():
            pipeline = ClassificationPipeline(
                CachedClassifier(acc, **CACHE_ARGS),
                chunk_size=engine_defaults.chunk_size,
                min_chunk_packets=engine_defaults.min_chunk_packets,
                **kwargs,
            )
            with pipeline:
                t0 = time.perf_counter()
                pipeline.run(self.spill)  # doubles as the warm-up
                first_run_s = time.perf_counter() - t0
                result = self.pps(
                    f"engine.pipeline.{tier}_pps", self.n,
                    lambda: pipeline.run(self.spill), warm=False,
                )
            if tier == "persistent2":
                self.put("engine.pipeline.persistent2_first_run_s", first_run_s, "s")
            if tier == "auto2":
                self.put(
                    "engine.pipeline.workers.shards2_spill", result.n_shards,
                    "count",
                )
                self.put("engine.pipeline.chunks", len(result.chunks), "count")

    # -- algorithms.incremental, engine.updates --------------------------
    def updates(self) -> None:
        schedule = self.inputs.schedule(self.n)

        def apply_all(name, wrap):
            """Milliseconds per schedule batch applied to a fresh tree."""
            clf = wrap(build_updatable_backend(
                "incremental", self.rules, algorithm="hypercuts", hw_mode=True,
                **TREE,
            ))
            clf.classify_batch(self.spill.headers[:4096])  # compile kernel
            times = []
            for entry in schedule:
                with self.tracer.span(name):
                    t0 = time.perf_counter()
                    clf.apply_updates(entry.batch)
                    times.append((time.perf_counter() - t0) * 1e3)
            return times

        bare = apply_all("algorithms.incremental.apply_updates", lambda c: c)
        self.put("algorithms.incremental.apply_p50_ms", percentile(bare, 50), "ms")
        self.put("algorithms.incremental.apply_p95_ms", percentile(bare, 95), "ms")
        cached = apply_all(
            "engine.updates.apply_updates",
            lambda c: CachedClassifier(c, **CACHE_ARGS),
        )
        self.put("engine.updates.apply_p50_ms", percentile(cached, 50), "ms")
        self.put("engine.updates.batches", len(schedule), "count")

    # -- serve.session ---------------------------------------------------
    def session(self) -> None:
        """`Engine.classify` on each traffic kind: the simulated numbers
        (the unvalidated ASIC model, not host time) of all three, host
        speed of the spill slice."""
        for kind, cache in (
            ("uniform", {"cache_entries": 0}), ("hot", CACHE), ("spill", CACHE),
        ):
            trace = getattr(self, kind)
            with Engine.open(
                EngineConfig(backend="hypercuts", **cache), self.rules
            ) as engine:
                if kind != "spill":
                    engine.classify(trace)  # fill the cache
                    report = engine.classify(trace)
                else:
                    report = self.pps(
                        "serve.session.classify_pps", self.n,
                        lambda: engine.classify(trace),
                    )
                    self.pps(
                        "serve.session.stream_mem_pps", self.n,
                        lambda: engine.classify_stream(
                            trace, segment_packets=self.sizes.segment
                        ),
                    )
            self.put(
                f"hw.model.cycles_per_packet.{kind}", report.mean_occupancy(),
                "cycles",
            )
            self.put(
                f"hw.model.energy_per_packet_nj.{kind}",
                report.energy_per_packet_j * 1e9, "nJ",
            )

    # -- serve.ingest and the two streamed calls --------------------------
    def ingest_and_streams(self) -> None:
        n, inputs, tracer = self.n, self.inputs, self.tracer
        # The stream probes reuse the workloads' driver calls on the slice.
        file_stream = replace(self.workloads["file_stream"], packets=n)
        path = inputs.trace_file(file_stream.traffic, n)
        self.pps(
            "serve.ingest.parse_pps", n,
            lambda: sum(
                seg.n_packets
                for seg in iter_trace_file(path, segment_packets=self.sizes.segment)
            ),
        )
        for workload in (
            file_stream, replace(self.workloads["rule_churn"], packets=n)
        ):
            intervals, waits, busy = [], [], []
            with workload.open(inputs) as session:
                if not workload.fresh_per_rep:
                    run_rep(workload, session, inputs, tracer)  # cold cache
                for _ in range(self.sizes.probe_reps):
                    mark = tracer.mark()
                    out, _, _ = run_rep(workload, session, inputs, tracer)
                    intervals += out.intervals
                    waits.append(sum(tracer.durations("serve.session.next", mark)))
                    busy.append(sum(tracer.durations("serve.ingest.next", mark)))
            name = workload.name
            self.put(
                f"serve.session.segment_latency_p95_ms.{name}",
                percentile(intervals, 95) * 1e3, "ms",
            )
            self.put(f"serve.session.segment_samples.{name}", len(intervals), "count")
            if name == "file_stream":
                busy_s = statistics.median(busy)
                self.put(
                    "serve.session.consumer_wait_s", statistics.median(waits), "s"
                )
                self.put("serve.ingest.busy_s", busy_s, "s")
                self.put(
                    "serve.ingest.bytes_per_s", os.path.getsize(path) / busy_s,
                    "B/s",
                )
                self.put("serve.ingest.segments", len(out.intervals), "count")

    # -- stages ----------------------------------------------------------
    def stage_graph(self) -> None:
        with StageGraph(default_graph(**CACHE), self.rules) as linecard:
            report = self.pps(
                "stages.graph.pps", self.n,
                lambda: linecard.run(
                    self.spill, segment_packets=self.sizes.segment
                ),
            )
        self.put(
            "stages.graph.overhead_ratio",
            self.value("stages.graph.pps") / self.value("serve.session.classify_pps"),
            "ratio",
        )
        # Read from the public StageReport: reported by the graph, not
        # measured from here.
        busy = {stage.kind: stage.busy_s for stage in report.stages}
        for kind in STAGE_KINDS:
            self.put(f"stages.{kind}.busy_s", busy[kind], "s")
        self.put(
            "stages.drops", sum(stage.dropped for stage in report.stages), "count"
        )

    # -- serve.tenancy ---------------------------------------------------
    def tenancy(self) -> None:
        names = [f"t{i}" for i in range(self.sizes.tenants)]
        config = EngineConfig(backend="hypercuts", **CACHE)
        tenants = [(TenantSpec(name=name, config=config), self.rules) for name in names]
        share = self.spill.subset(self.sizes.slow_packets)
        traffic = {name: share for name in names}
        with MultiTenantEngine.open(tenants) as fleet:
            report = self.pps(
                "serve.tenancy.aggregate_pps.t8", share.n_packets * len(names),
                lambda: fleet.serve(traffic, segment_packets=self.sizes.segment),
            )
        self.put(
            "serve.tenancy.aggregate_ratio",
            self.value("serve.tenancy.aggregate_pps.t8")
            / self.value("serve.session.classify_pps"),
            "ratio",
        )
        self.put(
            "serve.tenancy.min_tenant_pps",
            min(tenant.throughput_pps for tenant in report.tenants), "pkt/s",
        )

    # -- ledger.waterfall ------------------------------------------------
    def waterfall(self) -> None:
        below = None
        for layer, source in WATERFALL:
            pps = self.value(source)
            self.put(f"ledger.waterfall.{layer}.pps", pps, "pkt/s")
            if below is not None:  # the innermost layer has nothing below it
                self.put(
                    f"ledger.waterfall.{layer}.lost_vs_below_pct",
                    (below - pps) / below * 100.0, "%",
                )
            below = pps
