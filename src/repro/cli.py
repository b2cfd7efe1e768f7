"""Command-line interface (`repro-classify` / ``python -m repro.cli``).

Subcommands mirror a hardware bring-up flow:

* ``generate`` — synthesise a ClassBench-style ruleset (and trace);
* ``build`` — build a search structure and report its size/shape;
* ``classify`` — run a trace through any registered engine backend
  (decision trees default to the accelerator model) and print
  throughput/energy on the paper's devices;
* ``bench`` — serve a trace through a :class:`~repro.serve.Engine`
  session (sharded, optionally cached/updatable, optionally
  with streamed segment ingestion) and report serving throughput plus,
  for the accelerator, device throughput and energy;
* ``serve`` — stand up a :class:`~repro.serve.MultiTenantEngine` from
  a base engine config plus a tenants JSON (one ruleset/trace/weight
  per tenant), run the weighted-fair session, and print per-tenant
  throughput and SLO percentiles alongside the aggregate;
* ``linecard`` — run a declarative line-card RX stage graph
  (:class:`~repro.stages.StageGraph`: parse -> drop -> extract ->
  tcam_prefilter -> flow_cache -> classify -> rewrite -> queue_select)
  over one engine session and print per-stage telemetry;
* ``sweep`` — expand a declarative :class:`~repro.sweeps.SweepSpec`
  scenario grid (family x size x backend x cache x skew x churn), run
  every cell through the engine, and emit ``BENCH_sweeps.json`` plus a
  markdown matrix (the CI sweep jobs' entry point);
* ``tables`` — regenerate the paper's tables (wraps run_all);
* ``fsm`` — print a Figure-5 style cycle trace for a few packets.

Every flag is generated from a field declaration: the workload flags
from :class:`TenantEntry`, the one workload declaration (a ``serve
--tenants`` entry's keys; :meth:`TenantEntry.ruleset` /
:meth:`TenantEntry.trace` build flags and tenants files alike), the
engine flags from :class:`~repro.serve.EngineConfig`
(``EngineConfig.from_args`` maps them back onto a config; the config
test suite pins the round trip).  :func:`render_report` is the one
report renderer: ``classify``, ``bench``, ``serve`` and ``linecard``
print their :class:`~repro.engine.report.EngineReport` through it, each
section under the condition ``EngineReport.to_dict`` uses, and ``-o
REPORT.json`` writes ``to_dict()``.  Backend construction, cache
wrapping and pool lifecycle belong to :class:`~repro.serve.Engine`.

``--algorithm`` accepts every name in :mod:`repro.engine.registry`
(``repro-classify classify --algorithm rfc ...``); ``build`` errors
cleanly for backends that do not construct a decision tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from .algorithms import TREE_BUILDERS, OpCounter, native, tree_builder
from .classbench import (
    FAMILIES,
    generate_ruleset,
    generate_trace,
    generate_update_stream,
    generate_zipf_trace,
)
from .core.errors import ConfigError, ReproError
from .core.packet import PacketTrace
from .core.ruleset import RuleSet
from .core.spec import Spec, field, read_json
from .energy import CacheEnergyModel, UpdateCostModel, ops_delta
from .engine import CachedClassifier, available_backends, backend_spec
from .engine.registry import registered_aliases
from .engine.report import EngineReport
from .hw import build_memory_image, figure5_trace
from .serve import (
    DEFAULT_SEGMENT_PACKETS,
    Engine,
    EngineConfig,
    FaultPlan,
    MultiTenantEngine,
    QuarantineLog,
    TenantSpec,
    iter_trace_file,
)
from .sweeps import (
    TIERS,
    SweepSpec,
    default_spec,
    parse_filters,
    render_matrix,
    run_sweep,
)

#: Names ``--algorithm`` accepts: every registered backend plus aliases.
_ALGORITHM_CHOICES = sorted(set(available_backends()) | set(registered_aliases()))

#: The EngineConfig fields each subcommand exposes as flags
#: (``EngineConfig.add_arguments`` generates them).
_BUILD_FIELDS = ("backend", "binth", "spfac", "speed", "software")
_PIPELINE_FIELDS = (
    "shards", "chunk_size", "shard_mode", "min_chunk_packets", "persistent",
    "updatable",
)
_CACHE_FIELDS = ("cache_entries", "cache_ways")
_SERVING_FIELDS = (
    "energy_model", "fault_policy", "max_retries", "chunk_timeout_s",
    "on_malformed",
)


@dataclass(frozen=True)
class TenantEntry(Spec):
    """One object of a ``serve --tenants`` file: the tenant's name and
    weight, an overlay of the base engine config, and its synthetic
    workload — whose fields are also the workload flags of the other
    subcommands, so a tenants file reads like N bench invocations.  In
    a tenants file ``name`` defaults to ``tenant<i>`` and ``seed`` to a
    per-index offset, so tenants get distinct rulesets and traces."""

    name: str | None = None
    weight: float = 1.0
    config: dict = field(default_factory=dict)
    family: str = field("acl1", choices=tuple(sorted(FAMILIES)))
    rules: int = 500
    seed: int | None = None
    packets: int = 10000
    zipf: float | None = field(
        None, metavar="SKEW",
        help="generate a Zipf(SKEW) flow-popularity trace instead of the "
        "Pareto-burst one",
    )
    flows: int = field(
        1024, help="distinct flows in the Zipf trace (with --zipf)"
    )

    def ruleset(self) -> RuleSet:
        """The declared ruleset (``seed`` set: a tenants file sets one
        per index)."""
        return generate_ruleset(self.family, self.rules, seed=self.seed)

    def trace(self, ruleset: RuleSet) -> PacketTrace:
        """``packets`` packets over ``ruleset``: Zipf(``zipf``) over
        ``flows`` flows, or Pareto bursts when ``zipf`` is unset."""
        if self.zipf is None:
            return generate_trace(ruleset, self.packets, seed=self.seed + 1)
        return generate_zipf_trace(
            ruleset, self.packets, n_flows=self.flows, skew=self.zipf,
            seed=self.seed + 1,
        )


#: The workload flags' command-line defaults (a tenants file's entries
#: keep ``TenantEntry``'s own; ``--packets`` is per subcommand).  The
#: optional fields' flags name their value type.
_WORKLOAD_FLAGS = {
    "family": {"default": "acl1"},
    "rules": {"default": 1000},
    "seed": {"default": 7, "type": int},
    "zipf": {"type": float},
    "flows": {"default": 1024},
}

#: Flags more than one subcommand takes, declared once.
_SHARED_FLAGS = {
    "--ruleset-file": dict(help="load instead of generating"),
    "--trace-file": dict(
        metavar="FILE.txt",
        help="ClassBench text trace to serve instead of a generated one "
        "(malformed lines follow the on_malformed policy and are counted)",
    ),
    "--segment-packets": dict(
        type=int, default=DEFAULT_SEGMENT_PACKETS, metavar="N",
        help="packets per stream segment (serve interleaves tenants at "
        "this grain)",
    ),
    "--faults": dict(
        metavar="PLAN.json",
        help="inject a deterministic fault plan (JSON written by "
        "FaultPlan.save) into the first run; stage-targeted specs hit "
        "the line card's stages",
    ),
    "-o --output": dict(
        metavar="REPORT.json",
        help="write the EngineReport (with any per-tenant or per-stage "
        "telemetry) as JSON",
    ),
}


def _ruleset(args) -> RuleSet:
    """``--ruleset-file``, else the ruleset the workload flags declare."""
    if args.ruleset_file:
        return RuleSet.load(args.ruleset_file)
    return TenantEntry.from_args(args).ruleset()


def _trace(args, ruleset: RuleSet, on_malformed: str) -> tuple[PacketTrace, int]:
    """``--trace-file`` read whole under ``on_malformed``, with the
    number of lines it quarantined; else the declared trace."""
    if not args.trace_file:
        return TenantEntry.from_args(args).trace(ruleset), 0
    quarantine = QuarantineLog()
    blocks = [
        segment.headers
        for segment in iter_trace_file(
            args.trace_file, ruleset.schema,
            on_malformed=on_malformed, quarantine=quarantine,
        )
    ]
    empty = np.empty((0, ruleset.schema.ndim), np.uint32)
    headers = np.concatenate([empty, *blocks])  # each segment is checked
    return PacketTrace.from_checked(headers, ruleset.schema), quarantine.count


def _build_tree(ruleset: RuleSet, config: EngineConfig):
    return tree_builder(
        config.backend, ruleset, binth=config.binth, spfac=config.spfac,
        hw_mode=not config.software,
    ).build()


def render_report(
    report: EngineReport,
    engine: Engine | None = None,
    *,
    build_ops: OpCounter | None = None,
    title: str = "",
    output: str | None = None,
) -> None:
    """Print ``report``: the headline and shape, then each section only
    when the report carries it (the conditions ``to_dict()`` uses) —
    faults, updates, flow cache (per shard when sharded), occupancy and
    device, tenants, stages — and write ``to_dict()`` to ``output``.

    ``engine`` (the session that served it) adds the classifier's
    memory model, flow-cache geometry and energy split, kernel patch
    counters and pool state; ``build_ops``, the op counts of its build,
    prices the updates against a rebuild.  Cache counts come from the
    report, not the live cache: a sharded run's caches live in forked
    workers, and only the per-chunk counters travel back."""
    clf = engine.classifier if engine is not None else None
    print(f"{title}classified {report.n_packets} packets, {report.matched} "
          f"matched ({100 * report.matched_fraction:.1f}%): "
          f"{report.throughput_pps:,.0f} packets/s (wall clock "
          f"{report.elapsed_s * 1e3:.1f} ms)")
    kernel = native.status()
    pool = "" if engine is None else (
        f"  pool: {'held' if engine.pool_engaged else 'none'}"
    )
    print(f"backend: {report.backend}  shards: {report.n_shards}  "
          f"chunk: {report.chunk_size} packets  chunks: {report.n_chunks}  "
          f"segments: {report.n_segments}{pool}  "
          f"kernel: {kernel['kernel']}"
          + (f" ({kernel['reason']})" if kernel["reason"] else ""))
    if clf is not None:
        print(f"memory model: {clf.memory_bytes():,} bytes, worst-case "
              f"accesses/lookup: {clf.memory_accesses_per_lookup()}")

    fault = report.fault
    if fault.quarantined:
        print(f"quarantined: {fault.quarantined} malformed trace lines")
    if dataclasses.replace(fault, quarantined=0).any():
        counts = (
            (fault.worker_crashes, "worker crashes"),
            (fault.timeouts, "deadline overruns"),
            (fault.arena_faults, "arena fence trips"),
            (fault.update_retries, "update retries"),
            (fault.ingest_retries, "ingest retries"),
        )
        print(f"fault recovery: {fault.retries} retries, {fault.replays} "
              f"chunk replays"
              + "".join(f", {n} {what}" for n, what in counts if n))
        for step in fault.degradations:
            print(f"  degraded {step}")
        if fault.recovery_s:
            print(f"  worst recovery: {max(fault.recovery_s) * 1e3:.1f} ms")

    if report.update_batches or report.final_epoch is not None:
        print(f"updates: {report.update_batches} batches / "
              f"{report.update_ops} ops ({report.update_skipped} skipped), "
              f"epochs {report.first_epoch}..{report.final_epoch}")
        pct = report.update_latency
        if pct is not None:
            print(f"update latency/batch: p50 {pct['p50_ms']:.3f} ms, "
                  f"p95 {pct['p95_ms']:.3f} ms, p99 {pct['p99_ms']:.3f} ms "
                  f"(max {pct['max_ms']:.3f} ms over {pct['batches']} "
                  f"batches)")
        inner = getattr(clf, "classifier", clf)
        tree = getattr(inner, "tree", None)
        if hasattr(tree, "flat_patches"):
            tree.flat  # flush any pending control-plane patch
            print(f"flat kernel (this process): {tree.flat_patches} "
                  f"row-splice patches, {tree.flat_compiles} full compiles")
        ops = getattr(inner, "ops", None)
        delta = (
            ops_delta(ops, build_ops)
            if build_ops is not None and hasattr(ops, "counts") else None
        )
        if delta is not None and delta.total() > 0 and report.update_ops:
            model = UpdateCostModel()
            # Average the *energy* over batches, not the op counts —
            # integer counters would floor low-frequency categories.
            update_j = model.update_energy_j(delta) / max(
                1, report.update_batches
            )
            rebuild_j = model.rebuild_energy_j(build_ops)
            break_even = rebuild_j / update_j if update_j > 0 else float("inf")
            print(f"update energy model: {update_j:.3E} J/batch "
                  f"control-plane vs {rebuild_j:.3E} J full rebuild "
                  f"({break_even:,.0f} batches to break even)")

    if report.cache_hits is not None:
        hit_rate = report.cache_hit_rate
        cached = isinstance(clf, CachedClassifier)
        geometry = (
            f"{clf.cache.entries} entries x {clf.cache.ways}-way, "
            if cached else ""
        )
        print(f"flow cache: {geometry}hit rate {100 * hit_rate:.1f}% "
              f"({report.cache_hits}/{report.cache_lookups}), "
              f"{report.cache_misses} backend lookups, "
              f"{report.cache_evictions} evictions")
        if cached:
            model = CacheEnergyModel.for_classifier(clf)
            print(f"effective accesses/lookup: "
                  f"{model.effective_accesses_per_lookup(hit_rate):.2f} "
                  f"vs {model.backend_accesses:.0f} uncached "
                  f"({model.effective_lookup_speedup(hit_rate):.1f}x fewer)")
            print(f"cache energy model: "
                  f"{model.energy_per_packet_j(hit_rate):.3E} J/packet vs "
                  f"{model.uncached_energy_per_packet_j():.3E} uncached")
        shards = report.shard_cache_stats()
        for d in shards if len(shards) > 1 else ():
            print(f"  shard {d['shard']}: {d['chunks']} chunks, "
                  f"hit rate {100 * d['hit_rate']:.1f}% "
                  f"({d['hits']}/{d['hits'] + d['misses']}), "
                  f"{d['evictions']} evictions")

    mean_occupancy = report.mean_occupancy()
    if mean_occupancy is not None:
        print(f"mean occupancy: {mean_occupancy:.3f} cycles/packet")
        print(f"worst-case latency: {int(report.occupancy.max()) + 1} cycles")
    if report.device_throughput_pps is not None:
        label = "ASIC 226MHz" if report.energy_model == "asic" else "FPGA  77MHz"
        print(f"{label}: {report.device_throughput_pps / 1e6:8.1f} Mpps, "
              f"{report.energy_per_packet_j:.3E} J/packet")

    if report.tenants is not None:
        print(f"{len(report.tenants)} tenants:")
        for t in report.tenants:
            line = (f"  {t.name:<12s} w={t.weight:<4g} "
                    f"{t.n_packets:>8d} packets  {t.n_segments:>4d} segments  "
                    f"{t.throughput_pps:>12,.0f} pps")
            slo = t.slo
            if slo is not None:
                line += (f"  p50 {slo['p50_ms']:.2f} / p95 {slo['p95_ms']:.2f}"
                         f" / p99 {slo['p99_ms']:.2f} ms")
            if t.fault:
                line += f"  FAULT: {t.fault}"
            print(line)

    if report.stages is not None:
        print(f"{len(report.stages)} stages:")
        for s in report.stages:
            line = (f"  {s.name:<15s} in {s.packets_in:>8d}  "
                    f"out {s.packets_out:>8d}  {s.energy_j:.3E} J")
            if s.dropped:
                line += "  drops " + ", ".join(
                    f"{k}={v}" for k, v in sorted(s.drops.items())
                )
            if s.retries:
                line += f"  retries {s.retries}"
            print(line)

    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {output}")


def cmd_generate(args) -> int:
    entry = TenantEntry.from_args(args)
    rs = entry.ruleset()
    rs.save(args.output)
    print(f"wrote {len(rs)} rules to {args.output}")
    if args.trace:
        trace = entry.trace(rs)
        trace.save(args.trace)
        print(f"wrote {trace.n_packets} packets to {args.trace}")
    return 0


def cmd_build(args) -> int:
    config = EngineConfig.from_args(args)
    spec = backend_spec(config.backend)
    if not spec.builds_tree:
        print(
            f"error: backend {spec.name!r} does not build a decision tree; "
            f"'build' supports {', '.join(TREE_BUILDERS)} — use "
            f"'classify' or 'bench' for {spec.name!r}",
            file=sys.stderr,
        )
        return 2
    rs = _ruleset(args)
    tree = _build_tree(rs, config)
    st = tree.stats()
    print(f"ruleset: {rs.name} ({len(rs)} rules)")
    print(f"algorithm: {config.backend} "
          f"({'sw' if config.software else 'hw'} mode)")
    print(f"nodes: {st.n_nodes} ({st.n_internal} internal, {st.n_leaves} leaves)")
    print(f"depth: {st.max_depth}, max leaf: {st.max_leaf_rules} rules")
    if not config.software:
        image = build_memory_image(tree, speed=config.speed)
        print(
            f"memory image: {image.words_used} words = {image.bytes_used:,} "
            f"bytes (speed={config.speed})"
        )
        print(f"worst-case cycles: {image.worst_case_cycles()}")
    else:
        print(f"software memory model: {tree.software_memory_bytes():,} bytes")
    return 0


def cmd_classify(args) -> int:
    config = EngineConfig.from_args(args)
    rs = _ruleset(args)
    trace, quarantined = _trace(args, rs, config.on_malformed)
    with Engine.open(config, rs) as engine:
        report = engine.classify(trace)
        report.fault.quarantined += quarantined
        render_report(report, engine)
    return 0


def _parse_update_mix(mix: str) -> float:
    """``"70:30"`` -> insert fraction 0.7 (inserts : removes)."""
    try:
        ins, rem = (float(part) for part in mix.split(":"))
    except ValueError:
        raise ConfigError(
            f"bad --update-mix {mix!r}; expected INSERT:REMOVE, e.g. 70:30"
        ) from None
    if ins < 0 or rem < 0 or ins + rem <= 0:
        raise ConfigError(f"bad --update-mix {mix!r}; weights must be >= 0")
    return ins / (ins + rem)


def cmd_bench(args) -> int:
    config = EngineConfig.from_args(args)
    fault_plan = FaultPlan.coerce(args.faults)
    rs = _ruleset(args)
    trace, quarantined = _trace(args, rs, config.on_malformed)
    schedule = None
    if args.updates:
        schedule = generate_update_stream(
            rs, args.updates, trace.n_packets,
            insert_fraction=_parse_update_mix(args.update_mix),
            batch_size=args.update_batch, seed=args.seed + 2,
        )
    # The update energy model prices the updates' op counts against the
    # build's, so an updatable backend counts from its build on.
    ops = {"ops": OpCounter()} if config.updatable else {}
    with Engine.open(config, rs, **ops) as engine:
        build_ops = ops["ops"].copy() if ops else None
        if args.updates:
            plan = engine.pipeline.plan(
                args.stream or trace.n_packets, updates=True
            )
            if plan.workers < config.shards:
                print(f"note: a run (or streamed segment) that carries "
                      f"updates serves on {plan.workers} of "
                      f"{config.shards} shards ({plan.reason})",
                      file=sys.stderr)
        if args.stream and config.shards > 1:
            plan = engine.pipeline.plan(args.stream)
            if plan.workers < 2:
                print(f"warning: --stream {args.stream} segments serve on "
                      f"one shard ({plan.reason})", file=sys.stderr)
        # The update stream rides along the first run; repeats then
        # serve the updated ruleset (steady state after the churn).
        if args.stream:
            report = engine.classify_stream(
                trace, updates=schedule, faults=fault_plan,
                segment_packets=args.stream,
            )
        else:
            report = engine.classify(trace, updates=schedule, faults=fault_plan)
        report.fault.quarantined += quarantined
        for i in range(args.repeats):
            if i:
                report = engine.classify(trace)
            render_report(
                report, engine, build_ops=build_ops,
                title=f"run {i + 1}/{args.repeats}: " if args.repeats > 1 else "",
            )
    return 0


def _load_tenants_file(path: str, base: EngineConfig):
    """Parse a tenants JSON (a list of :class:`TenantEntry` objects)
    into ``(spec, ruleset)`` pairs + workloads."""
    entries = read_json(path, "tenants file")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(
            f"{path}: expected a non-empty JSON list of tenant objects"
        )
    tenants: list[tuple[TenantSpec, RuleSet]] = []
    workloads: dict[str, PacketTrace] = {}
    for i, raw in enumerate(entries):
        try:
            entry = TenantEntry.from_dict(raw, what="keys")
            spec = TenantSpec(
                name=f"tenant{i}" if entry.name is None else entry.name,
                config=EngineConfig.from_dict(
                    {**base.to_dict(), **entry.config}
                ),
                weight=entry.weight,
            )
        except ConfigError as exc:
            raise ConfigError(f"{path}: tenant #{i}: {exc}") from None
        if entry.seed is None:
            entry = dataclasses.replace(entry, seed=7 + 13 * i)
        ruleset = entry.ruleset()
        tenants.append((spec, ruleset))
        workloads[spec.name] = entry.trace(ruleset)
    return tenants, workloads


def cmd_serve(args) -> int:
    base = EngineConfig.load(args.config) if args.config else EngineConfig()
    tenants, workloads = _load_tenants_file(args.tenants, base)
    with MultiTenantEngine.open(tenants) as engine:
        report = engine.serve(
            workloads, segment_packets=args.segment_packets,
            quantum=args.quantum,
        )
    render_report(report, output=args.output)
    return 0


def cmd_sweep(args) -> int:
    if args.spec:
        spec = SweepSpec.load(args.spec)
        if args.quick:
            spec = spec.quick()
    else:
        spec = default_spec("quick" if args.quick else args.tier)
    filters = parse_filters(args.filter)
    print(
        f"sweep {spec.name!r}: {spec.n_cells} cells "
        f"({len(spec.families)} families x {len(spec.sizes)} sizes x "
        f"{len(spec.backends)} backends x cache/skew grid)"
        + (f", filtered by {args.filter}" if filters else "")
    )
    result = run_sweep(
        spec, filters=filters, progress=print if args.verbose else None
    )
    if not result.cells:
        print("error: no cells matched the filter", file=sys.stderr)
        return 2
    artifact = result.save(args.output)
    print(
        f"ran {len(result.cells)} cells in {result.elapsed_s:.1f}s, "
        f"wrote {artifact}"
    )
    matrix = render_matrix(result.to_dict())
    if args.matrix:
        with open(args.matrix, "w", encoding="utf-8") as fh:
            fh.write(matrix + "\n")
        print(f"wrote matrix to {args.matrix}")
    else:
        print()
        print(matrix)
    return 0


def cmd_linecard(args) -> int:
    from .stages import StageGraph, StageGraphSpec, default_graph

    spec = default_graph(
        {"backend": args.algorithm},
        cache_entries=args.cache_entries,
        cache_ways=args.cache_ways,
    )
    if args.emit_graph:
        spec.save(args.emit_graph)
        print(f"wrote the default {len(spec.stages)}-stage graph "
              f"to {args.emit_graph}")
        return 0
    if args.graph:
        spec = StageGraphSpec.load(args.graph)
    rs = _ruleset(args)
    source = args.trace_file or TenantEntry.from_args(args).trace(rs)
    with StageGraph(spec, rs) as graph:
        report = graph.run(
            source, faults=FaultPlan.coerce(args.faults),
            segment_packets=args.segment_packets,
        )
        render_report(report, graph.engine, output=args.output)
    return 0


def cmd_tables(args) -> int:
    from .experiments.run_all import run_all

    out = run_all(quick=args.quick, seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("# Regenerated experiments\n\n" + out + "\n")
        print(f"wrote {args.output}")
    else:
        print(out)
    return 0


def cmd_fsm(args) -> int:
    config = EngineConfig.from_args(args)
    rs = _ruleset(args)
    tree = _build_tree(rs, config)
    image = build_memory_image(tree, speed=config.speed)
    trace = TenantEntry.from_args(args).trace(rs)
    for e in figure5_trace(image, trace):
        print(f"cycle {e.cycle:>5d}  {e.state:<10s} {e.detail}")
    return 0


class _UpdatesAction(argparse.Action):
    """``--updates N``: a non-zero count also sets ``updatable`` (the
    update stream needs the update-serving surface)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if values:
            namespace.updatable = True


def _add_workload_args(
    p: argparse.ArgumentParser, packets: int, *files: str, skew: bool = False
) -> None:
    """The workload flags, generated from :class:`TenantEntry`'s fields
    at the command-line defaults (``--zipf`` / ``--flows`` with
    ``skew``), then the shared ``files`` flags that load one instead."""
    names = ("family", "rules", "seed", "packets")
    TenantEntry.add_arguments(
        p, names + (("zipf", "flows") if skew else ()),
        packets={"default": packets}, **_WORKLOAD_FLAGS,
    )
    _add_shared(p, *files)


def _add_engine_args(
    p: argparse.ArgumentParser, *fields: str,
    algorithms=_ALGORITHM_CHOICES,
) -> None:
    """The build flags plus ``fields``, generated from EngineConfig."""
    EngineConfig.add_arguments(
        p, _BUILD_FIELDS + fields, backend={"choices": algorithms}
    )


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(*flag.split(), **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (exposed so the config round-trip tests can
    feed ``EngineConfig.to_args()`` back through the real parser)."""
    parser = argparse.ArgumentParser(prog="repro-classify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesise a ruleset (and trace)")
    _add_workload_args(g, 10000)
    g.add_argument("--output", required=True)
    g.add_argument("--trace", default=None)
    g.set_defaults(fn=cmd_generate)

    b = sub.add_parser("build", help="build a search structure")
    _add_workload_args(b, 10000, "--ruleset-file")
    _add_engine_args(b)
    b.set_defaults(fn=cmd_build)

    c = sub.add_parser("classify", help="classify a trace")
    _add_workload_args(c, 100000, "--ruleset-file", "--trace-file", skew=True)
    _add_engine_args(c, *_CACHE_FIELDS, *_SERVING_FIELDS)
    c.set_defaults(fn=cmd_classify)

    n = sub.add_parser("bench", help="serve a trace through an Engine "
                                     "session (sharded pipeline)")
    _add_workload_args(n, 100000, "--ruleset-file", "--trace-file", skew=True)
    _add_engine_args(n, *_PIPELINE_FIELDS, *_CACHE_FIELDS, *_SERVING_FIELDS)
    n.add_argument("--repeats", type=int, default=1,
                   help="run the trace N times (shows the held "
                        "workers' fork-amortisation win)")
    n.add_argument("--stream", type=int, default=0, metavar="PACKETS",
                   help="serve the trace as streamed PACKETS-sized "
                        "segments through Engine.stream (pulled and "
                        "classified one at a time on the calling "
                        "thread; 0 = one-shot)")
    n.add_argument("--updates", type=int, default=0, metavar="N",
                   action=_UpdatesAction,
                   help="interleave N live rule updates with the first "
                        "run (tree algorithms serve them through the "
                        "incremental backend)")
    n.add_argument("--update-mix", default="50:50", metavar="INS:REM",
                   help="insert:remove weighting of the update stream")
    n.add_argument("--update-batch", type=int, default=8, metavar="OPS",
                   help="operations per scheduled update batch")
    _add_shared(n, "--faults")
    n.set_defaults(fn=cmd_bench)

    v = sub.add_parser(
        "serve",
        help="serve N tenants through one MultiTenantEngine "
             "(weighted-fair admission, one forked-worker lease)",
    )
    v.add_argument("--config", default=None, metavar="ENGINE.json",
                   help="base EngineConfig JSON every tenant inherits "
                        "(default: library defaults; per-tenant 'config' "
                        "entries overlay it)")
    v.add_argument("--tenants", required=True, metavar="TENANTS.json",
                   help="JSON list of tenant objects: name, weight, "
                        "config overlay, and workload knobs "
                        "(family/rules/seed/packets/zipf/flows)")
    _add_shared(v, "--segment-packets")
    v.add_argument("--quantum", type=int, default=None, metavar="PACKETS",
                   help="deficit round-robin quantum in packets per "
                        "weight unit (default: one segment)")
    _add_shared(v, "-o --output")
    v.set_defaults(fn=cmd_serve)

    s = sub.add_parser(
        "sweep",
        help="run a declarative scenario grid (family x size x backend "
             "x cache x skew x churn) and emit BENCH_sweeps.json",
    )
    s.add_argument("--spec", default=None, metavar="SPEC.json",
                   help="load a SweepSpec JSON instead of a built-in tier")
    s.add_argument("--tier", default="quick", choices=list(TIERS),
                   help="built-in grid tier when no --spec is given: "
                        "quick (PR path), full (nightly grid), soak "
                        "(nightly churn runs)")
    s.add_argument("--quick", action="store_true",
                   help="shrink the selected spec to PR-path size "
                        "(<= 3 sizes, <= 2500 rules, 20k packets)")
    s.add_argument("--filter", action="append", default=[],
                   metavar="AXIS=VALUE[,VALUE...]",
                   help="run only cells matching the axis constraint "
                        "(repeatable; e.g. --filter family=fw1)")
    s.add_argument("-o", "--output", default="BENCH_sweeps.json",
                   help="artifact path (default BENCH_sweeps.json)")
    s.add_argument("--matrix", default=None, metavar="FILE.md",
                   help="write the rendered markdown matrix to a file "
                        "instead of stdout")
    s.add_argument("-v", "--verbose", action="store_true",
                   help="print one progress line per cell")
    s.set_defaults(fn=cmd_sweep)

    l = sub.add_parser(
        "linecard",
        help="run a declarative line-card RX stage graph (parse -> drop "
             "-> extract -> tcam_prefilter -> flow_cache -> classify -> "
             "rewrite -> queue_select) over one Engine session",
    )
    l.add_argument("--graph", default=None, metavar="GRAPH.json",
                   help="StageGraphSpec JSON (StageGraphSpec.save / "
                        "--emit-graph); default: the built-in full "
                        "pipeline with the flags below")
    l.add_argument("--emit-graph", default=None, metavar="FILE.json",
                   help="write the default graph spec (honouring "
                        "--algorithm/--cache-entries) as editable JSON "
                        "and exit")
    _add_workload_args(l, 100000, "--ruleset-file", "--trace-file", skew=True)
    # The default graph's classify stage and flow_cache stage: kept out
    # of an EngineConfig (the graph spec owns them), so they store into
    # their own names at the line card's defaults.
    EngineConfig.add_arguments(
        l, ("backend", *_CACHE_FIELDS),
        backend={"dest": "algorithm", "default": "hypercuts",
                 "choices": _ALGORITHM_CHOICES,
                 "help": "classify-stage backend for the default graph "
                         "(ignored with --graph: the spec names its own)"},
        cache_entries={"default": 4096,
                       "help": "flow_cache stage entries for the default "
                               "graph (0 omits the stage)"},
        cache_ways={"default": 4},
    )
    _add_shared(l, "--segment-packets", "--faults", "-o --output")
    l.set_defaults(fn=cmd_linecard)

    t = sub.add_parser("tables", help="regenerate the paper's tables")
    t.add_argument("--quick", action="store_true")
    t.add_argument("--seed", type=int, default=7)
    t.add_argument("-o", "--output", default=None)
    t.set_defaults(fn=cmd_tables)

    f = sub.add_parser("fsm", help="Figure-5 cycle trace")
    _add_workload_args(f, 5, "--ruleset-file")
    _add_engine_args(f, algorithms=list(TREE_BUILDERS))
    f.set_defaults(fn=cmd_fsm)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
