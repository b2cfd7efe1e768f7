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

``classify`` and ``bench`` are thin shells over the declarative serving
API: their :class:`~repro.serve.EngineConfig` flags are generated from
the config's field declarations (``EngineConfig.add_arguments``), the
namespace maps back onto a config via ``EngineConfig.from_args`` (and
forth via ``to_args`` — the config test suite pins the round trip), and
all backend construction, cache wrapping and pool lifecycle belongs to
:class:`~repro.serve.Engine`.

``--algorithm`` accepts every name in :mod:`repro.engine.registry`
(``repro-classify classify --algorithm rfc ...``); ``build`` errors
cleanly for backends that do not construct a decision tree.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .algorithms import OpCounter, build_hicuts, build_hypercuts, native
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
    iter_trace_segments,
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
_TREE_ALGORITHMS = ("hicuts", "hypercuts")

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


def _load_or_generate(args) -> RuleSet:
    if getattr(args, "ruleset_file", None):
        return RuleSet.load(args.ruleset_file)
    return generate_ruleset(args.family, args.rules, seed=args.seed)


def _load_or_generate_trace(
    args, ruleset: RuleSet, on_malformed: str = "raise"
) -> PacketTrace:
    if getattr(args, "trace_file", None):
        quarantine = QuarantineLog()
        blocks = [
            segment.headers
            for segment in iter_trace_file(
                args.trace_file, ruleset.schema,
                on_malformed=on_malformed, quarantine=quarantine,
            )
        ]
        if quarantine:
            print(f"quarantined: {quarantine.count} malformed trace lines")
        if not blocks:
            return PacketTrace.from_packets((), ruleset.schema)
        return PacketTrace(np.concatenate(blocks), ruleset.schema)
    zipf = getattr(args, "zipf", None)
    if zipf is not None:
        return generate_zipf_trace(
            ruleset, args.packets, n_flows=args.flows, skew=zipf,
            seed=args.seed + 1,
        )
    return generate_trace(ruleset, args.packets, seed=args.seed + 1)


def _build_tree(ruleset: RuleSet, config: EngineConfig):
    build = build_hypercuts if config.backend == "hypercuts" else build_hicuts
    return build(
        ruleset, binth=config.binth, spfac=config.spfac,
        hw_mode=not config.software,
    )


def _open_engine(ruleset: RuleSet, config: EngineConfig) -> Engine:
    """Open the serving session the CLI's ``config`` describes.

    The whole knob-to-backend policy (tree names route to the
    accelerator unless ``--software``, ``--updates``/``--updatable``
    builds through the update-serving surface, ``--cache-entries``
    wraps a flow cache) lives in
    :meth:`repro.serve.Engine.build_classifier`; the CLI only maps
    flags to an :class:`~repro.serve.EngineConfig`.
    """
    if config.updatable:
        build_ops = OpCounter()
        engine = Engine.open(config, ruleset, ops=build_ops)
        inner = getattr(engine.classifier, "classifier", engine.classifier)
        inner.build_ops_snapshot = build_ops.copy()
        return engine
    return Engine.open(config, ruleset)


def _print_cache_report(clf, hits: int, misses: int, evictions: int) -> None:
    """Hit rate, effective accesses and the hit/miss energy split.

    Counts are passed in rather than read off ``clf.cache.stats``: in a
    sharded pipeline the caches live in forked workers, and only the
    per-chunk counters travel back to this process.
    """
    lookups = hits + misses
    hit_rate = hits / lookups if lookups else 0.0
    cache = clf.cache
    model = CacheEnergyModel.for_classifier(clf)
    print(f"flow cache: {cache.entries} entries x {cache.ways}-way, "
          f"hit rate {100 * hit_rate:.1f}% ({hits}/{lookups}), "
          f"{misses} backend lookups, {evictions} evictions")
    print(f"effective accesses/lookup: "
          f"{model.effective_accesses_per_lookup(hit_rate):.2f} "
          f"vs {model.backend_accesses:.0f} uncached "
          f"({model.effective_lookup_speedup(hit_rate):.1f}x fewer)")
    print(f"cache energy model: {model.energy_per_packet_j(hit_rate):.3E} "
          f"J/packet vs {model.uncached_energy_per_packet_j():.3E} uncached")


def cmd_generate(args) -> int:
    rs = generate_ruleset(args.family, args.rules, seed=args.seed)
    rs.save(args.output)
    print(f"wrote {len(rs)} rules to {args.output}")
    if args.trace:
        trace = generate_trace(rs, args.packets, seed=args.seed + 1)
        trace.save(args.trace)
        print(f"wrote {trace.n_packets} packets to {args.trace}")
    return 0


def cmd_build(args) -> int:
    config = EngineConfig.from_args(args)
    spec = backend_spec(config.backend)
    if not spec.builds_tree:
        print(
            f"error: backend {spec.name!r} does not build a decision tree; "
            f"'build' supports {', '.join(_TREE_ALGORITHMS)} — use "
            f"'classify' or 'bench' for {spec.name!r}",
            file=sys.stderr,
        )
        return 2
    rs = _load_or_generate(args)
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
    rs = _load_or_generate(args)
    trace = _load_or_generate_trace(args, rs, config.on_malformed)
    with _open_engine(rs, config) as engine:
        clf = engine.classifier
        report = engine.classify(trace)
        print(f"classified {report.n_packets} packets, "
              f"{report.matched} matched")
        print(f"backend: {engine.config.backend}")
        print(f"memory model: {clf.memory_bytes():,} bytes")
        print(f"worst-case accesses/lookup: "
              f"{clf.memory_accesses_per_lookup()}")
        if isinstance(clf, CachedClassifier):
            _print_cache_report(
                clf, report.cache_hits, report.cache_misses,
                report.cache_evictions,
            )
        _print_occupancy(report)
    return 0


def _print_occupancy(report) -> None:
    """A backend that models occupancy: its mean and worst-case cycles
    per packet, and the device the report's ``energy_model`` evaluated
    (nothing under ``"none"``)."""
    mo = report.mean_occupancy()
    if mo is None:
        return
    print(f"mean occupancy: {mo:.3f} cycles/packet")
    print(f"worst-case latency: {int(report.occupancy.max()) + 1} cycles")
    if report.device_throughput_pps is not None:
        label = (
            "ASIC 226MHz" if report.energy_model == "asic" else "FPGA  77MHz"
        )
        print(f"{label}: {report.device_throughput_pps / 1e6:8.1f} Mpps, "
              f"{report.energy_per_packet_j:.3E} J/packet")


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


def _print_update_report(clf, res) -> None:
    """Epoch trajectory, apply-latency percentiles, patch-vs-recompile
    counters, and the update energy model (control-plane ops vs a
    from-scratch rebuild)."""
    print(f"updates: {res.update_batches} batches / {res.update_ops} ops "
          f"({res.update_skipped} skipped), epochs "
          f"{res.first_epoch}..{res.final_epoch}")
    pct = res.update_latency
    if pct is not None:
        print(f"update latency/batch: p50 {pct['p50_ms']:.3f} ms, "
              f"p95 {pct['p95_ms']:.3f} ms, p99 {pct['p99_ms']:.3f} ms "
              f"(max {pct['max_ms']:.3f} ms over {pct['batches']} batches)")
    inner = getattr(clf, "classifier", clf)
    tree = getattr(inner, "tree", None)
    if tree is not None and hasattr(tree, "flat_patches"):
        tree.flat  # flush any pending control-plane patch
        print(f"flat kernel (this process): {tree.flat_patches} row-splice "
              f"patches, {tree.flat_compiles} full compiles")
    snapshot = getattr(clf, "build_ops_snapshot", None) or getattr(
        inner, "build_ops_snapshot", None
    )
    ops = getattr(inner, "ops", None)
    if snapshot is None or not hasattr(ops, "counts"):
        return
    delta = ops_delta(ops, snapshot)
    if delta.total() <= 0 or res.update_ops == 0:
        return
    model = UpdateCostModel()
    # Average the *energy* over batches, not the op counts — integer
    # counters would floor low-frequency categories to zero.
    update_j = model.update_energy_j(delta) / max(1, res.update_batches)
    rebuild_j = model.rebuild_energy_j(snapshot)
    break_even = rebuild_j / update_j if update_j > 0 else float("inf")
    print(f"update energy model: {update_j:.3E} J/batch control-plane vs "
          f"{rebuild_j:.3E} J full rebuild "
          f"({break_even:,.0f} batches to break even)")


def _print_fault_report(fault) -> None:
    """One-line supervisor summary plus any degradations taken."""
    parts = [f"{fault.retries} retries", f"{fault.replays} chunk replays"]
    if fault.worker_crashes:
        parts.append(f"{fault.worker_crashes} worker crashes")
    if fault.timeouts:
        parts.append(f"{fault.timeouts} deadline overruns")
    if fault.arena_faults:
        parts.append(f"{fault.arena_faults} arena fence trips")
    if fault.update_retries:
        parts.append(f"{fault.update_retries} update retries")
    if fault.ingest_retries:
        parts.append(f"{fault.ingest_retries} ingest retries")
    if fault.quarantined:
        parts.append(f"{fault.quarantined} packets quarantined")
    print(f"fault recovery: {', '.join(parts)}")
    for step in fault.degradations:
        print(f"  degraded {step}")
    if fault.recovery_s:
        print(f"  worst recovery: {max(fault.recovery_s) * 1e3:.1f} ms")


def cmd_bench(args) -> int:
    config = EngineConfig.from_args(args)
    fault_plan = FaultPlan.coerce(args.faults)
    rs = _load_or_generate(args)
    trace = _load_or_generate_trace(args, rs, config.on_malformed)
    shards = config.shards
    if args.updates and shards > 1 and config.shard_mode != "threads":
        print("note: a run (or streamed segment) that carries updates is "
              "served in-process on one shard; only update-free ones fork",
              file=sys.stderr)
    schedule = None
    if args.updates:
        schedule = generate_update_stream(
            rs, args.updates, trace.n_packets,
            insert_fraction=_parse_update_mix(args.update_mix),
            batch_size=args.update_batch, seed=args.seed + 2,
        )
    with _open_engine(rs, config) as engine:
        clf = engine.classifier
        if args.stream and shards > 1:
            plan = engine.pipeline.plan(args.stream)
            if plan.workers < 2:
                print(
                    f"warning: --stream {args.stream} segments serve on "
                    f"one shard ({plan.reason})",
                    file=sys.stderr,
                )
        # The update stream rides along the first run; repeats then
        # serve the updated ruleset (steady state after the churn).
        if args.stream:
            res = engine.classify_stream(
                iter_trace_segments(trace, args.stream), updates=schedule,
                faults=fault_plan,
            )
            print(f"streamed ingestion: {res.n_segments} segments x "
                  f"{args.stream} packets (one in flight)")
        else:
            res = engine.classify(trace, updates=schedule, faults=fault_plan)
        first_run = res
        for i in range(1, args.repeats):
            rerun = engine.classify(trace)
            print(f"run {i + 1}/{args.repeats}: "
                  f"{rerun.throughput_pps:,.0f} packets/s "
                  f"(wall clock {rerun.elapsed_s * 1e3:.1f} ms)")
            res = rerun
        # Workers are forked lazily on the first forked run, so their
        # existence after the runs says whether the tier engaged.
        pool_mode = "held" if engine.pool_engaged else "none"
    kernel = native.status()
    print(f"backend: {res.backend}  shards: {res.n_shards}  "
          f"chunk: {res.chunk_size} packets  chunks: {res.n_chunks}  "
          f"pool: {pool_mode}  kernel: {kernel['kernel']}"
          + (f" ({kernel['reason']})" if kernel["reason"] else ""))
    print(f"classified {res.n_packets} packets, {res.matched} matched "
          f"({100 * res.matched_fraction:.1f}%)")
    print(f"pipeline throughput: {res.throughput_pps:,.0f} packets/s "
          f"(wall clock {res.elapsed_s * 1e3:.1f} ms)")
    if first_run.fault is not None and first_run.fault.any():
        _print_fault_report(first_run.fault)
    if schedule is not None:
        _print_update_report(clf, first_run)
    if res.cache_hits is not None and isinstance(clf, CachedClassifier):
        _print_cache_report(
            clf, res.cache_hits, res.cache_misses, res.cache_evictions
        )
        shard_stats = res.shard_cache_stats()
        if shard_stats and len(shard_stats) > 1:
            for d in shard_stats:
                print(f"  shard {d['shard']}: {d['chunks']} chunks, "
                      f"hit rate {100 * d['hit_rate']:.1f}% "
                      f"({d['hits']}/{d['hits'] + d['misses']}), "
                      f"{d['evictions']} evictions")
    _print_occupancy(res)
    return 0


@dataclass(frozen=True)
class TenantEntry(Spec):
    """One object of a ``serve --tenants`` file: the tenant's name and
    weight, an overlay of the base engine config, and its synthetic
    workload (named like the generate/bench flags, so a tenants file
    reads like N bench invocations).  ``name`` defaults to
    ``tenant<i>`` and ``seed`` to a per-index offset, so tenants get
    distinct rulesets and traces."""

    name: str | None = None
    weight: float = 1.0
    config: dict = field(default_factory=dict)
    family: str = field("acl1", choices=tuple(sorted(FAMILIES)))
    rules: int = 500
    seed: int | None = None
    packets: int = 10000
    zipf: float | None = None
    flows: int = 1024


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
        seed = 7 + 13 * i if entry.seed is None else entry.seed
        ruleset = generate_ruleset(entry.family, entry.rules, seed=seed)
        if entry.zipf is not None:
            trace = generate_zipf_trace(
                ruleset, entry.packets, n_flows=entry.flows,
                skew=entry.zipf, seed=seed + 1,
            )
        else:
            trace = generate_trace(ruleset, entry.packets, seed=seed + 1)
        tenants.append((spec, ruleset))
        workloads[spec.name] = trace
    return tenants, workloads


def cmd_serve(args) -> int:
    base = EngineConfig.load(args.config) if args.config else EngineConfig()
    tenants, workloads = _load_tenants_file(args.tenants, base)
    with MultiTenantEngine.open(tenants) as engine:
        report = engine.serve(
            workloads, segment_packets=args.segment_packets,
            quantum=args.quantum,
        )
    print(f"served {len(report.tenants)} tenants: {report.n_packets} "
          f"packets in {report.elapsed_s * 1e3:.1f} ms "
          f"({report.throughput_pps:,.0f} packets/s aggregate)")
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
    if args.output:
        import json

        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
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

    if args.emit_graph:
        spec = default_graph(
            {"backend": args.algorithm},
            cache_entries=args.cache_entries,
            cache_ways=args.cache_ways,
        )
        spec.save(args.emit_graph)
        print(f"wrote the default {len(spec.stages)}-stage graph "
              f"to {args.emit_graph}")
        return 0
    if args.graph:
        spec = StageGraphSpec.load(args.graph)
    else:
        spec = default_graph(
            {"backend": args.algorithm},
            cache_entries=args.cache_entries,
            cache_ways=args.cache_ways,
        )
    rs = _load_or_generate(args)
    plan = FaultPlan.coerce(args.faults) if args.faults else None
    source = args.trace_file or _load_or_generate_trace(args, rs)
    with StageGraph(spec, rs) as graph:
        report = graph.run(
            source, faults=plan, segment_packets=args.segment_packets
        )
    print(f"graph {spec.name!r}: {len(spec.stages)} stages over the "
          f"{graph.config.backend!r} backend")
    print(f"{report.n_packets} packets in {report.elapsed_s * 1e3:.1f} ms "
          f"({report.throughput_pps:,.0f} packets/s), "
          f"{100 * report.matched_fraction:.1f}% matched")
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
    hit_rate = report.cache_hit_rate
    if hit_rate is not None:
        print(f"flow cache hit rate: {100 * hit_rate:.1f}%")
    fault = report.fault
    if fault is not None and fault.quarantined:
        print(f"quarantined: {fault.quarantined} malformed trace lines")
    if fault is not None and (fault.faults or fault.retries):
        print(f"faults: {fault.to_dict()}")
    if args.output:
        import json

        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
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
    rs = _load_or_generate(args)
    tree = _build_tree(rs, config)
    image = build_memory_image(tree, speed=config.speed)
    trace = generate_trace(rs, args.packets, seed=args.seed + 1)
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
    p: argparse.ArgumentParser,
    packets: int = 10000,
    algorithms: list[str] | None = None,
) -> None:
    p.add_argument("--family", default="acl1", choices=["acl1", "fw1", "ipc1"])
    p.add_argument("--rules", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--ruleset-file", default=None, help="load instead of generating")
    EngineConfig.add_arguments(
        p, _BUILD_FIELDS,
        backend={"choices": algorithms or _ALGORITHM_CHOICES},
    )
    p.add_argument("--packets", type=int, default=packets)


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    EngineConfig.add_arguments(p, _CACHE_FIELDS)
    p.add_argument("--zipf", type=float, default=None, metavar="SKEW",
                   help="generate a Zipf(SKEW) flow-popularity trace "
                        "instead of the Pareto-burst one")
    p.add_argument("--flows", type=int, default=1024,
                   help="distinct flows in the Zipf trace (with --zipf)")


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (exposed so the config round-trip tests can
    feed ``EngineConfig.to_args()`` back through the real parser)."""
    parser = argparse.ArgumentParser(prog="repro-classify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesise a ruleset (and trace)")
    g.add_argument("--family", default="acl1", choices=["acl1", "fw1", "ipc1"])
    g.add_argument("--rules", type=int, default=1000)
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--output", required=True)
    g.add_argument("--trace", default=None)
    g.add_argument("--packets", type=int, default=10000)
    g.set_defaults(fn=cmd_generate)

    b = sub.add_parser("build", help="build a search structure")
    _add_workload_args(b)
    b.set_defaults(fn=cmd_build)

    c = sub.add_parser("classify", help="classify a trace")
    _add_workload_args(c, packets=100000)
    c.add_argument("--trace-file", default=None)
    _add_cache_args(c)
    EngineConfig.add_arguments(c, _SERVING_FIELDS)
    c.set_defaults(fn=cmd_classify)

    n = sub.add_parser("bench", help="serve a trace through an Engine "
                                     "session (sharded pipeline)")
    _add_workload_args(n, packets=100000)
    n.add_argument("--trace-file", default=None)
    EngineConfig.add_arguments(n, _PIPELINE_FIELDS)
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
    n.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="inject a deterministic fault plan (JSON written "
                        "by FaultPlan.save) into the first run; pair with "
                        "--fault-policy retry|degrade to exercise recovery")
    _add_cache_args(n)
    EngineConfig.add_arguments(n, _SERVING_FIELDS)
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
    v.add_argument("--segment-packets", type=int,
                   default=DEFAULT_SEGMENT_PACKETS, metavar="N",
                   help="packets per admitted stream segment (the "
                        "scheduler interleaves tenants at this grain)")
    v.add_argument("--quantum", type=int, default=None, metavar="PACKETS",
                   help="deficit round-robin quantum in packets per "
                        "weight unit (default: one segment)")
    v.add_argument("-o", "--output", default=None, metavar="REPORT.json",
                   help="write the aggregate EngineReport (with the "
                        "per-tenant slices) as JSON")
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
    l.add_argument("--family", default="acl1",
                   choices=["acl1", "fw1", "ipc1"])
    l.add_argument("--rules", type=int, default=1000)
    l.add_argument("--seed", type=int, default=7)
    l.add_argument("--ruleset-file", default=None,
                   help="load instead of generating")
    l.add_argument("--algorithm", default="hypercuts",
                   choices=_ALGORITHM_CHOICES,
                   help="classify-stage backend for the default graph "
                        "(ignored with --graph: the spec names its own)")
    l.add_argument("--packets", type=int, default=100000)
    l.add_argument("--zipf", type=float, default=None, metavar="SKEW",
                   help="generate a Zipf(SKEW) flow-popularity trace")
    l.add_argument("--flows", type=int, default=1024,
                   help="distinct flows in the Zipf trace (with --zipf)")
    l.add_argument("--trace-file", default=None, metavar="FILE.txt",
                   help="ClassBench text trace fed through the parse "
                        "stage (malformed lines follow its on_malformed "
                        "policy and are counted)")
    l.add_argument("--cache-entries", type=int, default=4096,
                   help="flow_cache stage entries for the default graph "
                        "(0 omits the stage)")
    l.add_argument("--cache-ways", type=int, default=4,
                   help="flow_cache stage associativity")
    l.add_argument("--segment-packets", type=int,
                   default=DEFAULT_SEGMENT_PACKETS, metavar="N",
                   help="packets per pipeline segment")
    l.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="deterministic fault plan (FaultPlan.save); "
                        "stage-targeted specs hit graph stages, the "
                        "rest ride the engine pipeline")
    l.add_argument("-o", "--output", default=None, metavar="REPORT.json",
                   help="write the EngineReport (with per-stage "
                        "telemetry) as JSON")
    l.set_defaults(fn=cmd_linecard)

    t = sub.add_parser("tables", help="regenerate the paper's tables")
    t.add_argument("--quick", action="store_true")
    t.add_argument("--seed", type=int, default=7)
    t.add_argument("-o", "--output", default=None)
    t.set_defaults(fn=cmd_tables)

    f = sub.add_parser("fsm", help="Figure-5 cycle trace")
    _add_workload_args(f, packets=5, algorithms=list(_TREE_ALGORITHMS))
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
