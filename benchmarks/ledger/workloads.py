"""The ledger's seven serving workloads, their inputs and their metrics.

Every workload serves one shared ruleset through the public serving
API (`Engine`, `StageGraph`); they differ in the traffic and in which
layer that traffic makes do the work.  See README.md for the table.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass

import numpy as np

from repro import PacketTrace, generate_ruleset, generate_zipf_trace
from repro.classbench.updates import churn_schedule
from repro.serve import Engine, EngineConfig, iter_trace_file
from repro.stages import StageGraph, default_graph

#: The ruleset is the same on every seed.  Trees built from rulesets of
#: different seeds differ by ~8% (quartile spread over ten seeds) in
#: modelled cycles/packet and more in host pps, which would drown any
#: bound below that; ``--seed`` therefore drives the traffic only.
RULESET_FAMILY = "acl1"
RULESET_SEED = 11
#: The churn schedule edits that ruleset and is fixed with it: which
#: rules 33 batches happen to insert (wide ones are replicated into many
#: leaves) moved ``rule_churn`` from 0.26M to 0.36M pps between seeds.
CHURN_SEED = RULESET_SEED + 9

#: Flow-cache geometry of every cached workload.
CACHE = {"cache_entries": 8192, "cache_ways": 4}

#: End-to-end metrics: name -> (unit, better, bound).  ``bound`` is the
#: share of the baseline median by which the metric may worsen.  The
#: four host-time ones are corrected for the host's speed at the time of
#: the measurement (see `reference_seconds`); their bounds are three
#: times the quartile spread that leaves between runs of one commit on
#: this 2-CPU shared host (README, "Bounds").
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_pps": ("pkt/s", "higher", 0.25),
    "cpu_ns_per_packet": ("ns", "lower", 0.25),
    "segment_latency_p50_ms": ("ms", "lower", 0.25),
    "model_cycles_per_packet": ("cycles", "lower", 0.001),
    "model_energy_per_packet_nj": ("nJ", "lower", 0.001),
}
#: The ones every workload has; BENCHMARK.json declares exactly these.
#: The simulated ``model_*`` pair does not exist on ``rule_churn`` (the
#: incremental backend reports no occupancy), so it is reported per
#: workload in the full result and per traffic kind in the ledger.
EVERY_WORKLOAD = (
    "setup_s", "throughput_pps", "cpu_ns_per_packet", "segment_latency_p50_ms",
)
#: Forked shards each fill a private cache copy and the chunk->worker
#: draw is not fixed, so the modelled numbers wobble there.
SHARDED_MODEL_BOUND = 0.01


#: What `reference_seconds` takes at full size on this host when no
#: neighbour contends; host-time metrics are scaled to it.
REFERENCE_NOMINAL_S = 0.060
_REFERENCE_RNG = np.random.default_rng(0)
_REFERENCE_INDEX = _REFERENCE_RNG.integers(0, 1 << 18, size=1 << 18)
_REFERENCE_TABLE = _REFERENCE_RNG.integers(0, 1 << 30, size=1 << 18).astype(
    np.uint32
)


def reference_seconds(work: float = 1.0) -> tuple[float, float]:
    """``(wall, CPU)`` seconds of a fixed kernel that uses nothing of the
    program under test: NumPy gathers, compares and prefix sums over
    1 MB tables, then a pure-Python loop — the two kinds of work serving
    is made of.

    This host switches, every few seconds to a minute, between a state
    where everything runs ~1.4x slower and one where it does not (a
    neighbour on the same cores); a ten-second run lands in either, so
    raw medians of one commit differ by 15-35% between runs.  The kernel
    slows down by the same factor as the workloads do, so every timed
    section is bracketed by two samples of it and its duration is scaled
    by ``nominal / measured`` (`speed_scale`).  That brings the spread
    between runs to 3-8%.  Wall times are scaled by the kernel's wall
    time and CPU times by its CPU time: when the process is descheduled
    instead of slowed, only the first of the two grows.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    x = _REFERENCE_TABLE
    for _ in range(max(1, round(12 * work))):
        x = _REFERENCE_TABLE[_REFERENCE_INDEX] ^ (x >> 3)
        mask = x > (1 << 29)
        x = np.where(mask, x, x + 7)
        np.cumsum(mask)
    total = 0
    for i in range(int(400_000 * work)):
        total += i & 7
    return time.perf_counter() - t0, time.process_time() - c0


def speed_scale(before: float, after: float, work: float = 1.0) -> float:
    """Factor that turns a duration measured between two reference
    samples (on the same clock) into its duration at the host's nominal
    speed."""
    return 2 * REFERENCE_NOMINAL_S * work / (before + after)


@dataclass(frozen=True)
class Sizes:
    """Every size the benchmark uses, so ``--smoke`` is one object."""

    rules: int = 2500
    uniform: int = 1 << 20
    hot: int = 1 << 21
    hot_flows: int = 2048
    spill: int = 1 << 20
    spill_flows: int = 65536
    file_packets: int = 1 << 20
    churn_packets: int = 1 << 18
    segment: int = 16384
    setup_packets: int = 65536
    setup_reps: int = 3
    check_packets: int = 131072
    traced_reps: int = 3
    #: Slice the ledger's fast probes (>= 0.5M pps) serve, three times.
    ledger_packets: int = 65536
    probe_reps: int = 3
    #: Slice of the probes that run once because they are slow: the
    #: linear oracle and the classic loader (~0.1-0.4M pps), each
    #: tenant's share of the 8-tenant run.
    slow_packets: int = 32768
    #: Tuple-space search runs ~0.07M pps.
    tss_packets: int = 8192
    #: RFC's build is quadratic in the rules (14 s at 2500); its lookup
    #: is table-indexed, so the probe builds over a prefix of them.
    rfc_rules: int = 500
    tenants: int = 8
    #: Share of the reference kernel's full size a sample runs.
    reference_work: float = 1.0


FULL = Sizes()
SMOKE = Sizes(
    rules=300, uniform=16384, hot=16384, spill=16384, spill_flows=8192,
    file_packets=16384, churn_packets=16384, segment=4096,
    setup_packets=8192, setup_reps=2, check_packets=16384, traced_reps=1,
    ledger_packets=8192, probe_reps=1, slow_packets=4096, tss_packets=2048,
    rfc_rules=300, reference_work=0.05,
)


class Inputs:
    """Every input — the traffic from ``--seed``, the ruleset and its
    churn from fixed seeds — built lazily and once; nothing here runs
    inside a timed section."""

    #: traffic kind -> (the size that holds its flow count, skew, seed
    #: offset); no flow count = one flow per packet, so every header is new.
    TRAFFIC = {
        "uniform": (None, 0.0, 1),
        "hot": ("hot_flows", 1.1, 2),
        "spill": ("spill_flows", 1.0, 3),
    }

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        t0 = time.perf_counter()
        self.rules = generate_ruleset(RULESET_FAMILY, sizes.rules, RULESET_SEED)
        self.ruleset_s = time.perf_counter() - t0
        self._traces: dict[tuple, PacketTrace] = {}
        self._files: dict[tuple, str] = {}
        self._schedules: dict[int, list] = {}

    def generate(self, kind: str, packets: int) -> PacketTrace:
        """A fresh ``kind`` trace of ``packets`` headers.  For ``hot``
        and ``spill`` a shorter trace is a prefix of a longer one."""
        flows_of, skew, offset = self.TRAFFIC[kind]
        flows = packets if flows_of is None else getattr(self.sizes, flows_of)
        return generate_zipf_trace(
            self.rules, packets, n_flows=flows, skew=skew, seed=self.seed + offset
        )

    def trace(self, kind: str, packets: int | None = None) -> PacketTrace:
        """The first ``packets`` headers of the workloads' ``kind`` trace."""
        full = getattr(self.sizes, kind)
        if (kind, full) not in self._traces:
            self._traces[kind, full] = self.generate(kind, full)
        key = (kind, packets or full)
        if key not in self._traces:
            self._traces[key] = self._traces[kind, full].subset(key[1])
        return self._traces[key]

    def schedule(self, packets: int) -> list:
        """Churn at 1 op per 1000 packets, batches of 8."""
        if packets not in self._schedules:
            self._schedules[packets] = churn_schedule(
                self.rules, 1, packets, batch_size=8, seed=CHURN_SEED
            )
        return self._schedules[packets]

    def trace_file(self, kind: str, packets: int) -> str:
        """``trace(kind, packets)`` saved as ClassBench text."""
        key = (kind, packets)
        if key not in self._files:
            path = os.path.join(self.workdir, f"{kind}_{packets}.trace")
            self.trace(kind, packets).save(path)
            self._files[key] = path
        return self._files[key]


@dataclass
class Rep:
    """What one driver call returned (assembled outside the timing)."""

    parts: list  # match arrays in stream order
    report: object = None  # EngineReport, when the call returns one
    results: list = None  # per-segment PipelineResults of a stream
    intervals: list = None  # seconds between successive ChunkResults

    @property
    def match(self) -> np.ndarray:
        return self.parts[0] if len(self.parts) == 1 else np.concatenate(self.parts)


def consume(stream, tracer, limit: int | None = None) -> Rep:
    """Drain an ``Engine.stream`` iterator the way a caller would,
    timing the gap between successive results; ``limit`` stops (and
    tears the session down) once that many packets came back."""
    rep = Rep(parts=[], results=[], intervals=[])
    got = 0
    last = time.perf_counter()
    try:
        for chunk in tracer.iter_spans("serve.session.next", stream):
            now = time.perf_counter()
            rep.intervals.append(now - last)
            last = now
            rep.parts.append(chunk.match)
            rep.results.append(chunk.result)
            got += chunk.n_packets
            if limit and got >= limit:
                break
    finally:
        stream.close()
    return rep


@dataclass(frozen=True)
class Workload:
    """``Engine.classify(trace)`` on one traffic kind and config."""

    name: str
    why: str
    traffic: str
    config: dict
    #: Serve only this many leading packets of the traffic (None = all).
    packets: int | None = None
    #: Span name of the driver call.
    call: str = "serve.session.classify"
    #: Open a new session (untimed) for every rep.
    fresh_per_rep: bool = False

    def n_packets(self, inputs: Inputs) -> int:
        return inputs.trace(self.traffic, self.packets).n_packets

    def prepare(self, inputs: Inputs) -> None:
        """Generate this workload's inputs."""
        inputs.trace(self.traffic, self.packets)

    def open(self, inputs: Inputs):
        return Engine.open(
            EngineConfig(backend="hypercuts", **self.config), inputs.rules
        )

    def drive(self, session, inputs: Inputs, tracer, limit=None) -> Rep:
        """The driver call; ``limit`` serves only that many packets."""
        report = session.classify(inputs.trace(self.traffic, limit or self.packets))
        return Rep(parts=[report.match], report=report)

    def oracle(self, inputs: Inputs, packets: int) -> np.ndarray:
        """Linear first-match of the first ``packets`` headers."""
        return inputs.rules.arrays.batch_match(
            inputs.trace(self.traffic).headers[:packets]
        )


class FileStream(Workload):
    """Iterate ``Engine.stream(iter_trace_file(path))``."""

    def prepare(self, inputs: Inputs) -> None:
        inputs.trace_file(self.traffic, self.n_packets(inputs))

    def drive(self, session, inputs: Inputs, tracer, limit=None) -> Rep:
        segments = iter_trace_file(
            inputs.trace_file(self.traffic, self.n_packets(inputs)),
            segment_packets=inputs.sizes.segment,
        )
        # The iterator is pulled by the engine's ingest thread, so these
        # spans are measured there; they hang off the driver call.
        segments = tracer.iter_spans(
            "serve.ingest.next", segments, parent=tracer.current()
        )
        return consume(session.stream(segments), tracer, limit)


class RuleChurn(Workload):
    """Iterate ``Engine.stream(trace, schedule)`` on a fresh engine: a
    schedule re-applied to an already mutated session would remove dead
    ids and insert duplicates, so reps would not be identical."""

    def _stream_args(self, inputs: Inputs, limit):
        n = self.n_packets(inputs)
        schedule = inputs.schedule(n)
        if limit and limit < n:
            n = limit
            schedule = [u for u in schedule if u.at_packet < n]
        return inputs.trace(self.traffic, n), schedule

    def drive(self, session, inputs: Inputs, tracer, limit=None) -> Rep:
        trace, schedule = self._stream_args(inputs, limit)
        stream = session.stream(
            trace, schedule, segment_packets=inputs.sizes.segment
        )
        return consume(stream, tracer)

    def oracle(self, inputs: Inputs, packets: int) -> np.ndarray:
        """The same stream and schedule through the linear backend."""
        trace, schedule = self._stream_args(inputs, packets)
        config = EngineConfig(backend="linear", updatable=True)
        with Engine.open(config, inputs.rules) as engine:
            report = engine.classify_stream(
                trace, schedule, segment_packets=inputs.sizes.segment
            )
        return report.match


class LineCard(Workload):
    """``StageGraph(default_graph(...)).run(trace)``: the eight-stage RX
    graph over the same engine."""

    def open(self, inputs: Inputs):
        return StageGraph(default_graph(**self.config), inputs.rules)

    def drive(self, session, inputs: Inputs, tracer, limit=None) -> Rep:
        report = session.run(
            inputs.trace(self.traffic, limit or self.packets),
            segment_packets=inputs.sizes.segment,
        )
        return Rep(parts=[report.match], report=report)


def build_workloads(sizes: Sizes) -> list[Workload]:
    shards = min(2, os.cpu_count() or 1)
    return [
        Workload(
            "kernel_miss",
            "no flow cache, one inline dispatch: the FlatTree walk and the "
            "accelerator occupancy accounting do all the work",
            "uniform", {"cache_entries": 0},
        ),
        Workload(
            "cache_hot",
            "working set a quarter of the cache, ~99.98% hits: FlowCache.probe "
            "does the work and the kernel almost none",
            "hot", CACHE,
        ),
        Workload(
            "cache_spill",
            "working set 8x the cache, ~83% hits: fills and evictions beside "
            "probes, plus the fused miss walk",
            "spill", CACHE,
        ),
        Workload(
            "shards2_spill",
            "cache_spill traffic with shards=min(2,nproc), auto mode, transient "
            "pool: fork, transport, merge and per-shard cache copies",
            "spill",
            {**CACHE, "shards": shards, "shard_mode": "auto", "persistent": False},
        ),
        FileStream(
            "file_stream",
            "cache_hot traffic streamed from a text trace: classification is "
            "nearly free, so ingest parsing and the thread hand-off dominate",
            "hot", CACHE, packets=sizes.file_packets, call="serve.session.stream",
        ),
        RuleChurn(
            "rule_churn",
            "cache_spill traffic with 1 rule update per 1000 packets: "
            "apply_updates, FlatTree.patch and cache invalidation beside reads",
            "spill", {**CACHE, "updatable": True}, packets=sizes.churn_packets,
            call="serve.session.stream", fresh_per_rep=True,
        ),
        LineCard(
            "linecard_rx",
            "cache_spill traffic through the eight-stage RX graph: parse, drop, "
            "extract, TCAM memo and queue-select on top of the engine",
            "spill", CACHE, call="stages.graph.run",
        ),
    ]


def cpu_seconds() -> float:
    """User+system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_rep(workload: Workload, session, inputs: Inputs, tracer):
    """One timed driver call: ``(Rep, wall seconds, cpu seconds)``.
    ``session`` is ignored by workloads that open a fresh one per rep."""
    if workload.fresh_per_rep:
        session = workload.open(inputs)  # untimed
    try:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with tracer.span(workload.call):
            rep = workload.drive(session, inputs, tracer)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    finally:
        if workload.fresh_per_rep:
            session.close()
    if rep.intervals is None:
        # A call that returns one report hands the caller one result.
        rep.intervals = [wall]
    return rep, wall, cpu

