"""Multi-tenant serving: one process, many rulesets, fair admission.

The ROADMAP's "millions of users" shape is not one giant ruleset — it
is one serving process multiplexing many small tenant rulesets, each
with its own flow cache and update epoch, under bursty interleaved
traffic.  :class:`MultiTenantEngine` is that layer::

    from repro.serve import MultiTenantEngine, TenantSpec

    engine = MultiTenantEngine.open([
        (TenantSpec("acme", config, weight=2.0), acme_rules),
        (TenantSpec("blue", config), blue_rules),
    ])
    report = engine.serve({"acme": acme_trace, "blue": blue_trace})
    for tenant in report.tenants:
        print(tenant.name, tenant.slo)

Design points, each pinned by ``tests/test_tenancy.py``:

**Isolation by construction.**  Every tenant owns a full
:class:`~repro.serve.Engine` — its own classifier, its own
:class:`~repro.engine.flowcache.FlowCache`, its own update epoch.  A
tenant's rule update can therefore never retire another tenant's
cache entries, and per-tenant results are bit-identical
to running that tenant alone: the scheduler only decides *when* a
segment runs, never *how*.

**One set of forked workers.**  Forked shard workers are the expensive
shared resource (processes, shared-memory arenas).  The engine holds a
single pool lease: at most one tenant's workers are alive at any
moment, handed over (previous holder torn down) when the scheduler
admits another tenant's segment whose plan forks (the plan of the
segment about to be served).  N tenants never multiply the process's
worker footprint.

**Weighted-fair admission.**  Interleaving is deficit round-robin over
the tenants' segment streams: each scheduling round credits every
tenant ``weight * quantum`` packets and serves whole segments while the
credit lasts, so a weight-2 tenant is admitted twice the packets of a
weight-1 tenant over any window, independent of segment sizes.

**Fault containment.**  A tenant whose pipeline ultimately fails (its
own retry/degrade policy exhausted — crash, hang past its deadline,
arena fault) is marked faulted and dropped from admission; every other
tenant keeps serving and their outputs stay byte-for-byte what an
isolated run produces.

Per-tenant accounting lands in :class:`TenantReport` (p50/p95/p99 of
per-segment service latency — the SLO numbers — plus the tenant's own
:class:`~repro.serve.EngineReport`, the ``EngineReport.merge`` of its
segments' pipeline reports).  :meth:`MultiTenantEngine.serve` returns
the fleet's record: the same class, counters summed over the tenants
(``EngineReport.summed_counters``), the slices on ``tenants``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..core.errors import ConfigError
from ..core.packet import PacketTrace
from ..core.ruleset import RuleSet
from ..core.spec import Spec, check_value
from ..core.spec import field as spec_field
from ..engine.pipeline import ClassificationPipeline
from ..engine.report import EngineReport, latency_percentiles
from .config import EngineConfig
from .ingest import DEFAULT_SEGMENT_PACKETS
from .session import ChunkResult, Engine


@dataclass(frozen=True)
class TenantSpec(Spec):
    """One tenant's identity, serving shape, and admission weight.

    ``config`` is the tenant's own :class:`EngineConfig` — backends,
    cache geometry, update/fault policy all vary per tenant.  ``weight``
    scales the tenant's share of the admission scheduler (2.0 = twice
    the packets of a weight-1.0 tenant over any scheduling window).
    """

    name: str = spec_field(nonempty=True)
    config: EngineConfig = spec_field(default_factory=EngineConfig)
    weight: float = spec_field(1.0, gt=0)


@dataclass
class TenantReport:
    """One tenant's slice of a multi-tenant serving session.

    ``latencies_s`` holds the per-segment *service* latencies (queueing
    excluded — the time the tenant's pipeline actually ran), and
    :attr:`slo` summarises them as the p50/p95/p99 every admission
    contract is written against.  ``report`` is the tenant's own merged
    :class:`EngineReport` — matches, cache counters, update epochs —
    exactly as an isolated run would have produced it.
    """

    name: str
    weight: float
    report: EngineReport = field(repr=False)
    busy_s: float = 0.0
    latencies_s: tuple[float, ...] = ()
    #: ``None`` while healthy; a one-line description of the terminal
    #: fault that removed the tenant from admission otherwise.
    fault: str | None = None

    @property
    def n_packets(self) -> int:
        return self.report.n_packets

    @property
    def n_segments(self) -> int:
        return self.report.n_segments

    @property
    def throughput_pps(self) -> float:
        """Packets/second over the tenant's busy time (service only)."""
        return self.n_packets / self.busy_s if self.busy_s > 0 else 0.0

    @property
    def slo(self) -> dict[str, float] | None:
        """p50/p95/p99/max per-segment service latency (milliseconds)."""
        return latency_percentiles(self.latencies_s)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "weight": self.weight,
            "n_packets": self.n_packets,
            "n_segments": self.n_segments,
            "busy_s": self.busy_s,
            "throughput_pps": self.throughput_pps,
        }
        pct = self.slo
        if pct is not None:
            out["slo"] = pct
        if self.fault is not None:
            out["fault"] = self.fault
        out["report"] = self.report.to_dict()
        return out


class _PoolLease:
    """The one-tenant's-workers-alive invariant, as an object.

    A forking pipeline holds its workers between runs, so a tenant
    whose next segment's plan forks must ``admit`` through the lease
    before running it; admitting a different tenant tears the previous
    holder's workers down first: at most one set (workers + arena)
    exists at any moment.  A segment that plans inline leaves the lease
    (and whoever holds it) alone.
    """

    def __init__(self) -> None:
        self._holder: tuple[str, ClassificationPipeline] | None = None

    @property
    def holder(self) -> str | None:
        return self._holder[0] if self._holder is not None else None

    def admit(
        self, name: str, pipeline: ClassificationPipeline, packets: int
    ) -> None:
        if not pipeline.plan(packets).forks:
            return
        if self._holder is not None and self._holder[0] != name:
            self._holder[1].close()
        self._holder = (name, pipeline)

    def release(self, name: str) -> None:
        if self._holder is not None and self._holder[0] == name:
            self._holder[1].close()
            self._holder = None

    def close(self) -> None:
        if self._holder is not None:
            self._holder[1].close()
            self._holder = None


class _TenantState:
    """Scheduler-side bookkeeping for one tenant in one session.

    The tenant is served by its own ``Engine.stream`` generator over a
    one-segment peekable feed of its normalised source: the generator
    pulls exactly one segment per result, so the scheduler peeks the
    head for admission and then takes ``next(stream)``.
    """

    def __init__(
        self, spec: TenantSpec, engine: Engine, workload,
        segment_packets: int, updates, faults,
    ) -> None:
        self.name = spec.name
        self.weight = spec.weight
        self.engine = engine
        self.source = engine._segments(workload, segment_packets)
        self.head: PacketTrace | None = None
        self.stream = engine.stream(self._feed(), updates, faults=faults)
        self.deficit = 0.0
        self.busy_s = 0.0
        self.latencies: list[float] = []
        self.results: list = []
        self.fault: str | None = None
        self.done = False

    def peek(self) -> PacketTrace | None:
        """The next segment, without consuming it."""
        if self.head is None:
            self.head = next(self.source, None)
        return self.head

    def _feed(self) -> Iterator[PacketTrace]:
        """What the tenant's stream pulls from: the peeked head."""
        while self.peek() is not None:
            segment, self.head = self.head, None
            yield segment


class MultiTenantEngine:
    """N tenant serving sessions behind one admission scheduler.

    Construct through :meth:`open` with ``(spec, ruleset)`` pairs —
    ``spec`` may be a :class:`TenantSpec`, a plain dict, or just a name
    (default config, weight 1.0).  Usable as a context manager;
    :meth:`close` tears down every tenant engine and the pool lease.
    """

    def __init__(
        self,
        tenants: Iterable[tuple[TenantSpec | dict | str, RuleSet]],
    ) -> None:
        self._tenants: dict[str, tuple[TenantSpec, Engine]] = {}
        for spec, ruleset in tenants:
            if isinstance(spec, str):
                spec = TenantSpec(spec)
            spec = check_value("tenant", spec, TenantSpec)
            if spec.name in self._tenants:
                raise ConfigError(f"duplicate tenant name {spec.name!r}")
            self._tenants[spec.name] = (
                spec, Engine.open(spec.config, ruleset)
            )
        if not self._tenants:
            raise ConfigError("MultiTenantEngine needs at least one tenant")
        self._lease = _PoolLease()

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, tenants: Iterable[tuple[TenantSpec | dict | str, RuleSet]]
    ) -> "MultiTenantEngine":
        return cls(tenants)

    @property
    def names(self) -> tuple[str, ...]:
        """Tenant names, in registration order."""
        return tuple(self._tenants)

    def spec(self, name: str) -> TenantSpec:
        return self._tenant(name)[0]

    def engine(self, name: str) -> Engine:
        """The named tenant's private :class:`Engine` (its classifier,
        cache and epoch live here — nothing is shared across names)."""
        return self._tenant(name)[1]

    @property
    def pool_holder(self) -> str | None:
        """Which tenant currently holds the forked-worker lease."""
        return self._lease.holder

    def _tenant(self, name: str) -> tuple[TenantSpec, Engine]:
        try:
            return self._tenants[name]
        except KeyError:
            raise ConfigError(
                f"unknown tenant {name!r}; registered: "
                f"{', '.join(self._tenants)}"
            ) from None

    def close(self) -> None:
        self._lease.close()
        for _spec, engine in self._tenants.values():
            engine.close()

    def __enter__(self) -> "MultiTenantEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the admission scheduler ----------------------------------------
    def stream(
        self,
        workloads: Mapping[str, Iterable[PacketTrace] | PacketTrace],
        *,
        updates: Mapping[str, Iterable] | None = None,
        faults: Mapping[str, object] | None = None,
        segment_packets: int = DEFAULT_SEGMENT_PACKETS,
        quantum: int | None = None,
    ) -> Iterator[tuple[str, ChunkResult]]:
        """Serve every workload through weighted-fair admission, lazily.

        ``workloads`` maps tenant names to segment sources — anything
        :meth:`Engine.stream` reads (a trace or header array is sliced
        into ``segment_packets`` views, a path is parsed under the
        tenant's ``on_malformed``); ``updates``/``faults`` map tenant
        names to per-tenant update schedules / fault plans, with the
        same semantics as :meth:`Engine.stream`.  Yields
        ``(tenant_name, ChunkResult)`` in admission order; ``quantum``
        is the scheduler's per-round packet credit (default:
        ``segment_packets``).  Bad workloads or quantum raise here, not
        at the first ``next()``.
        """
        return self._admit(*self._session(
            workloads, updates, faults, segment_packets, quantum
        ))

    def serve(
        self,
        workloads: Mapping[str, Iterable[PacketTrace] | PacketTrace],
        *,
        updates: Mapping[str, Iterable] | None = None,
        faults: Mapping[str, object] | None = None,
        segment_packets: int = DEFAULT_SEGMENT_PACKETS,
        quantum: int | None = None,
    ) -> EngineReport:
        """Drain a whole :meth:`stream` session into one aggregate
        :class:`EngineReport` whose ``tenants`` field carries the
        per-tenant :class:`TenantReport` slices."""
        states, quantum = self._session(
            workloads, updates, faults, segment_packets, quantum
        )
        started = time.perf_counter()
        for _name, _chunk in self._admit(states, quantum):
            pass
        elapsed = time.perf_counter() - started
        reports = [self._tenant_report(st) for st in states]
        return self._aggregate(reports, elapsed)

    # ------------------------------------------------------------------
    def _session(
        self, workloads, updates, faults, segment_packets, quantum
    ) -> tuple[list[_TenantState], int]:
        """The checked workloads as tenant states, and the quantum."""
        if not workloads:
            raise ConfigError("multi-tenant serve needs >= 1 workload")
        unknown = sorted(set(workloads) - set(self._tenants))
        if unknown:
            raise ConfigError(
                f"workload(s) for unknown tenant(s): {', '.join(unknown)}; "
                f"registered: {', '.join(self._tenants)}"
            )
        quantum = segment_packets if quantum is None else quantum
        if quantum < 1:
            raise ConfigError(f"quantum must be >= 1, got {quantum}")
        updates = updates or {}
        faults = faults or {}
        states = [
            _TenantState(
                spec, engine, workloads[name], segment_packets,
                updates.get(name), faults.get(name),
            )
            for name, (spec, engine) in self._tenants.items()
            if name in workloads
        ]
        return states, quantum

    def _admit(
        self, states: list[_TenantState], quantum: int
    ) -> Iterator[tuple[str, ChunkResult]]:
        """Deficit round-robin: each round credits ``weight * quantum``
        packets per tenant and serves whole segments while the credit
        lasts.  Faulted tenants leave the rotation; everyone else's
        serving is unaffected."""
        pending = list(states)
        while pending:
            for st in pending:
                st.deficit += st.weight * quantum
                while not st.done:
                    try:
                        segment = st.peek()
                    except Exception as exc:  # a source that cannot yield
                        self._quarantine_tenant(st, exc)
                        break
                    # A segment larger than one credit still costs one
                    # whole segment — max(1, ...) keeps empty segments
                    # from spinning the rotation for free.  A drained
                    # source leaves the tail flush, which is free.
                    cost = (
                        0 if segment is None else max(1, segment.n_packets)
                    )
                    if st.deficit < cost:
                        break
                    st.deficit -= cost
                    chunk = self._serve_next(st)
                    if chunk is not None:
                        yield st.name, chunk
            pending = [st for st in pending if not st.done]

    def _serve_next(self, st: _TenantState) -> ChunkResult | None:
        """One step of the tenant's stream — its head segment, or past
        the last one the tail flush — under the pool lease, the latency
        timer and fault containment."""
        if st.head is not None:
            # (The tail flush is an empty-trace run: it never forks.)
            self._lease.admit(
                st.name, st.engine.pipeline, st.head.n_packets
            )
        started = time.perf_counter()
        try:
            chunk = next(st.stream, None)
        except Exception as exc:  # contained: one tenant, not the session
            self._quarantine_tenant(st, exc)
            return None
        if chunk is None:
            st.done = True
            st.deficit = 0.0
            return None
        latency = time.perf_counter() - started
        st.busy_s += latency
        st.latencies.append(latency)
        st.results.append(chunk.result)
        return chunk

    def _quarantine_tenant(
        self, st: _TenantState, exc: BaseException
    ) -> None:
        st.fault = f"{type(exc).__name__}: {exc}"
        st.done = True
        st.deficit = 0.0
        # Settles the stream's accounting if a failed peek left it open.
        st.stream.close()
        # A faulted forked tier may leave poisoned workers behind;
        # drop the lease so the next tenant forks fresh.
        self._lease.release(st.name)

    # ------------------------------------------------------------------
    def _tenant_report(self, st: _TenantState) -> TenantReport:
        return TenantReport(
            name=st.name,
            weight=st.weight,
            # The tenant's stream has ended (exhausted or raised), which
            # settled its stream-level accounting.
            report=st.engine.merged_report(st.results, st.busy_s),
            busy_s=st.busy_s,
            latencies_s=tuple(st.latencies),
            fault=st.fault,
        )

    def _aggregate(
        self, tenants: list[TenantReport], elapsed_s: float
    ) -> EngineReport:
        """The fleet's record: no match array (tenant traces share no
        order), counters summed over the tenants' merged reports."""
        reports = [t.report for t in tenants]
        return EngineReport(
            backend="multi-tenant",
            n_packets=sum(r.n_packets for r in reports),
            matched=sum(r.matched for r in reports),
            elapsed_s=elapsed_s,
            n_shards=max((r.n_shards for r in reports), default=0),
            chunk_size=max((r.chunk_size for r in reports), default=0),
            n_chunks=sum(r.n_chunks for r in reports),
            n_segments=sum(r.n_segments for r in reports),
            **EngineReport.summed_counters(reports),
            tenants=tenants,
        )
