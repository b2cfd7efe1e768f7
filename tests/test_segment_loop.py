"""Same source, same answer: the three serving entries share one loop.

``Engine.classify_stream``, ``StageGraph.run`` (a parse + classify
graph) and ``MultiTenantEngine.serve`` (one tenant) all read their
source through ``Engine._segments`` and serve it on ``Engine._stream``,
the only code that pulls a segment, fires ``ingest`` faults, counts
quarantined lines, rebases updates and flushes the tail.  Every case
here runs on all three entries and expects the same outcome: equal
matches, packet counts and quarantine counts for each source shape, and
the same recovery or the same error for ingest faults, a raising
source, and updates scheduled at or past the stream's end.

A tenant contains a failure instead of raising it, so the tenant
entry reports the error as its ``fault`` text, ``"<type>: <message>"``.

``TestOneCoordinateRule`` pins where a spec with no coordinates fires,
kind by kind, on the same three entries: an unset ``segment`` is
segment 0 at every site, an unset ``chunk`` / ``batch`` means any.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.classbench import (
    churn_schedule,
    generate_ruleset,
    generate_trace,
    generate_zipf_trace,
)
from repro.core.errors import IngestError, ServingFaultError
from repro.core.updates import ScheduledUpdate
from repro.serve import (
    Engine,
    EngineConfig,
    MultiTenantEngine,
    TenantSpec,
    iter_trace_segments,
)
from repro.stages import StageGraph, StageGraphSpec, StageSpec

ENTRIES = ("session", "graph", "tenant")
SEGMENT = 1000
OVERLAY = {
    "backend": "hypercuts", "chunk_size": 1000, "cache_entries": 1024,
    "max_retries": 2,
}


@pytest.fixture(scope="module")
def zipf_small(acl_small):
    return generate_zipf_trace(
        acl_small, 3000, n_flows=256, skew=1.0, seed=11
    )


@pytest.fixture(scope="module")
def want(acl_small, zipf_small):
    """The linear first-match oracle of the trace."""
    with Engine.open(EngineConfig(backend="linear"), acl_small) as oracle:
        return oracle.classify(zipf_small).match


def config_of(**overlay) -> EngineConfig:
    overlay = {**OVERLAY, "on_malformed": "quarantine", **overlay}
    return EngineConfig.from_dict({**EngineConfig().to_dict(), **overlay})


def as_text(exc: BaseException) -> str:
    """An error the way a tenant's ``fault`` records it."""
    return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def serving(kind, ruleset, **overlay):
    """``serve(source, updates=None, faults=None)`` on one entry: the
    run's report, or the error it ended with as text — raised by the
    session and the graph, contained as a tenant's ``fault``."""
    config = config_of(**overlay)

    def text_on_error(run):
        def serve(source, updates=None, faults=None):
            try:
                return run(source, updates, faults)
            except Exception as exc:
                return as_text(exc)

        return serve

    if kind == "session":
        with Engine.open(config, ruleset) as engine:
            yield text_on_error(
                lambda source, updates, faults: engine.classify_stream(
                    source, updates, segment_packets=SEGMENT, faults=faults
                )
            )
    elif kind == "graph":
        engine_overlay = config.to_dict()
        on_malformed = engine_overlay.pop("on_malformed")
        spec = StageGraphSpec(stages=(
            StageSpec(kind="parse", params={"on_malformed": on_malformed}),
            StageSpec(kind="classify", params={"engine": engine_overlay}),
        ))
        with StageGraph(spec, ruleset) as graph:
            yield text_on_error(
                lambda source, updates, faults: graph.run(
                    source, updates=updates, faults=faults,
                    segment_packets=SEGMENT,
                )
            )
    else:
        with MultiTenantEngine.open([(TenantSpec("a", config), ruleset)]) as mte:
            def serve(source, updates=None, faults=None):
                (tenant,) = mte.serve(
                    {"a": source}, updates={"a": updates},
                    faults={"a": faults}, segment_packets=SEGMENT,
                ).tenants
                return tenant.fault or tenant.report

            yield serve


@pytest.mark.parametrize("kind", ENTRIES)
class TestSameSourceSameAnswer:
    @pytest.mark.parametrize("shape", ["array", "path", "raw-segments"])
    def test_every_source_shape_serves_the_same_packets(
        self, acl_small, zipf_small, want, tmp_path, kind, shape
    ):
        headers = zipf_small.headers
        quarantined = 0
        if shape == "array":
            source = headers
        elif shape == "path":
            # The trace as text with two malformed lines spliced in.
            zipf_small.save(str(tmp_path / "good.trace"))
            lines = (tmp_path / "good.trace").read_text().splitlines()
            lines.insert(10, "1.2.3.4 dotted quad is malformed")
            lines.insert(2000, "16909060 84281096 80")
            source = tmp_path / "bad.trace"
            source.write_text("\n".join(lines) + "\n")
            source, quarantined = str(source), 2
        else:
            source = [headers[:SEGMENT], headers[SEGMENT:]]
        with serving(kind, acl_small) as serve:
            report = serve(source)
        assert np.array_equal(report.match, want)
        assert report.n_packets == zipf_small.n_packets
        assert report.fault.quarantined == quarantined

    def test_one_failed_pull_recovers_under_retry(
        self, acl_small, zipf_small, want, kind
    ):
        plan = {"specs": [{"kind": "ingest", "segment": 1, "times": 1}]}
        with serving(kind, acl_small, fault_policy="retry") as serve:
            report = serve(zipf_small, faults=plan)
            clean = serve(zipf_small)
        assert report.fault.ingest_retries == 1
        assert clean.fault.ingest_retries == 0
        assert report.n_packets == zipf_small.n_packets
        assert np.array_equal(report.match, want)
        if kind == "graph":
            # The parse stage is billed the pull, retries and backoff
            # included.
            parse = next(s for s in report.stages if s.kind == "parse")
            assert parse.busy_s > 0

    @pytest.mark.parametrize(
        "policy,times", [("retry", 5), ("fail", 1)],
        ids=["past-max-retries", "fail-policy"],
    )
    def test_exhausted_pull_raises_the_same_error(
        self, acl_small, zipf_small, kind, policy, times
    ):
        plan = {"specs": [{"kind": "ingest", "segment": 1, "times": times}]}
        config = config_of(fault_policy=policy)
        with Engine.open(config, acl_small) as engine:
            with pytest.raises(ServingFaultError) as raised:
                engine.classify_stream(
                    zipf_small, segment_packets=SEGMENT, faults=plan
                )
        error = raised.value
        assert (error.tier, error.chunk) == ("ingest", 1)
        assert isinstance(error.cause, IngestError)
        with serving(kind, acl_small, fault_policy=policy) as serve:
            assert serve(zipf_small, faults=plan) == as_text(error)

    def test_a_raising_source_is_not_retried_into_a_short_stream(
        self, acl_small, zipf_small, kind
    ):
        """A source that raises its own ``IngestError`` under ``retry``
        fails the run (a tenant: faults it) instead of being re-pulled
        into ``StopIteration`` and a short report."""
        def source():
            for index, segment in enumerate(
                iter_trace_segments(zipf_small, 750)
            ):
                if index == 2:
                    raise IngestError("source failed", segment=index)
                yield segment

        with serving(kind, acl_small, fault_policy="retry") as serve:
            assert serve(source()) == "IngestError: source failed"

    def test_updates_at_or_past_the_stream_end_are_applied(
        self, acl_small, zipf_small, kind
    ):
        n = zipf_small.n_packets
        batches = churn_schedule(acl_small, 40, n, seed=5)
        schedule = batches[:-2] + [
            ScheduledUpdate(n, batches[-2].batch),
            ScheduledUpdate(n + 500, batches[-1].batch),
        ]
        # Per-epoch linear oracle: the stream, then the ruleset the
        # schedule leaves behind.
        with Engine.open(
            EngineConfig(backend="linear", updatable=True, chunk_size=1000),
            acl_small,
        ) as oracle:
            streamed = oracle.classify_stream(
                zipf_small, schedule, segment_packets=SEGMENT
            )
            after = oracle.classify(zipf_small).match
        with serving(kind, acl_small, updatable=True) as serve:
            report = serve(zipf_small, updates=schedule)
            again = serve(zipf_small)
        assert np.array_equal(report.match, streamed.match)
        assert report.n_packets == n
        assert report.update_batches == len(schedule)
        assert report.final_epoch == streamed.final_epoch
        assert len(report.update_latencies_s) == len(schedule)
        assert np.array_equal(again.match, after)


#: Per kind: a spec with no coordinates, the overlay its site needs, the
#: ``report.fault`` counter it moves and how far on a four-segment
#: stream (per entry where they differ).  Chunk specs fire at every
#: chunk of segment 0's run (four 250-packet chunks), update specs at
#: both batches of segment 0, the ingest spec at the pull of segment 0,
#: the arena spec at segment 0's forked dispatch, and a stage spec at
#: segment 0 of the graph's classify stage — engine sites never select
#: it.
CHUNKED = {"chunk_size": 250, "min_chunk_packets": 0}
COORDINATE_RULE = {
    "crash": ({"kind": "crash"}, CHUNKED, "chunk_errors", 4),
    "error": ({"kind": "error"}, CHUNKED, "chunk_errors", 4),
    "hang": (
        {"kind": "hang", "seconds": 0.05},
        {**CHUNKED, "chunk_timeout_s": 0.01}, "timeouts", 4,
    ),
    "arena": (
        {"kind": "arena"},
        {**CHUNKED, "shards": 2, "shard_mode": "processes"},
        "arena_faults", 1,
    ),
    "update": ({"kind": "update"}, {"updatable": True}, "update_retries", 2),
    "ingest": ({"kind": "ingest"}, {}, "ingest_retries", 1),
    "stage": (
        {"kind": "error", "stage": "classify"}, {}, "retries",
        {"session": 0, "graph": 1, "tenant": 0},
    ),
}
#: Update batches at these packets: two in segment 0, one in each other.
UPDATE_AT = (100, 600, 1500, 2500, 3500)


@pytest.mark.parametrize("kind", ENTRIES)
class TestOneCoordinateRule:
    @pytest.mark.parametrize("fault", COORDINATE_RULE)
    def test_a_spec_without_coordinates_fires_where_the_rule_says(
        self, acl_small, kind, fault
    ):
        spec, overlay, counter, fired = COORDINATE_RULE[fault]
        trace = generate_zipf_trace(
            acl_small, 4 * SEGMENT, n_flows=256, skew=1.0, seed=12
        )
        updates = None
        if fault == "update":
            batches = churn_schedule(acl_small, 10, 4 * SEGMENT, seed=5)
            updates = [
                ScheduledUpdate(at, b.batch)
                for at, b in zip(UPDATE_AT, batches)
            ]
        with serving(
            kind, acl_small, fault_policy="retry", **overlay
        ) as serve:
            report = serve(trace, updates=updates, faults=[spec])
        if isinstance(fired, dict):
            fired = fired[kind]
        assert getattr(report.fault, counter) == fired
        assert report.n_packets == trace.n_packets


@pytest.mark.parametrize(
    ("segment", "one_shot", "streamed"), [(0, 4, 1), (2, 0, 1)]
)
def test_a_one_shot_run_is_segment_0(segment, one_shot, streamed):
    """``classify`` serves one segment, segment 0: a chunk spec aimed at
    a later segment never fires there, while the stream serves it at
    that segment's one chunk.  Aimed at segment 0 it fires at each of
    the one-shot run's four chunks, and at the stream's first."""
    ruleset = generate_ruleset("acl1", 100, seed=7)
    trace = generate_trace(ruleset, 4000, seed=8)
    config = EngineConfig(
        chunk_size=1000, min_chunk_packets=0, fault_policy="retry"
    )
    faults = [{"kind": "error", "segment": segment}]
    with Engine.open(config, ruleset) as engine:
        whole = engine.classify(trace, faults=faults)
        stream = engine.classify_stream(
            trace, segment_packets=1000, faults=faults
        )
    assert whole.fault.chunk_errors == one_shot
    assert stream.fault.chunk_errors == streamed
    assert np.array_equal(whole.match, stream.match)
