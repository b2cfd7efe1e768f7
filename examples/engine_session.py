#!/usr/bin/env python
"""The declarative serving API: one config, one session, three paths.

Everything the other examples wire by hand — backend construction,
cache wrapping, update adaptation, pool lifecycle — collapses into an
:class:`~repro.serve.EngineConfig` plus an :class:`~repro.serve.Engine`
session:

1. declare the engine (backend, shards, cache, update policy) and
   round-trip the config through JSON and the CLI flag namespace;
2. ``classify`` a trace one-shot and read the unified ``EngineReport``;
3. ``stream`` the same workload as lazily generated segments — each
   ``next()`` generates one segment, classifies it and hands it back on
   the calling thread, so one segment is in flight;
4. interleave a live rule-update schedule and read the apply-latency
   percentiles off the report.

Run:  python examples/engine_session.py       (REPRO_QUICK=1 shrinks the
workload for CI smoke runs)
"""

import json
import os

import numpy as np

from repro import Engine, EngineConfig, generate_ruleset, generate_trace
from repro.classbench import generate_update_stream

QUICK = os.environ.get("REPRO_QUICK") == "1"
N_RULES = 300 if QUICK else 1000
N_PACKETS = 10_000 if QUICK else 100_000
SEGMENT = 2_048 if QUICK else 16_384


def main() -> None:
    rules = generate_ruleset("acl1", N_RULES, seed=31)

    # 1. One declarative description of the whole serving engine.
    config = EngineConfig(
        backend="hypercuts",      # routed onto the accelerator model
        shards=2, chunk_size=2048,
        cache_entries=4096, cache_ways=4,
        updatable=True,           # serve live rule updates
    )
    print("config:", json.dumps(config.to_dict(), indent=None))
    assert EngineConfig.from_dict(config.to_dict()) == config
    print("as CLI flags:", " ".join(config.to_args()), "\n")

    trace = generate_trace(rules, N_PACKETS, seed=32)
    schedule = generate_update_stream(
        rules, 48, trace.n_packets, insert_fraction=0.6, batch_size=8,
        seed=33,
    )

    with Engine.open(config, rules) as engine:
        # 2. One-shot serving with an interleaved update schedule.
        report = engine.classify(trace, updates=schedule)
        print(f"one-shot: {report.n_packets:,} packets, "
              f"{report.matched_fraction:.1%} matched, "
              f"{report.throughput_pps:,.0f} pps, "
              f"cache hit rate {report.cache_hit_rate:.1%}")
        print(f"epochs {report.first_epoch}..{report.final_epoch} "
              f"({report.update_ops} ops in {report.update_batches} "
              f"batches)")
        pct = report.update_latency
        print(f"update latency/batch: p50 {pct['p50_ms']:.2f} ms, "
              f"p95 {pct['p95_ms']:.2f} ms, p99 {pct['p99_ms']:.2f} ms\n")

        # 3. Streamed serving: each segment is *generated lazily*, when
        # the session pulls it.
        def segment_source():
            for i in range(N_PACKETS // SEGMENT):
                yield generate_trace(rules, SEGMENT, seed=100 + i)

        streamed = engine.classify_stream(segment_source())
        print(f"streamed: {streamed.n_segments} segments, "
              f"{streamed.n_packets:,} packets, "
              f"{streamed.throughput_pps:,.0f} pps end-to-end "
              f"(generation included)")

        # 4. Streaming an in-memory trace is bit-identical to one-shot.
        check = engine.classify(trace)
        chunks = list(engine.stream(trace, segment_packets=SEGMENT))
        got = np.concatenate([c.match for c in chunks])
        assert np.array_equal(got, check.match)
        print(f"stream == classify on {len(chunks)} segments "
              f"(bit-identical)")

    print("\nfull telemetry:", json.dumps(report.to_dict(), indent=2)[:400],
          "...")


if __name__ == "__main__":
    main()
