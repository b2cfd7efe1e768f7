#!/usr/bin/env python
"""Fault injection and self-healing serving, end to end.

A production classifier cannot assume its workers are immortal or its
input is clean.  This example drives the supervised serving path with a
deterministic :class:`~repro.engine.faults.FaultPlan` and shows every
recovery mechanism the engine layer provides:

* a **worker crash** mid-run, absorbed by a bounded retry — the replay
  is bit-identical to the fault-free run because the parent's state
  only advances after a successful dispatch;
* an **arena fence trip** (corrupted shared memory) under
  ``fault_policy="degrade"``, which serves the run inline
  (``forked -> inline``) once the forked retries run out;
* the ``fail`` policy raising a typed
  :class:`~repro.core.errors.ServingFaultError` that names the tier,
  shard and chunk;
* **malformed trace lines** dead-lettered into a bounded
  :class:`~repro.serve.QuarantineLog` instead of aborting ingestion.

Everything observed lands in the :class:`~repro.serve.FaultReport` on
``report.fault`` — the same telemetry ``repro-classify bench --faults
PLAN.json`` prints.

Run:  python examples/fault_injection.py       (REPRO_QUICK=1 shrinks
the workload for CI smoke runs)
"""

import os
import tempfile

import numpy as np

from repro import generate_ruleset, generate_trace
from repro.core.errors import ServingFaultError
from repro.serve import (
    Engine,
    EngineConfig,
    FaultPlan,
    FaultSpec,
    iter_trace_file,
)

QUICK = os.environ.get("REPRO_QUICK") == "1"


def main() -> None:
    rules = generate_ruleset("acl1", 300 if QUICK else 1000, seed=31)
    trace = generate_trace(rules, 8_000 if QUICK else 40_000, seed=32)

    # ------------------------------------------------------------------
    # 1. A worker crash, retried: bit-identical recovery
    # ------------------------------------------------------------------
    config = EngineConfig(
        backend="hypercuts", shards=2, chunk_size=1024,
        min_chunk_packets=0, shard_mode="processes",
        fault_policy="retry", max_retries=2,
    )
    plan = FaultPlan((FaultSpec(kind="crash", chunk=1),))
    with Engine.open(config, rules) as engine:
        clean = engine.classify(trace)
        faulted = engine.classify(trace, faults=plan)
    assert np.array_equal(clean.match, faulted.match)
    fault = faulted.fault
    print("worker crash, policy=retry:")
    print(f"  {fault.worker_crashes} crash detected "
          f"(pids {sorted(fault.shard_crashes)}), "
          f"{fault.retries} retries, {fault.replays} chunks replayed")
    print(f"  recovery {max(fault.recovery_s) * 1e3:.1f} ms; "
          f"matches bit-identical to the fault-free run")

    # ------------------------------------------------------------------
    # 2. Arena corruption, policy=degrade: forked -> inline
    # ------------------------------------------------------------------
    config = EngineConfig(
        backend="hypercuts", shards=2, chunk_size=1024,
        min_chunk_packets=0, shard_mode="processes",
        fault_policy="degrade", max_retries=1,
    )
    # times=10 outlives every forked-tier retry, forcing the step down
    # to the inline tier (which has no shared arena).
    plan = FaultPlan((FaultSpec(kind="arena", times=10),))
    with Engine.open(config, rules) as engine:
        report = engine.classify(trace, faults=plan)
    assert np.array_equal(clean.match, report.match)
    print("arena corruption, policy=degrade:")
    print(f"  {report.fault.arena_faults} fence trips, then degraded: "
          f"{', '.join(report.fault.degradations)}")

    # ------------------------------------------------------------------
    # 3. The fail policy: a typed, attributed error
    # ------------------------------------------------------------------
    config = EngineConfig(
        backend="hypercuts", shards=2, chunk_size=1024,
        min_chunk_packets=0, shard_mode="processes", fault_policy="fail",
    )
    with Engine.open(config, rules) as engine:
        try:
            engine.classify(
                trace, faults=[FaultSpec(kind="error", chunk=2)]
            )
        except ServingFaultError as exc:
            print("injected chunk error, policy=fail:")
            print(f"  {type(exc).__name__}: tier={exc.tier} "
                  f"chunk={exc.chunk} cause={type(exc.cause).__name__}")

    # ------------------------------------------------------------------
    # 4. Malformed input: quarantine instead of abort
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.txt")
        with open(path, "w", encoding="ascii") as fh:
            for i, row in enumerate(trace.headers[:2000]):
                if i % 500 == 250:
                    fh.write("not a packet\n")
                fh.write("\t".join(str(int(v)) for v in row) + "\n")
        config = EngineConfig(
            backend="hypercuts", chunk_size=1024,
            on_malformed="quarantine",
        )
        with Engine.open(config, rules) as engine:
            report = engine.classify_stream(iter_trace_file(
                path, segment_packets=512, on_malformed="quarantine",
                quarantine=engine.quarantine,
            ))
            log = engine.quarantine
            print("malformed trace file, on_malformed=quarantine:")
            print(f"  served {report.n_packets} packets, quarantined "
                  f"{log.count} lines ({log.dropped} beyond the buffer)")
            lineno, text, reason = log.entries[0]
            print(f"  first dead letter: line {lineno} ({reason}): "
                  f"{text!r}")


if __name__ == "__main__":
    main()
