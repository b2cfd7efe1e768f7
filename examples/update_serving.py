#!/usr/bin/env python
"""Live rule-update serving through the classification pipeline.

The paper's Section 4 deployment keeps the data plane classifying while
the control plane mutates the search structure.  ``examples/
incremental_updates.py`` models the *rebuild* end of that spectrum; this
example drives the real serving path added in the engine layer:

* an updatable classifier (the incremental backend behind a flow cache)
  streams a trace through the sharded ``ClassificationPipeline``;
* a seeded churn stream (``generate_update_stream``) is interleaved with
  classification — each batch takes effect at a chunk boundary, so every
  packet is classified against one well-defined ruleset epoch;
* the compiled flat-tree kernel is *patched* (CSR row splice) rather
  than recompiled per update, and the flow cache retires only the
  entries a batch could have changed;
* the control-plane cost of the incremental path is compared with a
  from-scratch rebuild via ``repro.energy.updates.UpdateCostModel``.

Run:  python examples/update_serving.py       (REPRO_QUICK=1 shrinks the
workload for CI smoke runs)
"""

import os

import numpy as np

from repro import generate_ruleset, generate_trace
from repro.algorithms import LinearSearchClassifier, OpCounter
from repro.classbench import generate_update_stream
from repro.core.ruleset import RuleSet
from repro.energy import UpdateCostModel, ops_delta
from repro.engine import (
    CachedClassifier,
    ClassificationPipeline,
    build_updatable_backend,
)


QUICK = os.environ.get("REPRO_QUICK") == "1"


def main() -> None:
    rules = generate_ruleset("acl1", 500 if QUICK else 2000, seed=21)
    trace = generate_trace(
        rules, 10_000 if QUICK else 50_000, seed=22,
        background_fraction=0.05,
    )

    build_ops = OpCounter()
    inner = build_updatable_backend(
        "incremental", rules, algorithm="hicuts", binth=30, spfac=4,
        ops=build_ops,
    )
    build_snapshot = build_ops.copy()
    clf = CachedClassifier(inner, entries=4096, ways=4)

    # 96 updates (60% inserts) in batches of 8, spread along the trace.
    schedule = generate_update_stream(
        rules, 96, trace.n_packets, insert_fraction=0.6, batch_size=8,
        seed=23,
    )

    # Single-process serving makes the per-epoch kernel patching visible
    # below; shards=N serves the same stream with identical results
    # (each forked worker patches its own copy).
    pipeline = ClassificationPipeline(clf, chunk_size=4096)
    result = pipeline.run(trace, updates=schedule)
    print(f"served {result.n_packets} packets across "
          f"{len(result.chunks)} chunks, epochs "
          f"{result.chunks[0].epoch}..{result.final_epoch} "
          f"({result.update_ops} update ops in {result.update_batches} "
          f"batches)")
    print(f"cache hit rate under churn: {result.cache_hit_rate:.1%} "
          f"({clf.cache.stats.retired} entries retired by "
          f"{clf.cache.stats.invalidations} batches)")
    print(f"flat kernel: {inner.tree.flat_patches} row-splice patches, "
          f"{inner.tree.flat_compiles} full compile(s)")

    # The final epoch agrees with a from-scratch linear oracle.
    live = inner.live_ruleset()
    stable = np.asarray(
        [i for i in range(len(inner._ruleset)) if inner._live[i]],
        dtype=np.int64,
    )
    compact = LinearSearchClassifier(
        RuleSet(list(live.rules), rules.schema)
    ).classify_trace(trace)
    want = np.where(compact >= 0, stable[np.maximum(compact, 0)], -1)
    got = inner.classify_trace(trace)
    assert np.array_equal(got, want)
    print("final-epoch classification verified against the oracle")

    # Control-plane economics: incremental updates vs full rebuild
    # (average the energy over batches, not the integer op counters).
    model = UpdateCostModel()
    update_ops = ops_delta(build_ops, build_snapshot)
    update_j = model.update_energy_j(update_ops) / max(
        1, result.update_batches
    )
    rebuild_j = model.rebuild_energy_j(build_snapshot)
    print(f"\ncontrol-plane energy: {update_j:.3E} J per update batch vs "
          f"{rebuild_j:.3E} J per full rebuild — "
          f"{rebuild_j / update_j:,.0f} batches of churn cost one rebuild")


if __name__ == "__main__":
    main()
