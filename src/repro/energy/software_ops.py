"""Analytic op aggregation for software lookups over whole traces.

Charging per-packet :meth:`DecisionTree.lookup` costs over a 100k-packet
trace in Python would dominate the harness runtime, so the experiment
pipeline aggregates the *same* cost formula from the vectorised
:class:`~repro.algorithms.base.BatchLookup` statistics:

* per internal node visited: 2 ``mem_read`` + 1 ``branch`` + 3 ``alu``
  + (1 ``div`` for the original algorithms | 3 ``alu`` for grid trees);
* per rule compared during linear search (leaf or pushed list):
  5 ``mem_read`` + 10 ``alu``.

A test verifies this equals the sum of per-packet ``lookup(ops=...)``
counters exactly.
"""

from __future__ import annotations

from ..algorithms.base import BatchLookup, DecisionTree
from ..algorithms.opcount import OpCounter
from ..algorithms.rfc import RFCClassifier


def software_lookup_ops(tree: DecisionTree, batch: BatchLookup) -> OpCounter:
    """Total SA-1100 ops a software implementation spends on the trace."""
    ops = OpCounter()
    internal = int(batch.internal_nodes.sum())
    compared = int(batch.rules_compared.sum())
    ops.add("mem_read", 2 * internal + 5 * compared)
    ops.add("branch", internal)
    if tree.grid_mode:
        ops.add("alu", 6 * internal + 10 * compared)
    else:
        ops.add("alu", 3 * internal + 10 * compared)
        ops.add("div", internal)
    return ops


def rfc_lookup_ops(rfc: RFCClassifier, n_packets: int) -> OpCounter:
    """RFC's fixed per-packet cost: one dependent read per table plus the
    index arithmetic (matches :meth:`RFCClassifier.classify` charges)."""
    ops = OpCounter()
    accesses = rfc.memory_accesses_per_lookup()
    ops.add("mem_read", accesses * n_packets)
    # 2 alu per chunk extraction (7 chunks) + 3 per combine.
    combines = accesses - 7
    ops.add("alu", (2 * 7 + 3 * combines) * n_packets)
    return ops
