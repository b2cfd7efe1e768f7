"""The uniform classifier contract every engine backend satisfies.

Historically each classifier in the library grew its own ad-hoc surface
(``classify``/``classify_trace``/assorted stats methods) and the CLI and
experiment harness could only reach the two decision-tree variants.  The
engine layer fixes the contract once:

* :class:`Classifier` — a :class:`typing.Protocol` (structural, so the
  existing algorithm classes satisfy it without importing this module);
* :class:`ClassifierBase` — a convenience ABC for engine adapters that
  derives the whole surface from ``classify_batch``;
* :class:`BatchStats` — the per-batch result record the
  :class:`~repro.engine.pipeline.ClassificationPipeline` aggregates;
  backends with a hardware cost model (the accelerator) attach per-packet
  occupancy, everything else reports matches only;
* :func:`batch_stats_of` — the one way to serve a batch: into the
  caller's slices (:data:`BatchOut`), with the batch's tallies.

The semantic requirement is unchanged from the rest of the library: every
backend must agree packet-for-packet with the linear-search oracle
(:class:`~repro.algorithms.linear.LinearSearchClassifier`); the
conformance suite in ``tests/test_engine.py`` enforces it across the
whole registry.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.packet import PacketTrace
from ..core.rules import FieldSchema


@dataclass
class BatchStats:
    """Result of classifying one batch of headers.

    ``occupancy`` is the per-packet memory-port cycle count for backends
    that model it (the hardware accelerator); ``None`` elsewhere.
    ``cache_hits``/``cache_misses``/``cache_evictions`` are filled by
    the flow-cache front-end
    (:class:`~repro.engine.flowcache.CachedClassifier`): packets served
    without a backend lookup, backend lookups issued, and entries
    evicted while filling this batch; ``None`` on bare backends.
    ``matched`` (results >= 0) and ``occupancy_sum`` are the batch's
    tallies, counted by the kernels that wrote the cells (reductions on
    the NumPy path); :func:`batch_stats_of` always fills them.
    """

    match: np.ndarray
    occupancy: np.ndarray | None = None
    cache_hits: int | None = None
    cache_misses: int | None = None
    cache_evictions: int | None = None
    matched: int | None = None
    occupancy_sum: int | None = None

    @property
    def n_packets(self) -> int:
        return len(self.match)


#: Where one batch's results go: its ``match`` slice, its ``occupancy``
#: slice (``None`` unless the classifier models it) and a two-cell
#: ``int64`` tally the kernels add the matched packets and their cycles
#: into.
BatchOut = tuple[np.ndarray, np.ndarray | None, np.ndarray]


def batch_out(n: int, occupancy: bool) -> BatchOut:
    """Fresh outputs for a batch of ``n`` packets, the tally at zero."""
    return (
        np.empty(n, np.int64),
        np.empty(n, np.int64) if occupancy else None,
        np.zeros(2, np.int64),
    )


def tallied(out: BatchOut, **counters) -> BatchStats:
    """The :class:`BatchStats` of a batch written into ``out``."""
    match, occupancy, tally = out
    return BatchStats(
        match, occupancy, matched=int(tally[0]),
        occupancy_sum=None if occupancy is None else int(tally[1]),
        **counters,
    )


def models_occupancy(classifier) -> bool:
    """Whether ``classifier``'s ``batch_stats`` reports per-packet
    occupancy: its ``models_occupancy`` attribute, ``False`` when it
    has none (the accelerator sets it)."""
    return bool(getattr(classifier, "models_occupancy", False))


@runtime_checkable
class Classifier(Protocol):
    """Structural protocol of a packet classifier backend.

    ``classify_batch`` is the primary, vectorised entry point: it takes an
    ``(n_packets, ndim)`` header matrix and returns the first-match rule
    id per packet (-1 for no match).  ``classify`` is the scalar
    counterpart, ``classify_trace`` the :class:`PacketTrace` convenience.
    ``memory_bytes``/``memory_accesses_per_lookup`` feed the size and
    cost-model comparisons the experiment tables are built from.
    """

    def classify(self, header: Sequence[int]) -> int: ...

    def classify_batch(self, headers: np.ndarray) -> np.ndarray: ...

    def classify_trace(self, trace: PacketTrace) -> np.ndarray: ...

    def memory_bytes(self) -> int: ...

    def memory_accesses_per_lookup(self) -> int: ...


class ClassifierBase(abc.ABC):
    """Adapter base: implement ``classify_batch`` + the stats hooks and
    the rest of the :class:`Classifier` surface comes for free."""

    #: Registry name of the backend (set by adapters for display).
    backend_name: str = "classifier"

    schema: FieldSchema

    @abc.abstractmethod
    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        """First-match rule id per header row (-1 when nothing matches)."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Modelled storage footprint of the search structure."""

    @abc.abstractmethod
    def memory_accesses_per_lookup(self) -> int:
        """Worst-case memory accesses one lookup can incur."""

    # ------------------------------------------------------------------
    def classify(self, header: Sequence[int]) -> int:
        row = np.asarray([[int(v) for v in header]], dtype=np.uint32)
        return int(self.classify_batch(row)[0])

    def classify_trace(self, trace: PacketTrace) -> np.ndarray:
        return self.classify_batch(trace.headers)


def batch_stats_of(
    classifier: Classifier, headers: np.ndarray, out: BatchOut | None = None
) -> BatchStats:
    """Uniform stats entry point for any :class:`Classifier`.

    The results go into ``out`` (:data:`BatchOut`; fresh arrays when
    ``None``), whose tally starts at zero, so a retried batch counts
    only its last attempt.  A classifier with a ``batch_stats`` (the
    accelerator, the flow cache) writes into ``out`` in place and
    counts the tallies as it writes; any other is served by
    ``classify_batch``, its matches copied into ``out`` (kept as they
    are without one) and tallied by a NumPy reduction.
    """
    stats_fn = getattr(classifier, "batch_stats", None)
    if stats_fn is not None:
        if out is None:
            out = batch_out(headers.shape[0], models_occupancy(classifier))
        out[2][:] = 0
        return stats_fn(headers, out=out)
    match = classifier.classify_batch(headers)
    if out is None:
        out = (match, None, np.zeros(2, np.int64))
    else:
        out[0][:] = match
    out[2][:] = (np.count_nonzero(match >= 0), 0)
    return tallied(out)


def warm_batch_state(classifier: Classifier, ndim: int) -> None:
    """Materialise every lazily-built batch structure of ``classifier``.

    Classifying an empty batch forces compiled flat-tree kernels, probe
    tables and similar caches into existence.  The pipeline calls this in
    the parent before forking worker shards, so the children inherit the
    built structures copy-on-write instead of each rebuilding them.
    """
    batch_stats_of(classifier, np.empty((0, ndim), dtype=np.uint32))
