"""Segment sources for streamed serving.

:meth:`Engine.stream <repro.serve.session.Engine.stream>` consumes any
iterable of trace segments; this module supplies the two canonical
sources:

* :func:`iter_trace_segments` — slice an in-memory
  :class:`~repro.core.packet.PacketTrace` into zero-copy views (the
  conformance harness's source, and the natural adapter for a generator
  that synthesises traffic segment by segment);
* :func:`iter_trace_file` — stream a ClassBench-format trace file in
  fixed-size segments through the one parser
  (:func:`repro.core.packet.read_trace_blocks`, which
  :meth:`PacketTrace.load` also reads with: a native pass over each
  segment's bytes while they stay inside its grammar, split over the
  host's CPUs inside the call, the text-mode loop from the first
  segment that does not).  A streamed session pulls
  it one segment per result, so the first match is out after one
  segment's parse instead of the whole file's.

Both are plain generators: nothing is read or parsed until the session
(on its consumer's thread) pulls the next segment, which is what bounds
streamed memory at ``O(segment)`` instead of ``O(trace)``.

**Malformed input.**  ``iter_trace_file(on_malformed="quarantine")``
dead-letters bad lines into a bounded :class:`QuarantineLog` instead of
aborting the stream: the segment is parsed again line by line,
well-formed rows are kept in order, and each rejected line (a non-ASCII
byte included) is recorded with its absolute line number and reason
(the buffer is bounded; overflow only counts).  Under the default ``"raise"`` one bad
line raises :class:`~repro.core.errors.PacketFormatError` naming it.
"""

from __future__ import annotations

from typing import Iterator

from ..core.errors import ConfigError
from ..core.packet import PacketTrace, check_widths, read_trace_blocks
from ..core.rules import FIVE_TUPLE, FieldSchema

#: Default packets per streamed segment: a few pipeline chunks' worth,
#: large enough to amortise per-run pipeline overhead, small enough to
#: keep the ingestion/classification pipeline full.
DEFAULT_SEGMENT_PACKETS = 65536

#: The malformed-line policies ``iter_trace_file`` (and
#: ``EngineConfig.on_malformed``) accept.
ON_MALFORMED = ("raise", "quarantine")

#: Dead-letter buffer bound: a quarantine log keeps at most this many
#: rejected lines verbatim; everything beyond is counted only.
DEFAULT_QUARANTINE_ENTRIES = 256


class QuarantineLog:
    """Bounded dead-letter buffer for malformed trace lines.

    ``count`` is the total number of lines quarantined; ``entries``
    retains the first ``max_entries`` of them as ``(lineno, text,
    reason)`` triples (absolute 1-based line numbers); ``dropped`` is
    how many overflowed the buffer and were counted only.
    """

    def __init__(self, max_entries: int = DEFAULT_QUARANTINE_ENTRIES) -> None:
        if max_entries < 0:
            raise ConfigError(
                f"max_entries must be >= 0, got {max_entries}"
            )
        self.max_entries = max_entries
        self.entries: list[tuple[int, str, str]] = []
        self.count = 0

    def record(self, lineno: int, text: str, reason: str) -> None:
        self.count += 1
        if len(self.entries) < self.max_entries:
            self.entries.append((lineno, text, reason))

    @property
    def dropped(self) -> int:
        return self.count - len(self.entries)

    def __bool__(self) -> bool:
        return self.count > 0

    def clear(self) -> None:
        self.entries.clear()
        self.count = 0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "dropped": self.dropped,
            "entries": [
                {"line": lineno, "text": text, "reason": reason}
                for lineno, text, reason in self.entries
            ],
        }


def _check_segment_size(segment_packets: int) -> None:
    if segment_packets < 1:
        raise ConfigError(
            f"segment_packets must be >= 1, got {segment_packets}"
        )


def iter_trace_segments(
    trace: PacketTrace, segment_packets: int = DEFAULT_SEGMENT_PACKETS
) -> Iterator[PacketTrace]:
    """Yield ``trace`` as consecutive zero-copy segment views (its rows
    were checked when it was built: a view is not checked again)."""
    _check_segment_size(segment_packets)
    headers, schema = trace.headers, trace.schema
    for start in range(0, trace.n_packets, segment_packets):
        yield PacketTrace.from_checked(
            headers[start:start + segment_packets], schema
        )


def iter_trace_file(
    path: str,
    schema: FieldSchema = FIVE_TUPLE,
    segment_packets: int = DEFAULT_SEGMENT_PACKETS,
    *,
    on_malformed: str = "raise",
    quarantine: QuarantineLog | None = None,
) -> Iterator[PacketTrace]:
    """Stream a ClassBench trace file as parsed segments.

    Each segment is one :func:`~repro.core.packet.read_trace_blocks`
    block of ``segment_packets`` lines, its widths checked from the
    block's column maxima (comments and
    blank lines are skipped, trailing columns beyond the schema —
    ClassBench's expected-match id — are ignored).  With the default
    ``on_malformed="raise"`` a malformed line raises
    :class:`~repro.core.errors.PacketFormatError` naming
    ``path:lineno``, as :meth:`PacketTrace.load` does; with
    ``"quarantine"`` good rows are served in order and bad lines are
    dead-lettered into ``quarantine`` (a fresh bounded
    :class:`QuarantineLog` when not supplied — pass your own to read
    the counts back).
    """
    _check_segment_size(segment_packets)
    if on_malformed not in ON_MALFORMED:
        raise ConfigError(
            f"unknown on_malformed {on_malformed!r}; "
            f"expected one of {', '.join(ON_MALFORMED)}"
        )
    if quarantine is None:
        quarantine = QuarantineLog()
    on_bad = quarantine.record if on_malformed == "quarantine" else None
    for block, maxes in read_trace_blocks(
        path, schema.ndim, segment_packets, on_bad
    ):
        check_widths(maxes, schema)
        yield PacketTrace.from_checked(block, schema)
