"""Packets and packet traces.

A packet header, for classification purposes, is just a point in the rule
space: one integer per dimension.  Traces are stored as an
``(n_packets, ndim)`` ``uint32`` matrix (:class:`PacketTrace`) so the batch
classifier and the cycle model can process them without creating per-packet
Python objects — the single most important hot-path rule from the HPC
guides (vectorise the loop, keep data in one contiguous buffer).

The same rule holds for reading a trace file: :func:`read_trace_blocks`
is the one ClassBench trace parser — one :func:`numpy.loadtxt` call per
block of lines — behind both :meth:`PacketTrace.load` (the whole file)
and :func:`repro.serve.iter_trace_file` (segment by segment).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PacketFormatError
from .rules import FIVE_TUPLE, FieldSchema

#: Lines :meth:`PacketTrace.load` hands the vectorised reader per parse
#: call: enough to amortise the call, small enough that a bad line's
#: line-by-line search stays short.
_LOAD_BLOCK_LINES = 65536


@dataclass(frozen=True)
class Packet:
    """A single packet header (one value per schema dimension)."""

    fields: tuple[int, ...]

    def validate(self, schema: FieldSchema) -> None:
        if len(self.fields) != schema.ndim:
            raise PacketFormatError(
                f"packet has {len(self.fields)} fields, schema {schema.ndim}"
            )
        for d, v in enumerate(self.fields):
            if not 0 <= v <= schema.max_value(d):
                raise PacketFormatError(
                    f"field {d} value {v} outside width {schema.widths[d]}"
                )

    @staticmethod
    def from_5tuple(
        src_ip: int, dst_ip: int, src_port: int, dst_port: int, proto: int
    ) -> "Packet":
        pkt = Packet((src_ip, dst_ip, src_port, dst_port, proto))
        pkt.validate(FIVE_TUPLE)
        return pkt


def header_matrix(headers: np.ndarray, schema: FieldSchema) -> np.ndarray:
    """``headers`` as the C-contiguous ``(n, ndim)`` ``uint32`` matrix a
    :class:`PacketTrace` stores, its shape checked against ``schema``;
    its field widths are not (the trace checks them, the accelerator's
    native walk checks them as it walks)."""
    headers = np.ascontiguousarray(headers, dtype=np.uint32)
    if headers.ndim != 2 or headers.shape[1] != schema.ndim:
        raise PacketFormatError(
            f"trace shape {headers.shape} does not match schema with "
            f"{schema.ndim} dims"
        )
    return headers


class PacketTrace:
    """A sequence of packet headers stored as a dense uint32 matrix."""

    __slots__ = ("schema", "headers")

    def __init__(self, headers: np.ndarray, schema: FieldSchema) -> None:
        headers = header_matrix(headers, schema)
        for d in range(schema.ndim):
            if headers[:, d].size and int(headers[:, d].max()) > schema.max_value(d):
                raise PacketFormatError(f"trace field {d} exceeds field width")
        self.schema = schema
        self.headers = headers

    # ------------------------------------------------------------------
    @property
    def n_packets(self) -> int:
        return self.headers.shape[0]

    def __len__(self) -> int:
        return self.n_packets

    def __iter__(self) -> Iterator[Packet]:
        for row in self.headers:
            yield Packet(tuple(int(v) for v in row))

    def __getitem__(self, i: int) -> Packet:
        return Packet(tuple(int(v) for v in self.headers[i]))

    def subset(self, n: int) -> "PacketTrace":
        """First ``n`` packets as a view (no copy)."""
        return PacketTrace(self.headers[:n], self.schema)

    # ------------------------------------------------------------------
    @staticmethod
    def from_packets(
        packets: Iterable[Packet] | Iterable[Sequence[int]],
        schema: FieldSchema = FIVE_TUPLE,
    ) -> "PacketTrace":
        rows = []
        for pkt in packets:
            fields = pkt.fields if isinstance(pkt, Packet) else tuple(pkt)
            rows.append(fields)
        if not rows:
            return PacketTrace(np.empty((0, schema.ndim), dtype=np.uint32), schema)
        return PacketTrace(np.asarray(rows, dtype=np.uint32), schema)

    def save(self, path: str) -> None:
        """Write in ClassBench trace format (tab-separated decimal fields,
        one header per line, trailing column = expected match id -1)."""
        with open(path, "w", encoding="ascii") as fh:
            for row in self.headers:
                fh.write("\t".join(str(int(v)) for v in row) + "\t-1\n")

    @staticmethod
    def load(path: str, schema: FieldSchema = FIVE_TUPLE) -> "PacketTrace":
        """Read a whole ClassBench trace file (comments, blank lines and
        the trailing match-id column skipped); a malformed line raises
        :class:`PacketFormatError` naming ``path:lineno``."""
        blocks = list(read_trace_blocks(path, schema.ndim, _LOAD_BLOCK_LINES))
        if not blocks:
            return PacketTrace.from_packets((), schema)
        return PacketTrace(np.concatenate(blocks), schema)


def _salvage_lines(
    lines: list[str], first_lineno: int, ndim: int, on_bad
) -> list[list[int]]:
    """Line-by-line fallback parse of a block the vectorised parser
    rejected (or that contained out-of-range values): well-formed rows
    are kept in order, every rejected line goes to ``on_bad`` with its
    absolute line number and reason."""
    rows: list[list[int]] = []
    for offset, line in enumerate(lines):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        reason = None
        row: list[int] = []
        if len(parts) < ndim:
            reason = f"expected >= {ndim} columns, got {len(parts)}"
        else:
            try:
                row = [int(p) for p in parts[:ndim]]
            except ValueError:
                reason = "non-numeric header field"
            else:
                if any(v < 0 for v in row):
                    reason = "negative header field"
                elif any(v > 0xFFFFFFFF for v in row):
                    reason = "header field out of 32-bit range"
        if reason is None:
            rows.append(row)
        else:
            on_bad(first_lineno + offset, line.rstrip("\n"), reason)
    return rows


def read_trace_blocks(
    path: str,
    ndim: int,
    block_lines: int,
    on_bad=None,
) -> Iterator[np.ndarray]:
    """Parse a ClassBench trace file ``block_lines`` lines at a time
    into ``(n, ndim)`` ``uint32`` header blocks (comments and blank
    lines are skipped, trailing columns beyond ``ndim`` — ClassBench's
    expected-match id — are ignored; a block with no rows yields
    nothing).

    A malformed line — too few columns, a non-numeric or negative
    field, one beyond 32 bits — raises :class:`PacketFormatError`
    naming ``path:lineno``; with ``on_bad`` it is handed to that sink
    as ``(lineno, text, reason)`` instead and the block's well-formed
    rows are served in order.
    """

    def reject(lineno: int, text: str, reason: str) -> None:
        raise PacketFormatError(
            f"{path}:{lineno}: {reason} (fields are unsigned 32-bit "
            "decimals)"
        )

    with open(path, "r", encoding="ascii") as fh:
        lineno = 0
        while True:
            lines = list(itertools.islice(fh, block_lines))
            if not lines:
                return
            first_lineno = lineno + 1
            lineno += len(lines)
            try:
                block = np.loadtxt(
                    lines, dtype=np.int64, usecols=range(ndim), ndmin=2,
                    comments="#",
                )
                # Read as unsigned, a negative field sits above 2^32
                # too: one compare finds both kinds of overflow before
                # ``astype(uint32)`` below would wrap them silently.
                clean = not (block.view(np.uint64) > 0xFFFFFFFF).any()
            except ValueError:
                clean = False
            if not clean:
                rows = _salvage_lines(
                    lines, first_lineno, ndim, on_bad or reject
                )
                block = np.array(rows, dtype=np.int64).reshape(-1, ndim)
            if block.size:
                yield block.astype(np.uint32)
