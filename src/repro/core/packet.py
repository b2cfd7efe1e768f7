"""Packets and packet traces.

A packet header, for classification purposes, is just a point in the rule
space: one integer per dimension.  Traces are stored as an
``(n_packets, ndim)`` ``uint32`` matrix (:class:`PacketTrace`) so the batch
classifier and the cycle model can process them without creating per-packet
Python objects — the single most important hot-path rule from the HPC
guides (vectorise the loop, keep data in one contiguous buffer).

The same rule holds for reading a trace file: :func:`read_trace_blocks`
is the one ClassBench trace parser — one pass of the native library's C
parser over the bytes of each block of lines (split over the host's CPUs
inside the call, each thread a contiguous run of lines), or, from the
first block outside its strict grammar on (and on a host without the
library), one :func:`numpy.loadtxt` call per block — behind both
:meth:`PacketTrace.load` (the whole file) and
:func:`repro.serve.iter_trace_file` (segment by segment).  Each block
comes with its columns' largest values (the native pass keeps them as it
writes the rows), so its field widths are checked from those
(:func:`check_widths`), not by a second pass over its rows.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PacketFormatError
from .rules import FIVE_TUPLE, FieldSchema

#: Lines :meth:`PacketTrace.load` reads per block: enough to amortise a
#: block, small enough that a bad line's line-by-line search stays short.
_LOAD_BLOCK_LINES = 65536

#: Bytes the native pass reads a trace file in at a time (a line longer
#: than that doubles it), and rows a block's output starts with (a block
#: of more header rows doubles it).
_READ_BYTES = 1 << 20
_BLOCK_ROWS = 1 << 16

#: A header field on every path: the integers ``np.loadtxt`` reads;
#: Python's ``int()`` also takes ``1_000``.
_FIELD = re.compile(r"[+-]?[0-9]+")


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


def check_widths(maxes, schema: FieldSchema) -> None:
    """Raise :class:`PacketFormatError` naming the first field whose
    largest value ``maxes[d]`` does not fit its width."""
    for d, top in enumerate(maxes.tolist()):
        if top > schema.max_value(d):
            raise PacketFormatError(f"trace field {d} exceeds field width")


class PacketTrace:
    """A sequence of packet headers stored as a dense uint32 matrix."""

    __slots__ = ("schema", "headers")

    def __init__(self, headers: np.ndarray, schema: FieldSchema) -> None:
        headers = header_matrix(headers, schema)
        if len(headers):
            check_widths(headers.max(axis=0), schema)
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

    @classmethod
    def from_checked(cls, headers: np.ndarray, schema: FieldSchema) -> "PacketTrace":
        """A trace over ``headers``, rows of a trace already checked (a
        slice or a C-contiguous gather of its rows), as they are: no
        copy and no second width pass.  Nothing is lost: every row was
        checked once, and the native walk checks each header as it
        walks anyway."""
        trace = object.__new__(cls)
        trace.schema, trace.headers = schema, headers
        return trace

    def subset(self, n: int) -> "PacketTrace":
        """First ``n`` packets as a view (no copy, no width pass)."""
        return PacketTrace.from_checked(self.headers[:n], self.schema)

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
        check_widths(np.max([maxes for _, maxes in blocks], axis=0), schema)
        return PacketTrace.from_checked(
            np.concatenate([block for block, _ in blocks]), schema)


def _salvage_lines(
    lines: list[str], first_lineno: int, ndim: int, on_bad
) -> list[list[int]]:
    """Line-by-line fallback parse of a block the vectorised parser
    rejected (or that contained out-of-range values or a non-ASCII
    byte): well-formed rows are kept in order, every rejected line goes
    to ``on_bad`` with its absolute line number, its text (a non-ASCII
    byte as ``\\xNN``) and the reason."""
    rows: list[list[int]] = []
    for offset, line in enumerate(lines):
        reason = None
        row: list[int] = []
        if not line.isascii():
            reason = "non-ASCII byte"
        elif not (text := line.split("#", 1)[0].strip()):
            continue
        elif len(parts := text.split()) < ndim:
            reason = f"expected >= {ndim} columns, got {len(parts)}"
        elif not all(map(_FIELD.fullmatch, parts[:ndim])):
            reason = "non-numeric header field"
        else:
            row = [int(p) for p in parts[:ndim]]
            if any(v < 0 for v in row):
                reason = "negative header field"
            elif any(v > 0xFFFFFFFF for v in row):
                reason = "header field out of 32-bit range"
        if reason is None:
            rows.append(row)
        else:
            text = line.rstrip("\n").encode("ascii", "surrogateescape")
            on_bad(first_lineno + offset,
                   text.decode("ascii", "backslashreplace"), reason)
    return rows


def read_trace_blocks(
    path: str,
    ndim: int,
    block_lines: int,
    on_bad=None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Parse a ClassBench trace file ``block_lines`` lines at a time
    into ``(n, ndim)`` ``uint32`` header blocks, each with its columns'
    largest values (comments and blank lines are skipped, trailing
    columns beyond ``ndim`` — ClassBench's expected-match id — are
    ignored; a block with no rows yields nothing).

    A malformed line — too few columns, a field that is not
    ``[+-]?[0-9]+``, a negative one, one beyond 32 bits, a non-ASCII
    byte — raises :class:`PacketFormatError` naming ``path:lineno``;
    with ``on_bad`` it is handed to that sink as ``(lineno, text,
    reason)`` instead and the block's well-formed rows are served in
    order.

    Blocks are parsed by the native library's one pass over the bytes
    (``_trace_text.c``, which keeps the column maxima as it writes the
    rows) while they stay inside its strict grammar; from the first
    block it refuses (a ``\\r``, a sign, a non-ASCII byte, a malformed
    line, ...) on, or without the library, the text-mode loop reads the
    rest of the file from that block's byte offset on, so the blocks,
    line numbers and errors never depend on which read them.
    """
    resume = yield from _native_blocks(path, ndim, block_lines)
    if resume is not None:
        for block in _text_blocks(path, ndim, block_lines, on_bad, *resume):
            yield block, block.max(axis=0)


def _native_blocks(path: str, ndim: int, block_lines: int):
    """Yield the file's blocks, each with its column maxima, through
    ``native.parse_text``; returns ``None`` after the last, or the byte
    offset and the lines before it of the first block the parser refused
    (or could not take: no library)."""
    from ..algorithms import native  # not at import: it imports core

    pad = native.TEXT_PAD + 1  # and a byte to end an unterminated line
    buf = np.empty(_READ_BYTES + pad, np.uint8)
    used = np.zeros(4, np.int64)
    start = stop = offset = lineno = 0  # offset, lineno: at buf[start]
    eof = False
    with open(path, "rb", buffering=0) as fh:
        while not (eof and start == stop):
            resume = offset, lineno
            out = np.empty((min(block_lines, _BLOCK_ROWS), ndim), np.uint32)
            maxes = np.zeros(ndim, np.uint32)
            rows = lines = 0
            while lines < block_lines:
                if not native.parse_text(
                    buf, start, stop, block_lines - lines, out, rows, used,
                    maxes,
                ):
                    return resume
                n_rows, n_bytes, n_lines, _ = used.tolist()
                rows, lines = rows + n_rows, lines + n_lines
                start, offset = start + n_bytes, offset + n_bytes
                lineno += n_lines
                if lines == block_lines:
                    break
                if rows == len(out):  # it stopped at a row out lacks
                    grown = np.empty((min(2 * rows, block_lines), ndim),
                                     np.uint32)
                    grown[:rows] = out
                    out = grown
                elif eof:
                    break
                else:  # no whole line left: keep the tail, read on
                    tail = stop - start
                    buf[:tail] = buf[start:stop]
                    start, stop = 0, tail
                    if stop == len(buf) - pad:  # one line fills it
                        buf = np.concatenate([buf, np.empty_like(buf)])
                    got = fh.readinto(memoryview(buf)[stop:-pad])
                    stop += got
                    if not got:
                        eof = True
                        if stop and buf[stop - 1] != 0x0A:
                            buf[stop] = 0x0A  # the unterminated last line
                            stop += 1
            if rows:
                yield out[:rows], maxes


def _text_blocks(
    path: str, ndim: int, block_lines: int, on_bad, offset: int, lineno: int
) -> Iterator[np.ndarray]:
    """The portable text-mode loop: one :func:`numpy.loadtxt` call per
    block of lines from byte ``offset`` on (``lineno`` lines before it),
    line by line through :func:`_salvage_lines` for a block it rejects,
    one with a non-ASCII byte or one with no rows."""

    def reject(lineno: int, text: str, reason: str) -> None:
        raise PacketFormatError(
            f"{path}:{lineno}: {reason} (fields are unsigned 32-bit "
            "decimals)"
        )

    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        fh.seek(offset)  # a byte offset is a cookie to a stateless codec
        while True:
            lines = list(itertools.islice(fh, block_lines))
            if not lines:
                return
            first_lineno = lineno + 1
            lineno += len(lines)
            clean = "".join(lines).isascii() and any(
                line.split("#", 1)[0].strip() for line in lines
            )
            if clean:
                try:
                    block = np.loadtxt(
                        lines, dtype=np.int64, usecols=range(ndim), ndmin=2,
                        comments="#",
                    )
                    # Read as unsigned, a negative field sits above 2^32
                    # too: one compare finds both kinds of overflow
                    # before ``astype(uint32)`` below would wrap them
                    # silently.
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
