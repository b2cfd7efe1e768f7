"""Packets and packet traces.

A packet header, for classification purposes, is just a point in the rule
space: one integer per dimension.  Traces are stored as an
``(n_packets, ndim)`` ``uint32`` matrix (:class:`PacketTrace`) so the batch
classifier and the cycle model can process them without creating per-packet
Python objects — the single most important hot-path rule from the HPC
guides (vectorise the loop, keep data in one contiguous buffer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PacketFormatError
from .rules import FIVE_TUPLE, FieldSchema


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


class PacketTrace:
    """A sequence of packet headers stored as a dense uint32 matrix."""

    __slots__ = ("schema", "headers")

    def __init__(self, headers: np.ndarray, schema: FieldSchema) -> None:
        headers = np.ascontiguousarray(headers, dtype=np.uint32)
        if headers.ndim != 2 or headers.shape[1] != schema.ndim:
            raise PacketFormatError(
                f"trace shape {headers.shape} does not match schema with "
                f"{schema.ndim} dims"
            )
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
        rows = []
        with open(path, "r", encoding="ascii") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) < schema.ndim:
                    raise PacketFormatError(f"{path}:{ln}: too few fields")
                row = tuple(int(p) for p in parts[: schema.ndim])
                if not all(0 <= v <= 0xFFFFFFFF for v in row):
                    raise PacketFormatError(
                        f"{path}:{ln}: header field outside the 32-bit range"
                    )
                rows.append(row)
        return PacketTrace.from_packets(rows, schema)
