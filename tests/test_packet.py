"""Tests for repro.core.packet."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import PacketFormatError
from repro.core.packet import Packet, PacketTrace
from repro.core.rules import DEMO_SCHEMA, FIVE_TUPLE


class TestPacket:
    def test_valid_5tuple(self):
        pkt = Packet.from_5tuple(0xC0A80101, 0x0A000001, 1234, 80, 6)
        assert pkt.fields == (0xC0A80101, 0x0A000001, 1234, 80, 6)

    def test_out_of_range(self):
        with pytest.raises(PacketFormatError):
            Packet.from_5tuple(0, 0, 70000, 80, 6)
        with pytest.raises(PacketFormatError):
            Packet.from_5tuple(0, 0, 0, 0, 300)

    def test_wrong_dims(self):
        pkt = Packet((1, 2, 3))
        with pytest.raises(PacketFormatError):
            pkt.validate(FIVE_TUPLE)


class TestPacketTrace:
    def test_construction_and_iteration(self):
        headers = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]], dtype=np.uint32)
        trace = PacketTrace(headers, FIVE_TUPLE)
        assert len(trace) == 2
        pkts = list(trace)
        assert pkts[0].fields == (1, 2, 3, 4, 5)
        assert trace[1].fields == (6, 7, 8, 9, 10)

    def test_shape_validation(self):
        with pytest.raises(PacketFormatError):
            PacketTrace(np.zeros((3, 4), dtype=np.uint32), FIVE_TUPLE)

    def test_field_range_validation(self):
        bad = np.array([[0, 0, 0, 0, 999]], dtype=np.uint32)
        with pytest.raises(PacketFormatError):
            PacketTrace(bad, FIVE_TUPLE)

    def test_subset_is_view(self):
        headers = np.arange(50, dtype=np.uint32).reshape(10, 5) % 256
        trace = PacketTrace(headers, DEMO_SCHEMA)
        sub = trace.subset(4)
        assert sub.n_packets == 4
        assert np.shares_memory(sub.headers, trace.headers)

    def test_from_packets_empty(self):
        trace = PacketTrace.from_packets([], FIVE_TUPLE)
        assert trace.n_packets == 0

    def test_save_load_roundtrip(self, tmp_path):
        headers = np.array(
            [[0xC0A80101, 0x0A000001, 1234, 80, 6],
             [0, 0xFFFFFFFF, 0, 65535, 255]],
            dtype=np.uint32,
        )
        trace = PacketTrace(headers, FIVE_TUPLE)
        path = str(tmp_path / "trace.txt")
        trace.save(path)
        loaded = PacketTrace.load(path)
        assert np.array_equal(loaded.headers, trace.headers)

    def test_load_skips_comments(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# comment\n1\t2\t3\t4\t5\t-1\n\n")
        trace = PacketTrace.load(str(path))
        assert trace.n_packets == 1
        assert trace[0].fields == (1, 2, 3, 4, 5)

    def test_load_too_few_fields(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(PacketFormatError):
            PacketTrace.load(str(path))

    def test_load_names_the_short_row(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1 2 3 4 5\n# comment\n1 2 3\n")
        with pytest.raises(
            PacketFormatError, match=r"trace\.txt:3: expected >= 5 columns"
        ):
            PacketTrace.load(str(path))

    @pytest.mark.parametrize("text", ["", "# only\n\n# comments\n"])
    def test_load_of_a_file_without_rows_is_an_empty_trace(
        self, tmp_path, text
    ):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        trace = PacketTrace.load(str(path))
        assert trace.headers.shape == (0, 5)

    @pytest.mark.parametrize("field", ["4294967296", "-1"])
    def test_load_rejects_a_field_outside_32_bits(self, tmp_path, field):
        """Used to escape as a bare OverflowError out of NumPy."""
        path = tmp_path / "trace.txt"
        path.write_text(f"1 2 3 4 5\n{field} 2 3 4 5\n")
        with pytest.raises(PacketFormatError, match=r"trace\.txt:2: .*32-bit"):
            PacketTrace.load(str(path))
