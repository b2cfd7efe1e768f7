"""The ClassBench trace parser: the native pass (``_trace_text.c``'s
``tt_parse``) against the text-mode loop it falls back to.

Both must give the same blocks (``uint32``), quarantine entries,
exception types and messages on any input, because the native pass
refuses every block outside its grammar and the text-mode loop reads
the file from there on.  The identity checks alone would pass if the
native pass refused everything, so the clean inputs here also assert
that it never fell back on them.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import native
from repro.core import packet
from repro.core.errors import PacketFormatError
from repro.core.packet import PacketTrace, read_trace_blocks
from repro.core.rules import FIVE_TUPLE
from repro.serve import iter_trace_file
from repro.serve.ingest import QuarantineLog

GOOD = b"1\t2\t3\t4\t5\t-1\n"

#: One line (or two, or a file's end) of each kind the grammar decides.
EDGES = {
    "crlf": b"6 7 8 9 10\r\n",
    "lone_cr": b"6 7 8 9 10\r11 12 13 14 15\n",
    "tabs": b"6\t7\t\t8 \t9\t10\n",
    "hash_glued_to_field": b"6 7 8 9 10#note\n",
    "hash_before_last_field": b"6 7 8 9#10\n",
    "trailing_text_columns": b"6 7 8 9 10 -1 any \"text\" # here\n",
    "no_final_newline": b"6 7 8 9 10",
    "comment_no_final_newline": b"# the end",
    "blank_and_indented_comment": b"\n   \t\n\t# note\n",
    "leading_zeros": b"0006 0000000007 8 9 10\n",
    "eleven_digits": b"00000000006 7 8 9 10\n",
    "max_u32": b"4294967295 7 8 9 10\n",
    "over_u32": b"4294967296 7 8 9 10\n",
    "twenty_digits": b"99999999999999999999 7 8 9 10\n",
    "plus": b"+7 7 8 9 10\n",
    "minus_zero": b"-0 7 8 9 10\n",
    "negative": b"-1 7 8 9 10\n",
    "underscore": b"1_000 7 8 9 10\n",
    "dot": b"6.0 7 8 9 10\n",
    "letter_glued": b"6 7 8 9 10x\n",
    "too_few": b"6 7 8\n",
    "nul_in_field": b"6\x007 8 9 10 11\n",
    "nul_in_trailing": b"6 7 8 9 10 \x00\n",
    "vertical_tab": b"6 7 8 9 10\x0b\n",
    "del_in_trailing": b"6 7 8 9 10 \x7f\n",
    "e_acute_in_trailing": "6 7 8 9 10 café\n".encode(),
    "e_acute_in_comment": "# café\n".encode(),
    "latin1_field": b"\xe9 7 8 9 10\n",
}


def _read(path, block_lines: int, quarantine: bool, absent: bool):
    """What ``read_trace_blocks`` gives: its blocks and quarantine
    entries, or the exception it raised (type and message)."""
    log = QuarantineLog(max_entries=1000)
    with pytest.MonkeyPatch.context() as mp:
        if absent:
            mp.setattr(native, "_kernel", native._Kernel(reason="absent"))
        try:
            blocks = list(read_trace_blocks(
                str(path), 5, block_lines, log.record if quarantine else None
            ))
        except Exception as exc:  # compared, type and message
            return type(exc), str(exc)
    assert all(b.dtype == np.uint32 and b.shape[1] == 5 for b in blocks)
    return [b.tolist() for b in blocks], log.entries


def _assert_same_both_ways(path, block_lines: int) -> None:
    for quarantine in (False, True):
        got = _read(path, block_lines, quarantine, absent=False)
        assert got == _read(path, block_lines, quarantine, absent=True)


@pytest.fixture
def no_fallback(monkeypatch, native_kernel):
    """Fail the test if the text-mode loop reads any of the file."""

    def refuse(path, *args):
        raise AssertionError(f"the native pass refused {path}")
        yield

    monkeypatch.setattr(packet, "_text_blocks", refuse)


# Identity against the fallback means nothing without the library.
@pytest.mark.usefixtures("native_kernel")
class TestEdgeCorpus:
    @pytest.mark.parametrize("edge", EDGES.values(), ids=EDGES.keys())
    def test_native_and_portable_agree(self, tmp_path, edge):
        for where, data in (
            ("middle", GOOD * 3 + edge + b"\n" + GOOD * 3),
            ("end", GOOD * 4 + edge),
            ("alone", edge),
        ):
            path = tmp_path / f"{where}.trace"
            path.write_bytes(data)
            for block_lines in range(1, 8):
                _assert_same_both_ways(path, block_lines)

    @pytest.mark.parametrize("text", [b"", b"# only\n\n# comments\n"])
    def test_files_without_rows(self, tmp_path, text):
        path = tmp_path / "empty.trace"
        path.write_bytes(text)
        for block_lines in range(1, 8):
            _assert_same_both_ways(path, block_lines)
            assert _read(path, block_lines, False, absent=False) == ([], [])

    def test_the_native_pass_reads_what_classbench_writes(
        self, tmp_path, no_fallback
    ):
        """Every accepted form at once, with its values: tabs, spaces,
        trailing text columns, comments glued to a field, blank lines,
        leading zeros, the largest field, no final newline."""
        path = tmp_path / "clean.trace"
        path.write_bytes(
            b"# ClassBench trace\n\n"
            b"1\t2\t3\t4\t5\t-1\n"
            b"  0006 0000000007 8 9 10 any \"text\" # x\n"
            b"4294967295 0 65535 0 255#glued\n"
            b"\t \n"
            b"11 12 13 14 15"
        )
        want = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10],
                [4294967295, 0, 65535, 0, 255], [11, 12, 13, 14, 15]]
        for block_lines in range(1, 8):
            blocks = list(read_trace_blocks(str(path), 5, block_lines))
            assert np.concatenate(blocks).tolist() == want

    def test_crlf_line_ends_parse_natively(self, tmp_path, no_fallback):
        """``\\r\\n`` ends a line as ``\\n`` does, after a field, trailing
        text, a comment or nothing, at any block size."""
        path = tmp_path / "crlf.trace"
        path.write_bytes(
            b"# ClassBench trace\r\n\r\n1\t2\t3\t4\t5\t-1\r\n"
            b"6 7 8 9 10#note\r\n \t\r\n11 12 13 14 15\r\n16 17 18 19 20"
        )
        want = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11, 12, 13, 14, 15],
                [16, 17, 18, 19, 20]]
        for block_lines in range(1, 8):
            blocks = list(read_trace_blocks(str(path), 5, block_lines))
            assert np.concatenate(blocks).tolist() == want

    def test_a_refused_block_is_reread_from_its_start(self, tmp_path):
        """The text-mode loop takes over at the refused block, with its
        line numbers: the rows before it come from the native pass."""
        path = tmp_path / "late.trace"
        path.write_bytes(GOOD * 5 + b"+6 7 8 9 10\n" + b"1 2 3\n")
        with pytest.raises(PacketFormatError, match=r"late\.trace:7: "):
            list(read_trace_blocks(str(path), 5, 2))
        log = QuarantineLog()
        blocks = list(read_trace_blocks(str(path), 5, 2, log.record))
        assert [len(b) for b in blocks] == [2, 2, 2]
        assert blocks[-1].tolist() == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
        assert log.entries == [(7, "1 2 3", "expected >= 5 columns, got 3")]


class TestFieldGrammar:
    """A field is ``[+-]?[0-9]+`` on every path (``int()``'s literal
    grammar is wider), and a non-ASCII byte makes its line malformed
    instead of ending the stream."""

    @pytest.mark.parametrize("absent", [False, True], ids=["native", "absent"])
    @pytest.mark.parametrize("line, reason", [
        (b"1_000 2 3 4 5\n", "non-numeric header field"),
        (b" 1 2 3 4 5 caf\xc3\xa9\n", "non-ASCII byte"),
        (b"# \xe9\n", "non-ASCII byte"),
    ], ids=["underscore", "utf8_trailing", "latin1_comment"])
    def test_raise_names_the_line(self, tmp_path, line, reason, absent):
        path = tmp_path / "bad.trace"
        path.write_bytes(GOOD + line + GOOD)
        got = _read(path, 16, quarantine=False, absent=absent)
        assert got == (PacketFormatError, f"{path}:2: {reason} (fields "
                       "are unsigned 32-bit decimals)")

    @pytest.mark.parametrize("absent", [False, True], ids=["native", "absent"])
    def test_quarantine_serves_the_good_rows(self, tmp_path, absent):
        path = tmp_path / "bad.trace"
        path.write_bytes(
            GOOD + b"1_000 2 3 4 5\n" + "6 7 8 9 10 café\n".encode()
            + b"\xff\n" + b"6 7 8 9 10\n"
        )
        with pytest.MonkeyPatch.context() as mp:
            if absent:
                mp.setattr(native, "_kernel", native._Kernel(reason="absent"))
            log = QuarantineLog()
            segments = list(iter_trace_file(
                str(path), segment_packets=2, on_malformed="quarantine",
                quarantine=log,
            ))
        rows = np.concatenate([s.headers for s in segments]).tolist()
        assert rows == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
        assert log.entries == [
            (2, "1_000 2 3 4 5", "non-numeric header field"),
            (3, "6 7 8 9 10 caf\\xc3\\xa9", "non-ASCII byte"),
            (4, "\\xff", "non-ASCII byte"),
        ]

    def test_a_non_ascii_byte_past_the_first_chunk_is_one_bad_line(
        self, tmp_path
    ):
        """It used to escape ``iter_trace_file`` as a bare
        ``UnicodeDecodeError`` wherever the decoder met it."""
        path = tmp_path / "late.trace"
        path.write_bytes(GOOD * 5000 + b"\x80\n" + GOOD * 10)
        log = QuarantineLog()
        n = sum(s.n_packets for s in iter_trace_file(
            str(path), segment_packets=4096, on_malformed="quarantine",
            quarantine=log,
        ))
        assert n == 5010 and log.entries == [(5001, "\\x80", "non-ASCII byte")]


class TestBuffers:
    """The native loop's refills: a buffer smaller than a line grows, a
    block with more rows than its first output array grows it."""

    @pytest.mark.parametrize("read_bytes, block_rows", [
        (1, 1), (7, 2), (40, 3), (1 << 20, 1),
    ])
    def test_small_buffers_give_the_same_blocks(
        self, tmp_path, monkeypatch, no_fallback, read_bytes, block_rows
    ):
        path = tmp_path / "t.trace"
        path.write_bytes(
            b"# head\n" + GOOD * 7 + b"4294967295 1 2 3 4 " + b"x" * 300
            + b"\n\n" + GOOD * 3 + b"9 9 9 9 9"
        )
        per_line = ([None] + [[1, 2, 3, 4, 5]] * 7 + [[2**32 - 1, 1, 2, 3, 4]]
                    + [None] + [[1, 2, 3, 4, 5]] * 3 + [[9] * 5])
        monkeypatch.setattr(packet, "_READ_BYTES", read_bytes)
        monkeypatch.setattr(packet, "_BLOCK_ROWS", block_rows)
        for block_lines in (1, 4, 64):
            want = [rows for i in range(0, len(per_line), block_lines)
                    if (rows := [r for r in per_line[i:i + block_lines] if r])]
            assert _read(path, block_lines, False, absent=False) == (want, [])


class TestNoDataWarning:
    @pytest.mark.parametrize("absent", [False, True], ids=["native", "absent"])
    def test_a_block_without_rows_warns_nothing(self, tmp_path, absent):
        path = tmp_path / "t.trace"
        path.write_bytes(GOOD + b"# a\n# b\n\n" + GOOD)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            if absent:
                mp.setattr(native, "_kernel", native._Kernel(reason="absent"))
            blocks = list(read_trace_blocks(str(path), 5, 1))
        assert len(blocks) == 2


_VALUE = st.one_of(
    st.integers(0, 2**32 - 1).map(str),
    st.sampled_from(["4294967296", "+3", "-0", "-2", "007", "1_0", "1.5",
                     "00000000001", "x"]),
)
_LINE = st.one_of(
    st.lists(_VALUE, min_size=5, max_size=5).map(" ".join),
    st.lists(_VALUE, min_size=5, max_size=5).map("\t".join),
    st.lists(st.integers(0, 2**32 - 1).map(str), min_size=0, max_size=7)
    .map(" ".join),
    st.sampled_from(["", "  ", "# c", "1 2 3 4 5 -1", "1 2 3 4 5#c",
                     "1 2 3 4 5 caf\xe9", "1 2 3 4 5\r", "1 2 3 4 5 \x00"]),
)


@pytest.mark.usefixtures("native_kernel")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    lines=st.lists(_LINE, max_size=14),
    final_newline=st.booleans(),
    block_lines=st.integers(1, 9),
)
def test_random_line_mixes_agree(tmp_path_factory, lines, final_newline,
                                 block_lines):
    path = tmp_path_factory.mktemp("mix") / "t.trace"
    text = "\n".join(lines) + ("\n" if final_newline and lines else "")
    path.write_bytes(text.encode("latin-1"))
    _assert_same_both_ways(path, block_lines)


def test_save_load_round_trip_of_100k_rows(tmp_path, no_fallback):
    rng = np.random.default_rng(39)
    widths = np.array(FIVE_TUPLE.widths, dtype=np.uint64)
    headers = (rng.integers(0, 2**63, (100_000, 5), dtype=np.uint64)
               % (np.uint64(1) << widths)).astype(np.uint32)
    headers[0] = [2**32 - 1, 2**32 - 1, 65535, 65535, 255]
    headers[1] = 0
    path = str(tmp_path / "big.trace")
    PacketTrace(headers, FIVE_TUPLE).save(path)
    loaded = PacketTrace.load(path)
    assert loaded.headers.dtype == np.uint32
    assert np.array_equal(loaded.headers, headers)
