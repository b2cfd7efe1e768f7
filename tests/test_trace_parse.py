"""The ClassBench trace parser: the native pass (``_trace_text.c``'s
``tt_parse``) against the text-mode loop it falls back to.

Both must give the same blocks (``uint32``), quarantine entries,
exception types and messages on any input, because the native pass
refuses every block outside its grammar and the text-mode loop reads
the file from there on.  The identity checks alone would pass if the
native pass refused everything, so the clean inputs here also assert
that it never fell back on them.  A native call splits its lines over
threads (``TestSplitParse`` forces k = 1-4 through ``threads``): every
count gives the one-thread call's rows, counts, column maxima and
answer.  The widths of a streamed block are checked from those maxima on
the native path and from the rows on the text-mode loop, with the same
error at the same segment (``TestFieldWidths``).
"""

from __future__ import annotations

import functools
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


def _read(path, block_lines: int, quarantine: bool, absent: bool,
          threads: int | None = None):
    """What ``read_trace_blocks`` gives: its blocks and quarantine
    entries, or the exception it raised (type and message); ``threads``
    forces each native call's thread count."""
    log = QuarantineLog(max_entries=1000)
    with pytest.MonkeyPatch.context() as mp:
        if absent:
            mp.setattr(native, "_kernel", native._Kernel(reason="absent"))
        if threads is not None:
            mp.setattr(native, "parse_text",
                       functools.partial(native.parse_text, threads=threads))
        try:
            pairs = list(read_trace_blocks(
                str(path), 5, block_lines, log.record if quarantine else None
            ))
        except Exception as exc:  # compared, type and message
            return type(exc), str(exc)
    for block, maxes in pairs:  # every block with its column maxima
        assert block.dtype == np.uint32 and block.shape[1] == 5
        assert np.array_equal(maxes, block.max(axis=0))
    return [block.tolist() for block, _ in pairs], log.entries


def _blocks(path, block_lines: int, on_bad=None) -> list:
    return [block for block, _ in read_trace_blocks(
        str(path), 5, block_lines, on_bad)]


def _assert_same_both_ways(path, block_lines: int,
                           threads: int | None = None) -> None:
    for quarantine in (False, True):
        got = _read(path, block_lines, quarantine, absent=False,
                    threads=threads)
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
            blocks = _blocks(path, block_lines)
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
            blocks = _blocks(path, block_lines)
            assert np.concatenate(blocks).tolist() == want

    def test_a_refused_block_is_reread_from_its_start(self, tmp_path):
        """The text-mode loop takes over at the refused block, with its
        line numbers: the rows before it come from the native pass."""
        path = tmp_path / "late.trace"
        path.write_bytes(GOOD * 5 + b"+6 7 8 9 10\n" + b"1 2 3\n")
        with pytest.raises(PacketFormatError, match=r"late\.trace:7: "):
            _blocks(path, 2)
        log = QuarantineLog()
        blocks = _blocks(path, 2, log.record)
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
            blocks = _blocks(path, 1)
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


@pytest.mark.usefixtures("native_kernel")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    lines=st.lists(_LINE, max_size=14),
    final_newline=st.booleans(),
    block_lines=st.integers(1, 9),
)
def test_random_line_mixes_agree_split_three_ways(
    tmp_path_factory, lines, final_newline, block_lines
):
    path = tmp_path_factory.mktemp("mix") / "t.trace"
    text = "\n".join(lines) + ("\n" if final_newline and lines else "")
    path.write_bytes(text.encode("latin-1"))
    _assert_same_both_ways(path, block_lines, threads=3)


def _call(text: bytes, max_lines: int, free_rows: int, threads: int,
          row: int = 3):
    """One ``native.parse_text`` call over ``text`` on ``threads``
    threads into an ``out`` with ``free_rows`` rows free past ``row``:
    ``(True, used[:3], the rows it wrote, maxes)``, or ``(False,)`` when
    it refused; and the threads it ran on."""
    buf = np.zeros(len(text) + native.TEXT_PAD, np.uint8)
    buf[:len(text)] = np.frombuffer(text, np.uint8)
    out = np.full((row + free_rows, 5), 7, np.uint32)
    used = np.zeros(4, np.int64)
    maxes = np.array([1, 0, 0, 0, 9], np.uint32)  # raised, never lowered
    if not native.parse_text(buf, 0, len(text), max_lines, out, row, used,
                             maxes, threads=threads):
        return (False,), int(used[3])
    rows = out[row:row + used[0]]
    want = np.maximum(rows.max(axis=0), [1, 0, 0, 0, 9]) if len(rows) \
        else [1, 0, 0, 0, 9]
    assert maxes.tolist() == list(want)
    return (True, used[:3].tolist(), rows.tolist(), maxes.tolist()), \
        int(used[3])


def _lines(n: int, start: int = 0) -> list[bytes]:
    return [b"%d %d %d %d %d\n" % (i, 2 * i, i % 65536, 3, i % 256)
            for i in range(start, start + n)]


@pytest.mark.usefixtures("native_kernel")
class TestSplitParse:
    """One call on k = 2-4 threads against k = 1 (rows, ``used``,
    maxima, refusal) and, read through ``read_trace_blocks``, against
    the text-mode loop (blocks, line numbers, quarantine entries,
    errors)."""

    KINDS = {
        "comment": b"# a comment\n",
        "blank": b"\n",
        "blanks_and_tab": b" \t \n",
        "crlf": b"9 8 7 6 5\r\n",
        "trailing_columns": b"9 8 7 6 5 -1 any text # x\n",
        "comment_crlf": b"# c\r\n",
    }

    def _same_at_every_k(self, text: bytes, max_lines: int, free_rows: int,
                         split: bool = True):
        want, one = _call(text, max_lines, free_rows, 1)
        assert one == 1 or not want[0]
        for k in (2, 3, 4):
            got, used_k = _call(text, max_lines, free_rows, k)
            assert got == want, k
            if split and want[0]:
                assert used_k > 1, k
        return want

    @pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())
    def test_a_slice_boundary_on_each_kind_of_line(self, kind):
        """The line sits at every position of a 12-line window, so each
        k's cuts fall on it, before it and after it."""
        for at in range(12):
            lines = _lines(12)
            lines[at] = kind
            text = b"".join(lines)
            for max_lines, free in ((12, 12), (100, 100), (7, 12), (12, 5)):
                self._same_at_every_k(text, max_lines, free)

    def test_runs_of_comments_leave_gaps_that_close(self):
        lines = _lines(24)
        for at in (0, 1, 2, 9, 10, 11, 12, 13, 20, 21, 22):
            lines[at] = b"# gap\n"
        want = self._same_at_every_k(b"".join(lines), 24, 24)
        assert want[1] == [13, sum(map(len, lines)), 24]
        assert [r[0] for r in want[2]] == [
            i for i in range(24) if lines[i] != b"# gap\n"]

    def test_a_refused_line_in_the_last_slice_only(self):
        for bad in (b"+1 2 3 4 5\n", b"1 2 3\n", b"1 2 3 4 5\r6\n",
                    b"1 2 3 4 5 \xe9\n"):
            text = b"".join(_lines(30)) + bad
            assert self._same_at_every_k(text, 100, 100) == (False,)
            # One line short of it, nothing is refused.
            want = self._same_at_every_k(text, 30, 100)
            assert want[1][2] == 30

    def test_max_lines_ends_inside_a_later_slice(self):
        text = b"".join(_lines(40))
        for max_lines in (2, 3, 5, 9, 17, 25, 33, 39, 40, 41):
            want = self._same_at_every_k(text, max_lines, 100)
            assert want[1][2] == min(max_lines, 40)

    def test_fewer_free_rows_than_lines(self):
        lines = _lines(30)
        lines[3] = lines[17] = b"# c\n"
        text = b"".join(lines)
        for free in (0, 1, 2, 5, 13, 14, 27, 28, 29):
            want = self._same_at_every_k(text, 30, free, split=free > 1)
            assert want[1][0] == min(free, 28)

    @pytest.mark.parametrize("text", [
        b"", b"1 2 3 4 5", b"1 2 3 4 5\n", b"# c\n", b"1 2 3 4 5\n6 7 8 9 10",
        b"1 2 3 4 5\n6 7 8 9 10\n", b"\n\n", b"# a\n6 7 8 9 10\n",
    ], ids=["empty", "one_unended", "one", "one_comment", "one_and_unended",
            "two", "two_blank", "comment_then_row"])
    def test_zero_one_and_two_line_windows(self, text):
        for max_lines in (0, 1, 2, 5):
            for free in (0, 1, 2):
                self._same_at_every_k(text, max_lines, free, split=False)

    def test_files_read_the_same_at_every_k(self, tmp_path):
        """Through ``read_trace_blocks``: the blocks, line numbers,
        quarantine entries and errors of every k are the text-mode
        loop's, a refusal in a later slice included."""
        clean = b"".join(_lines(50))
        mixed = clean[:300] + b"# c\r\n \n" + clean[300:]
        late_bad = clean + b"1 2 3\n" + clean
        for name, data in (("clean", clean), ("mixed", mixed),
                           ("late_bad", late_bad)):
            path = tmp_path / f"{name}.trace"
            path.write_bytes(data)
            for block_lines in (1, 7, 40, 1000):
                for k in (1, 2, 3, 4):
                    _assert_same_both_ways(path, block_lines, threads=k)

    def test_a_ledger_sized_call_splits_by_the_rule(self, tmp_path,
                                                    no_fallback):
        """16,384 lines with no count forced: the rule's threads, and the
        one-thread rows."""
        rng = np.random.default_rng(49)
        rows = rng.integers(0, 2**32, (16384, 5), dtype=np.uint64)
        text = b"".join(b"%d\t%d\t%d\t%d\t%d\t-1\n" % tuple(r)
                        for r in rows.tolist())
        buf = np.zeros(len(text) + native.TEXT_PAD, np.uint8)
        buf[:len(text)] = np.frombuffer(text, np.uint8)
        out = np.empty((16384, 5), np.uint32)
        used = np.zeros(4, np.int64)
        maxes = np.zeros(5, np.uint32)
        assert native.parse_text(buf, 0, len(text), 16384, out, 0, used,
                                 maxes)
        assert used[3] == min(native.thread_ceiling(),
                              16384 // native.MIN_LINES)
        assert np.array_equal(out, rows.astype(np.uint32))
        assert np.array_equal(maxes, rows.max(axis=0).astype(np.uint32))


class TestFieldWidths:
    """A streamed block's widths: from the native pass's column maxima,
    or from the rows on the text-mode loop; the same
    ``PacketFormatError`` at the same segment either way."""

    @pytest.mark.parametrize("absent", [False, True], ids=["native", "absent"])
    def test_a_too_wide_field_raises_at_its_segment(self, tmp_path, absent):
        path = tmp_path / "wide.trace"
        path.write_bytes(GOOD * 5 + b"1 2 65536 4 256\n" + GOOD * 3)
        with pytest.MonkeyPatch.context() as mp:
            if absent:
                mp.setattr(native, "_kernel", native._Kernel(reason="absent"))
            segments = iter_trace_file(str(path), segment_packets=2)
            got = [next(segments).n_packets, next(segments).n_packets]
            with pytest.raises(PacketFormatError,
                               match=r"^trace field 2 exceeds field width$"):
                next(segments)
            with pytest.raises(PacketFormatError,
                               match=r"^trace field 2 exceeds field width$"):
                PacketTrace.load(str(path))
        assert got == [2, 2]

    def test_the_widest_legal_values_pass(self, tmp_path, no_fallback):
        path = tmp_path / "edge.trace"
        path.write_bytes(b"4294967295 4294967295 65535 65535 255\n" + GOOD)
        segments = list(iter_trace_file(str(path), segment_packets=1))
        assert [s.headers.tolist() for s in segments] == [
            [[2**32 - 1, 2**32 - 1, 65535, 65535, 255]], [[1, 2, 3, 4, 5]]]

    def test_native_segments_take_no_second_width_pass(
        self, tmp_path, monkeypatch, no_fallback
    ):
        """The rows are checked from the parse's maxima: building a
        segment never runs ``PacketTrace``'s pass over them."""
        path = tmp_path / "t.trace"
        path.write_bytes(GOOD * 10)

        def no_pass(*args):
            raise AssertionError("a width pass over parsed rows")

        monkeypatch.setattr(PacketTrace, "__init__", no_pass)
        assert sum(s.n_packets for s in iter_trace_file(
            str(path), segment_packets=4)) == 10


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
