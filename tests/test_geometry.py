"""Unit + property tests for repro.core.geometry."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import RuleFormatError
from repro.core.geometry import (
    HW_GRID_BITS,
    HW_GRID_CELLS,
    child_index,
    cut_interval,
    grid_cell,
    grid_cell_to_range,
    grid_span,
    pow2_at_most,
    prefix_to_range,
    range_contains,
    range_is_prefix,
    range_to_prefix,
    range_to_prefix_cover,
    ranges_overlap,
)


class TestPrefixRange:
    def test_full_wildcard(self):
        assert prefix_to_range(0, 0, 32) == (0, 0xFFFFFFFF)

    def test_host_route(self):
        assert prefix_to_range(0x0A000001, 32, 32) == (0x0A000001, 0x0A000001)

    def test_slash24(self):
        lo, hi = prefix_to_range(0xC0A80100, 24, 32)
        assert lo == 0xC0A80100 and hi == 0xC0A801FF

    def test_low_bits_cleared(self):
        lo, hi = prefix_to_range(0xC0A801FF, 24, 32)
        assert lo == 0xC0A80100 and hi == 0xC0A801FF

    def test_bad_length_raises(self):
        with pytest.raises(RuleFormatError):
            prefix_to_range(0, 33, 32)

    def test_value_too_wide_raises(self):
        with pytest.raises(RuleFormatError):
            prefix_to_range(1 << 16, 0, 16)

    def test_roundtrip_16bit(self):
        for plen in range(17):
            lo, hi = prefix_to_range(0xABCD, plen, 16)
            val, got = range_to_prefix(lo, hi, 16)
            assert got == plen
            assert val == lo

    def test_non_prefix_rejected(self):
        assert not range_is_prefix(1, 2, 8)
        assert not range_is_prefix(0, 2, 8)
        assert range_is_prefix(2, 3, 8)
        with pytest.raises(RuleFormatError):
            range_to_prefix(1, 2, 8)

    @given(st.integers(0, 32), st.integers(0, 2**32 - 1))
    def test_prefix_roundtrip_property(self, plen, value):
        lo, hi = prefix_to_range(value, plen, 32)
        assert lo <= (value >> (32 - plen) << (32 - plen) if plen else 0) + 0
        assert range_is_prefix(lo, hi, 32)
        _, got = range_to_prefix(lo, hi, 32)
        assert got == plen


class TestPrefixCover:
    def test_docstring_example(self):
        assert range_to_prefix_cover(1, 14, 4) == [
            (1, 4), (2, 3), (4, 2), (8, 2), (12, 3), (14, 4)
        ]

    def test_single_value(self):
        assert range_to_prefix_cover(5, 5, 16) == [(5, 16)]

    def test_full_range(self):
        assert range_to_prefix_cover(0, 65535, 16) == [(0, 0)]

    def test_ephemeral_ports(self):
        cover = range_to_prefix_cover(1024, 65535, 16)
        assert len(cover) == 6  # the classic HI-port expansion

    def test_bad_range(self):
        with pytest.raises(RuleFormatError):
            range_to_prefix_cover(5, 4, 8)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_cover_is_exact_partition(self, a, b):
        lo, hi = min(a, b), max(a, b)
        cover = range_to_prefix_cover(lo, hi, 8)
        covered = []
        for value, plen in cover:
            p_lo, p_hi = prefix_to_range(value, plen, 8)
            covered.extend(range(p_lo, p_hi + 1))
        assert covered == list(range(lo, hi + 1))

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=50)
    def test_cover_is_minimal_bound(self, a, b):
        lo, hi = min(a, b), max(a, b)
        cover = range_to_prefix_cover(lo, hi, 16)
        assert len(cover) <= 2 * 16 - 2 or lo == 0 and hi == 65535


class TestIntervals:
    def test_overlap(self):
        assert ranges_overlap(0, 10, 10, 20)
        assert not ranges_overlap(0, 9, 10, 20)

    def test_contains(self):
        assert range_contains(0, 10, 3, 7)
        assert not range_contains(3, 7, 0, 10)

    def test_cut_even(self):
        assert cut_interval(0, 255, 4) == [(0, 63), (64, 127), (128, 191), (192, 255)]

    def test_cut_uneven(self):
        parts = cut_interval(0, 9, 3)
        assert parts[0][0] == 0 and parts[-1][1] == 9
        assert all(a <= b for a, b in parts)
        # contiguous, no gaps
        for (a, b), (c, d) in zip(parts, parts[1:]):
            assert c == b + 1

    def test_cut_more_than_span(self):
        assert cut_interval(5, 7, 10) == [(5, 5), (6, 6), (7, 7)]

    def test_cut_invalid(self):
        with pytest.raises(ValueError):
            cut_interval(0, 10, 0)

    @given(
        st.integers(0, 1000),
        st.integers(1, 1000),
        st.integers(1, 64),
        st.data(),
    )
    def test_child_index_matches_cut_interval(self, lo, span, ncuts, data):
        hi = lo + span - 1
        parts = cut_interval(lo, hi, ncuts)
        value = data.draw(st.integers(lo, hi))
        idx = child_index(value, lo, hi, ncuts)
        assert parts[idx][0] <= value <= parts[idx][1]

    def test_child_index_out_of_range(self):
        with pytest.raises(ValueError):
            child_index(11, 0, 10, 2)


class TestGrid:
    def test_grid_cell_wide_field(self):
        assert grid_cell(0xC0A80102, 32) == 0xC0
        assert grid_cell(0x1234, 16) == 0x12

    def test_grid_cell_exact_8(self):
        assert grid_cell(0xAB, 8) == 0xAB

    def test_grid_cell_narrow(self):
        assert grid_cell(1, 4) == 0x10

    def test_grid_span_wide(self):
        assert grid_span(0xC0A80000, 0xC0A8FFFF, 32) == (0xC0, 0xC0)
        assert grid_span(0, 0xFFFFFFFF, 32) == (0, 255)

    def test_grid_span_narrow(self):
        glo, ghi = grid_span(1, 1, 4)
        assert glo == 0x10 and ghi == 0x1F

    def test_grid_roundtrip(self):
        lo, hi = grid_cell_to_range(0xC0, 0xC0, 32)
        assert lo == 0xC0000000 and hi == 0xC0FFFFFF

    def test_constants(self):
        assert HW_GRID_BITS == 8
        assert HW_GRID_CELLS == 256


class TestMisc:
    def test_pow2_helpers(self):
        assert pow2_at_most(1) == 1
        assert pow2_at_most(255) == 128
        assert pow2_at_most(256) == 256
        with pytest.raises(ValueError):
            pow2_at_most(0)
