"""Tests for the paper's extension points: 2048-word memories, trace and
memory serialisation round-trips through the accelerator, and the Figure
reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro import generate_ruleset, generate_trace
from repro.algorithms import build_hicuts
from repro.core.errors import CapacityError
from repro.experiments import figures
from repro.hw import Accelerator, AcceleratorFSM, build_memory_image, measure_layout
from repro.hw.memory import EXTENDED_CAPACITY_WORDS, MemoryArray
from repro.hw.layout import MemoryImage


class TestExtendedCapacity:
    """Section 3: "this could easily be doubled to 2048 memory words and
    implemented on devices such as the Virtex XC5VLX330T which can store
    up to 1,458,000 bytes"."""

    def test_constant_matches_paper(self):
        assert EXTENDED_CAPACITY_WORDS == 2048
        # 2048 x 600 = 1,228,800 bytes <= the XC5VLX330T's 1,458,000.
        assert EXTENDED_CAPACITY_WORDS * 600 <= 1_458_000

    def test_structure_too_big_for_1024_fits_2048(self):
        # fw1 around 3-4k rules typically needs >1024 words at spfac 4.
        rs = generate_ruleset("fw1", 3500, seed=31)
        tree = build_hicuts(rs, binth=30, spfac=4, hw_mode=True)
        meas = measure_layout(tree, speed=1)
        if not (1024 < meas.words_used <= 2048):
            pytest.skip("generated set does not land in the 1-2k band")
        with pytest.raises(CapacityError):
            build_memory_image(tree, speed=1, capacity_words=1024)
        img = build_memory_image(
            tree, speed=1, capacity_words=EXTENDED_CAPACITY_WORDS
        )
        trace = generate_trace(rs, 300, seed=32)
        run = Accelerator(img).run_trace(trace)
        recs = AcceleratorFSM(img).run(trace)
        assert np.array_equal([r.match for r in recs], run.match)


class TestMemoryImageRoundTrip:
    def test_serialised_memory_classifies_identically(self, hw_image_small,
                                                      acl_small):
        """Dump the memory array to bytes, reload, and run the FSM on the
        reloaded image — models re-loading the accelerator at boot."""
        blob = hw_image_small.memory.to_bytes()
        reloaded = MemoryArray.from_bytes(
            blob, hw_image_small.memory.capacity_words
        )
        img2 = MemoryImage(
            tree=hw_image_small.tree,
            memory=reloaded,
            placements=hw_image_small.placements,
            speed=hw_image_small.speed,
            root_wrapped=hw_image_small.root_wrapped,
            n_internal_words=hw_image_small.n_internal_words,
            n_leaf_words=hw_image_small.n_leaf_words,
        )
        trace = generate_trace(acl_small, 200, seed=33)
        a = AcceleratorFSM(hw_image_small).run(trace)
        b = AcceleratorFSM(img2).run(trace)
        assert [r.match for r in a] == [r.match for r in b]
        assert [r.accesses for r in a] == [r.accesses for r in b]


class TestFigureReports:
    def test_render_tree_contains_cuts_and_leaves(self):
        out = figures.render_tree(figures.figure1_tree(), "t")
        assert "4 cuts on Field 0" in out
        assert "2 cuts on Field 4" in out
        assert "[R7, R8, R9]" in out

    def test_figure2_grid_renders_rules(self):
        out = figures.figure2_grid(figures.figure1_tree())
        assert "R0" in out and "cuts:" in out
        assert out.count("=") > 10  # rule extents drawn

    def test_figure5_report_shows_pipeline(self):
        out = figures.figure5_report(n_packets=4)
        assert "LOAD_ROOT" in out and "COMPARE" in out
