"""Failure injection: corrupted memory words and hostile traffic.

The FSM must stay robust when the memory image is damaged (decode never
crashes; classification degrades to wrong/no matches, which the control
plane detects by re-verification) and when traffic is adversarial
(all-background, all-identical, boundary values).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import generate_ruleset, generate_trace
from repro.algorithms import LinearSearchClassifier, build_hicuts
from repro.core.packet import PacketTrace
from repro.core.rules import FIVE_TUPLE
from repro.hw import (
    Accelerator,
    AcceleratorFSM,
    build_memory_image,
    decode_internal_node,
    decode_rule,
)
from repro.hw.encoding import EMPTY_ADDR
from repro.hw.encoding import ChildEntry, encode_internal_node


@pytest.fixture()
def setup():
    rs = generate_ruleset("acl1", 200, seed=41)
    tree = build_hicuts(rs, binth=30, spfac=4, hw_mode=True)
    img = build_memory_image(tree, speed=1)
    trace = generate_trace(rs, 100, seed=42)
    return rs, tree, img, trace


class TestCorruptedWords:
    def test_flipped_leaf_bits_never_crash(self, setup):
        rs, tree, img, trace = setup
        rng = np.random.default_rng(0)
        leaf_addr = img.n_internal_words  # first leaf word
        word = img.memory.read(leaf_addr)
        for _ in range(20):
            bit = int(rng.integers(0, 4800))
            corrupted = word ^ (1 << bit)
            img.memory._words[leaf_addr] = corrupted
            fsm = AcceleratorFSM(img)
            records = fsm.run(trace)  # must terminate without exceptions
            assert len(records) == trace.n_packets
        img.memory._words[leaf_addr] = word

    def test_rule_slot_decode_total(self):
        """decode_rule is total over all mask codes 0-5 and the invalid
        sentinel; codes 6/7 raise a clean EncodingError."""
        from repro.core.errors import EncodingError

        rng = np.random.default_rng(1)
        ok, rejected = 0, 0
        for _ in range(300):
            slot = int(rng.integers(0, 1 << 63)) | (
                int(rng.integers(0, 1 << 63)) << 63
            )
            slot |= int(rng.integers(0, 1 << 34)) << 126
            try:
                dec = decode_rule(slot & ((1 << 160) - 1))
                ok += 1
                if dec.valid:
                    dec.matches((0, 0, 0, 0, 0))
            except EncodingError:
                rejected += 1
        assert ok + rejected == 300
        assert ok > 0

    def test_entry_redirected_to_empty_gives_no_match(self, setup):
        rs, tree, img, trace = setup
        dec = decode_internal_node(img.memory.read(0))
        # Point every child entry at EMPTY: every packet must dead-end.
        empty_entries = [
            ChildEntry(is_leaf=True, addr=EMPTY_ADDR, pos=0)
            for _ in range(256)
        ]
        img.memory._words[0] = encode_internal_node(
            list(dec.masks), list(dec.shifts), empty_entries
        )
        records = AcceleratorFSM(img).run(trace)
        assert all(r.match == -1 for r in records)
        assert all(r.accesses == 0 for r in records)


class TestHostileTraffic:
    def test_boundary_headers(self, setup):
        rs, tree, img, trace = setup
        extremes = np.array(
            [
                [0, 0, 0, 0, 0],
                [2**32 - 1, 2**32 - 1, 65535, 65535, 255],
                [0, 2**32 - 1, 0, 65535, 0],
                [2**32 - 1, 0, 65535, 0, 255],
            ],
            dtype=np.uint32,
        )
        t = PacketTrace(extremes, FIVE_TUPLE)
        want = LinearSearchClassifier(rs).classify_trace(t)
        assert np.array_equal(Accelerator(img).run_trace(t).match, want)
        assert [r.match for r in AcceleratorFSM(img).run(t)] == list(want)

    def test_single_repeated_header(self, setup):
        rs, tree, img, _ = setup
        header = rs.arrays.lo[:, 3].astype(np.uint32)
        t = PacketTrace(np.tile(header, (64, 1)), FIVE_TUPLE)
        run = Accelerator(img).run_trace(t)
        assert len(set(run.match.tolist())) == 1
        # Steady state: every packet costs the same occupancy.
        assert len(set(run.occupancy.tolist())) == 1

    def test_empty_ruleset_trace_guard(self, setup):
        rs, tree, img, _ = setup
        t = PacketTrace(np.empty((0, 5), dtype=np.uint32), FIVE_TUPLE)
        run = Accelerator(img).run_trace(t)
        assert run.n_packets == 0
        assert AcceleratorFSM(img).run(t) == []
