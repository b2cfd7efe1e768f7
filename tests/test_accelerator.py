"""Tests for the accelerator simulators: FSM vs vectorised model vs oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro import generate_ruleset, generate_trace
from repro.algorithms import LinearSearchClassifier, build_hicuts, build_hypercuts
from repro.hw import Accelerator, AcceleratorFSM, build_memory_image, figure5_trace
from repro.hw.accelerator import header_msb8


class TestHeaderMsb8:
    def test_widths(self):
        h = (0xC0A80102, 0x0A0B0C0D, 0x1234, 0x00FF, 0x7F)
        assert header_msb8(h) == (0xC0, 0x0A, 0x12, 0x00, 0x7F)


@pytest.mark.parametrize("builder", [build_hicuts, build_hypercuts])
@pytest.mark.parametrize("speed", [0, 1])
class TestFsmAgreement:
    def test_fsm_fast_oracle_agree(self, builder, speed):
        rs = generate_ruleset("acl1", 400, seed=41)
        tree = builder(rs, binth=30, spfac=4, hw_mode=True)
        img = build_memory_image(tree, speed=speed)
        trace = generate_trace(rs, 300, seed=42, background_fraction=0.15)

        want = LinearSearchClassifier(rs).classify_trace(trace)
        run = Accelerator(img).run_trace(trace)
        recs = AcceleratorFSM(img).run(trace)

        assert np.array_equal(run.match, want)
        assert np.array_equal([r.match for r in recs], want)
        assert np.array_equal([r.occupancy for r in recs], run.occupancy)
        assert np.array_equal([r.accesses for r in recs], run.memory_accesses())


@pytest.mark.parametrize("builder", [build_hicuts, build_hypercuts])
@pytest.mark.parametrize("speed", [0, 1])
@pytest.mark.usefixtures("portable_kernel")
class TestFsmAgreementPortable:
    """The FSM against the NumPy cycle formula of the portable walk (the
    class above runs on the default kernel, where the C loop counts)."""

    test_fsm_fast_oracle_agree = TestFsmAgreement.test_fsm_fast_oracle_agree


class TestCycleAccounting:
    def test_total_cycle_formula(self, hw_image_small, acl_small,
                                 acl_small_trace):
        """FSM total = 1 (root load) + 1 (first dispatch) + sum(occupancy)."""
        sub = acl_small_trace.subset(200)
        fsm = AcceleratorFSM(hw_image_small)
        recs = fsm.run(sub)
        assert fsm.cycle == 2 + sum(r.occupancy for r in recs)

    def test_one_packet_per_cycle_when_worst_is_2(self):
        """The paper's pipelining claim: worst case 2 -> 1 packet/cycle."""
        rs = generate_ruleset("acl1", 60, seed=43)
        tree = build_hicuts(rs, binth=30, spfac=4, hw_mode=True)
        img = build_memory_image(tree, speed=1)
        if img.worst_case_cycles() != 2:
            pytest.skip("tree shape gives a different worst case")
        trace = generate_trace(rs, 500, seed=44)
        run = Accelerator(img).run_trace(trace)
        assert run.mean_occupancy() == 1.0
        assert run.throughput_pps(226e6) == pytest.approx(226e6)

    def test_occupancy_floor_is_one(self, hw_image_small, acl_small):
        trace = generate_trace(acl_small, 500, seed=45,
                               background_fraction=0.8)
        run = Accelerator(hw_image_small).run_trace(trace)
        assert int(run.occupancy.min()) >= 1

    def test_worst_latency_bounds_run(self, hw_image_small, acl_small_trace):
        run = Accelerator(hw_image_small).run_trace(acl_small_trace)
        assert run.worst_latency() <= hw_image_small.worst_case_cycles()

    def test_memory_accesses_never_exceed_static_bound(
        self, hw_image_small, acl_small_trace
    ):
        run = Accelerator(hw_image_small).run_trace(acl_small_trace)
        assert int(run.memory_accesses().max()) <= (
            hw_image_small.worst_case_occupancy()
        )

    def test_speed0_occupancy_ge_speed1(self, hw_tree_small, acl_small_trace):
        dense = Accelerator(build_memory_image(hw_tree_small, speed=0))
        fast = Accelerator(build_memory_image(hw_tree_small, speed=1))
        r0 = dense.run_trace(acl_small_trace)
        r1 = fast.run_trace(acl_small_trace)
        assert np.array_equal(r0.match, r1.match)
        assert r0.mean_occupancy() >= r1.mean_occupancy() - 1e-12


class TestEquationFive7:
    """Per-packet cycles follow eq (5) (speed 0) / eq (7) (speed 1)."""

    @pytest.mark.parametrize("speed", [0, 1])
    def test_cycle_equations(self, hw_tree_small, acl_small_trace, speed):
        img = build_memory_image(hw_tree_small, speed=speed)
        run = Accelerator(img).run_trace(acl_small_trace)
        batch = hw_tree_small.batch_lookup(acl_small_trace)
        for i in range(0, acl_small_trace.n_packets, 131):
            x = max(int(batch.internal_nodes[i]) - 1, 0)
            leaf = int(batch.leaf_id[i])
            if leaf < 0:
                continue
            p = img.placements[leaf]
            z = int(batch.match_pos[i])
            if z < 0:
                z = max(p.n_rules - 1, 0)
            words = (p.pos + z) // 30 + 1
            assert run.occupancy[i] == max(x + words, 1)
            if speed == 1 and p.n_rules <= 30:
                # eq (7): pos contributes nothing for non-straddling leaves.
                assert words == z // 30 + 1


class TestSingleClassify:
    def test_classify_matches_oracle(self, hw_image_small, acl_small):
        acc = Accelerator(hw_image_small)
        lin = LinearSearchClassifier(acl_small)
        rng = np.random.default_rng(46)
        arrays = acl_small.arrays
        for _ in range(50):
            r = int(rng.integers(0, arrays.n))
            header = tuple(int(arrays.lo[d, r]) for d in range(5))
            assert acc.classify(header) == lin.classify(header)


class TestFigure5Trace:
    def test_events_emitted(self, hw_image_small, acl_small):
        trace = generate_trace(acl_small, 4, seed=47)
        events = figure5_trace(hw_image_small, trace)
        states = {e.state for e in events}
        assert "LOAD_ROOT" in states
        assert "LATCH" in states
        assert "COMPARE" in states
        assert events[0].cycle == 1
        cycles = [e.cycle for e in events]
        assert cycles == sorted(cycles)
