"""Tests for the energy models: eq (8), SA-1100, device models, TCAM fit."""

from __future__ import annotations

import pytest

from repro import generate_trace
from repro.algorithms import OpCounter, build_hicuts
from repro.energy import (
    ASIC65,
    AYAMA_10128,
    AYAMA_10512,
    SA1100,
    VIRTEX5,
    Sa1100Model,
    TcamModel,
    asic_model,
    fpga_model,
    normalize_power,
    software_lookup_ops,
)
from repro.energy.technology import denormalize_power
from repro.energy.metrics import (
    OC48,
    OC192,
    OC768,
    fmt_int,
    fmt_sci,
    gain,
    sustains_line_rate,
)
from repro.hw import Accelerator


class TestEquation8:
    def test_identity_at_target(self):
        assert normalize_power(1.0, 65, 1.0) == pytest.approx(1.0)

    def test_sa1100_normalisation(self):
        """Table 5: the SA-1100's normalised power is 42.45 mW."""
        raw = SA1100.power_raw_w
        assert normalize_power(raw, 180, 1.8) == pytest.approx(42.45e-3)

    def test_asic_normalisation(self):
        raw = ASIC65.power_raw_w
        assert normalize_power(raw, 65, 1.08) == pytest.approx(18.32e-3)

    def test_fpga_already_normalised(self):
        # 65 nm at 1.0 V: raw == normalised.
        assert VIRTEX5.power_raw_w == pytest.approx(VIRTEX5.power_norm_w)

    def test_denormalize_inverse(self):
        for p, nm, v in ((0.5, 180, 1.8), (0.02, 90, 1.2)):
            norm = normalize_power(p, nm, v)
            assert denormalize_power(norm, nm, v) == pytest.approx(p)

    def test_scaling_quadratic_in_voltage(self):
        a = normalize_power(1.0, 65, 2.0)
        assert a == pytest.approx(0.25)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            normalize_power(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            normalize_power(1.0, 65, 0)


class TestSa1100Model:
    def test_cycles_weighting(self):
        ops = OpCounter()
        ops.add("alu", 10)
        ops.add("mem_read", 2)
        model = Sa1100Model()
        assert model.cycles(ops) == 10 * 1 + 2 * 40

    def test_energy_scales_with_power(self):
        ops = OpCounter()
        ops.add("alu", 200_000_000)  # 1 second at 200 MHz
        cost = Sa1100Model().cost(ops)
        assert cost.seconds == pytest.approx(1.0)
        assert cost.energy_raw_j == pytest.approx(SA1100.power_raw_w)
        assert cost.energy_norm_j == pytest.approx(42.45e-3)

    def test_lookup_cost_divides(self):
        ops = OpCounter()
        ops.add("mem_read", 1000)
        model = Sa1100Model()
        per = model.lookup_cost(ops, 100)
        assert per.cycles == pytest.approx(model.cycles(ops) / 100)
        with pytest.raises(ValueError):
            model.lookup_cost(ops, 0)

    def test_throughput_inverse_of_time(self):
        ops = OpCounter()
        ops.add("mem_read", 10)  # 400 cycles -> 2 us -> 0.5 Mpps
        model = Sa1100Model()
        assert model.throughput_pps(ops, 1) == pytest.approx(0.5e6)


class TestSoftwareLookupOpsExactness:
    def test_analytic_equals_per_packet_sum(self, acl_small):
        """The analytic trace aggregation must match per-lookup counting."""
        trace = generate_trace(acl_small, 400, seed=55,
                               background_fraction=0.2)
        for hw_mode in (False, True):
            tree = build_hicuts(
                acl_small, binth=30 if hw_mode else 16, spfac=4,
                hw_mode=hw_mode,
            )
            batch = tree.batch_lookup(trace)
            analytic = software_lookup_ops(tree, batch)
            summed = OpCounter()
            for header in trace.headers:
                tree.lookup(header, ops=summed)
            assert summed.as_dict() == analytic.as_dict()


class TestDeviceModels:
    def test_asic_energy_per_packet_at_occupancy_one(self, hw_image_small,
                                                      acl_small):
        trace = generate_trace(acl_small, 1000, seed=56)
        run = Accelerator(hw_image_small).run_trace(trace)
        model = asic_model()
        cost = model.evaluate(run)
        expect = model.active_power_norm_w * run.mean_occupancy() / 226e6
        assert cost.energy_per_packet_norm_j == pytest.approx(expect)
        # Table 6 band: ~7.5e-11 J at occupancy ~1.
        assert 5e-11 < cost.energy_per_packet_norm_j < 5e-10

    def test_fpga_cost_structure(self, hw_image_small, acl_small):
        trace = generate_trace(acl_small, 1000, seed=57)
        run = Accelerator(hw_image_small).run_trace(trace)
        f = fpga_model().evaluate(run)
        a = asic_model().evaluate(run)
        assert f.energy_per_packet_norm_j > a.energy_per_packet_norm_j
        assert f.throughput_pps == pytest.approx(77e6 / run.mean_occupancy())


class TestTcamModel:
    def test_fit_reproduces_datasheet_points(self):
        model = TcamModel()
        assert model.power_w(AYAMA_10128.size_bytes, AYAMA_10128.freq_hz) == (
            pytest.approx(AYAMA_10128.power_w)
        )
        assert model.power_w(AYAMA_10512.size_bytes, AYAMA_10512.freq_hz) == (
            pytest.approx(AYAMA_10512.power_w)
        )

    def test_power_monotone_in_size_and_freq(self):
        model = TcamModel()
        assert model.power_w(1e6, 100e6) < model.power_w(2e6, 100e6)
        assert model.power_w(1e6, 100e6) < model.power_w(1e6, 200e6)

    def test_band_covers_paper_quote(self):
        """Ayama family: 4.86-19.14 W depending on size."""
        model = TcamModel()
        lo = model.power_w(0.4e6, 133e6)
        hi = model.power_w(AYAMA_10512.size_bytes, 133e6)
        assert lo < 4.86 < hi <= 19.15

    def test_energy_per_lookup(self):
        model = TcamModel()
        e = model.energy_per_lookup_j(AYAMA_10512.size_bytes, 133e6)
        assert e == pytest.approx(19.14 / 133e6)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            TcamModel().power_w(-1, 1e6)


class TestMetrics:
    def test_line_rates(self):
        assert OC192.worst_case_pps == pytest.approx(31.25e6)
        assert OC768.worst_case_pps == pytest.approx(125e6)
        assert OC48.worst_case_pps < OC192.worst_case_pps

    def test_sustains(self):
        assert sustains_line_rate(226e6, OC768)  # the ASIC headline
        assert not sustains_line_rate(77e6, OC768)
        assert sustains_line_rate(77e6, OC192)  # the FPGA headline

    def test_formatting(self):
        assert fmt_sci(2.07e-10) == "2.07E-10"
        assert fmt_int(226e6) == "226,000,000"
        assert gain(100, 4) == 25
        assert gain(1, 0) == float("inf")


class TestUpdateCostModel:
    def test_retirement_scan_costs_less_than_the_walks_it_avoids(self):
        """The ledger's `rule_churn` geometry: an 8,192-entry cache, and
        per 8-op batch ~1,470 backend walks that a whole-cache flush
        would have caused and retirement does not."""
        from repro import generate_ruleset
        from repro.energy import CacheEnergyModel, UpdateCostModel
        from repro.engine import build_backend

        tree = build_backend(
            "hypercuts", generate_ruleset("acl1", 2500, seed=11)
        )
        cache = CacheEnergyModel.for_classifier(tree)
        walk_j = (
            cache.miss_accesses - cache.hit_accesses
        ) * cache.energy_per_access_j
        scan_j = UpdateCostModel().retire_energy_j(8192)
        assert scan_j == pytest.approx(8192 * cache.energy_per_access_j)
        assert scan_j < 1470 * walk_j
