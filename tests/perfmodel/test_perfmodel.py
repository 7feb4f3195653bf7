"""Tests for GPU/system specs, flop counts, and the scaling model."""

import numpy as np
import pytest

from repro.perfmodel.compare import regenie_comparison, system_comparison
from repro.perfmodel.flops import (
    associate_flops,
    associate_precision_fractions,
    build_flops,
    predict_flops,
    solve_flops,
)
from repro.perfmodel.gpus import A100, GH200, GPU_REGISTRY, MI250X, V100, gpu
from repro.perfmodel.scaling import (
    MachineModel,
    strong_scaling_series,
    weak_scaling_series,
)
from repro.perfmodel.systems import ALPS, SHAHEEN3_CPU_NODE_PEAK, SYSTEM_REGISTRY, system
from repro.precision.formats import Precision


class TestGPUSpecs:
    def test_registry_contains_paper_devices(self):
        assert set(GPU_REGISTRY) == {"V100", "A100", "MI250X", "GH200"}
        assert gpu("gh200") is GH200
        with pytest.raises(ValueError):
            gpu("B200")

    def test_peak_ordering_across_generations(self):
        assert GH200.peak_for(Precision.FP16) > A100.peak_for(Precision.FP16) > \
            V100.peak_for(Precision.FP16)

    def test_fp8_capability(self):
        assert GH200.fp8_capable
        assert not A100.fp8_capable
        # FP8 request on non-FP8 hardware falls back to the FP16 rate
        assert A100.sustained_associate_for(Precision.FP8_E4M3) == \
            A100.sustained_associate_for(Precision.FP16)

    def test_sustained_below_peak(self):
        for spec in GPU_REGISTRY.values():
            for precision, rate in spec.sustained_associate.items():
                assert rate <= spec.peak_for(precision)

    def test_peak_fallbacks(self):
        assert GH200.peak_for(Precision.INT32) == GH200.peak_for(Precision.INT8)


class TestSystems:
    def test_registry(self):
        assert set(SYSTEM_REGISTRY) == {"SUMMIT", "LEONARDO", "FRONTIER", "ALPS"}
        assert system("alps") is ALPS
        with pytest.raises(ValueError):
            system("fugaku")

    def test_paper_scales(self):
        assert system("Summit").paper_gpus == 18_432
        assert system("Frontier").paper_gpus == 36_100
        assert system("Alps").paper_gpus == 8_100

    def test_memory_aggregation(self):
        assert ALPS.memory_for_gpus(2) == 2 * ALPS.gpu.memory_capacity


class TestFlopCounts:
    def test_paper_complexities(self):
        # N_P^2 * N_S for Build, N_P^3/3 for Associate (Sec. VI-C)
        assert build_flops(1000, 500) == 1000 ** 2 * 500
        assert associate_flops(3000) == pytest.approx(3000 ** 3 / 3)

    def test_solve_and_predict_counts(self):
        assert solve_flops(1000, 2) == 2 * 1000 ** 2 * 2
        assert predict_flops(100, 1000, 500, 2) > 0

    def test_precision_fractions_gemm_dominates(self):
        fractions = associate_precision_fractions(100)
        assert fractions[Precision.FP16] > 0.9
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_precision_fractions_single_tile(self):
        fractions = associate_precision_fractions(1)
        assert fractions[Precision.FP32] == pytest.approx(1.0)


class TestMachineModel:
    def test_lower_precision_is_faster(self):
        model = MachineModel(system="Alps")
        n = model.matrix_size_for_memory(4096)
        times = {low: model.associate_estimate(n, 4096, low_precision=low).time
                 for low in (Precision.FP32, Precision.FP16, Precision.FP8_E4M3)}
        assert times[Precision.FP8_E4M3] < times[Precision.FP16] < times[Precision.FP32]

    def test_fig10_speedup_ratios(self):
        """Fig. 10c: FP32/FP16 ~3.2x and FP32/FP8 ~4.8x over FP32 on Alps."""
        model = MachineModel(system="Alps")
        n = 12_255_232
        fp32 = model.associate_estimate(n, 4096, low_precision=Precision.FP32)
        fp16 = model.associate_estimate(n, 4096, low_precision=Precision.FP16)
        fp8 = model.associate_estimate(n, 4096, low_precision=Precision.FP8_E4M3)
        assert 2.5 < fp16.throughput / fp32.throughput < 4.0
        assert 3.8 < fp8.throughput / fp32.throughput < 5.5

    def test_weak_scaling_near_perfect(self):
        model = MachineModel(system="Alps")
        points = weak_scaling_series(model, [256, 1024, 4096], phase="associate",
                                     low_precision=Precision.FP16)
        assert all(p.efficiency > 0.75 for p in points)
        assert points[-1].throughput > points[0].throughput * 10

    def test_strong_scaling_efficiency_drops_faster_for_low_precision(self):
        model = MachineModel(system="Alps")
        n = model.matrix_size_for_memory(1024)
        eff = {}
        for low in (Precision.FP32, Precision.FP16, Precision.FP8_E4M3):
            pts = strong_scaling_series(model, [1024, 4096], n, low_precision=low)
            eff[low] = pts[-1].efficiency
        assert eff[Precision.FP32] >= eff[Precision.FP16] >= eff[Precision.FP8_E4M3]
        assert eff[Precision.FP8_E4M3] < 0.8

    def test_build_weak_scaling_speedup(self):
        """Fig. 7: ~12x speedup going from 256 to 4096 GPUs."""
        model = MachineModel(system="Alps")
        pts = weak_scaling_series(model, [256, 4096], phase="build", snp_ratio=1.0)
        speedup = pts[-1].throughput / pts[0].throughput
        assert 10.0 < speedup <= 16.0
        # >1 ExaOp/s of INT8 build throughput at 4096 GPUs
        assert pts[-1].throughput > 1.0e18

    def test_krr_estimate_composition(self):
        model = MachineModel(system="Alps")
        est = model.krr_estimate(1_000_000, 1_000_000, 1024)
        assert est["krr"].flops == pytest.approx(
            est["build"].flops + est["associate"].flops)
        assert est["krr"].time >= max(est["build"].time, est["associate"].time)

    def test_build_throughput_exceeds_associate(self):
        model = MachineModel(system="Alps")
        est = model.krr_estimate(4_000_000, 4_000_000, 4096,
                                 low_precision=Precision.FP8_E4M3)
        assert est["build"].throughput > est["associate"].throughput

    def test_matrix_size_for_memory_monotone(self):
        model = MachineModel(system="Leonardo")
        assert model.matrix_size_for_memory(4096) > model.matrix_size_for_memory(1024)
        with pytest.raises(ValueError):
            model.matrix_size_for_memory(16, fill=2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MachineModel(system="Alps", tile_size=0)
        with pytest.raises(ValueError):
            MachineModel(system="Alps", overlap=2.0)
        model = MachineModel(system="Alps")
        with pytest.raises(ValueError):
            model.associate_estimate(1000, 0)


class TestComparisons:
    def test_system_comparison_ordering(self):
        rows = {r.system: r for r in system_comparison()}
        assert set(rows) == {"Summit", "Leonardo", "Frontier", "Alps"}
        # Alps achieves the highest KRR throughput (Fig. 14e)
        assert rows["Alps"].krr_pflops == max(r.krr_pflops for r in rows.values())
        # headline: >1 ExaOp/s mixed-precision KRR on Alps
        assert rows["Alps"].krr_pflops > 1000.0

    def test_alps_beats_leonardo_by_large_factor(self):
        rows = {r.system: r for r in system_comparison()}
        assert rows["Alps"].associate_pflops > 2.0 * rows["Leonardo"].associate_pflops

    def test_regenie_five_orders_of_magnitude(self):
        comparison = regenie_comparison()
        assert 4.5 <= comparison.orders_of_magnitude <= 6.5
        assert comparison.regenie_throughput == SHAHEEN3_CPU_NODE_PEAK

    def test_regenie_with_explicit_throughput(self):
        comparison = regenie_comparison(krr_throughput=1.805e18)
        assert comparison.speedup == pytest.approx(1.805e18 / SHAHEEN3_CPU_NODE_PEAK)
