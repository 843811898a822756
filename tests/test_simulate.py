"""Unit tests for the cycle simulator: caches, noise, cost model."""

import numpy as np
import pytest

from repro.ir.builder import LoopBuilder
from repro.ir.loop import TripInfo
from repro.ir.types import DType, Opcode
from repro.machine import ITANIUM2
from repro.simulate import CostModel, NoiseModel
from repro.simulate.cache import (
    bandwidth_floor_per_iteration,
    effective_load_latency,
    icache_entry_penalty,
)
from repro.workloads import kernels


class TestDataCacheModel:
    def _streaming_loop(self, trip, stride=1):
        builder = LoopBuilder("t", TripInfo(runtime=trip))
        value = builder.load("a", stride=stride)
        builder.store(value, "out", stride=1)
        return builder.build()

    def test_small_footprint_pays_base_latency(self):
        loop = self._streaming_loop(trip=64)
        assert effective_load_latency(loop, ITANIUM2) == ITANIUM2.load_latency

    def test_l2_footprint_raises_latency(self):
        loop = self._streaming_loop(trip=8192)  # ~64 KiB x 2 arrays
        assert effective_load_latency(loop, ITANIUM2) > ITANIUM2.load_latency

    def test_larger_strides_miss_more(self):
        unit = self._streaming_loop(trip=8192, stride=1)
        strided = self._streaming_loop(trip=8192, stride=8)
        assert effective_load_latency(strided, ITANIUM2) >= effective_load_latency(
            unit, ITANIUM2
        )

    def test_no_loads_means_base_latency(self):
        builder = LoopBuilder("t", TripInfo(runtime=64))
        builder.store(builder.fconst(1.0), "out")
        assert effective_load_latency(builder.build(), ITANIUM2) == ITANIUM2.load_latency

    def test_bandwidth_floor_zero_when_l1_resident(self):
        loop = self._streaming_loop(trip=64)
        assert bandwidth_floor_per_iteration(loop, ITANIUM2) == 0.0

    def test_bandwidth_floor_grows_with_footprint(self):
        l2 = bandwidth_floor_per_iteration(self._streaming_loop(trip=8192), ITANIUM2)
        mem = bandwidth_floor_per_iteration(self._streaming_loop(trip=1 << 19), ITANIUM2)
        assert 0.0 < l2 < mem

    def test_invariant_scalar_accesses_are_free(self):
        builder = LoopBuilder("t", TripInfo(runtime=1 << 19))
        value = builder.load("scalar", stride=0)
        builder.store(value, "out", stride=1)
        loop = builder.build()
        floor_with = bandwidth_floor_per_iteration(loop, ITANIUM2)
        # Only the streaming store contributes.
        assert floor_with == pytest.approx(8.0 / ITANIUM2.dcache.memory_bandwidth)


class TestICacheModel:
    def test_small_code_is_free(self):
        assert icache_entry_penalty(30, ITANIUM2) == 0

    def test_overflow_charged_per_line(self):
        budget_instrs = int(ITANIUM2.icache.loop_budget_bytes / ITANIUM2.bytes_per_instr)
        penalty = icache_entry_penalty(budget_instrs * 3, ITANIUM2)
        assert penalty > 0
        assert penalty % ITANIUM2.icache.miss_penalty == 0

    def test_penalty_monotone_in_code_size(self):
        sizes = [50, 200, 400, 800]
        penalties = [icache_entry_penalty(s, ITANIUM2) for s in sizes]
        assert penalties == sorted(penalties)


class TestNoiseModel:
    def test_noiseless_model_is_exact(self):
        from repro.simulate import NOISELESS

        rng = np.random.default_rng(0)
        assert NOISELESS.batch_medians(np.array([12345.0]), np.array([10]), rng)[0] == 12345.0

    def test_counter_overhead_scales_with_entries(self):
        noise = NoiseModel(sigma=0.0, outlier_rate=0.0, counter_overhead=9)
        rng = np.random.default_rng(0)
        median = noise.batch_medians(np.array([1000.0]), np.array([100]), rng)[0]
        assert median == 1000.0 + 900.0

    def test_median_tames_outliers(self):
        noise = NoiseModel(sigma=0.0, outlier_rate=0.3, outlier_scale=0.5, counter_overhead=0)
        rng = np.random.default_rng(1)
        median = noise.batch_medians(np.array([1000.0]), np.array([1]), rng, n=31)[0]
        assert median <= 1000.0 * 1.25

    def test_samples_reproducible_under_seed(self):
        noise = NoiseModel()
        cycles, entries = np.array([5000.0]), np.array([4])
        a = noise.batch_samples(cycles, entries, np.random.default_rng(7), n=10)
        b = noise.batch_samples(cycles, entries, np.random.default_rng(7), n=10)
        np.testing.assert_array_equal(a, b)

    def test_sigma_widens_spread(self):
        cycles, entries = np.array([1e6]), np.array([1])
        rng = np.random.default_rng(3)
        tight = NoiseModel(sigma=0.001, outlier_rate=0.0).batch_samples(cycles, entries, rng, n=200)
        rng = np.random.default_rng(3)
        wide = NoiseModel(sigma=0.1, outlier_rate=0.0).batch_samples(cycles, entries, rng, n=200)
        assert wide.std() > tight.std() * 10


class TestCostModel:
    def test_total_scales_with_entry_count(self):
        few = kernels.daxpy(trip=256, entries=2)
        many = kernels.daxpy(trip=256, entries=20, name="kernel/daxpy10")
        model = CostModel()
        cost_few = model.loop_cost(few, 1).total_cycles
        cost_many = model.loop_cost(many, 1).total_cycles
        assert cost_many == pytest.approx(10 * cost_few)

    def test_unrolling_helps_a_parallel_loop(self):
        loop = kernels.daxpy(trip=512, entries=4)
        sweep = CostModel().sweep(loop)
        assert sweep[4].total_cycles < sweep[1].total_cycles

    def test_unrolling_cannot_beat_a_pointer_chase(self):
        builder = LoopBuilder("t", TripInfo(runtime=256), entry_count=4)
        builder.array("next", 64)
        pointer = builder.carried(DType.I64, init=0)
        raw = builder.load_indirect("next", pointer, dtype=DType.I64)
        builder.intop(Opcode.SXT, raw, dest=pointer)
        loop = builder.build()
        sweep = CostModel().sweep(loop)
        # Per-iteration cost is recurrence-bound: bigger factors never win
        # meaningfully, and code growth must not make them better.
        assert sweep[8].total_cycles >= sweep[1].total_cycles * 0.98

    def test_swp_is_faster_than_acyclic_for_clean_loops(self):
        loop = kernels.daxpy(trip=512, entries=4)
        no_swp = CostModel(swp=False).loop_cost(loop, 1)
        with_swp = CostModel(swp=True).loop_cost(loop, 1)
        assert with_swp.swp_used
        assert with_swp.total_cycles < no_swp.total_cycles

    def test_swp_refuses_early_exit_loops(self):
        loop = kernels.sentinel_search(trip=64, entries=8)
        cost = CostModel(swp=True).loop_cost(loop, 2)
        assert not cost.swp_used

    def test_full_unroll_of_tiny_known_trip(self):
        loop = kernels.vector_scale(trip=4, entries=5000, known=True)
        sweep = CostModel().sweep(loop)
        # Factors >= trip collapse to the same full unroll.
        assert sweep[4].total_cycles == sweep[8].total_cycles

    def test_nonpow2_precondition_surcharge(self):
        loop = kernels.daxpy(trip=1024, entries=16, known=False)
        model = CostModel()
        c3 = model.loop_cost(loop, 3)
        c4 = model.loop_cost(loop, 4)
        assert c3.precondition_penalty > c4.precondition_penalty

    def test_early_exit_overshoot_grows_with_factor(self):
        loop = kernels.sentinel_search(trip=48, entries=100)
        model = CostModel()
        sweep = model.sweep(loop)
        # Overshoot + per-copy exits: u=8 must not beat u=2 on this trip.
        assert sweep[8].total_cycles > sweep[2].total_cycles * 0.9
