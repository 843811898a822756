"""Fast-vs-reference equivalence of the optimized engines.

The performance work keeps every seed code path alive behind
``engine="reference"`` switches; these tests pin the optimized engines to
those references — the cached two-stage cost model, the paired measurement
run, the batched noise stream, the vectorized mutual information, and the
incremental greedy-selection workspaces must all reproduce the seed's
numbers, not merely approximate them.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.instrument import MeasurementRollup
from repro.ir.builder import LoopBuilder
from repro.ir.loop import TripInfo
from repro.ir.types import Opcode
from repro.ml import (
    greedy_forward_selection,
    mutual_information_score,
    mutual_information_score_reference,
)
from repro.pipeline import measure_suite_pair
from repro.simulate.executor import AnalysisCache, CostModel
from repro.simulate.noise import DEFAULT_NOISE
from repro.transforms.pipeline import OptimizationPlan

from tests.strategies import random_loops

#: The default plan plus every single-switch ablation the benches use.
PLANS = [
    OptimizationPlan(),
    OptimizationPlan(scalar_replacement=False),
    OptimizationPlan(coalescing=False),
    OptimizationPlan(dead_code_elimination=False),
    OptimizationPlan(
        scalar_replacement=False, coalescing=False, dead_code_elimination=False
    ),
]


class TestCostModelEquivalence:
    """Property: the two-stage cached engine is bit-identical to the seed's
    single-stage reference path for any loop, factor, regime, and plan."""

    @given(
        loop=random_loops(),
        factor=st.integers(1, 8),
        swp=st.booleans(),
        plan=st.sampled_from(PLANS),
    )
    @settings(max_examples=40, deadline=None)
    def test_fast_matches_reference(self, loop, factor, swp, plan):
        fast = CostModel(swp=swp, plan=plan, engine="fast")
        reference = CostModel(swp=swp, plan=plan, engine="reference")
        assert fast.loop_cost(loop, factor) == reference.loop_cost(loop, factor)

    @given(loop=random_loops(), factor=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_shared_cache_serves_both_regimes(self, loop, factor):
        shared = AnalysisCache()
        off = CostModel(swp=False, analysis=shared)
        on = CostModel(swp=True, analysis=shared)
        first_off = off.loop_cost(loop, factor)
        first_on = on.loop_cost(loop, factor)  # reuses the off analysis
        assert shared.hits >= 1
        assert first_off == CostModel(swp=False, engine="reference").loop_cost(
            loop, factor
        )
        assert first_on == CostModel(swp=True, engine="reference").loop_cost(
            loop, factor
        )
        # Cache-hit answers are stable under repeated queries.
        assert off.loop_cost(loop, factor) == first_off
        assert on.loop_cost(loop, factor) == first_on

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            CostModel(engine="turbo")


def _named_loop(name, op=Opcode.FADD, trip=32):
    builder = LoopBuilder(name, trip=TripInfo(runtime=trip))
    value = builder.load("a")
    builder.store(builder.fp(op, value, builder.fconst(1.5)), "b")
    return builder.build()


class TestAnalysisCache:
    def test_lru_bound_evicts_oldest(self):
        cache = AnalysisCache(maxsize=2)
        model = CostModel(analysis=cache)
        loop = _named_loop("lru")
        for factor in (1, 2, 3):
            model.loop_cost(loop, factor)
        assert len(cache) == 2
        # Factor 1 was evicted; factors 2 and 3 still hit.
        model.loop_cost(loop, 2)
        model.loop_cost(loop, 3)
        assert cache.hits == 2
        hits_before = cache.hits
        model.loop_cost(loop, 1)
        assert cache.hits == hits_before  # miss: re-analysed

    def test_name_collision_is_verified_structurally(self):
        cache = AnalysisCache()
        model = CostModel(analysis=cache)
        first = _named_loop("dup", op=Opcode.FADD)
        impostor = _named_loop("dup", op=Opcode.FMUL)
        model.loop_cost(first, 4)
        misses_before = cache.misses
        cost = model.loop_cost(impostor, 4)  # same key, different loop
        assert cache.misses == misses_before + 1
        assert cost == CostModel(engine="reference").loop_cost(impostor, 4)

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            AnalysisCache(maxsize=0)

    def test_clear_preserves_counters(self):
        cache = AnalysisCache()
        model = CostModel(analysis=cache)
        loop = _named_loop("clear")
        model.loop_cost(loop, 2)
        model.loop_cost(loop, 2)
        hits, misses = cache.hits, cache.misses
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (hits, misses)


class TestNoiseStreamContract:
    def test_scalar_is_single_row_batch(self):
        rng_scalar = np.random.default_rng(42)
        rng_batch = np.random.default_rng(42)
        single = DEFAULT_NOISE.samples(1e6, 100, rng_scalar, n=30)
        batch = DEFAULT_NOISE.batch_samples(
            np.array([1e6]), np.array([100]), rng_batch, n=30
        )
        np.testing.assert_array_equal(single, batch[0])

    def test_stream_position_depends_only_on_shape(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        DEFAULT_NOISE.batch_samples(
            np.array([1e5, 2e5, 3e5]), np.array([1, 2, 3]), rng_a, n=7
        )
        DEFAULT_NOISE.batch_samples(
            np.array([5e9, 1.0, 7e2]), np.array([999, 1, 10**6]), rng_b, n=7
        )
        np.testing.assert_array_equal(rng_a.random(8), rng_b.random(8))

    def test_batch_medians_match_per_row_medians(self):
        rng = np.random.default_rng(3)
        true_cycles = np.array([2e5, 9e5, 4e6])
        entries = np.array([10, 40, 160])
        rng_m = np.random.default_rng(77)
        rng_s = np.random.default_rng(77)
        medians = DEFAULT_NOISE.batch_medians(true_cycles, entries, rng_m, n=11)
        samples = DEFAULT_NOISE.batch_samples(true_cycles, entries, rng_s, n=11)
        np.testing.assert_array_equal(medians, np.median(samples, axis=1))
        del rng


class TestMeasureSuitePair:
    def test_pair_matches_standalone_runs(self, mini_suite, mini_config, mini_table):
        rollup_off, rollup_on = MeasurementRollup(), MeasurementRollup()
        table_off, table_on = measure_suite_pair(
            mini_suite, mini_config, jobs=1, rollup_off=rollup_off, rollup_on=rollup_on
        )
        from repro.pipeline import measure_suite

        table_on_ref = measure_suite(
            mini_suite, dataclasses.replace(mini_config, swp=True), jobs=1
        )
        for pair_table, ref_table in ((table_off, mini_table), (table_on, table_on_ref)):
            np.testing.assert_array_equal(pair_table.measured, ref_table.measured)
            np.testing.assert_array_equal(pair_table.true_cycles, ref_table.true_cycles)
            np.testing.assert_array_equal(pair_table.X, ref_table.X)
            np.testing.assert_array_equal(pair_table.loop_names, ref_table.loop_names)
        assert not table_off.swp and table_on.swp
        # The ON regime reuses every analysis the OFF regime built.
        hits = rollup_off.analysis_hits() + rollup_on.analysis_hits()
        misses = rollup_off.analysis_misses() + rollup_on.analysis_misses()
        assert hits == misses > 0


#: Computed from the seed's double-loop implementation on this exact input.
_MIS_PIN = 0.9364354703919453


class TestMutualInformationRegression:
    def _pinned_input(self):
        rng = np.random.default_rng(20050320)
        y = rng.integers(1, 9, size=500)
        phi = np.round(y + rng.normal(0, 1.5, size=500), 1)
        return phi, y

    def test_pinned_value(self):
        phi, y = self._pinned_input()
        assert mutual_information_score(phi, y) == pytest.approx(_MIS_PIN, abs=1e-12)
        assert mutual_information_score_reference(phi, y) == pytest.approx(
            _MIS_PIN, abs=1e-12
        )

    def test_fast_matches_reference_across_shapes(self):
        rng = np.random.default_rng(5)
        for kind in range(12):
            n = int(rng.integers(20, 400))
            y = rng.integers(1, 9, size=n)
            if kind % 3 == 0:
                phi = rng.normal(size=n)  # continuous: quantile bins
            elif kind % 3 == 1:
                phi = rng.integers(0, 3, size=n).astype(float)  # low cardinality
            else:
                phi = np.full(n, 2.5)  # constant: zero information
            fast = mutual_information_score(phi, y)
            reference = mutual_information_score_reference(phi, y)
            assert fast == pytest.approx(reference, abs=1e-12)


class TestGreedyEngineEquivalence:
    def _problem(self, n=260, d=12, seed=11):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        # Duplicate some rows so the SVM workspace's deduplicated solver
        # path is exercised alongside the dense fallback.
        X[: n // 4] = X[n // 4 : n // 2]
        y = 1 + (X[:, 3] > 0).astype(int) * 2 + (X[:, 7] > 0).astype(int)
        return X, y

    @pytest.mark.parametrize("classifier", ["nn", "svm"])
    def test_fast_matches_reference(self, classifier):
        X, y = self._problem()
        fast = greedy_forward_selection(
            X, y, classifier, n_features=4, engine="fast"
        )
        reference = greedy_forward_selection(
            X, y, classifier, n_features=4, engine="reference"
        )
        assert [s.index for s in fast] == [s.index for s in reference]
        for fast_step, ref_step in zip(fast, reference):
            assert fast_step.score == pytest.approx(ref_step.score, abs=1e-12)

    @pytest.mark.parametrize("classifier", ["nn", "svm"])
    def test_engines_agree_under_subsampling(self, classifier):
        X, y = self._problem(n=300)
        fast = greedy_forward_selection(
            X, y, classifier, n_features=3, subsample=120, seed=2, engine="fast"
        )
        reference = greedy_forward_selection(
            X, y, classifier, n_features=3, subsample=120, seed=2, engine="reference"
        )
        assert [s.index for s in fast] == [s.index for s in reference]

    def test_unknown_engine_rejected(self):
        X, y = self._problem(n=40)
        with pytest.raises(ValueError):
            greedy_forward_selection(X, y, "nn", n_features=1, engine="warp")

