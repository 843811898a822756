"""Fast-vs-reference equivalence of the optimized engines.

The performance work keeps every seed code path alive behind
``engine="reference"`` switches; these tests pin the optimized engines to
those references — the cached two-stage cost model, the paired measurement
run, the batched noise stream, the vectorized mutual information, and the
incremental greedy-selection workspaces must all reproduce the seed's
numbers, not merely approximate them.  Tables are compared byte for byte
with :func:`tests.strategies.assert_tables_bit_identical`, whose own
strictness is pinned here too.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.instrument import MeasurementRollup
from repro.ir.builder import LoopBuilder
from repro.ir.dependence import (
    DepEdge,
    DependenceGraph,
    DepKind,
    analyze_dependences,
    edge_latency,
)
from repro.ir.loop import TripInfo
from repro.ir.program import Suite
from repro.ir.types import MAX_UNROLL, Opcode
from repro.ml import (
    greedy_forward_selection,
    mutual_information_score,
    mutual_information_score_reference,
)
from repro.machine import ITANIUM2, NARROW
from repro.pipeline import (
    LabelingConfig,
    measure_benchmark_factor,
    measure_suite,
    measure_suite_pair,
)
from repro.pipeline import labeling
from repro.sched.precompute import SchedPrecomp
from repro.simulate.executor import AnalysisCache, CostModel
from repro.simulate.noise import DEFAULT_NOISE, NoiseModel
from repro.transforms.pipeline import OptimizationPlan, optimize_for_factor
from repro.workloads.generator import generate_benchmark
from repro.workloads.spec_names import ROSTER

from tests.strategies import (
    PLANS,
    assert_tables_bit_identical,
    measurement_tables,
    random_loops,
)

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


def _assert_tables_follow_the_graph(deps, machine):
    """The one-pass table build equals the graph's own adjacency lists,
    edge for edge and in order, with :func:`edge_latency`."""
    pre = SchedPrecomp.build(deps, machine)

    def lat(edge):
        return edge_latency(edge, deps.body, machine)

    assert pre.succs == tuple(
        tuple((j, lat(e), e.distance) for j, e in row) for row in deps.succs
    )
    assert pre.preds == tuple(
        tuple((j, lat(e), e.distance) for j, e in row) for row in deps.preds
    )
    assert pre.succs0 == tuple(
        tuple((j, lat(e)) for j, e in row if e.distance == 0) for row in deps.succs
    )
    assert pre.preds0_count == tuple(
        sum(e.distance == 0 for _, e in row) for row in deps.preds
    )
    assert pre.carried == tuple(
        (e.src, e.dst, lat(e), e.distance) for e in deps.edges if e.distance >= 1
    )


class TestSchedPrecompTables:
    @given(
        loop=random_loops(),
        factor=st.integers(1, 8),
        machine=st.sampled_from([ITANIUM2, NARROW]),
    )
    @settings(max_examples=30, deadline=None)
    def test_tables_follow_analysed_graphs(self, loop, factor, machine):
        result = optimize_for_factor(loop, factor, OptimizationPlan())
        for part in (result.main, result.remainder):
            if part is not None:
                _assert_tables_follow_the_graph(analyze_dependences(part), machine)

    def test_tables_follow_every_edge_kind(self, daxpy_loop):
        body = daxpy_loop.body
        edges = [
            DepEdge(src, dst, kind, distance)
            for src in range(len(body))
            for dst in range(len(body))
            for kind in DepKind
            for distance in (0, 1, 2)
            if distance or src < dst
        ]
        _assert_tables_follow_the_graph(DependenceGraph(body, edges), ITANIUM2)


def _named_loop(name, op=Opcode.FADD, trip=32, stride=1):
    builder = LoopBuilder(name, trip=TripInfo(runtime=trip))
    value = builder.load("a", stride=stride)
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
        # Same name, different memory behaviour: the effective load latency
        # and bandwidth floor must follow the loop, not its name.
        model.loop_cost(_named_loop("long", trip=4000), 4)
        strided = _named_loop("long", trip=4000, stride=64)
        cost = model.loop_cost(strided, 4)
        assert cost == CostModel().loop_cost(strided, 4)
        assert cost == CostModel(engine="reference").loop_cost(strided, 4)
        assert cost.total_cycles == 48_015

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


@pytest.fixture(scope="module")
def small_pair():
    """Two small benchmarks measured serially in both regimes on the fast
    engine: ``(suite, config, off_table, on_table)``."""
    infos = (ROSTER[1], ROSTER[0])
    seeds = np.random.SeedSequence(3).spawn(len(infos))
    benchmarks = tuple(
        generate_benchmark(info, np.random.default_rng(child), loops_scale=0.04)
        for info, child in zip(infos, seeds)
    )
    suite = Suite(name="small", benchmarks=benchmarks)
    config = LabelingConfig(
        seed=3, noise=NoiseModel(sigma=0.01, outlier_rate=0.0, counter_overhead=5), n_runs=3
    )
    off, on = measure_suite_pair(suite, config)
    return suite, config, off, on


class TestMeasureSuitePair:
    def test_pair_matches_standalone_runs(self, mini_suite, mini_config, mini_table):
        rollup_off, rollup_on = MeasurementRollup(), MeasurementRollup()
        table_off, table_on = measure_suite_pair(
            mini_suite, mini_config, jobs=1, rollup_off=rollup_off, rollup_on=rollup_on
        )
        table_on_ref = measure_suite(
            mini_suite, dataclasses.replace(mini_config, swp=True), jobs=1
        )
        assert_tables_bit_identical(table_off, mini_table)
        assert_tables_bit_identical(table_on, table_on_ref)
        assert not table_off.swp and table_on.swp
        # The ON regime reuses every analysis the OFF regime built.
        hits = rollup_off.analysis_hits() + rollup_on.analysis_hits()
        misses = rollup_off.analysis_misses() + rollup_on.analysis_misses()
        assert hits == misses > 0

    def test_features_are_extracted_once_per_loop(self, small_pair, monkeypatch):
        suite, config, off, on = small_pair
        seen = []

        def counting(loop, machine):
            seen.append(loop.name)
            return real(loop, machine)

        real = labeling.extract_features
        monkeypatch.setattr(labeling, "extract_features", counting)
        pair = measure_suite_pair(suite, config)
        assert sorted(seen) == sorted(off.loop_names)
        assert_tables_bit_identical(pair[0], off)
        assert_tables_bit_identical(pair[1], on)

    def test_the_two_tables_share_no_arrays(self, small_pair):
        suite, config, _, _ = small_pair
        off, on = measure_suite_pair(suite, config)
        for name in ("X", "measured", "true_cycles", "entry_counts"):
            assert not np.shares_memory(getattr(off, name), getattr(on, name)), name
        before = off.X[0, 0]
        on.X[0, 0] += 1.0
        assert off.X[0, 0] == before


def _assert_units_match(suite, config, table, cost_model) -> None:
    """Every (benchmark, factor) unit measured through ``cost_model`` and
    seeded the way :func:`measure_suite` seeds it lands exactly on
    ``table``'s cells — the path perfbench spot-checks on every run."""
    seeds = np.random.SeedSequence(config.seed).spawn(len(suite.benchmarks))
    start = 0
    for bi, benchmark in enumerate(suite.benchmarks):
        rows = slice(start, start + benchmark.n_loops)
        for factor, seed in enumerate(seeds[bi].spawn(MAX_UNROLL), start=1):
            unit = measure_benchmark_factor(
                benchmark, bi, factor, config, seed, cost_model
            )
            np.testing.assert_array_equal(unit.true_cycles, table.true_cycles[rows, factor - 1])
            np.testing.assert_array_equal(unit.measured, table.measured[rows, factor - 1])
        start = rows.stop


class TestReferenceUnits:
    @pytest.mark.parametrize("swp", [False, True])
    def test_fast_table_matches_reference_units(self, small_pair, swp):
        suite, config, off, on = small_pair
        _assert_units_match(
            suite,
            dataclasses.replace(config, swp=swp),
            on if swp else off,
            CostModel(swp=swp, engine="reference"),
        )


class TestAssertHelper:
    @given(table=measurement_tables())
    @settings(max_examples=20, deadline=None)
    def test_accepts_a_table_against_itself(self, table):
        assert_tables_bit_identical(table, table)

    @given(table=measurement_tables())
    @settings(max_examples=20, deadline=None)
    def test_rejects_any_float_perturbation(self, table):
        measured = table.measured.copy()
        # Flip the sign bit of one cell: even -0.0 vs 0.0 must be caught.
        measured.view(np.uint64)[0, 0] ^= np.uint64(1 << 63)
        other = dataclasses.replace(table, measured=measured)
        with pytest.raises(AssertionError, match="measured"):
            assert_tables_bit_identical(table, other)

    @given(table=measurement_tables())
    @settings(max_examples=20, deadline=None)
    def test_rejects_a_provenance_mismatch(self, table):
        names = table.loop_names.copy().astype(object)
        names[0] = str(names[0]) + "x"
        other = dataclasses.replace(table, loop_names=names.astype(str))
        with pytest.raises(AssertionError, match="loop_names"):
            assert_tables_bit_identical(table, other)

    def test_nan_holes_must_match_positionally(self, small_pair):
        table = small_pair[2]
        holed = table.measured.copy()
        holed[0, 0] = np.nan
        other = dataclasses.replace(table, measured=holed)
        assert_tables_bit_identical(other, dataclasses.replace(other))
        with pytest.raises(AssertionError):
            assert_tables_bit_identical(table, other)


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

