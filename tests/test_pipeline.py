"""Unit tests for the measurement/labelling/evaluation pipeline."""

import dataclasses
import gc

import numpy as np
import pytest

from repro.ir.program import Suite
from repro.ir.types import MAX_UNROLL
from repro.pipeline import (
    EvaluationConfig,
    LabelingConfig,
    evaluate_speedups,
    label_suite,
    measure_suite,
    measure_suite_pair,
    stats_from_table,
)
from repro.pipeline import labeling
from repro.pipeline.cache import build_artifacts, config_key
from repro.pipeline.labeling import (
    measure_benchmark_factor,
    measure_benchmark_factor_pair,
)
from repro.resilience import (
    AbortRun,
    FaultPlan,
    FaultRule,
    ResilienceConfig,
    RetryPolicy,
    fault_plan,
)
from repro.simulate import NOISELESS, NoiseModel
from repro.simulate.executor import CostModel

#: Retries that never sleep for real.
_FAST_RETRIES = ResilienceConfig(
    retry=RetryPolicy(max_attempts=2, base_delay_s=0.001, max_delay_s=0.002)
)


class TestMeasurementTable:
    def test_table_covers_every_loop(self, mini_suite, mini_table):
        assert len(mini_table) == mini_suite.n_loops
        assert mini_table.X.shape == (len(mini_table), 38)
        assert (mini_table.true_cycles > 0).all()

    def test_measured_close_to_truth_under_light_noise(self, mini_table):
        ratio = mini_table.measured / np.maximum(mini_table.true_cycles, 1.0)
        assert np.median(ratio) < 1.1  # counter overhead + light jitter

    def test_survivor_mask_filters(self, mini_table):
        strict = mini_table.survivor_mask(min_cycles=1e12, min_benefit=1.0)
        assert not strict.any()
        lax = mini_table.survivor_mask(min_cycles=0.0, min_benefit=1.0)
        assert lax.all()

    def test_dataset_rows_match_mask(self, mini_table, mini_config):
        mask = mini_table.survivor_mask(mini_config.min_cycles, mini_config.min_benefit)
        dataset = mini_table.to_dataset(mini_config.min_cycles, mini_config.min_benefit)
        assert len(dataset) == int(mask.sum())

    def test_labels_are_measured_argmin(self, mini_dataset):
        recomputed = np.argmin(mini_dataset.cycles, axis=1) + 1
        np.testing.assert_array_equal(mini_dataset.labels, recomputed)

    def test_table_round_trip(self, mini_table, tmp_path):
        from repro.pipeline import MeasurementTable

        path = tmp_path / "table.npz"
        mini_table.save(path)
        loaded = MeasurementTable.load(path)
        np.testing.assert_array_equal(loaded.measured, mini_table.measured)
        np.testing.assert_array_equal(loaded.loop_names, mini_table.loop_names)
        assert loaded.swp == mini_table.swp

    def test_rows_for_benchmark(self, mini_table, mini_suite):
        bench = mini_suite.benchmarks[0]
        rows = mini_table.rows_for_benchmark(bench.name)
        assert len(rows) == bench.n_loops


class TestLabelingProtocol:
    def test_stats_partition_the_population(self, mini_table, mini_config):
        stats = stats_from_table(mini_table, mini_config)
        assert (
            stats.n_below_cycle_floor + stats.n_flat + stats.n_labeled
            == stats.n_loops_total
        )
        assert sum(stats.labels_histogram.values()) == stats.n_labeled
        assert "labelled" in stats.summary()

    def test_label_suite_end_to_end(self, mini_suite, mini_config):
        dataset, stats = label_suite(mini_suite, mini_config)
        assert len(dataset) == stats.n_labeled
        assert dataset.swp == mini_config.swp

    def test_measurements_reproducible_from_seed(self, mini_suite, mini_config):
        a = measure_suite(mini_suite, mini_config)
        b = measure_suite(mini_suite, mini_config)
        np.testing.assert_array_equal(a.measured, b.measured)

    def test_noiseless_labels_equal_true_argmin(self, mini_suite):
        config = LabelingConfig(
            swp=False, noise=NOISELESS, n_runs=1, min_cycles=0.0, min_benefit=1.0
        )
        dataset, _ = label_suite(mini_suite, config)
        np.testing.assert_array_equal(
            dataset.labels, np.argmin(dataset.true_cycles, axis=1) + 1
        )

    def test_noise_flips_some_labels(self, mini_suite):
        noisy = LabelingConfig(
            swp=False,
            noise=NoiseModel(sigma=0.05, outlier_rate=0.05),
            n_runs=3,
            min_cycles=0.0,
            min_benefit=1.0,
        )
        dataset, _ = label_suite(mini_suite, noisy)
        true_best = np.argmin(dataset.true_cycles, axis=1) + 1
        agreement = float(np.mean(dataset.labels == true_best))
        assert 0.3 < agreement < 1.0


class TestEvaluation:
    def test_speedup_report_structure(self, mini_suite, mini_table, mini_dataset):
        names = tuple(b.name for b in mini_suite.benchmarks[:3])
        config = EvaluationConfig(swp=False, benchmarks=names)
        report = evaluate_speedups(mini_suite, mini_table, mini_dataset, config)
        assert len(report.results) == 3
        for result in report.results:
            assert set(result.improvements) == {"nn", "svm", "oracle"}
            assert result.runtimes["orc"] > 0

    def test_oracle_bounds_learners_in_noiseless_world(self, mini_suite):
        config = LabelingConfig(
            swp=False, noise=NOISELESS, n_runs=1, min_cycles=0.0, min_benefit=1.0
        )
        table = measure_suite(mini_suite, config)
        dataset = table.to_dataset(0.0, 1.0)
        names = tuple(b.name for b in mini_suite.benchmarks[:3])
        report = evaluate_speedups(
            mini_suite, table, dataset,
            EvaluationConfig(swp=False, benchmarks=names, n_timing_runs=1),
        )
        for result in report.results:
            # With noiseless labels the oracle is truly optimal per loop.
            assert result.improvements["oracle"] >= result.improvements["svm"] - 0.01
            assert result.improvements["oracle"] >= -0.01


class TestCache:
    def test_config_key_sensitivity(self):
        base = LabelingConfig(swp=False)
        swp = LabelingConfig(swp=True)
        assert config_key(1, 1.0, base) != config_key(1, 1.0, swp)
        assert config_key(1, 1.0, base) != config_key(2, 1.0, base)
        assert config_key(1, 1.0, base) != config_key(1, 0.5, base)
        assert config_key(1, 1.0, base) == config_key(1, 1.0, LabelingConfig(swp=False))

    def test_build_artifacts_caches(self, tmp_path):
        import time

        config = LabelingConfig(
            seed=5, swp=False, noise=NOISELESS, n_runs=1,
            min_cycles=0.0, min_benefit=1.0,
        )
        t0 = time.time()
        first = build_artifacts(
            suite_seed=5, loops_scale=0.03, config=config, cache_dir=tmp_path
        )
        cold = time.time() - t0
        t0 = time.time()
        second = build_artifacts(
            suite_seed=5, loops_scale=0.03, config=config, cache_dir=tmp_path
        )
        warm = time.time() - t0
        np.testing.assert_array_equal(first.table.measured, second.table.measured)
        assert warm < cold
        assert any(tmp_path.glob("measurements_*.npz"))


class TestCollectorPause:
    """Labelling runs with the cyclic garbage collector paused: it creates
    no reference cycles, and every exit restores the caller's state."""

    @pytest.fixture(scope="class")
    def two_benchmarks(self, mini_suite):
        return Suite(name="two", benchmarks=mini_suite.benchmarks[:2])

    @staticmethod
    def _leaves_no_cycles(run) -> int:
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            if was_enabled:
                gc.enable()

    def test_units_create_no_cyclic_garbage(self, two_benchmarks, mini_config):
        on_config = dataclasses.replace(mini_config, swp=True)
        seeds = np.random.SeedSequence(3).spawn(MAX_UNROLL)
        benchmarks = list(enumerate(two_benchmarks.benchmarks))

        def per_unit():
            model = CostModel(machine=mini_config.machine)
            for bi, bench in benchmarks:
                for factor in range(1, MAX_UNROLL + 1):
                    measure_benchmark_factor(
                        bench, bi, factor, mini_config, seeds[factor - 1], model
                    )

        def pair_units():
            models = (CostModel(swp=False), CostModel(swp=True))
            for bi, bench in benchmarks:
                for factor in range(1, MAX_UNROLL + 1):
                    measure_benchmark_factor_pair(
                        bench, bi, factor, mini_config, on_config,
                        seeds[factor - 1], models,
                    )

        for run in (per_unit, pair_units):
            assert self._leaves_no_cycles(run) == 0, run.__name__

    def test_pair_run_restores_an_enabled_collector(self, two_benchmarks, mini_config):
        assert gc.isenabled()
        seen = []
        real_run_units = labeling.run_units

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real_run_units(*args, **kwargs)

        labeling.run_units = spy
        try:
            measure_suite_pair(two_benchmarks, mini_config, jobs=1)
        finally:
            labeling.run_units = real_run_units
        assert seen == [False]
        assert gc.isenabled()

    def test_quarantined_unit_errors_restore_the_collector(
        self, two_benchmarks, mini_config
    ):
        bench = two_benchmarks.benchmarks[0]
        plan = FaultPlan(
            rules=(FaultRule(op="unit.error", match=f"{bench.name}:u2#*", times=0),)
        )
        with fault_plan(plan):
            off, _ = measure_suite_pair(
                two_benchmarks, mini_config, jobs=1, resilience=_FAST_RETRIES
            )
        assert np.isnan(off.measured[: bench.n_loops, 1]).all()
        assert gc.isenabled()

    def test_abort_restores_the_collector(self, two_benchmarks, mini_config):
        plan = FaultPlan(rules=(FaultRule(op="run.abort", match="*", skip=1),))
        with fault_plan(plan), pytest.raises(AbortRun):
            measure_suite_pair(two_benchmarks, mini_config, jobs=1)
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, two_benchmarks, mini_config):
        gc.disable()
        try:
            measure_suite_pair(two_benchmarks, mini_config, jobs=1)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_pooled_pair_run_is_bit_identical_to_serial(
        self, two_benchmarks, mini_config
    ):
        serial = measure_suite_pair(two_benchmarks, mini_config, jobs=1)
        pooled = measure_suite_pair(two_benchmarks, mini_config, jobs=2)
        for a, b in zip(serial, pooled):
            assert a.measured.tobytes() == b.measured.tobytes()
            assert a.true_cycles.tobytes() == b.true_cycles.tobytes()
        assert gc.isenabled()

    def test_pool_workers_run_without_the_collector(self):
        try:
            labeling._init_labelling_worker()
            assert not gc.isenabled()
        finally:
            gc.enable()
