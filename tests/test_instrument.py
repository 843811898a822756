"""Unit tests for the measurement protocol and the raw-data export."""

import numpy as np
import pytest

from repro.instrument import (
    LoopRecord,
    MeasurementRollup,
    UnitTiming,
    read_records,
    write_records,
)
from repro.ir.program import Benchmark
from repro.ir.types import Language
from repro.pipeline import LabelingConfig, measure_benchmark_factor
from repro.simulate import DEFAULT_NOISE, CostModel, NOISELESS, NoiseModel
from repro.workloads.kernels import daxpy


def _measure_one(loop, factor, seed, noise=DEFAULT_NOISE, n_runs=30):
    """One loop timed through the labelling unit, the paper's median-of-N
    protocol with counter overhead."""
    benchmark = Benchmark(
        name="one", suite="spec2000-fp", language=Language.C, loops=(loop,)
    )
    config = LabelingConfig(noise=noise, n_runs=n_runs)
    return measure_benchmark_factor(
        benchmark, 0, factor, config, np.random.SeedSequence(seed)
    )


class TestMeasurement:
    def test_noiseless_measurement_equals_cost_model(self):
        loop = daxpy(trip=256, entries=8)
        unit = _measure_one(loop, 2, 0, noise=NOISELESS, n_runs=5)
        truth = CostModel().loop_cost(loop, 2).total_cycles
        assert unit.measured[0] == unit.true_cycles[0] == truth

    def test_median_of_thirty_default(self):
        assert LabelingConfig().n_runs == 30
        loop = daxpy(trip=256, entries=8)
        unit = _measure_one(loop, 1, 1)
        rng = np.random.default_rng(np.random.SeedSequence(1))
        samples = DEFAULT_NOISE.batch_samples(
            unit.true_cycles, np.array([loop.entry_count]), rng, n=30
        )
        assert samples.shape == (1, 30)
        assert unit.measured[0] == np.median(samples[0])

    def test_benchmark_measurement_covers_all_loops(self, mini_suite, mini_config):
        bench = mini_suite.benchmarks[0]
        unit = measure_benchmark_factor(
            bench, 0, 4, mini_config, np.random.SeedSequence(2)
        )
        model = CostModel()
        assert unit.measured.shape == unit.true_cycles.shape == (bench.n_loops,)
        assert np.isfinite(unit.measured).all()
        assert list(unit.true_cycles) == [
            model.loop_cost(loop, 4).total_cycles for loop in bench.loops
        ]

    def test_noise_does_not_bias_the_median_much(self):
        loop = daxpy(trip=512, entries=16)
        truth = CostModel().loop_cost(loop, 1).total_cycles
        noise = NoiseModel(sigma=0.02, outlier_rate=0.02, counter_overhead=0)
        medians = [_measure_one(loop, 1, seed, noise=noise).measured[0] for seed in range(10)]
        assert abs(np.mean(medians) / truth - 1.0) < 0.02


class TestRollupSummary:
    @staticmethod
    def _rollup(*traffic):
        rollup = MeasurementRollup()
        for hits, misses in traffic:
            rollup.record(
                UnitTiming(
                    benchmark="b", factor=1, worker=1, n_loops=3, seconds=0.1,
                    analysis_hits=hits, analysis_misses=misses,
                )
            )
        return rollup

    def test_single_regime_run_reports_no_reuse(self):
        summary = self._rollup((0, 3), (0, 3)).summary()
        assert "reused" not in summary
        assert "cache" not in summary

    def test_second_regime_reports_its_reuse(self):
        rollup = self._rollup((3, 0), (3, 0))
        assert (rollup.analysis_hits(), rollup.analysis_misses()) == (6, 0)
        assert "; 6 loop analyses reused across regimes" in rollup.summary()


class TestRawDataRelease:
    def _records(self, dataset, limit=10):
        return [
            LoopRecord(
                loop_name=str(dataset.loop_names[i]),
                benchmark=str(dataset.benchmarks[i]),
                suite=str(dataset.suites[i]),
                language=str(dataset.languages[i]),
                features=tuple(float(v) for v in dataset.X[i]),
                median_cycles=tuple(float(v) for v in dataset.cycles[i]),
            )
            for i in range(min(limit, len(dataset)))
        ]

    def test_round_trip(self, mini_dataset, tmp_path):
        records = self._records(mini_dataset)
        path = tmp_path / "loops.jsonl"
        count = write_records(records, path)
        loaded = read_records(path)
        assert count == len(loaded) == len(records)
        for original, restored in zip(records, loaded):
            assert restored == original

    def test_best_factor_property(self, mini_dataset, tmp_path):
        records = self._records(mini_dataset, limit=5)
        for i, record in enumerate(records):
            assert record.best_factor == int(mini_dataset.labels[i])

    def test_header_mismatch_detected(self, mini_dataset, tmp_path):
        path = tmp_path / "loops.jsonl"
        write_records(self._records(mini_dataset, 2), path)
        content = path.read_text().splitlines()
        content[0] = content[0].replace("nest_level", "bogus_feature")
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(ValueError, match="catalog mismatch"):
            read_records(path)

    def test_version_mismatch_detected(self, mini_dataset, tmp_path):
        path = tmp_path / "loops.jsonl"
        write_records(self._records(mini_dataset, 2), path)
        content = path.read_text().splitlines()
        content[0] = content[0].replace('"format_version": 1', '"format_version": 99')
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(ValueError, match="unsupported"):
            read_records(path)
