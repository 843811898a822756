"""The labelling pipeline: measure every loop at every unroll factor.

Reproduces the paper's data-collection protocol (Sections 4.4-4.6):

1. compile every unrollable loop at unroll factors 1..8 (here: the cost
   simulator times each configuration);
2. run each configuration 30 times and keep the median cumulative cycles
   per loop (the noise model supplies the 30 samples);
3. keep only loops that run for at least 50,000 cycles — short loops are
   measurement noise magnets;
4. keep only loops whose best factor is "measurably better than the average
   (1.05x) over all unroll factors" — flat loops carry no signal;
5. label each surviving loop with its best measured factor and pair the
   label with the loop's 38 static features.

:func:`measure_suite` produces the *unfiltered* :class:`MeasurementTable`
(steps 1-2 for every loop); :func:`label_suite` applies steps 3-5 on top.

Measurement decomposes into independent **work units** — one (benchmark,
unroll factor) configuration per unit, mirroring the paper's one-binary-
per-factor protocol — so the suite can fan out over a process pool
(``jobs > 1``) while staying bit-identical to a serial run: every unit
derives its RNG from its own :class:`numpy.random.SeedSequence` child, and
the merge assembles results by (benchmark, factor) index, never by
completion order.

Units run on the fault-tolerant executor
(:func:`repro.resilience.run_units`): units are retried with deterministic
backoff, timed out, quarantined when they fail every attempt (the merge
NaN-fills their rows instead of aborting the run), re-executed serially
when a worker death breaks the pool, and — given a
:class:`~repro.resilience.CheckpointJournal` — committed as they complete
so a killed run resumes bit-identically.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.features.extract import extract_features
from repro.instrument.report import MeasurementRollup, UnitTiming
from repro.ir.program import Benchmark, Suite
from repro.ir.types import MAX_UNROLL
from repro.machine.itanium2 import ITANIUM2
from repro.machine.model import MachineModel
from repro.ml.dataset import LoopDataset
from repro.pipeline.measurements import MeasurementTable
from repro.resilience.executor import (
    DEFAULT_RESILIENCE,
    ResilienceConfig,
    UnitTask,
    run_units,
)
from repro.resilience.journal import CheckpointJournal
from repro.simulate.executor import (
    CostModel,
    reset_shared_cost_models,
    shared_cost_model,
)
from repro.simulate.noise import DEFAULT_NOISE, NoiseModel


@dataclass(frozen=True)
class LabelingConfig:
    """Knobs of the labelling protocol (paper defaults)."""

    seed: int = 20050320
    swp: bool = False
    machine: MachineModel = ITANIUM2
    noise: NoiseModel = DEFAULT_NOISE
    n_runs: int = 30
    min_cycles: float = 50_000.0
    min_benefit: float = 1.05


@dataclass
class LabelingStats:
    """What the filters did — reported alongside every dataset."""

    n_loops_total: int = 0
    n_below_cycle_floor: int = 0
    n_flat: int = 0
    n_labeled: int = 0
    labels_histogram: dict[int, int] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.n_loops_total} loops measured; "
            f"{self.n_below_cycle_floor} below the cycle floor, "
            f"{self.n_flat} flat (< min benefit), {self.n_labeled} labelled"
        )


def resolve_jobs(jobs: int | None = None) -> int:
    """Degree of measurement parallelism.

    ``None`` consults the ``REPRO_JOBS`` environment variable and falls
    back to serial (1), so tests and library callers stay reproducible by
    default while the CLI and benches can opt in fleet-wide.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class UnitResult:
    """Output of one measurement work unit in one regime: every loop of one
    benchmark at one unroll factor, plus worker attribution and analysis
    accounting for the timing rollup.  ``analysis_misses`` counts the loop
    analyses this regime built, ``analysis_hits`` those it reused from the
    unit's earlier regime; ``seconds`` times this regime's pass alone."""

    bench_index: int
    factor: int
    measured: np.ndarray  # (n_loops,) median measured cycles
    true_cycles: np.ndarray  # (n_loops,) noise-free cycles
    worker: int
    seconds: float
    analysis_hits: int = 0
    analysis_misses: int = 0


def unit_to_json(unit: UnitResult) -> dict:
    """A :class:`UnitResult` as a JSON-safe dict (journal payload format).

    Floats survive the round trip exactly — ``json`` emits shortest-repr
    doubles — so a resumed run is bit-identical to an uninterrupted one.
    """
    return {
        "bench_index": unit.bench_index,
        "factor": unit.factor,
        "measured": [float(v) for v in unit.measured],
        "true_cycles": [float(v) for v in unit.true_cycles],
        "worker": unit.worker,
        "seconds": unit.seconds,
        "analysis_hits": unit.analysis_hits,
        "analysis_misses": unit.analysis_misses,
    }


def unit_from_json(payload: dict) -> UnitResult:
    """Inverse of :func:`unit_to_json`."""
    return UnitResult(
        bench_index=int(payload["bench_index"]),
        factor=int(payload["factor"]),
        measured=np.asarray(payload["measured"], dtype=np.float64),
        true_cycles=np.asarray(payload["true_cycles"], dtype=np.float64),
        worker=int(payload["worker"]),
        seconds=float(payload["seconds"]),
        analysis_hits=int(payload["analysis_hits"]),
        analysis_misses=int(payload["analysis_misses"]),
    )


def _units_to_json(units: tuple[UnitResult, ...]) -> dict:
    """Journal payload of one work unit: a single regime's result as
    :func:`unit_to_json` writes it, a pair as ``{"off": ..., "on": ...}``."""
    if len(units) == 1:
        return unit_to_json(units[0])
    return {"off": unit_to_json(units[0]), "on": unit_to_json(units[1])}


def _units_from_json(payload: dict) -> tuple[UnitResult, ...]:
    """Inverse of :func:`_units_to_json`."""
    if "off" in payload:
        return unit_from_json(payload["off"]), unit_from_json(payload["on"])
    return (unit_from_json(payload),)


def _measure_unit(
    benchmark: Benchmark,
    bench_index: int,
    factor: int,
    configs: tuple[LabelingConfig, ...],
    seed: np.random.SeedSequence,
    cost_models: tuple[CostModel, ...] | None = None,
) -> tuple[UnitResult, ...]:
    """Execute one work unit in one or more regimes, back to back.

    Mirrors the paper's protocol at its natural granularity: one binary —
    every loop of ``benchmark`` compiled at ``factor`` — timed over
    ``config.n_runs`` runs per regime.  Each regime rebuilds its RNG from
    the unit's own seed child, so its result is independent of which
    worker runs the unit, of the order units complete in, and of the other
    regimes measured with it.  Each regime draws one ``(n_loops, n_runs)``
    sample batch per the noise module's stream contract.

    The analysis stage does not depend on the regime: the first
    fast-engine regime analyses every loop once and keeps the list, later
    regimes cost from it, and the list dies with the call.  ``cost_models``
    default to the process-wide shared ``"fast"`` models; a
    ``CostModel(engine="reference")`` yields the same result bit for bit.
    """
    if cost_models is None:
        cost_models = tuple(shared_cost_model(c.machine, c.swp) for c in configs)
    loops = benchmark.loops
    entry_counts = np.array([loop.entry_count for loop in loops], dtype=np.int64)
    analyses = analysed_by = None
    units = []
    for config, model in zip(configs, cost_models):
        start = time.perf_counter()
        hits = misses = 0
        if model.engine == "reference":
            costs = [model.loop_cost(loop, factor) for loop in loops]
        else:
            if analyses is None:
                analyses = [model.analyze(loop, factor) for loop in loops]
                analysed_by = (model.machine, model.plan)
                misses = len(loops)
            elif (model.machine, model.plan) != analysed_by:
                raise ValueError("the regimes of one unit must share machine and plan")
            else:
                hits = len(loops)
            costs = [
                model.cost_from_analysis(loop, analysis)
                for loop, analysis in zip(loops, analyses)
            ]
        true = np.array([cost.total_cycles for cost in costs], dtype=np.float64)
        rng = np.random.default_rng(seed)
        measured = config.noise.batch_medians(true, entry_counts, rng, n=config.n_runs)
        units.append(
            UnitResult(
                bench_index=bench_index,
                factor=factor,
                measured=measured,
                true_cycles=true,
                worker=os.getpid(),
                seconds=time.perf_counter() - start,
                analysis_hits=hits,
                analysis_misses=misses,
            )
        )
    return tuple(units)


def measure_benchmark_factor(
    benchmark: Benchmark,
    bench_index: int,
    factor: int,
    config: LabelingConfig,
    seed: np.random.SeedSequence,
    cost_model: CostModel | None = None,
) -> UnitResult:
    """One work unit in ``config``'s regime (see :func:`_measure_unit`).

    ``cost_model`` defaults to the process-wide shared ``"fast"`` model; any
    other engine (``CostModel(engine="reference")``, say) yields the same
    result bit for bit.
    """
    models = None if cost_model is None else (cost_model,)
    return _measure_unit(benchmark, bench_index, factor, (config,), seed, models)[0]


def measure_benchmark_factor_pair(
    benchmark: Benchmark,
    bench_index: int,
    factor: int,
    config_off: LabelingConfig,
    config_on: LabelingConfig,
    seed: np.random.SeedSequence,
    cost_models: tuple[CostModel, CostModel] | None = None,
) -> tuple[UnitResult, UnitResult]:
    """One work unit measured in both scheduling regimes back to back.

    The SWP-on regime costs from the analyses the SWP-off regime built
    (unroll, cleanup, dependences, scheduler tables), and the pair is
    bit-identical to two independent single-regime units.
    """
    return _measure_unit(
        benchmark, bench_index, factor, (config_off, config_on), seed, cost_models
    )


def _run_labelling_units(tasks, jobs, resilience, journal):
    """:func:`run_units` for one labelling run, with the cyclic garbage
    collector paused.

    Labelling creates no reference cycles, so every collection during a
    run is pure cost: it walks the heap and finds nothing.  The pause
    covers the whole run, not each unit (re-enabling between units still
    triggers most of the collections), and sits here in the
    ``measure_suite*`` path rather than in ``run_units``, which other
    callers run from threads.  The caller's collector state is
    restored on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run_units(
            tasks,
            jobs=jobs,
            config=resilience or DEFAULT_RESILIENCE,
            journal=journal,
            encode=_units_to_json,
            decode=_units_from_json,
            initializer=_init_labelling_worker,
        )
    finally:
        if enabled:
            gc.enable()


def _init_labelling_worker() -> None:
    """Pool initializer: fresh shared cost models, and no cyclic garbage
    collection for the worker's life (workers end with the run)."""
    reset_shared_cost_models()
    gc.disable()


def _unit_seeds(seed: int, n_benchmarks: int) -> list[list[np.random.SeedSequence]]:
    """One SeedSequence child per (benchmark, factor) work unit."""
    root = np.random.SeedSequence(seed)
    return [bench_seq.spawn(MAX_UNROLL) for bench_seq in root.spawn(n_benchmarks)]


class _TableAssembly:
    """Static (factor- and regime-independent) columns plus the
    deterministic merge.

    The parent process extracts features and provenance once per run — a
    paired run shares one assembly between its two regimes; work units
    only produce per-factor timings, which :meth:`merge` lands by
    (benchmark, factor) index — so the assembled table is bit-identical
    however the units were scheduled.  Each merge builds a table of its
    own (fresh timing arrays, its own copy of the static columns).  A
    quarantined unit (one that failed every retry) leaves NaN in its
    (benchmark, factor) cells: the run degrades to a table with holes
    instead of aborting, and the labelling filters naturally drop the
    affected loops."""

    def __init__(self, suite: Suite, machine: MachineModel):
        n = suite.n_loops
        self.benchmarks = suite.benchmarks
        self.X = np.empty((n, 38))
        self.names: list[str] = []
        self.benchs: list[str] = []
        self.suites: list[str] = []
        self.langs: list[str] = []
        self.entries = np.empty(n, dtype=np.int64)
        self.row_starts: list[int] = []
        row = 0
        for benchmark in self.benchmarks:
            self.row_starts.append(row)
            for loop in benchmark.loops:
                self.X[row] = extract_features(loop, machine)
                self.names.append(loop.name)
                self.benchs.append(benchmark.name)
                self.suites.append(benchmark.suite)
                self.langs.append(loop.language.name)
                self.entries[row] = loop.entry_count
                row += 1

    def merge(
        self,
        results: dict[tuple[int, int], UnitResult],
        rollup: MeasurementRollup | None,
        swp: bool,
    ) -> MeasurementTable:
        n = len(self.names)
        measured = np.empty((n, MAX_UNROLL))
        true = np.empty((n, MAX_UNROLL))
        for bi, benchmark in enumerate(self.benchmarks):
            lo = self.row_starts[bi]
            hi = lo + benchmark.n_loops
            for factor in range(1, MAX_UNROLL + 1):
                unit = results.get((bi, factor))
                if unit is None:  # quarantined after exhausting retries
                    measured[lo:hi, factor - 1] = np.nan
                    true[lo:hi, factor - 1] = np.nan
                    continue
                measured[lo:hi, factor - 1] = unit.measured
                true[lo:hi, factor - 1] = unit.true_cycles
                if rollup is not None:
                    rollup.record(
                        UnitTiming(
                            benchmark=benchmark.name,
                            factor=factor,
                            worker=unit.worker,
                            n_loops=benchmark.n_loops,
                            seconds=unit.seconds,
                            analysis_hits=unit.analysis_hits,
                            analysis_misses=unit.analysis_misses,
                        )
                    )
        return MeasurementTable(
            X=self.X.copy(),
            measured=measured,
            true_cycles=true,
            loop_names=np.array(self.names),
            benchmarks=np.array(self.benchs),
            suites=np.array(self.suites),
            languages=np.array(self.langs),
            entry_counts=self.entries.copy(),
            swp=swp,
        )


def _measure_regimes(
    suite: Suite,
    configs: tuple[LabelingConfig, ...],
    jobs: int | None,
    resilience: ResilienceConfig | None,
    journal: CheckpointJournal | None,
    rollups: tuple[MeasurementRollup | None, ...],
) -> tuple[MeasurementTable, ...]:
    """Measure ``suite`` in every regime of ``configs`` (which differ only
    in ``swp``), one work unit per (benchmark, factor) covering all of
    them; returns one table per regime.

    Every resilience event belongs to a unit, not to a regime, so the
    events go to exactly one rollup (the first one given): a caller
    aggregating or printing several never counts a recovery action twice.
    """
    jobs = resolve_jobs(jobs)
    benchmarks = suite.benchmarks
    assembly = _TableAssembly(suite, configs[0].machine)
    seeds = _unit_seeds(configs[0].seed, len(benchmarks))
    tasks = [
        UnitTask(
            key=(bi, factor),
            label=f"{benchmark.name}:u{factor}",
            fn=_measure_unit,
            args=(benchmark, bi, factor, configs, seeds[bi][factor - 1]),
            seed=seeds[bi][factor - 1],
        )
        for bi, benchmark in enumerate(benchmarks)
        for factor in range(1, MAX_UNROLL + 1)
    ]
    report = _run_labelling_units(tasks, jobs, resilience, journal)
    event_rollup = next((r for r in rollups if r is not None), None)
    if event_rollup is not None:
        event_rollup.events.extend(report.events)
    return tuple(
        assembly.merge(
            {key: units[i] for key, units in report.results.items()},
            rollup,
            config.swp,
        )
        for i, (config, rollup) in enumerate(zip(configs, rollups))
    )


def measure_suite(
    suite: Suite,
    config: LabelingConfig = LabelingConfig(),
    jobs: int | None = None,
    rollup: MeasurementRollup | None = None,
    resilience: ResilienceConfig | None = None,
    journal: CheckpointJournal | None = None,
) -> MeasurementTable:
    """Steps 1-2 of the protocol over every loop in the suite.

    Args:
        suite: the benchmark suite to measure.
        config: labelling protocol knobs.
        jobs: worker processes to fan the work units over; ``None`` reads
            ``REPRO_JOBS`` and defaults to serial.  Results are
            bit-identical for every value of ``jobs``.
        rollup: optional sink for per-unit worker timings and resilience
            events (retries, timeouts, quarantines, pool failures).
        resilience: retry/timeout/quarantine policy for the work units.
        journal: checkpoint journal — completed units are committed to it
            and, after :meth:`~repro.resilience.CheckpointJournal.load`,
            replayed instead of re-measured, so a killed run resumes
            bit-identically to an uninterrupted one.
    """
    return _measure_regimes(suite, (config,), jobs, resilience, journal, (rollup,))[0]


def measure_suite_pair(
    suite: Suite,
    config: LabelingConfig = LabelingConfig(),
    jobs: int | None = None,
    rollup_off: MeasurementRollup | None = None,
    rollup_on: MeasurementRollup | None = None,
    resilience: ResilienceConfig | None = None,
    journal: CheckpointJournal | None = None,
) -> tuple[MeasurementTable, MeasurementTable]:
    """Measure both scheduling regimes, sharing the analysis stage.

    Returns ``(swp_off_table, swp_on_table)``, each bit-identical to a
    standalone :func:`measure_suite` run with the corresponding
    ``config.swp`` — but roughly twice as cheap: each work unit analyses
    its benchmark's loops once (unrolling, cleanup, dependence analysis
    and scheduler-table construction are all regime-independent), costs
    the SWP-off regime from those analyses, then the SWP-on regime, and
    drops them when it returns.  Fault tolerance matches
    :func:`measure_suite`: retries, quarantine, broken-pool fallback, and
    checkpoint/resume all operate on the paired unit, and each resilience
    event is reported once — on ``rollup_off`` when given, else on
    ``rollup_on``.
    """
    configs = (dataclasses.replace(config, swp=False), dataclasses.replace(config, swp=True))
    return _measure_regimes(
        suite, configs, jobs, resilience, journal, (rollup_off, rollup_on)
    )


def stats_from_table(table: MeasurementTable, config: LabelingConfig) -> LabelingStats:
    """Filter statistics for a measured table."""
    stats = LabelingStats(n_loops_total=len(table))
    long_enough = table.measured[:, 0] >= config.min_cycles
    best = table.measured.min(axis=1)
    informative = table.measured.mean(axis=1) / best >= config.min_benefit
    stats.n_below_cycle_floor = int(np.sum(~long_enough))
    stats.n_flat = int(np.sum(long_enough & ~informative))
    mask = long_enough & informative
    stats.n_labeled = int(mask.sum())
    labels = np.argmin(table.measured[mask], axis=1) + 1
    for label in labels:
        stats.labels_histogram[int(label)] = stats.labels_histogram.get(int(label), 0) + 1
    return stats


def label_suite(
    suite: Suite, config: LabelingConfig = LabelingConfig()
) -> tuple[LoopDataset, LabelingStats]:
    """The full protocol: measure, filter, label."""
    table = measure_suite(suite, config)
    stats = stats_from_table(table, config)
    dataset = table.to_dataset(config.min_cycles, config.min_benefit)
    return dataset, stats
