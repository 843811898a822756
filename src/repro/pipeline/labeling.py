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

Both fan-outs run on the fault-tolerant executor
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
from repro.instrument.report import DedupStats, MeasurementRollup, UnitTiming
from repro.ir.loop import Loop
from repro.ir.program import Benchmark, Suite
from repro.ir.types import MAX_UNROLL
from repro.machine.itanium2 import ITANIUM2
from repro.machine.model import MachineModel
from repro.ml.dataset import LoopDataset
from repro.pipeline.dedup import DedupIndex, build_dedup_index
from repro.pipeline.measurements import MeasurementTable
from repro.resilience.executor import (
    DEFAULT_RESILIENCE,
    ResilienceConfig,
    UnitTask,
    run_units,
)
from repro.resilience.journal import CheckpointJournal
from repro.simulate.executor import (
    AnalysisCache,
    CostModel,
    reset_shared_cost_models,
    shared_cost_model,
)
from repro.simulate.noise import DEFAULT_NOISE, NoiseModel


@dataclass(frozen=True)
class LabelingConfig:
    """Knobs of the labelling protocol (paper defaults).

    ``dedup`` switches the fan-out to content-addressed work units: one
    representative per cost-key equivalence class
    (:func:`repro.pipeline.dedup.build_dedup_index`) is measured across
    all factors and the per-entry sweep is fanned back out to every class
    member, replaying each (benchmark, factor) unit's own noise stream —
    the resulting tables are bit-identical to a dedup-off run, so
    ``dedup`` is excluded from the measurement cache key too.
    """

    seed: int = 20050320
    swp: bool = False
    machine: MachineModel = ITANIUM2
    noise: NoiseModel = DEFAULT_NOISE
    n_runs: int = 30
    min_cycles: float = 50_000.0
    min_benefit: float = 1.05
    dedup: bool = False


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
    """Output of one measurement work unit: every loop of one benchmark at
    one unroll factor, plus worker-attribution and analysis-cache traffic
    for the timing rollup."""

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


def _pair_to_json(pair: tuple[UnitResult, UnitResult]) -> dict:
    return {"off": unit_to_json(pair[0]), "on": unit_to_json(pair[1])}


def _pair_from_json(payload: dict) -> tuple[UnitResult, UnitResult]:
    return unit_from_json(payload["off"]), unit_from_json(payload["on"])


#: Engine of the dedup class sweeps: bit-identical to the per-unit "fast"
#: engine, and a sweep's ascending factor order is exactly what it exploits.
_CLASS_ENGINE = "incremental"


def measure_benchmark_factor(
    benchmark: Benchmark,
    bench_index: int,
    factor: int,
    config: LabelingConfig,
    seed: np.random.SeedSequence,
    cost_model: CostModel | None = None,
) -> UnitResult:
    """Execute one work unit (the parallel pipeline's worker entry point).

    Mirrors the paper's protocol at its natural granularity: one binary —
    every loop of ``benchmark`` compiled at ``factor`` — timed over
    ``config.n_runs`` runs.  The unit owns an RNG derived from its own seed
    child, so results are independent of which worker runs it and of the
    order units complete in.  The unit draws one ``(n_loops, n_runs)``
    sample batch per the noise module's stream contract.

    ``cost_model`` defaults to the process-wide shared ``"fast"`` model; any
    other engine (``CostModel(engine="reference")``, say) yields the same
    result bit for bit.
    """
    start = time.perf_counter()
    if cost_model is None:
        cost_model = shared_cost_model(config.machine, config.swp)
    cache = cost_model.analysis
    hits0, misses0 = cache.hits, cache.misses
    rng = np.random.default_rng(seed)
    n = benchmark.n_loops
    true = np.empty(n)
    entry_counts = np.empty(n, dtype=np.int64)
    for i, loop in enumerate(benchmark.loops):
        true[i] = cost_model.loop_cost(loop, factor).total_cycles
        entry_counts[i] = loop.entry_count
    measured = config.noise.batch_medians(true, entry_counts, rng, n=config.n_runs)
    return UnitResult(
        bench_index=bench_index,
        factor=factor,
        measured=measured,
        true_cycles=true,
        worker=os.getpid(),
        seconds=time.perf_counter() - start,
        analysis_hits=cache.hits - hits0,
        analysis_misses=cache.misses - misses0,
    )


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

    The SWP-off and SWP-on regimes share every analysis (unroll, cleanup,
    dependences, scheduler tables): running them in one unit keeps the
    shared :class:`~repro.simulate.executor.AnalysisCache` working set down
    to a single benchmark's loops, so the second regime's analyses are all
    hits.  Each regime's RNG is rebuilt from the same seed child, making
    the pair bit-identical to two independent single-regime runs.
    """
    if cost_models is None:
        cost_models = (
            shared_cost_model(config_off.machine, config_off.swp),
            shared_cost_model(config_on.machine, config_on.swp),
        )
    off = measure_benchmark_factor(
        benchmark, bench_index, factor, config_off, seed, cost_models[0]
    )
    on = measure_benchmark_factor(
        benchmark, bench_index, factor, config_on, seed, cost_models[1]
    )
    return off, on


@dataclass(frozen=True)
class ClassUnitResult:
    """Output of one dedup work unit: the representative loop of one
    cost-key equivalence class swept across every unroll factor.

    ``per_entry`` holds noise-free cycles per loop entry (factor 1..8);
    totals and measurement noise are reconstructed per member during
    fan-out.  The incremental counters report how much cross-factor
    analysis the sweep reused."""

    class_key: str
    per_entry: np.ndarray  # (MAX_UNROLL,) noise-free cycles per entry
    worker: int
    seconds: float
    analysis_hits: int = 0
    analysis_misses: int = 0
    incremental_hits: int = 0
    incremental_misses: int = 0


def class_unit_to_json(unit: ClassUnitResult) -> dict:
    """A :class:`ClassUnitResult` as a JSON-safe dict (journal payload).

    The equivalence-class key rides along explicitly (it is also the
    journal label), so a resumed dedup run can neither re-measure a
    completed class nor fan a payload out to the wrong members.
    """
    return {
        "class_key": unit.class_key,
        "per_entry": [float(v) for v in unit.per_entry],
        "worker": unit.worker,
        "seconds": unit.seconds,
        "analysis_hits": unit.analysis_hits,
        "analysis_misses": unit.analysis_misses,
        "incremental_hits": unit.incremental_hits,
        "incremental_misses": unit.incremental_misses,
    }


def class_unit_from_json(payload: dict) -> ClassUnitResult:
    """Inverse of :func:`class_unit_to_json`."""
    return ClassUnitResult(
        class_key=str(payload["class_key"]),
        per_entry=np.asarray(payload["per_entry"], dtype=np.float64),
        worker=int(payload["worker"]),
        seconds=float(payload["seconds"]),
        analysis_hits=int(payload["analysis_hits"]),
        analysis_misses=int(payload["analysis_misses"]),
        incremental_hits=int(payload["incremental_hits"]),
        incremental_misses=int(payload["incremental_misses"]),
    )


def _class_pair_to_json(pair: tuple[ClassUnitResult, ClassUnitResult]) -> dict:
    return {"off": class_unit_to_json(pair[0]), "on": class_unit_to_json(pair[1])}


def _class_pair_from_json(payload: dict) -> tuple[ClassUnitResult, ClassUnitResult]:
    return class_unit_from_json(payload["off"]), class_unit_from_json(payload["on"])


def measure_class(
    loop: Loop,
    class_key: str,
    config: LabelingConfig,
    cost_model: CostModel | None = None,
) -> ClassUnitResult:
    """Execute one dedup work unit: sweep the class representative across
    factors 1..8 and return the noise-free per-entry cycle vector.

    Noise is deliberately absent here — each *member's* measurement noise
    is replayed during fan-out from that member's own (benchmark, factor)
    seed child, so the assembled table is bit-identical to a dedup-off
    run regardless of how loops were grouped into classes.
    """
    start = time.perf_counter()
    if cost_model is None:
        cost_model = shared_cost_model(config.machine, config.swp, _CLASS_ENGINE)
    cache = cost_model.analysis
    hits0, misses0 = cache.hits, cache.misses
    inc_hits0 = cost_model.incremental_hits
    inc_misses0 = cost_model.incremental_misses
    per_entry = np.empty(MAX_UNROLL)
    for factor in range(1, MAX_UNROLL + 1):
        per_entry[factor - 1] = cost_model.loop_cost(loop, factor).per_entry_cycles
    return ClassUnitResult(
        class_key=class_key,
        per_entry=per_entry,
        worker=os.getpid(),
        seconds=time.perf_counter() - start,
        analysis_hits=cache.hits - hits0,
        analysis_misses=cache.misses - misses0,
        incremental_hits=cost_model.incremental_hits - inc_hits0,
        incremental_misses=cost_model.incremental_misses - inc_misses0,
    )


def measure_class_pair(
    loop: Loop,
    class_key: str,
    config_off: LabelingConfig,
    config_on: LabelingConfig,
    cost_models: tuple[CostModel, CostModel] | None = None,
) -> tuple[ClassUnitResult, ClassUnitResult]:
    """One dedup work unit swept in both scheduling regimes back to back
    (the class-level analogue of :func:`measure_benchmark_factor_pair`)."""
    if cost_models is None:
        cost_models = (
            shared_cost_model(config_off.machine, config_off.swp, _CLASS_ENGINE),
            shared_cost_model(config_on.machine, config_on.swp, _CLASS_ENGINE),
        )
    off = measure_class(loop, class_key, config_off, cost_models[0])
    on = measure_class(loop, class_key, config_on, cost_models[1])
    return off, on


def _run_labelling_units(tasks, jobs, resilience, journal, encode, decode):
    """:func:`run_units` for one labelling run, with the cyclic garbage
    collector paused.

    Labelling creates no reference cycles, so every collection during a
    run is pure cost: it walks the growing heap of live analyses and finds
    nothing.  The pause covers the whole run, not each unit (re-enabling
    between units still triggers most of the collections), and sits here
    in the ``measure_suite*`` path rather than in ``run_units``, which
    other callers run from threads.  The caller's collector state is
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
            encode=encode,
            decode=decode,
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
    """Static (factor-independent) columns plus the deterministic merge.

    The parent process extracts features and provenance once; work units
    only produce per-factor timings, which :meth:`merge` lands by
    (benchmark, factor) index — so the assembled table is bit-identical
    however the units were scheduled.  A quarantined unit (one that failed
    every retry) leaves NaN in its (benchmark, factor) cells: the run
    degrades to a table with holes instead of aborting, and the labelling
    filters naturally drop the affected loops."""

    def __init__(self, suite: Suite, config: LabelingConfig):
        n = suite.n_loops
        self.benchmarks = suite.benchmarks
        self.X = np.empty((n, 38))
        self.measured = np.empty((n, MAX_UNROLL))
        self.true = np.empty((n, MAX_UNROLL))
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
                self.X[row] = extract_features(loop, config.machine)
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
        for bi, benchmark in enumerate(self.benchmarks):
            lo = self.row_starts[bi]
            hi = lo + benchmark.n_loops
            for factor in range(1, MAX_UNROLL + 1):
                unit = results.get((bi, factor))
                if unit is None:  # quarantined after exhausting retries
                    self.measured[lo:hi, factor - 1] = np.nan
                    self.true[lo:hi, factor - 1] = np.nan
                    continue
                self.measured[lo:hi, factor - 1] = unit.measured
                self.true[lo:hi, factor - 1] = unit.true_cycles
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
            X=self.X,
            measured=self.measured,
            true_cycles=self.true,
            loop_names=np.array(self.names),
            benchmarks=np.array(self.benchs),
            suites=np.array(self.suites),
            languages=np.array(self.langs),
            entry_counts=self.entries,
            swp=swp,
        )


def _bind_serial(benchmark, bi, factor, config, seed, cost_model):
    """Serial-path closure over the run-wide private cost model (not
    picklable, and must not be: only the serial executor calls it)."""
    return lambda: measure_benchmark_factor(
        benchmark, bi, factor, config, seed, cost_model
    )


def _bind_serial_class(loop, class_key, config, cost_model):
    return lambda: measure_class(loop, class_key, config, cost_model)


def _bind_serial_class_pair(loop, class_key, config_off, config_on, models):
    return lambda: measure_class_pair(loop, class_key, config_off, config_on, models)


def _fan_out(
    suite: Suite,
    config: LabelingConfig,
    index: DedupIndex,
    class_results: dict[int, ClassUnitResult],
    seeds: list[list[np.random.SeedSequence]],
) -> dict[tuple[int, int], UnitResult]:
    """Expand class sweeps into synthetic per-(benchmark, factor) units.

    Each member row's true cycles are ``per_entry * entry_count`` — the
    exact multiply the cost model performs — and each (benchmark, factor)
    unit's noise stream is replayed from its own seed child exactly as
    :func:`measure_benchmark_factor` would consume it, so the merge below
    is bit-identical to a dedup-off run.  A quarantined class leaves NaN
    in its members' true cycles; the noise contract propagates the NaN
    per row without disturbing the other rows' draws.
    """
    results: dict[tuple[int, int], UnitResult] = {}
    for bi, benchmark in enumerate(suite.benchmarks):
        n = benchmark.n_loops
        entry_counts = np.array(
            [loop.entry_count for loop in benchmark.loops], dtype=np.int64
        )
        class_ids = [index.class_of[(bi, li)] for li in range(n)]
        for factor in range(1, MAX_UNROLL + 1):
            true = np.empty(n)
            for i, ci in enumerate(class_ids):
                unit = class_results.get(ci)
                if unit is None:  # the class was quarantined
                    true[i] = np.nan
                else:
                    true[i] = unit.per_entry[factor - 1] * entry_counts[i]
            rng = np.random.default_rng(seeds[bi][factor - 1])
            measured = config.noise.batch_medians(
                true, entry_counts, rng, n=config.n_runs
            )
            results[(bi, factor)] = UnitResult(
                bench_index=bi,
                factor=factor,
                measured=measured,
                true_cycles=true,
                worker=0,
                seconds=0.0,
            )
    return results


def _record_class_timings(
    rollup: MeasurementRollup,
    index: DedupIndex,
    class_results: dict[int, ClassUnitResult],
) -> None:
    """Class sweeps are the real work units of a dedup run, so they — not
    the synthetic fan-out units — carry the timings (factor 0 marks a
    whole-sweep unit; ``n_loops`` counts the members served)."""
    for ci, cls in enumerate(index.classes):
        unit = class_results.get(ci)
        if unit is None:
            continue
        rollup.record(
            UnitTiming(
                benchmark=f"class:{cls.key[:12]}",
                factor=0,
                worker=unit.worker,
                n_loops=len(cls.members),
                seconds=unit.seconds,
                analysis_hits=unit.analysis_hits,
                analysis_misses=unit.analysis_misses,
            )
        )


def _dedup_stats(index: DedupIndex, units) -> DedupStats:
    """The index's static statistics plus the run's incremental counters."""
    return dataclasses.replace(
        index.stats,
        incremental_hits=sum(u.incremental_hits for u in units),
        incremental_misses=sum(u.incremental_misses for u in units),
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
            bit-identically to an uninterrupted one.  Dedup runs use
            class-key labels, so a journal never mixes the two unit shapes.
    """
    if config.dedup:
        return _measure_suite_dedup(suite, config, jobs, rollup, resilience, journal)
    jobs = resolve_jobs(jobs)
    benchmarks = suite.benchmarks
    assembly = _TableAssembly(suite, config)
    seeds = _unit_seeds(config.seed, len(benchmarks))
    # Serial runs share one private cost model across all units so the
    # analysis caches amortise across factors (pool workers get the same
    # effect from their process-local shared models).
    cost_model = (
        CostModel(machine=config.machine, swp=config.swp)
        if jobs == 1
        else None
    )
    tasks = [
        UnitTask(
            key=(bi, factor),
            label=f"{benchmark.name}:u{factor}",
            fn=measure_benchmark_factor,
            args=(benchmark, bi, factor, config, seeds[bi][factor - 1]),
            seed=seeds[bi][factor - 1],
            serial_call=(
                None
                if cost_model is None
                else _bind_serial(benchmark, bi, factor, config,
                                  seeds[bi][factor - 1], cost_model)
            ),
        )
        for bi, benchmark in enumerate(benchmarks)
        for factor in range(1, MAX_UNROLL + 1)
    ]
    report = _run_labelling_units(
        tasks, jobs, resilience, journal, unit_to_json, unit_from_json
    )
    if rollup is not None:
        rollup.events.extend(report.events)
    return assembly.merge(report.results, rollup, config.swp)


def _measure_suite_dedup(
    suite: Suite,
    config: LabelingConfig,
    jobs: int | None,
    rollup: MeasurementRollup | None,
    resilience: ResilienceConfig | None,
    journal: CheckpointJournal | None,
) -> MeasurementTable:
    """Dedup-enabled :func:`measure_suite`: one work unit per cost-key
    class, fanned back out to every member before the deterministic merge.
    Bit-identical to the dedup-off path for every ``jobs`` value."""
    jobs = resolve_jobs(jobs)
    index = build_dedup_index(suite, machine=config.machine)
    assembly = _TableAssembly(suite, config)
    seeds = _unit_seeds(config.seed, len(suite.benchmarks))
    cost_model = (
        CostModel(machine=config.machine, swp=config.swp, engine=_CLASS_ENGINE)
        if jobs == 1
        else None
    )
    tasks = [
        UnitTask(
            key=ci,
            label=f"class:{cls.key}",
            fn=measure_class,
            args=(index.representative_loop(suite, ci), cls.key, config),
            serial_call=(
                None
                if cost_model is None
                else _bind_serial_class(
                    index.representative_loop(suite, ci), cls.key, config, cost_model
                )
            ),
        )
        for ci, cls in enumerate(index.classes)
    ]
    report = _run_labelling_units(
        tasks, jobs, resilience, journal, class_unit_to_json, class_unit_from_json
    )
    results = _fan_out(suite, config, index, report.results, seeds)
    if rollup is not None:
        rollup.events.extend(report.events)
        _record_class_timings(rollup, index, report.results)
        rollup.dedup = _dedup_stats(index, report.results.values())
    return assembly.merge(results, None, config.swp)


def _bind_serial_pair(benchmark, bi, factor, config_off, config_on, seed, models):
    return lambda: measure_benchmark_factor_pair(
        benchmark, bi, factor, config_off, config_on, seed, models
    )


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
    ``config.swp`` — but roughly twice as cheap, because each work unit
    runs the two regimes back to back against one shared
    :class:`~repro.simulate.executor.AnalysisCache`, and unrolling,
    cleanup, dependence analysis, and scheduler-table construction are all
    regime-independent.  Fault tolerance matches :func:`measure_suite`:
    retries, quarantine, broken-pool fallback, and checkpoint/resume all
    operate on the paired unit, and each resilience event is reported once
    — on ``rollup_off`` when given, else on ``rollup_on``.
    """
    if config.dedup:
        return _measure_suite_pair_dedup(
            suite, config, jobs, rollup_off, rollup_on, resilience, journal
        )
    jobs = resolve_jobs(jobs)
    benchmarks = suite.benchmarks
    config_off = dataclasses.replace(config, swp=False)
    config_on = dataclasses.replace(config, swp=True)
    assembly_off = _TableAssembly(suite, config_off)
    assembly_on = _TableAssembly(suite, config_on)
    seeds = _unit_seeds(config.seed, len(benchmarks))
    if jobs == 1:
        shared = AnalysisCache()
        cost_models = (
            CostModel(machine=config.machine, swp=False, analysis=shared),
            CostModel(machine=config.machine, swp=True, analysis=shared),
        )
    else:
        cost_models = None
    tasks = [
        UnitTask(
            key=(bi, factor),
            label=f"{benchmark.name}:u{factor}",
            fn=measure_benchmark_factor_pair,
            args=(benchmark, bi, factor, config_off, config_on,
                  seeds[bi][factor - 1]),
            seed=seeds[bi][factor - 1],
            serial_call=(
                None
                if cost_models is None
                else _bind_serial_pair(benchmark, bi, factor, config_off,
                                       config_on, seeds[bi][factor - 1],
                                       cost_models)
            ),
        )
        for bi, benchmark in enumerate(benchmarks)
        for factor in range(1, MAX_UNROLL + 1)
    ]
    report = _run_labelling_units(
        tasks, jobs, resilience, journal, _pair_to_json, _pair_from_json
    )
    results_off = {key: pair[0] for key, pair in report.results.items()}
    results_on = {key: pair[1] for key, pair in report.results.items()}
    # Each work unit runs both regimes, so every resilience event belongs
    # to the pair, not to a regime.  Attach the events to exactly one
    # rollup (the first one given) so that a caller aggregating or
    # printing both never counts a recovery action twice.
    event_rollup = rollup_off if rollup_off is not None else rollup_on
    if event_rollup is not None:
        event_rollup.events.extend(report.events)
    return (
        assembly_off.merge(results_off, rollup_off, False),
        assembly_on.merge(results_on, rollup_on, True),
    )


def _measure_suite_pair_dedup(
    suite: Suite,
    config: LabelingConfig,
    jobs: int | None,
    rollup_off: MeasurementRollup | None,
    rollup_on: MeasurementRollup | None,
    resilience: ResilienceConfig | None,
    journal: CheckpointJournal | None,
) -> tuple[MeasurementTable, MeasurementTable]:
    """Dedup-enabled :func:`measure_suite_pair`: one paired class sweep
    per cost-key class, both regimes sharing one analysis cache, fanned
    back out per regime.  Each rollup receives its own regime's class
    timings and dedup statistics; resilience events are reported once."""
    jobs = resolve_jobs(jobs)
    config_off = dataclasses.replace(config, swp=False)
    config_on = dataclasses.replace(config, swp=True)
    index = build_dedup_index(suite, machine=config.machine)
    assembly_off = _TableAssembly(suite, config_off)
    assembly_on = _TableAssembly(suite, config_on)
    seeds = _unit_seeds(config.seed, len(suite.benchmarks))
    if jobs == 1:
        shared = AnalysisCache()
        cost_models = (
            CostModel(machine=config.machine, swp=False, analysis=shared,
                      engine=_CLASS_ENGINE),
            CostModel(machine=config.machine, swp=True, analysis=shared,
                      engine=_CLASS_ENGINE),
        )
    else:
        cost_models = None
    tasks = [
        UnitTask(
            key=ci,
            label=f"class:{cls.key}",
            fn=measure_class_pair,
            args=(
                index.representative_loop(suite, ci),
                cls.key,
                config_off,
                config_on,
            ),
            serial_call=(
                None
                if cost_models is None
                else _bind_serial_class_pair(
                    index.representative_loop(suite, ci), cls.key,
                    config_off, config_on, cost_models
                )
            ),
        )
        for ci, cls in enumerate(index.classes)
    ]
    report = _run_labelling_units(
        tasks, jobs, resilience, journal, _class_pair_to_json, _class_pair_from_json
    )
    class_off = {ci: pair[0] for ci, pair in report.results.items()}
    class_on = {ci: pair[1] for ci, pair in report.results.items()}
    results_off = _fan_out(suite, config_off, index, class_off, seeds)
    results_on = _fan_out(suite, config_on, index, class_on, seeds)
    event_rollup = rollup_off if rollup_off is not None else rollup_on
    if event_rollup is not None:
        event_rollup.events.extend(report.events)
    if rollup_off is not None:
        _record_class_timings(rollup_off, index, class_off)
        rollup_off.dedup = _dedup_stats(index, class_off.values())
    if rollup_on is not None:
        _record_class_timings(rollup_on, index, class_on)
        rollup_on.dedup = _dedup_stats(index, class_on.values())
    return (
        assembly_off.merge(results_off, None, False),
        assembly_on.merge(results_on, None, True),
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
