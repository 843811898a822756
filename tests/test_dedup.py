"""Content-addressed measurement dedup and the incremental engine.

Three layers of guarantees, each with its own tier here:

* **Canonical keys** (property tests): alpha-renaming of registers and
  arrays, benign statement reordering, and uniform even offset shifts all
  preserve the keys; semantic perturbations (opcode, memref stride or
  offset parity, trip count) change them; canonicalization is idempotent
  and the keys are stable across processes.
* **Differential bit-identity**: measuring with ``dedup=True`` (one
  representative per cost-key class, fanned back out to every member) and
  measuring with the incremental engine both produce tables byte-identical
  to the plain paths, across seeds, scales, both SWP regimes, and job
  counts.
* **The dedup plan**: the index is a pure function of the suite, merges
  real duplicates, confines quarantine NaN holes to the class's members,
  and reports honest statistics (including the optional LSH diagnostics).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.instrument import DedupStats, MeasurementRollup
from repro.ir.builder import LoopBuilder
from repro.ir.canonical import (
    canonical_form,
    canonical_key,
    canonicalize,
    cost_key,
    structural_key,
)
from repro.ir.loop import TripInfo
from repro.ir.program import Suite
from repro.ir.types import MAX_UNROLL, Opcode
from repro.ir.values import Reg
from repro.machine.itanium2 import ITANIUM2
from repro.pipeline import (
    LabelingConfig,
    build_dedup_index,
    lsh_candidate_pairs,
    measure_benchmark_factor,
    measure_class,
    measure_suite,
    measure_suite_pair,
)
from repro.resilience import FaultPlan, FaultRule, ResilienceConfig, RetryPolicy, fault_plan
from repro.simulate import CostModel
from repro.simulate.noise import NoiseModel
from repro.workloads.generator import generate_benchmark
from repro.workloads.spec_names import ROSTER
from tests.strategies import (
    assert_tables_bit_identical,
    awkward_trip_loops,
    early_exit_loops,
    measurement_tables,
    predicated_loops,
    random_loops,
)

QUIET = NoiseModel(sigma=0.01, outlier_rate=0.0, counter_overhead=5)
FAST = ResilienceConfig(
    retry=RetryPolicy(max_attempts=3, base_delay_s=0.001, max_delay_s=0.005)
)


def make_suite(seed: int, scale: float = 0.04, picks: tuple[int, ...] = (1, 0)) -> Suite:
    infos = [ROSTER[i] for i in picks]
    seeds = np.random.SeedSequence(seed).spawn(len(infos))
    benchmarks = tuple(
        generate_benchmark(info, np.random.default_rng(child), loops_scale=scale)
        for info, child in zip(infos, seeds)
    )
    return Suite(name=f"dedup{seed}", benchmarks=benchmarks)


def make_config(seed: int, **overrides) -> LabelingConfig:
    return LabelingConfig(seed=seed, noise=QUIET, n_runs=3, **overrides)


@functools.lru_cache(maxsize=None)
def plain_pair(seed: int, scale: float):
    """Serial, dedup-off, fast-engine baseline for one (seed, scale).

    Cached because several differential tests compare against the same
    baseline; the baseline itself is jobs-invariant (pinned separately by
    the resilience suite), so dedup/incremental runs at any job count may
    be compared against this serial table.
    """
    suite = make_suite(seed, scale)
    off, on = measure_suite_pair(suite, make_config(seed))
    return suite, off, on


@pytest.fixture(scope="module")
def dup_suite() -> Suite:
    """A suite with guaranteed cross-benchmark duplicates: one benchmark
    plus a clone of it under another name."""
    base = make_suite(91, scale=0.05, picks=(1,))
    bench = base.benchmarks[0]
    clone = dataclasses.replace(bench, name=f"{bench.name}-clone")
    return Suite(name="dup", benchmarks=(bench, clone))


def _flat_row(suite: Suite, coord: tuple[int, int]) -> int:
    bi, li = coord
    return sum(bench.n_loops for bench in suite.benchmarks[:bi]) + li


# ---------------------------------------------------------------------------
# The bit-identity helper itself.
# ---------------------------------------------------------------------------


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

    def test_nan_holes_must_match_positionally(self):
        base = make_suite(3, 0.04)
        table = measure_suite(base, make_config(3))
        holed = table.measured.copy()
        holed[0, 0] = np.nan
        other = dataclasses.replace(table, measured=holed)
        assert_tables_bit_identical(other, dataclasses.replace(other))
        with pytest.raises(AssertionError):
            assert_tables_bit_identical(table, other)


# ---------------------------------------------------------------------------
# Canonical-key properties.
# ---------------------------------------------------------------------------


def _daxpy(op: Opcode = Opcode.FMUL, stride: int = 1, offset: int = 0, trip: int = 96):
    builder = LoopBuilder("t/daxpy", trip=TripInfo(runtime=trip))
    x = builder.load("x", stride=stride, offset=offset)
    y = builder.load("y")
    builder.store(builder.fp(op, x, y), "y")
    return builder.build()


def _two_strands(a_first: bool, arrays: tuple[str, str, str, str] = ("a", "b", "c", "d")):
    """Two independent strands, emitted in either order: the orders are
    benign reorderings of one another (and, with different array name
    tuples, alpha-renamings too — register names also shift with order)."""
    src_a, dst_a, src_b, dst_b = arrays
    builder = LoopBuilder("t/strands", trip=TripInfo(runtime=64))

    def strand_a():
        value = builder.load(src_a)
        builder.store(builder.fp(Opcode.FADD, value, builder.fconst(1.0)), dst_a)

    def strand_b():
        value = builder.load(src_b)
        builder.store(builder.fp(Opcode.FMUL, value, builder.fconst(2.0)), dst_b)

    strand_a() if a_first else strand_b()
    strand_b() if a_first else strand_a()
    return builder.build()


def _all_regs(loop):
    regs = {}
    for inst in loop.body:
        for reg in (inst.dest, inst.dest2, inst.pred):
            if reg is not None:
                regs[reg] = None
        for src in inst.srcs:
            if isinstance(src, Reg):
                regs[src] = None
        if inst.mem is not None and inst.mem.index_reg is not None:
            regs[inst.mem.index_reg] = None
    return list(regs)


class TestCanonicalKeys:
    @given(loop=random_loops())
    @settings(max_examples=25, deadline=None)
    def test_register_renaming_preserves_every_key(self, loop):
        mapping = {
            reg: Reg(f"zz{i}", reg.dtype) for i, reg in enumerate(_all_regs(loop))
        }
        renamed = loop.with_body(
            tuple(inst.rewritten(mapping, mapping) for inst in loop.body)
        )
        assert canonical_form(renamed) == canonical_form(loop)

    def test_benign_reordering_and_array_renaming_share_a_key(self):
        ab = _two_strands(a_first=True)
        ba = _two_strands(a_first=False)
        renamed = _two_strands(a_first=False, arrays=("p", "q", "r", "s"))
        for other in (ba, renamed):
            assert structural_key(other) == structural_key(ab)
            assert canonical_key(other) == canonical_key(ab)

    def test_uniform_even_offset_shift_is_normalized_away(self):
        assert canonical_form(_daxpy(offset=2)) == canonical_form(_daxpy(offset=0))

    def test_semantic_perturbations_change_the_keys(self):
        base = _daxpy()
        for perturbed in (
            _daxpy(op=Opcode.FADD),  # different operation
            _daxpy(stride=2),  # different memref stride
            _daxpy(offset=1),  # odd offset: a real dependence change
        ):
            assert cost_key(perturbed) != cost_key(base)
            assert structural_key(perturbed) != structural_key(base)
            assert canonical_key(perturbed) != canonical_key(base)

    @given(loop=random_loops(), trip=st.integers(min_value=1, max_value=4096))
    @settings(max_examples=25, deadline=None)
    def test_trip_count_splits_canonical_but_not_structural(self, loop, trip):
        other = dataclasses.replace(loop, trip=TripInfo(runtime=trip))
        assert structural_key(other) == structural_key(loop)
        same_trip = other.trip == loop.trip
        assert (canonical_key(other) == canonical_key(loop)) == same_trip
        assert (cost_key(other) == cost_key(loop)) == same_trip

    @given(loop=random_loops())
    @settings(max_examples=25, deadline=None)
    def test_canonicalize_is_idempotent_and_key_preserving(self, loop):
        canon = canonicalize(loop)
        assert structural_key(canon) == structural_key(loop)
        assert canonical_key(canon) == canonical_key(loop)
        again = canonicalize(canon)
        assert canonical_form(again) == canonical_form(canon)
        assert cost_key(again) == cost_key(canon)  # a true fixed point

    def test_keys_are_stable_across_processes(self):
        loop = _daxpy()
        form = canonical_form(loop)
        script = (
            "from repro.ir.builder import LoopBuilder\n"
            "from repro.ir.loop import TripInfo\n"
            "from repro.ir.types import Opcode\n"
            "from repro.ir.canonical import canonical_form\n"
            "b = LoopBuilder('t/daxpy', trip=TripInfo(runtime=96))\n"
            "x = b.load('x')\n"
            "y = b.load('y')\n"
            "b.store(b.fp(Opcode.FMUL, x, y), 'y')\n"
            "f = canonical_form(b.build())\n"
            "print(f.cost_key, f.structural_key, f.canonical_key)\n"
        )
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.split() == [
            form.cost_key,
            form.structural_key,
            form.canonical_key,
        ]


# ---------------------------------------------------------------------------
# Incremental engine == reference engine, factor by factor.
# ---------------------------------------------------------------------------


def _assert_engines_agree(loop, evict_at: int | None = None):
    for swp in (False, True):
        reference = CostModel(machine=ITANIUM2, swp=swp, engine="reference")
        incremental = CostModel(machine=ITANIUM2, swp=swp, engine="incremental")
        for factor in range(1, MAX_UNROLL + 1):
            if factor == evict_at:
                # Mid-sequence eviction: the engine must rebuild, not
                # assume factor f-1 state is still resident.
                incremental.analysis.clear()
                incremental._stores.clear()
            got = incremental.loop_cost(loop, factor)
            want = reference.loop_cost(loop, factor)
            assert got == want, f"swp={swp} factor={factor}: {got} != {want}"


class TestIncrementalEngine:
    @given(loop=predicated_loops())
    @settings(max_examples=10, deadline=None)
    def test_predicated_loops(self, loop):
        _assert_engines_agree(loop)

    @given(pair=early_exit_loops())
    @settings(max_examples=10, deadline=None)
    def test_early_exit_loops(self, pair):
        _assert_engines_agree(pair[0])

    @given(pair=awkward_trip_loops(), evict_at=st.integers(min_value=2, max_value=MAX_UNROLL))
    @settings(max_examples=10, deadline=None)
    def test_awkward_trips_survive_mid_sequence_eviction(self, pair, evict_at):
        _assert_engines_agree(pair[0], evict_at=evict_at)

    @given(loop=random_loops(), evict_at=st.integers(min_value=2, max_value=MAX_UNROLL))
    @settings(max_examples=10, deadline=None)
    def test_random_loops_survive_mid_sequence_eviction(self, loop, evict_at):
        _assert_engines_agree(loop, evict_at=evict_at)


# ---------------------------------------------------------------------------
# Differential bit-identity at the pipeline level.
# ---------------------------------------------------------------------------


class TestDifferentialMeasurement:
    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("seed,scale", [(3, 0.04), (17, 0.08)])
    def test_dedup_pair_is_bit_identical(self, seed, scale, jobs):
        suite, off, on = plain_pair(seed, scale)
        config = make_config(seed, dedup=True)
        dedup_off, dedup_on = measure_suite_pair(suite, config, jobs=jobs)
        assert_tables_bit_identical(dedup_off, off)
        assert_tables_bit_identical(dedup_on, on)

    @pytest.mark.parametrize("swp", [False, True])
    def test_dedup_single_regime_is_bit_identical(self, swp):
        suite, off, on = plain_pair(3, 0.04)
        table = measure_suite(suite, make_config(3, swp=swp, dedup=True))
        assert_tables_bit_identical(table, on if swp else off)

    @pytest.mark.parametrize("swp", [False, True])
    def test_incremental_and_reference_match_the_fast_engine(self, swp):
        suite, off, on = plain_pair(3, 0.04)
        config = make_config(3, swp=swp)
        for engine in ("reference", "incremental"):
            _assert_units_match(
                suite, config, on if swp else off, CostModel(swp=swp, engine=engine)
            )

    def test_dedup_composes_with_the_incremental_and_reference_engines(self):
        suite, off, _ = plain_pair(3, 0.04)
        config = make_config(3, dedup=True)
        assert_tables_bit_identical(measure_suite(suite, config), off)
        # The class sweeps run on the incremental engine; each one must
        # equal the from-scratch reference sweep of the same representative.
        index = build_dedup_index(suite, machine=ITANIUM2)
        for ci, cls in enumerate(index.classes):
            loop = index.representative_loop(suite, ci)
            incremental = measure_class(
                loop, cls.key, config, CostModel(engine="incremental")
            )
            reference = measure_class(loop, cls.key, config, CostModel(engine="reference"))
            np.testing.assert_array_equal(incremental.per_entry, reference.per_entry)
        _assert_units_match(suite, config, off, CostModel(engine="reference"))


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


# ---------------------------------------------------------------------------
# The dedup plan: merges, statistics, rollup wiring, quarantine.
# ---------------------------------------------------------------------------


class TestDedupIndex:
    def test_index_is_a_pure_function_of_the_suite(self):
        suite = make_suite(3, 0.04)
        first = build_dedup_index(suite)
        second = build_dedup_index(suite)
        assert first.classes == second.classes
        assert first.class_of == second.class_of
        assert first.stats == second.stats

    def test_classes_partition_the_suite(self):
        suite = make_suite(17, 0.08)
        index = build_dedup_index(suite)
        coords = [
            (bi, li)
            for bi, bench in enumerate(suite.benchmarks)
            for li in range(bench.n_loops)
        ]
        members = [coord for cls in index.classes for coord in cls.members]
        assert sorted(members) == coords
        assert set(index.class_of) == set(coords)
        for ci, cls in enumerate(index.classes):
            assert cls.representative == cls.members[0]
            rep = index.representative_loop(suite, ci)
            assert cost_key(rep) == cls.key
            for coord in cls.members:
                assert index.class_of[coord] == ci
        assert index.stats.n_loops == suite.n_loops
        assert index.stats.cost_merges == suite.n_loops - len(index.classes)

    def test_empty_suite(self):
        index = build_dedup_index(Suite(name="empty"), use_lsh=True)
        assert index.classes == ()
        assert index.stats == DedupStats(
            n_loops=0,
            n_cost_classes=0,
            n_structural_classes=0,
            class_merges=0,
            cost_merges=0,
        )

    def test_duplicates_merge_and_measurement_stays_bit_identical(self, dup_suite):
        index = build_dedup_index(dup_suite)
        n_dupes = dup_suite.benchmarks[0].n_loops
        assert index.stats.cost_merges == n_dupes
        assert index.stats.class_merges >= n_dupes
        assert all(len(cls.members) >= 2 for cls in index.classes)

        plain = measure_suite(dup_suite, make_config(5))
        rollup = MeasurementRollup()
        table = measure_suite(dup_suite, make_config(5, dedup=True), rollup=rollup)
        assert_tables_bit_identical(table, plain)

        # The rollup carries the dedup statistics and per-class timings.
        assert rollup.dedup is not None
        assert rollup.dedup.n_loops == dup_suite.n_loops
        assert rollup.dedup.cost_merges == n_dupes
        assert rollup.dedup.incremental_hits + rollup.dedup.incremental_misses > 0
        assert 0.0 <= rollup.dedup.incremental_hit_rate() <= 1.0
        assert rollup.n_units == len(index.classes)
        assert all(t.benchmark.startswith("class:") for t in rollup.timings)
        assert "dedup:" in rollup.summary()
        assert "dedup:" in rollup.dedup.summary()

    def test_quarantined_class_holes_cover_exactly_its_members(self, dup_suite):
        index = build_dedup_index(dup_suite)
        cls = index.classes[0]
        plan = FaultPlan(
            rules=(FaultRule(op="unit.error", match=f"class:{cls.key}#*", times=0),)
        )
        rollup = MeasurementRollup()
        with fault_plan(plan):
            table = measure_suite(
                dup_suite, make_config(5, dedup=True), rollup=rollup, resilience=FAST
            )
        assert rollup.quarantined_units() == [f"class:{cls.key}"]
        rows = [_flat_row(dup_suite, coord) for coord in cls.members]
        assert len(rows) >= 2  # the hole fans out to every member
        assert np.isnan(table.measured[rows]).all()
        assert np.isnan(table.true_cycles[rows]).all()
        # Every other row is untouched, bit for bit.
        plain = measure_suite(dup_suite, make_config(5))
        mask = ~np.isnan(table.measured)
        assert np.array_equal(table.measured[mask], plain.measured[mask])


class TestLSHDiagnostics:
    def test_candidate_pairs_are_ordered_flat_indices(self, dup_suite):
        pairs = lsh_candidate_pairs(dup_suite)
        n = dup_suite.n_loops
        assert all(0 <= a < b < n for a, b in pairs)

    def test_singleton_buckets_produce_no_pairs(self):
        # A one-loop suite can only hash into singleton buckets, which are
        # skipped during pair enumeration.
        suite = Suite(
            name="solo",
            benchmarks=(
                dataclasses.replace(
                    make_suite(7, 0.04, picks=(0,)).benchmarks[0],
                    loops=make_suite(7, 0.04, picks=(0,)).benchmarks[0].loops[:1],
                ),
            ),
        )
        assert suite.n_loops == 1
        assert lsh_candidate_pairs(suite) == set()

    def test_exact_duplicates_are_flagged_and_confirmed(self, dup_suite):
        # Identical loops have identical feature vectors, so every clone
        # pair shares every bucket: LSH must flag them all, and the exact
        # structural check must confirm them all.
        index = build_dedup_index(dup_suite, use_lsh=True)
        n_dupes = dup_suite.benchmarks[0].n_loops
        assert index.stats.lsh_candidate_pairs >= index.stats.lsh_confirmed_pairs
        assert index.stats.lsh_confirmed_pairs >= n_dupes
        # The LSH numbers are diagnostics: the classes themselves must be
        # unchanged by turning the flagging on.
        assert index.classes == build_dedup_index(dup_suite).classes
