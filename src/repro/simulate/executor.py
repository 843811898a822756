"""The loop cycle simulator.

``CostModel.loop_cost(loop, factor)`` answers the question the paper answers
with a real Itanium 2: *how many cycles does this loop take per program run
when unrolled by this factor?*  The answer is emergent, not a formula: the
loop is actually unrolled, cleaned up (scalar replacement, coalescing, DCE),
dependence-analyzed, and scheduled — acyclically when software pipelining is
off, by iterative modulo scheduling when it is on — on the chosen machine
description, with register-pressure spills, I-cache overflow, trip-count
preconditioning, and early-exit costs layered on top.

Because every term comes from the same IR the feature extractor reads, the
optimal unroll factor is a learnable (but noisy and non-obvious) function of
the loop's static characteristics — the property all of the paper's
experiments rest on.

Costing splits into two stages:

* **Analysis** — unroll + cleanup (:func:`optimize_for_factor`), dependence
  analysis, and the scheduler's precomputed tables, none of which depend on
  whether software pipelining is enabled.  The fast engine runs all of it
  on the loop's integer-coded body (:mod:`repro.ir.coded`): each source
  loop is lowered once, and every factor unrolls, cleans up and analyses
  integer tables instead of instruction objects.  The stage is memoised in
  a bounded :class:`AnalysisCache` keyed by ``(loop name, factor, plan)``
  (the plan *must* participate: ablations change the unrolled body), so the
  SWP-on and SWP-off regimes — and repeated queries within one regime —
  share one analysis per configuration.  A remainder part analyses exactly
  like the source body (only its affine offsets are shifted), so each loop
  has one remainder analysis shared by every factor.
* **Scheduling** — the per-regime part: list scheduling plus steady-state
  and spill terms, or modulo scheduling when SWP is on and the part is
  eligible.  The list schedule's two scalars (steady-state cycles and
  register pressure) are the same in both regimes, so each analysed part
  carries a small mutable cell for them (:class:`_SchedCell`): the SWP-on
  regime reuses the SWP-off regime's scalars for remainders and for mains
  it does not pipeline, and recomputes only the trailing float arithmetic.
  Modulo schedules are never cached.

The fast engine calls every layer through this module's names
(``optimize_for_factor``, ``analyze_dependences``, ``SchedPrecomp.build``,
``list_schedule``, ``steady_state_cycles``, ``max_live``,
``swp_register_pressure``, ``modulo_schedule``), which are the coded
passes and the table-driven schedulers; perfbench's traced split wraps
exactly these names.  ``engine="reference"`` bypasses the cache, the coded
bodies and the table-driven schedulers, running the original single-stage
path on the object IR (its passes called through their home modules) —
the oracle the tier-1 equivalence tests pin the fast path to, and the
engine perfbench's offline workload re-measures six units with on every
run.

**Determinism.**  A cost is a pure function of (loop, factor, plan,
machine, regime): cache state, query order and the engine never change a
bit of it.  Integer ids hash differently from the registers they stand
for, so every coded pass walks in body order and uses sets for
membership only; the coded dependence edges equal the object analysis's
edge for edge and in order, which keeps every scheduler tie-break where
the reference engine puts it.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass

import repro.ir.dependence as dependence
import repro.sched.modulo as modulo
import repro.sched.regpressure as regpressure
import repro.transforms.pipeline as transforms
from repro.ir.coded import (
    CodedDeps,
    CodedPart,
    CodedUnroll,
    analyze_dependences,
    lower,
    max_live,
    optimize_for_factor,
    swp_register_pressure,
)
from repro.ir.loop import Loop
from repro.machine.itanium2 import ITANIUM2
from repro.machine.model import MachineModel
from repro.sched.list_scheduler import (
    list_schedule,
    list_schedule_reference,
    steady_state_cycles,
    steady_state_cycles_reference,
)
from repro.sched.modulo import (
    ModuloScheduleError,
    modulo_schedule,
    modulo_schedule_reference,
)
from repro.resilience.faults import get_injector
from repro.sched.precompute import SchedPrecomp
from repro.sched.regpressure import spill_cycles
from repro.simulate.cache import (
    bandwidth_floor_per_iteration,
    effective_load_latency,
    icache_entry_penalty,
)
from repro.transforms.pipeline import OptimizationPlan

#: Fixed cycles to enter a loop (live-in setup, first-bundle fetch).
ENTRY_OVERHEAD = 3

#: Fixed cycles to set up a software-pipelined kernel (rotating-register
#: initialisation, predicate staging).
SWP_SETUP = 6


@dataclass(frozen=True)
class LoopCost:
    """Cycle cost of one (loop, unroll factor) configuration."""

    loop_name: str
    factor: int
    swp_requested: bool
    swp_used: bool
    total_cycles: float
    per_entry_cycles: float
    main_period: float
    ii: int | None
    stages: int | None
    spill_penalty: float
    icache_penalty: int
    precondition_penalty: int
    emitted_instructions: int


class _SchedCell:
    """Mutable memo for one loop part's list-scheduling scalars.

    Holds ``(steady_state_cycles, pressure)`` — the only outputs of the
    schedule that survive into the cost; the trailing float arithmetic
    (spill cap, period, trip multiply) is recomputed per query in the
    original operation order, so a cell hit is bit-identical to a fresh
    schedule.  The fast engine attaches a cell to every part it analyses:
    the second SWP regime reuses the first one's scalars for remainders
    and for mains it does not pipeline, and every factor of a loop shares
    its remainder's cell.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: tuple | None = None


@dataclass(frozen=True)
class PartAnalysis:
    """Dependences, scheduler tables and the list-schedule cell of one
    coded loop part."""

    deps: CodedDeps
    pre: SchedPrecomp
    cell: _SchedCell


@dataclass(frozen=True)
class LoopAnalysis:
    """The regime-independent half of costing one (loop, factor, plan).

    Everything here is a pure function of the source loop, the unroll
    factor, the cleanup plan, and the *base* machine — software pipelining
    plays no part, so one analysis serves both scheduling regimes.  The
    remainder's :class:`PartAnalysis` is the loop's one remainder analysis,
    shared by every factor that leaves a remainder (see
    :meth:`CostModel._remainder_analysis`).
    """

    loop: Loop  # retained for structural verification on cache hits
    base_machine: MachineModel
    machine: MachineModel  # base machine with the loop's effective load latency
    bw_floor: float
    result: CodedUnroll
    main: PartAnalysis | None
    rem: PartAnalysis | None


class AnalysisCache:
    """Bounded LRU cache of :class:`LoopAnalysis` entries.

    Keys are ``(loop name, factor, plan)`` — loop names are unique within a
    generated suite, but hand-built suites may collide, so a hit is only
    honoured after verifying the stored loop is structurally equal to the
    queried one and was analysed under the same base machine (``Loop`` holds
    a dict field and cannot itself be a dict key).  A mismatch counts as a
    miss and the entry is replaced.

    One cache may be shared by several :class:`CostModel` instances — that
    sharing is the point: the SWP-on and SWP-off models of a measurement
    pair hit each other's analyses.  ``hits``/``misses`` counters feed the
    measurement rollup.
    """

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, LoopAnalysis]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, key: tuple, loop: Loop, base_machine: MachineModel
    ) -> LoopAnalysis | None:
        entry = self._entries.get(key)
        if entry is not None:
            injector = get_injector()
            if injector.active and injector.fire(
                "analysis.poison", f"{key[0]}:f{key[1]}"
            ):
                # Deterministic in-memory corruption: wipe the provenance so
                # the structural verification below must reject the entry —
                # the self-heal path (miss, recompute, overwrite) is then
                # exercised by a real bad entry rather than a mock.
                entry = dataclasses.replace(entry, base_machine=None)
                self._entries[key] = entry
        if (
            entry is not None
            and entry.loop == loop
            and entry.base_machine == base_machine
        ):
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put(self, key: tuple, entry: LoopAnalysis) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries (counters are preserved: they describe the
        lifetime of the cache, not its current contents)."""
        self._entries.clear()


#: Process-local cost-model registry, keyed by (machine name, swp).
#: See :func:`shared_cost_model`.
_SHARED_MODELS: dict[tuple[str, bool], "CostModel"] = {}

#: Process-local analysis caches shared by both regimes of one machine.
_SHARED_ANALYSIS: dict[str, AnalysisCache] = {}


def shared_analysis_cache(machine: MachineModel) -> AnalysisCache:
    """The process-local :class:`AnalysisCache` for ``machine`` — one per
    machine, shared by the SWP-on and SWP-off shared cost models so a work
    unit measured in both regimes analyses each loop once."""
    cache = _SHARED_ANALYSIS.get(machine.name)
    if cache is None:
        cache = AnalysisCache()
        _SHARED_ANALYSIS[machine.name] = cache
    return cache


def shared_cost_model(machine: MachineModel, swp: bool) -> "CostModel":
    """Process-local memoised :class:`CostModel` — the worker-safe entry
    point for the parallel measurement pipeline.

    Each worker process reuses one ``"fast"`` model per (machine, swp)
    regime across all the work units it executes, so the per-loop analysis
    caches (effective load latency, bandwidth floor) amortise across the
    eight unroll factors of a benchmark just as they do in a serial run;
    the two SWP regimes additionally share one :class:`AnalysisCache` via
    :func:`shared_analysis_cache`.  The caches are keyed by loop name,
    which is unique within a generated suite; callers measuring hand-built
    suites with colliding loop names should construct their own
    :class:`CostModel`.
    """
    key = (machine.name, swp)
    model = _SHARED_MODELS.get(key)
    if model is None or model.machine != machine:
        model = CostModel(
            machine=machine, swp=swp, analysis=shared_analysis_cache(machine)
        )
        _SHARED_MODELS[key] = model
    return model


def reset_shared_cost_models() -> None:
    """Drop all process-local shared cost models and analysis caches (pool
    initializer: forked workers must not inherit the parent's caches)."""
    _SHARED_MODELS.clear()
    _SHARED_ANALYSIS.clear()


class CostModel:
    """Times loops on a machine description.

    Args:
        machine: target description (default: the Itanium 2 lookalike).
        swp: whether software pipelining is enabled (the paper's two
            regimes).
        plan: post-unroll cleanup switches (ablations toggle these).
        analysis: the analysis cache to use; pass a shared instance to let
            several models (typically the two SWP regimes) reuse each
            other's analyses.  ``None`` creates a private cache.
        engine: ``"fast"`` (two-stage, cached, coded bodies, table-driven
            schedulers) or ``"reference"`` (the original single-stage path
            on the object IR; bit-identical results, kept as the
            equivalence oracle).
    """

    def __init__(
        self,
        machine: MachineModel = ITANIUM2,
        swp: bool = False,
        plan: OptimizationPlan | None = None,
        analysis: AnalysisCache | None = None,
        engine: str = "fast",
    ):
        if engine not in ("fast", "reference"):
            raise ValueError(f"engine must be 'fast' or 'reference', got {engine!r}")
        self.machine = machine
        self.swp = swp
        self.plan = plan or OptimizationPlan()
        self.engine = engine
        self.analysis = analysis if analysis is not None else AnalysisCache()
        self._machine_variants: dict[int, MachineModel] = {}

    # ------------------------------------------------------------------

    def loop_cost(self, loop: Loop, factor: int) -> LoopCost:
        """Cycles per program run for ``loop`` unrolled by ``factor``."""
        if self.engine == "reference":
            return self._loop_cost_reference(loop, factor)
        analysis = self.analyze(loop, factor)
        return self._cost_from_analysis(loop, analysis)

    def sweep(self, loop: Loop) -> dict[int, LoopCost]:
        """Costs at every unroll factor in the label space."""
        from repro.ir.types import UNROLL_FACTORS

        return {factor: self.loop_cost(loop, factor) for factor in UNROLL_FACTORS}

    # ------------------------------------------------------------------
    # Stage 1: regime-independent analysis (cached).
    # ------------------------------------------------------------------

    def analyze(self, loop: Loop, factor: int) -> LoopAnalysis:
        """The cached analysis stage for ``(loop, factor)`` under this
        model's plan and base machine."""
        key = (loop.name, factor, self.plan)
        entry = self.analysis.get(key, loop, self.machine)
        if entry is None:
            entry = self._build_analysis(loop, factor)
            self.analysis.put(key, entry)
        return entry

    def _build_analysis(self, loop: Loop, factor: int) -> LoopAnalysis:
        machine = self._machine_for(loop)
        bw_floor = self._memory_profile(loop)[1]
        result = optimize_for_factor(lower(loop), factor, self.plan)
        main = rem = None
        if result.main is not None:
            main = self._part_analysis(result.main, machine)
        if result.remainder is not None:
            rem = self._remainder_analysis(loop, result.remainder, machine)
        return LoopAnalysis(
            loop=loop,
            base_machine=self.machine,
            machine=machine,
            bw_floor=bw_floor,
            result=result,
            main=main,
            rem=rem,
        )

    @staticmethod
    def _part_analysis(part: CodedPart, machine: MachineModel) -> PartAnalysis:
        deps = analyze_dependences(part)
        return PartAnalysis(deps, SchedPrecomp.build(deps, machine), _SchedCell())

    def _remainder_analysis(
        self, loop: Loop, part: CodedPart, machine: MachineModel
    ) -> PartAnalysis:
        """The loop's one remainder analysis on ``machine``.

        A remainder is the source body with every affine offset shifted by
        ``coeff * base``; dependence distances depend only on offset
        differences between same-stride references, so its dependences,
        tables, list schedule and pressure equal the source body's at every
        factor.  It is memoised on the :class:`Loop` instance next to the
        coded form (bounded by the loop's lifetime, left out of pickles);
        only ``trips`` differs between factors, and the float arithmetic
        past the cell's scalars runs per query.
        """
        memo = loop.__dict__.get("_remainders")
        if memo is None:
            memo = []
            object.__setattr__(loop, "_remainders", memo)
        for known, analysis in memo:
            if known is machine or known == machine:
                return analysis
        analysis = self._part_analysis(part, machine)
        memo.append((machine, analysis))
        return analysis

    # ------------------------------------------------------------------
    # Stage 2: per-regime scheduling and cost assembly.
    # ------------------------------------------------------------------

    def _cost_from_analysis(self, loop: Loop, analysis: LoopAnalysis) -> LoopCost:
        result = analysis.result
        machine = analysis.machine
        bw_floor = analysis.bw_floor

        main_cycles = 0.0
        main_period = 0.0
        ii = stages = None
        spill = 0.0
        swp_used = False

        if result.main is not None:
            (
                main_cycles,
                main_period,
                ii,
                stages,
                spill,
                swp_used,
            ) = self._part_cycles(
                result.main, analysis.main, machine, bw_floor, allow_swp=True
            )

        rem_cycles = 0.0
        if result.remainder is not None:
            rem_cycles, _, _, _, rem_spill, _ = self._part_cycles(
                result.remainder, analysis.rem, machine, bw_floor, allow_swp=False
            )
            spill += rem_spill

        icache = icache_entry_penalty(result.emitted_size, machine)
        precondition = 0
        if result.needs_precondition:
            precondition = machine.precondition_cycles
            if result.factor & (result.factor - 1):  # not a power of two
                precondition += machine.nonpow2_precondition_cycles
        exit_cost = 0.0
        if loop.has_early_exit:
            # The final (taken) exit branch mispredicts once per entry, and
            # an unrolled body overshoots: on average (factor-1)/2 copies of
            # work issue past the exiting iteration before the branch
            # resolves — the paper's speculation-gone-wrong cost.
            exit_cost = machine.exit_mispredict_cycles
            if result.factor > 1 and main_period > 0:
                # Beyond the wasted copies themselves, speculatively issued
                # memory accesses past the exit pollute the cache/TLB, so
                # the effective waste is closer to a full body's worth.
                wasted_copies = (result.factor - 1) * 0.8
                exit_cost += wasted_copies * (main_period / result.factor)

        per_entry = (
            main_cycles
            + rem_cycles
            + icache
            + precondition
            + exit_cost
            + ENTRY_OVERHEAD
        )
        total = per_entry * loop.entry_count
        return LoopCost(
            loop_name=loop.name,
            factor=result.requested_factor,
            swp_requested=self.swp,
            swp_used=swp_used,
            total_cycles=total,
            per_entry_cycles=per_entry,
            main_period=main_period,
            ii=ii,
            stages=stages,
            spill_penalty=spill,
            icache_penalty=icache,
            precondition_penalty=precondition,
            emitted_instructions=result.emitted_size,
        )

    def _part_cycles(
        self,
        part: CodedPart,
        analysis: PartAnalysis,
        machine: MachineModel,
        bw_floor: float,
        allow_swp: bool,
    ) -> tuple[float, float, int | None, int | None, float, bool]:
        """Cycles per entry for one loop part (main or remainder).

        ``bw_floor`` is the loop's bandwidth-imposed minimum cycles per
        original iteration; one body execution covers ``unroll_factor``
        iterations, so the body period is floored at ``bw_floor * factor``.

        The analysis's cell memoises the list path's scheduling scalars
        across queries (the second SWP regime, every factor sharing the
        loop's remainder analysis); the arithmetic past the scalars runs
        unconditionally, in the original order, so hits are bit-identical.

        Returns ``(cycles, period, ii, stages, spill, swp_used)``.
        """
        deps = analysis.deps
        pre = analysis.pre
        cell = analysis.cell
        trips = part.trip.runtime
        body_floor = bw_floor * part.unroll_factor

        if allow_swp and self.swp and part.swp_eligible and trips > 1:
            # trips <= 1 can never satisfy the ``trips > kernel.stages``
            # guard below (a kernel has at least one stage), so the modulo
            # scheduling attempt is skipped outright — bit-identical, the
            # kernel would have been discarded.
            try:
                kernel = modulo_schedule(deps, machine, pre=pre)
            except ModuloScheduleError:
                kernel = None
            if kernel is not None and trips > kernel.stages:
                int_need, fp_need = swp_register_pressure(deps, kernel)
                rotating = machine.rotating_regs
                excess = max(0, int_need - rotating) + max(0, fp_need - rotating)
                ii_eff = kernel.ii + -(-excess // 4) if excess else kernel.ii
                ii_eff = max(ii_eff, int(-(-body_floor // 1)))  # ceil of the floor
                cycles = (trips + kernel.stages - 1) * ii_eff + SWP_SETUP
                return (
                    float(cycles),
                    float(ii_eff),
                    ii_eff,
                    kernel.stages,
                    0.0,
                    True,
                )

        if cell.value is not None:
            steady, pressure = cell.value
        else:
            schedule = list_schedule(deps, machine, pre=pre)
            pressure = max_live(deps, schedule)
            steady = steady_state_cycles(deps, schedule, machine, pre=pre)
            cell.value = (steady, pressure)
        base_period = max(steady, body_floor)
        # Spill cost is bounded relative to the loop itself: the allocator
        # spills cheapest-first, so over-unrolling degrades, never explodes.
        spill = min(
            spill_cycles(pressure, machine),
            machine.spill_cap_fraction * base_period,
        )
        # The bandwidth floor caps how far ILP can compress the schedule,
        # but spill traffic and the backedge update group ride *on top* of
        # it: spills add memory traffic of their own, and the induction
        # update issues in its own group at the backedge.
        period = base_period + spill
        if part.unroll_factor & (part.unroll_factor - 1):
            period += machine.nonpow2_body_cycles
        return float(trips * period), float(period), None, None, spill * trips, False

    # ------------------------------------------------------------------
    # Shared per-loop memory analyses (regime- and factor-independent).
    # ------------------------------------------------------------------

    def _memory_profile(self, loop: Loop) -> tuple[int, float]:
        """``loop``'s effective load latency and bandwidth floor on the base
        machine.  Memoised on the :class:`Loop` instance (like the coded
        form and the remainder analyses), never by name: two loops that
        share a name may touch memory differently."""
        memo = loop.__dict__.get("_memory_profile")
        if memo is None:
            memo = []
            object.__setattr__(loop, "_memory_profile", memo)
        for known, profile in memo:
            if known is self.machine or known == self.machine:
                return profile
        profile = (
            effective_load_latency(loop, self.machine),
            bandwidth_floor_per_iteration(loop, self.machine),
        )
        memo.append((self.machine, profile))
        return profile

    def _machine_for(self, loop: Loop) -> MachineModel:
        """The base machine with ``loop``'s effective load latency.

        Variants are memoised per latency so loops with the same cache
        behaviour share one machine instance (and therefore one scheduler
        opcode-row cache) instead of rebuilding the description per loop.
        """
        eff_latency = self._memory_profile(loop)[0]
        machine = self._machine_variants.get(eff_latency)
        if machine is None:
            machine = self.machine.with_load_latency(eff_latency)
            self._machine_variants[eff_latency] = machine
        return machine

    # ------------------------------------------------------------------
    # Reference engine: the original single-stage path, retained as the
    # equivalence oracle (tier-1 tests, perfbench's spot check).
    # ------------------------------------------------------------------

    def _loop_cost_reference(self, loop: Loop, factor: int) -> LoopCost:
        machine = self._machine_for(loop)
        bw_floor = self._memory_profile(loop)[1]
        result = transforms.optimize_for_factor(loop, factor, self.plan)

        main_cycles = 0.0
        main_period = 0.0
        ii = stages = None
        spill = 0.0
        swp_used = False

        if result.main is not None:
            (
                main_cycles,
                main_period,
                ii,
                stages,
                spill,
                swp_used,
            ) = self._part_cycles_reference(result.main, machine, bw_floor, allow_swp=True)

        rem_cycles = 0.0
        if result.remainder is not None:
            rem_cycles, _, _, _, rem_spill, _ = self._part_cycles_reference(
                result.remainder, machine, bw_floor, allow_swp=False
            )
            spill += rem_spill

        icache = icache_entry_penalty(result.emitted_size, machine)
        precondition = 0
        if result.needs_precondition:
            precondition = machine.precondition_cycles
            if result.factor & (result.factor - 1):  # not a power of two
                precondition += machine.nonpow2_precondition_cycles
        exit_cost = 0.0
        if loop.has_early_exit:
            # See _cost_from_analysis for the speculation-gone-wrong story.
            exit_cost = machine.exit_mispredict_cycles
            if result.factor > 1 and main_period > 0:
                wasted_copies = (result.factor - 1) * 0.8
                exit_cost += wasted_copies * (main_period / result.factor)

        per_entry = (
            main_cycles
            + rem_cycles
            + icache
            + precondition
            + exit_cost
            + ENTRY_OVERHEAD
        )
        total = per_entry * loop.entry_count
        return LoopCost(
            loop_name=loop.name,
            factor=factor,
            swp_requested=self.swp,
            swp_used=swp_used,
            total_cycles=total,
            per_entry_cycles=per_entry,
            main_period=main_period,
            ii=ii,
            stages=stages,
            spill_penalty=spill,
            icache_penalty=icache,
            precondition_penalty=precondition,
            emitted_instructions=result.emitted_size,
        )

    def _part_cycles_reference(
        self, part: Loop, machine: MachineModel, bw_floor: float, allow_swp: bool
    ) -> tuple[float, float, int | None, int | None, float, bool]:
        """Single-stage part costing: re-analyse and schedule with the
        table-free reference schedulers."""
        deps = dependence.analyze_dependences(part)
        trips = part.trip.runtime
        body_floor = bw_floor * part.unroll_factor

        if allow_swp and self.swp and part.swp_eligible:
            try:
                kernel = modulo_schedule_reference(deps, machine)
            except ModuloScheduleError:
                kernel = None
            if kernel is not None and trips > kernel.stages:
                int_need, fp_need = modulo.swp_register_pressure(deps, kernel)
                rotating = machine.rotating_regs
                excess = max(0, int_need - rotating) + max(0, fp_need - rotating)
                ii_eff = kernel.ii + -(-excess // 4) if excess else kernel.ii
                ii_eff = max(ii_eff, int(-(-body_floor // 1)))  # ceil of the floor
                cycles = (trips + kernel.stages - 1) * ii_eff + SWP_SETUP
                return (
                    float(cycles),
                    float(ii_eff),
                    ii_eff,
                    kernel.stages,
                    0.0,
                    True,
                )

        schedule = list_schedule_reference(deps, machine)
        pressure = regpressure.max_live(deps, schedule)
        base_period = max(steady_state_cycles_reference(deps, schedule, machine), body_floor)
        spill = min(
            spill_cycles(pressure, machine),
            machine.spill_cap_fraction * base_period,
        )
        period = base_period + spill
        if part.unroll_factor & (part.unroll_factor - 1):
            period += machine.nonpow2_body_cycles
        return float(trips * period), float(period), None, None, spill * trips, False
