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
  whether software pipelining is enabled.  The stage is memoised in a
  bounded :class:`AnalysisCache` keyed by ``(loop name, factor, plan)`` (the
  plan *must* participate: ablations change the unrolled body), so the
  SWP-on and SWP-off regimes — and repeated queries within one regime —
  share one analysis per configuration.
* **Scheduling** — the per-regime part: list scheduling plus steady-state
  and spill terms, or modulo scheduling when SWP is on and the part is
  eligible.  The list schedule's two scalars (steady-state cycles and
  register pressure) are the same in both regimes, so each analysis entry
  carries a small mutable cell for them (:class:`_SchedCell`): the SWP-on
  regime reuses the SWP-off regime's scalars for remainders and for mains
  it does not pipeline, and recomputes only the trailing float arithmetic.
  Modulo schedules are never cached.

``engine="reference"`` bypasses both the cache and the table-driven
schedulers, running the original single-stage path — the oracle the
tier-1 equivalence tests pin the fast path to, and the engine perfbench's
offline workload re-measures six units with on every run.

``engine="incremental"`` layers cross-factor reuse *under* the analysis
cache: the factor-``f`` analysis extends work already done for other
factors of the same loop instead of recomputing it.  Four mechanisms, each
individually proven bit-identical to the from-scratch path:

* **clamp sharing** — for a compile-time-known trip count ``T``, every
  requested factor ``f > T`` clamps to the same effective factor, so the
  entry is the effective factor's analysis with only ``requested_factor``
  rewritten;
* **unroll row reuse** — copy ``k`` of an unrolled body depends only on
  ``(k, k == u - 1)`` (renaming reads copy ``k - 1``'s names, which a
  standalone rebuild reproduces exactly), so the renamed rows are built
  once and only the memory retargeting runs per factor;
* **remainder sharing** — remainder bodies across factors differ only in
  their base offset, and dependence distances, scheduler tables, and
  register pressure are all shift-invariant, so one factor's remainder
  analysis serves them all;
* **shared scheduling-scalar cells** — every factor whose remainder is
  shared also shares that remainder's scheduling-scalar cell, so the list
  schedule runs once per loop's remainder rather than once per entry.

All reuse sits *below* :meth:`CostModel.analyze`'s cache lookup, so cache
verification (and the ``analysis.poison`` fault) behave identically.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass

from repro.ir.dependence import DependenceGraph, analyze_dependences
from repro.ir.instruction import Instruction
from repro.ir.loop import Loop, TripInfo
from repro.ir.types import MAX_UNROLL
from repro.ir.values import Reg
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
    swp_register_pressure,
)
from repro.resilience.faults import get_injector
from repro.sched.precompute import SchedPrecomp
from repro.sched.regpressure import max_live, spill_cycles
from repro.simulate.cache import (
    bandwidth_floor_per_iteration,
    effective_load_latency,
    icache_entry_penalty,
)
from repro.transforms.coalesce import coalesce_loads
from repro.transforms.dce import eliminate_dead_code
from repro.transforms.pipeline import OptimizationPlan, optimize_for_factor
from repro.transforms.scalar_replacement import scalar_replace
from repro.transforms.unroll import UnrollResult

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
    schedule.  Both the fast and the incremental engine attach a cell to
    every part they analyse: the second SWP regime reuses the first one's
    scalars for remainders and for mains it does not pipeline.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: tuple | None = None


@dataclass(frozen=True)
class LoopAnalysis:
    """The regime-independent half of costing one (loop, factor, plan).

    Everything here is a pure function of the source loop, the unroll
    factor, the cleanup plan, and the *base* machine — software pipelining
    plays no part, so one analysis serves both scheduling regimes.
    """

    loop: Loop  # retained for structural verification on cache hits
    base_machine: MachineModel
    machine: MachineModel  # base machine with the loop's effective load latency
    bw_floor: float
    result: UnrollResult
    main_deps: DependenceGraph | None
    main_pre: SchedPrecomp | None
    rem_deps: DependenceGraph | None
    rem_pre: SchedPrecomp | None
    main_cell: _SchedCell | None = None
    rem_cell: _SchedCell | None = None


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


class _LoopStore:
    """Per-loop scratch state for the incremental engine.

    Everything in here is a pure function of the source loop (plus, for the
    remainder analysis, the model's fixed plan and machine), shared across
    unroll factors:

    * ``carried`` — the carried-register set (one scan instead of one per
      unroll call);
    * ``rows`` — renamed body copies keyed by ``(k, is_last)``, still
      awaiting per-factor memory retargeting;
    * ``retargeted`` — a fresh-identity clone of the body, rebased per
      factor for remainder loops;
    * ``rem_shared`` / ``rem_cell`` — one remainder's dependence graph,
      scheduler tables, and scheduling-scalar cell, valid for every
      factor's remainder because all of them are offset shifts of the same
      body.
    """

    __slots__ = ("loop", "carried", "rows", "retargeted", "rem_shared", "rem_cell")

    def __init__(self, loop: Loop) -> None:
        self.loop = loop
        self.carried = loop.carried_regs()
        self.rows: dict[tuple[int, bool], tuple[Instruction, ...]] = {}
        self.retargeted: tuple[Instruction, ...] | None = None
        self.rem_shared: tuple[DependenceGraph, SchedPrecomp] | None = None
        self.rem_cell: _SchedCell | None = None


#: Process-local cost-model registry, keyed by (machine name, swp, engine).
#: See :func:`shared_cost_model`.
_SHARED_MODELS: dict[tuple[str, bool, str], "CostModel"] = {}

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


def shared_cost_model(
    machine: MachineModel, swp: bool, engine: str = "fast"
) -> "CostModel":
    """Process-local memoised :class:`CostModel` — the worker-safe entry
    point for the parallel measurement pipeline.

    Each worker process reuses one model per (machine, swp, engine) regime
    across all the work units it executes, so the per-loop analysis caches
    (effective load latency, bandwidth floor) amortise across the eight
    unroll factors of a benchmark just as they do in a serial run; the two
    SWP regimes of one engine additionally share one :class:`AnalysisCache`
    via :func:`shared_analysis_cache` (the fast and incremental engines
    produce interchangeable, bit-identical entries, so they may share it
    too).  The caches are keyed by loop name, which is unique within a
    generated suite; callers measuring hand-built suites with colliding
    loop names should construct their own :class:`CostModel`.
    """
    key = (machine.name, swp, engine)
    model = _SHARED_MODELS.get(key)
    if model is None or model.machine != machine:
        model = CostModel(
            machine=machine,
            swp=swp,
            analysis=shared_analysis_cache(machine),
            engine=engine,
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
        engine: ``"fast"`` (two-stage, cached, table-driven schedulers),
            ``"incremental"`` (the fast path plus cross-factor reuse; see
            the module docstring), or ``"reference"`` (the original
            single-stage path; bit-identical results, kept as the
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
        if engine not in ("fast", "incremental", "reference"):
            raise ValueError(
                "engine must be 'fast', 'incremental', or 'reference', "
                f"got {engine!r}"
            )
        self.machine = machine
        self.swp = swp
        self.plan = plan or OptimizationPlan()
        self.engine = engine
        self.analysis = analysis if analysis is not None else AnalysisCache()
        self._latency_cache: dict[str, int] = {}
        self._floor_cache: dict[str, float] = {}
        self._machine_variants: dict[int, MachineModel] = {}
        # Incremental-engine state (inert for the other engines).
        self._stores: "OrderedDict[str, _LoopStore]" = OrderedDict()
        self._store_cap = 1024
        self._overlap_memo: dict = {}
        # Reuse counters: the incremental engine's mechanisms, plus the
        # scheduling-scalar cells that the fast engine uses too.
        self.incremental_hits = 0
        self.incremental_misses = 0

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
        if self.engine == "incremental":
            return self._build_analysis_incremental(loop, factor)
        machine = self._machine_for(loop)
        bw_floor = self._bandwidth_floor(loop)
        result = optimize_for_factor(loop, factor, self.plan)
        main_deps = main_pre = rem_deps = rem_pre = None
        main_cell = rem_cell = None
        if result.main is not None:
            main_deps = analyze_dependences(result.main)
            main_pre = SchedPrecomp.build(main_deps, machine)
            main_cell = _SchedCell()
        if result.remainder is not None:
            rem_deps = analyze_dependences(result.remainder)
            rem_pre = SchedPrecomp.build(rem_deps, machine)
            rem_cell = _SchedCell()
        return LoopAnalysis(
            loop=loop,
            base_machine=self.machine,
            machine=machine,
            bw_floor=bw_floor,
            result=result,
            main_deps=main_deps,
            main_pre=main_pre,
            rem_deps=rem_deps,
            rem_pre=rem_pre,
            main_cell=main_cell,
            rem_cell=rem_cell,
        )

    # ------------------------------------------------------------------
    # Incremental engine: cross-factor analysis reuse.
    # ------------------------------------------------------------------

    def _build_analysis_incremental(self, loop: Loop, factor: int) -> LoopAnalysis:
        if not (1 <= factor <= MAX_UNROLL):
            raise ValueError(
                f"unroll factor must be in [1, {MAX_UNROLL}], got {factor}"
            )
        trip = loop.trip
        if trip.known:
            effective = min(factor, trip.compile_time)
            if effective != factor:
                # Clamp sharing: unroll() produces identical output for
                # every requested factor above the compile-time trip count,
                # differing only in ``requested_factor`` — so the clamped
                # factor's analysis (cached under its own key) is reused
                # wholesale, cells included.
                self.incremental_hits += 1
                base_entry = self.analyze(loop, effective)
                result = dataclasses.replace(
                    base_entry.result, requested_factor=factor
                )
                return dataclasses.replace(base_entry, result=result)
        store = self._store_for(loop)
        machine = self._machine_for(loop)
        bw_floor = self._bandwidth_floor(loop)
        result = self._optimize_incremental(loop, factor, store)
        main_deps = main_pre = rem_deps = rem_pre = None
        main_cell = rem_cell = None
        if result.main is not None:
            main_deps = analyze_dependences(
                result.main, overlap_memo=self._overlap_memo
            )
            main_pre = SchedPrecomp.build(main_deps, machine)
            main_cell = _SchedCell()
        if result.remainder is not None:
            if store.rem_shared is None:
                # Remainder sharing: dependence distances, scheduler
                # tables, and the scheduling scalars are invariant under
                # the per-factor base-offset shift, so the first factor's
                # remainder analysis serves every factor of this loop.
                self.incremental_misses += 1
                rem_deps = analyze_dependences(
                    result.remainder, overlap_memo=self._overlap_memo
                )
                rem_pre = SchedPrecomp.build(rem_deps, machine)
                store.rem_shared = (rem_deps, rem_pre)
                store.rem_cell = _SchedCell()
            else:
                self.incremental_hits += 1
                rem_deps, rem_pre = store.rem_shared
            rem_cell = store.rem_cell
        return LoopAnalysis(
            loop=loop,
            base_machine=self.machine,
            machine=machine,
            bw_floor=bw_floor,
            result=result,
            main_deps=main_deps,
            main_pre=main_pre,
            rem_deps=rem_deps,
            rem_pre=rem_pre,
            main_cell=main_cell,
            rem_cell=rem_cell,
        )

    def _store_for(self, loop: Loop) -> _LoopStore:
        """The per-loop incremental store, verified against the loop the
        way :class:`AnalysisCache` verifies its entries (hand-built suites
        may reuse names across different loops)."""
        store = self._stores.get(loop.name)
        if store is not None and (store.loop is loop or store.loop == loop):
            self._stores.move_to_end(loop.name)
            return store
        store = _LoopStore(loop)
        self._stores[loop.name] = store
        self._stores.move_to_end(loop.name)
        while len(self._stores) > self._store_cap:
            self._stores.popitem(last=False)
        return store

    def _optimize_incremental(
        self, loop: Loop, factor: int, store: _LoopStore
    ) -> UnrollResult:
        """:func:`optimize_for_factor` with the unroll stage replaced by
        row-cached replication.  Validation, trip handling, and the cleanup
        pipeline mirror the from-scratch path line for line."""
        if loop.unroll_factor != 1:
            raise ValueError(f"loop {loop.name!r} is already unrolled")
        trip = loop.trip
        effective = factor
        if trip.known:
            effective = min(factor, trip.compile_time)
        if effective == 1:
            result = UnrollResult(
                original=loop,
                requested_factor=factor,
                factor=1,
                main=loop,
                remainder=None,
                remainder_emitted=False,
                needs_precondition=False,
            )
        elif trip.counted:
            result = self._unroll_counted_incremental(loop, factor, effective, store)
        else:
            result = self._unroll_while_incremental(loop, factor, effective, store)
        main = result.main
        if main is None:
            return result
        if self.plan.scalar_replacement:
            main = scalar_replace(main)
        if self.plan.coalescing:
            main = coalesce_loads(main)
        if self.plan.dead_code_elimination:
            main = eliminate_dead_code(main)
        if main is result.main:
            return result
        return dataclasses.replace(result, main=main)

    def _unroll_counted_incremental(
        self, loop: Loop, requested: int, u: int, store: _LoopStore
    ) -> UnrollResult:
        trip = loop.trip
        total = trip.runtime
        main_trips = total // u
        leftover = total % u

        main = None
        if main_trips > 0:
            main = loop.with_body(
                self._unrolled_body_cached(loop, u, store),
                trip=TripInfo(
                    runtime=main_trips,
                    compile_time=main_trips if trip.known else None,
                    counted=True,
                ),
                unroll_factor=u,
                name=f"{loop.name}#u{u}",
            )

        remainder = None
        if leftover > 0:
            remainder = loop.with_body(
                self._retargeted_body_cached(loop, main_trips * u, store),
                trip=TripInfo(
                    runtime=leftover,
                    compile_time=leftover if trip.known else None,
                    counted=True,
                ),
                unroll_factor=1,
                name=f"{loop.name}#rem",
            )

        remainder_emitted = (leftover > 0) if trip.known else True
        return UnrollResult(
            original=loop,
            requested_factor=requested,
            factor=u,
            main=main,
            remainder=remainder,
            remainder_emitted=remainder_emitted,
            needs_precondition=not trip.known,
        )

    def _unroll_while_incremental(
        self, loop: Loop, requested: int, u: int, store: _LoopStore
    ) -> UnrollResult:
        if not loop.has_early_exit:
            raise ValueError(
                f"non-counted loop {loop.name!r} has no exit branch; its trip "
                "semantics would be undefined"
            )
        total = loop.trip.runtime
        main = loop.with_body(
            self._unrolled_body_cached(loop, u, store),
            trip=TripInfo(runtime=-(-total // u), compile_time=None, counted=False),
            unroll_factor=u,
            name=f"{loop.name}#u{u}",
        )
        return UnrollResult(
            original=loop,
            requested_factor=requested,
            factor=u,
            main=main,
            remainder=None,
            remainder_emitted=False,
            needs_precondition=False,
        )

    def _unrolled_body_cached(
        self, loop: Loop, u: int, store: _LoopStore
    ) -> tuple[Instruction, ...]:
        """``_unrolled_body(loop, u, base=0)`` with the renamed rows of each
        copy cached across factors; only the memory retargeting (which
        depends on ``u``) runs per factor."""
        body: list[Instruction] = []
        for k in range(u):
            for row in self._copy_rows(loop, k, k == u - 1, store):
                body.append(row.with_unrolled_mem(u, k, 0))
        return tuple(body)

    def _copy_rows(
        self, loop: Loop, k: int, is_last: bool, store: _LoopStore
    ) -> tuple[Instruction, ...]:
        """The renamed (but not yet memory-retargeted) rows of copy ``k``.

        The rename of copy ``k`` reads only copy ``k - 1``'s names — after
        copies ``0..k-1`` every destination's current name carries the
        ``.{k-1}`` suffix, because every non-final copy renames every
        destination — so the rows depend on ``(k, is_last)`` alone and are
        shared by every factor ``u`` with ``u > k`` (``is_last`` selects the
        carried write-back of copy ``u - 1``).
        """
        key = (k, is_last)
        rows = store.rows.get(key)
        if rows is not None:
            self.incremental_hits += 1
            return rows
        self.incremental_misses += 1
        carried = store.carried
        current: dict[Reg, Reg] = {}
        if k > 0:
            for inst in loop.body:
                for dest in inst.reg_dests():
                    current[dest] = Reg(f"{dest.name}.{k - 1}", dest.dtype)
        built: list[Instruction] = []
        for inst in loop.body:
            src_map = {
                reg: current[reg]
                for reg in inst.reg_srcs()
                if reg in current and current[reg] != reg
            }
            dest_map: dict[Reg, Reg] = {}
            for dest in inst.reg_dests():
                if dest in carried and is_last:
                    dest_map[dest] = dest
                else:
                    dest_map[dest] = Reg(f"{dest.name}.{k}", dest.dtype)
            built.append(inst.rewritten(src_map, dest_map))
            current.update(dest_map)
        rows = tuple(built)
        store.rows[key] = rows
        return rows

    def _retargeted_body_cached(
        self, loop: Loop, base: int, store: _LoopStore
    ) -> tuple[Instruction, ...]:
        """``_retargeted_body(loop, base)`` with the fresh-identity clone
        built once; only the per-factor rebase allocates."""
        rows = store.retargeted
        if rows is None:
            rows = tuple(inst.rewritten({}, {}) for inst in loop.body)
            store.retargeted = rows
        if base == 0:
            return rows
        return tuple(row.with_unrolled_mem(1, 0, base) for row in rows)

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
                result.main,
                analysis.main_deps,
                analysis.main_pre,
                machine,
                bw_floor,
                allow_swp=True,
                cell=analysis.main_cell,
            )

        rem_cycles = 0.0
        if result.remainder is not None:
            rem_cycles, _, _, _, rem_spill, _ = self._part_cycles(
                result.remainder,
                analysis.rem_deps,
                analysis.rem_pre,
                machine,
                bw_floor,
                allow_swp=False,
                cell=analysis.rem_cell,
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
        part: Loop,
        deps: DependenceGraph,
        pre: SchedPrecomp,
        machine: MachineModel,
        bw_floor: float,
        allow_swp: bool,
        cell: _SchedCell | None = None,
    ) -> tuple[float, float, int | None, int | None, float, bool]:
        """Cycles per entry for one loop part (main or remainder).

        ``bw_floor`` is the loop's bandwidth-imposed minimum cycles per
        original iteration; one body execution covers ``unroll_factor``
        iterations, so the body period is floored at ``bw_floor * factor``.

        ``cell``, when given, memoises the list path's scheduling scalars
        across queries of the same analysis entry (the second SWP regime,
        factors sharing a remainder); the arithmetic past the scalars runs
        unconditionally, in the original order, so hits are bit-identical.

        Returns ``(cycles, period, ii, stages, spill, swp_used)``.
        """
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

        if cell is not None and cell.value is not None:
            self.incremental_hits += 1
            steady, pressure = cell.value
        else:
            schedule = list_schedule(deps, machine, pre=pre)
            pressure = max_live(deps, schedule)
            steady = steady_state_cycles(deps, schedule, machine, pre=pre)
            if cell is not None:
                self.incremental_misses += 1
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

    def _effective_latency(self, loop: Loop) -> int:
        cached = self._latency_cache.get(loop.name)
        if cached is None:
            cached = effective_load_latency(loop, self.machine)
            self._latency_cache[loop.name] = cached
        return cached

    def _machine_for(self, loop: Loop) -> MachineModel:
        """The base machine with ``loop``'s effective load latency.

        Variants are memoised per latency so loops with the same cache
        behaviour share one machine instance (and therefore one scheduler
        opcode-row cache) instead of rebuilding the description per loop.
        """
        eff_latency = self._effective_latency(loop)
        machine = self._machine_variants.get(eff_latency)
        if machine is None:
            machine = self.machine.with_load_latency(eff_latency)
            self._machine_variants[eff_latency] = machine
        return machine

    def _bandwidth_floor(self, loop: Loop) -> float:
        cached = self._floor_cache.get(loop.name)
        if cached is None:
            cached = bandwidth_floor_per_iteration(loop, self.machine)
            self._floor_cache[loop.name] = cached
        return cached

    # ------------------------------------------------------------------
    # Reference engine: the original single-stage path, retained as the
    # equivalence oracle (tier-1 tests, perfbench's spot check).
    # ------------------------------------------------------------------

    def _loop_cost_reference(self, loop: Loop, factor: int) -> LoopCost:
        machine = self._machine_for(loop)
        bw_floor = self._bandwidth_floor(loop)
        result = optimize_for_factor(loop, factor, self.plan)

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
        deps = analyze_dependences(part)
        trips = part.trip.runtime
        body_floor = bw_floor * part.unroll_factor

        if allow_swp and self.swp and part.swp_eligible:
            try:
                kernel = modulo_schedule_reference(deps, machine)
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

        schedule = list_schedule_reference(deps, machine)
        pressure = max_live(deps, schedule)
        base_period = max(steady_state_cycles_reference(deps, schedule, machine), body_floor)
        spill = min(
            spill_cycles(pressure, machine),
            machine.spill_cap_fraction * base_period,
        )
        period = base_period + spill
        if part.unroll_factor & (part.unroll_factor - 1):
            period += machine.nonpow2_body_cycles
        return float(trips * period), float(period), None, None, spill * trips, False
