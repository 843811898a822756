"""Unit tests for the software pipeliner (modulo scheduling)."""

import dataclasses

import numpy as np
import pytest

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
from repro.ir.types import MAX_UNROLL, DType, FUKind, Opcode
from repro.machine import ITANIUM2, NARROW
from repro.sched import modulo
from repro.sched.modulo import (
    ModuloSchedule,
    ModuloScheduleError,
    integer_mii,
    modulo_schedule,
    recurrence_mii,
    resource_mii,
    swp_register_pressure,
)
from repro.sched.precompute import SchedPrecomp
from repro.simulate.executor import CostModel
from repro.workloads.generator import generate_benchmark
from repro.workloads.spec_names import ROSTER


def assert_kernel_legal(loop, machine):
    """A modulo schedule must honor dependences modulo II and the MRT."""
    deps = analyze_dependences(loop)
    kernel = modulo_schedule(deps, machine)
    # Dependences: start(dst) + II*distance >= start(src) + latency.
    for edge in deps.edges:
        lat = edge_latency(edge, deps.body, machine)
        assert (
            kernel.start[edge.dst] + kernel.ii * edge.distance
            >= kernel.start[edge.src] + lat
        ), f"violated {edge} at II={kernel.ii}"
    # Modulo reservation: per row, per kind, capacity respected (A-type ops
    # may use INT or MEM, so check the joint capacity).
    rows: dict[int, list] = {}
    for pos, t in enumerate(kernel.start):
        rows.setdefault(t % kernel.ii, []).append(deps.body[pos])
    for row, members in rows.items():
        fp = sum(1 for m in members if m.op.fu_kind is FUKind.FP and m.op.info.pipelined)
        assert fp <= machine.fu_counts[FUKind.FP]
        mem_like = sum(1 for m in members if m.op.fu_kind in (FUKind.MEM, FUKind.INT))
        assert mem_like <= machine.fu_counts[FUKind.MEM] + machine.fu_counts[FUKind.INT]
    return deps, kernel


class TestResourceMII:
    def test_memory_bound_loop_is_fractional(self, daxpy_loop):
        deps = analyze_dependences(daxpy_loop)
        # 3 memory ops on 2 ports -> 1.5.
        assert resource_mii(deps, ITANIUM2) == pytest.approx(1.5)

    def test_narrow_machine_raises_bound(self, daxpy_loop):
        deps = analyze_dependences(daxpy_loop)
        # 1 memory port -> 3 memory slots.
        assert resource_mii(deps, NARROW) >= 3.0

    def test_non_pipelined_ops_count_full_latency(self):
        builder = LoopBuilder("t", TripInfo(runtime=64))
        a = builder.load("a")
        builder.store(builder.fp(Opcode.FDIV, a, builder.fconst(3.0)), "out")
        deps = analyze_dependences(builder.build())
        # The divide blocks an FP unit for its full 24 cycles.
        assert resource_mii(deps, ITANIUM2) >= 12.0

    def test_branches_cost_whole_cycles(self):
        from repro.workloads.kernels import sentinel_search

        deps = analyze_dependences(sentinel_search(trip=32, entries=1))
        assert resource_mii(deps, ITANIUM2) >= 1.0


class TestRecurrenceMII:
    def test_dataflow_only_loop_has_unit_recmii(self, daxpy_loop):
        deps = analyze_dependences(daxpy_loop)
        assert recurrence_mii(deps, ITANIUM2) == 1

    def test_reduction_recmii_is_add_latency(self, reduction_loop):
        loop, _, _ = reduction_loop
        deps = analyze_dependences(loop)
        assert recurrence_mii(deps, ITANIUM2) == ITANIUM2.latencies[Opcode.FADD]

    def test_memory_recurrence_divides_by_distance(self):
        # a[i+3] = f(a[i]): latency of (load; fmul; store->load) over
        # distance 3.
        builder = LoopBuilder("t", TripInfo(runtime=64))
        value = builder.load("a", offset=0)
        scaled = builder.fp(Opcode.FMUL, value, builder.fconst(0.5))
        builder.store(scaled, "a", offset=3)
        deps = analyze_dependences(builder.build())
        machine = ITANIUM2
        chain = machine.load_latency + machine.latencies[Opcode.FMUL] + 1
        expected = -(-chain // 3)
        assert recurrence_mii(deps, machine) == expected

    def test_longer_distance_lowers_recmii(self):
        def rec_mii_for(distance):
            builder = LoopBuilder("t", TripInfo(runtime=64))
            value = builder.load("a", offset=0)
            scaled = builder.fp(Opcode.FMUL, value, builder.fconst(0.5))
            builder.store(scaled, "a", offset=distance)
            return recurrence_mii(analyze_dependences(builder.build()), ITANIUM2)

        assert rec_mii_for(1) > rec_mii_for(4)


class TestKernelSchedules:
    def test_daxpy_achieves_small_ii(self, daxpy_loop):
        deps, kernel = assert_kernel_legal(daxpy_loop, ITANIUM2)
        assert kernel.ii <= 3  # ceil(1.5) + slack

    def test_reduction_ii_bounded_by_recurrence(self, reduction_loop):
        loop, _, _ = reduction_loop
        deps, kernel = assert_kernel_legal(loop, ITANIUM2)
        assert kernel.ii >= ITANIUM2.latencies[Opcode.FADD]

    def test_unrolled_body_fractional_ii_recovery(self, daxpy_loop):
        """The paper's fractional-II effect: unrolling by 2 schedules two
        iterations in ceil(2 * 1.5) = 3 cycles, 1.5/iteration."""
        from repro.transforms.unroll import unroll

        rolled = modulo_schedule(analyze_dependences(daxpy_loop), ITANIUM2)
        unrolled_loop = unroll(daxpy_loop, 2).main
        unrolled = modulo_schedule(analyze_dependences(unrolled_loop), ITANIUM2)
        assert rolled.ii / 1 > unrolled.ii / 2

    def test_stencil_kernel_legal(self, stencil_loop):
        assert_kernel_legal(stencil_loop, ITANIUM2)

    def test_narrow_machine_kernels_legal(self, daxpy_loop, stencil_loop):
        assert_kernel_legal(daxpy_loop, NARROW)
        assert_kernel_legal(stencil_loop, NARROW)

    def test_infeasible_budget_raises(self, daxpy_loop):
        deps = analyze_dependences(daxpy_loop)
        with pytest.raises(ModuloScheduleError):
            modulo_schedule(deps, ITANIUM2, ii_budget=0)


class TestSWPPressure:
    def test_pressure_counts_overlapping_lifetimes(self, daxpy_loop):
        deps = analyze_dependences(daxpy_loop)
        kernel = modulo_schedule(deps, ITANIUM2)
        int_need, fp_need = swp_register_pressure(deps, kernel)
        assert fp_need >= 3  # two loaded values + the fma result in flight
        assert int_need == 0

    def test_longer_lifetimes_need_more_rotating_registers(self, reduction_loop):
        loop, _, _ = reduction_loop
        deps = analyze_dependences(loop)
        kernel = modulo_schedule(deps, ITANIUM2)
        int_need, fp_need = swp_register_pressure(deps, kernel)
        assert fp_need >= 2


class TestIntegerMII:
    def test_kernel_mii_uses_the_search_rounding(self):
        # 2.0004 rounds up to 3 at the search's 1e-6 resolution; a coarser
        # 1e-3 rounding would give 2.
        assert integer_mii(2.0004, 1) == 3
        kernel = ModuloSchedule(ii=3, stages=1, start=(0,), res_mii=2.0004, rec_mii=1)
        assert kernel.mii == 3

    def test_float_noise_below_the_resolution_adds_no_cycle(self):
        assert integer_mii(2.0000000001, 1) == 2
        assert integer_mii(1.5, 1) == 2
        assert integer_mii(0.25, 0) == 1
        assert integer_mii(1.5, 4) == 4

    def test_search_starts_at_the_kernel_mii(self, daxpy_loop):
        deps = analyze_dependences(daxpy_loop)
        kernel = modulo_schedule(deps, ITANIUM2)
        assert kernel.mii == integer_mii(
            resource_mii(deps, ITANIUM2), recurrence_mii(deps, ITANIUM2)
        )
        assert kernel.ii >= kernel.mii


# ----------------------------------------------------------------------
# The drift exit of the table-driven IMS attempt.
# ----------------------------------------------------------------------


def _hand_built(ops, edges):
    """A dependence graph over one instruction per opcode in ``ops``, with
    exactly the ``(src, dst, kind name, distance)`` edges given."""
    builder = LoopBuilder("hand", TripInfo(runtime=64))
    body = []
    for op in ops:
        if op is Opcode.LOAD:
            builder.load("a")
        elif op is Opcode.STORE:
            builder.store(builder.fconst(1.0), "out")
        elif op is Opcode.ADD:
            builder.intop(op, builder.iconst(1), builder.iconst(2))
        else:
            builder.fp(op, builder.fconst(1.0), builder.fconst(2.0))
        body.append(builder._body[-1])
    return DependenceGraph(
        tuple(body),
        [DepEdge(src, dst, DepKind[kind], dist) for src, dst, kind, dist in edges],
    )


class _DriftSpy:
    """Wraps ``modulo._drift_repeats``: counts the exits it grants and keeps
    the arguments of each."""

    def __init__(self, monkeypatch):
        self.fired = []
        real = modulo._drift_repeats

        def spy(*args):
            repeats = real(*args)
            if repeats:
                pre, ii, snapshot, start, last_tried, placed_kind, worklist = args
                self.fired.append(
                    (pre, ii, snapshot, list(start), list(last_tried),
                     list(placed_kind), list(worklist))
                )
            return repeats

        monkeypatch.setattr(modulo, "_drift_repeats", spy)


@pytest.fixture(scope="module")
def ims_attempts():
    """Every II attempt ``modulo_schedule`` makes on the SWP-eligible
    unrolled bodies of a small generated suite at factors 1-8, with its
    result, plus the drift states at which the attempts exited early."""
    picks = [ROSTER[1], ROSTER[0], ROSTER[28], ROSTER[44], ROSTER[56], ROSTER[64]]
    seeds = np.random.SeedSequence(1234).spawn(len(picks))
    suite = Suite(
        name="drift",
        benchmarks=tuple(
            generate_benchmark(info, np.random.default_rng(seed), loops_scale=0.1)
            for info, seed in zip(picks, seeds)
        ),
    )
    attempts = []
    real_attempt = modulo._try_ii_tables

    def record(pre, ii, budget):
        result = real_attempt(pre, ii, budget)
        attempts.append((pre, ii, budget, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        spy = _DriftSpy(patch)
        patch.setattr(modulo, "_try_ii_tables", record)
        model = CostModel(swp=True)
        for benchmark in suite.benchmarks:
            for loop in benchmark.loops:
                for factor in range(1, MAX_UNROLL + 1):
                    model.loop_cost(loop, factor)
    return attempts, spy.fired


class TestDriftExit:
    def test_every_attempt_matches_the_reference(self, ims_attempts):
        attempts, fired = ims_attempts
        assert any(result is None for _, _, _, result in attempts)
        for pre, ii, budget, result in attempts:
            assert result == modulo._try_ii(pre.deps, pre.machine, ii, budget)

    def test_the_exit_fires_on_failing_attempts(self, ims_attempts):
        attempts, fired = ims_attempts
        failing = sum(result is None for _, _, _, result in attempts)
        assert 0 < len(fired) <= failing

    def test_drift_into_a_fixed_successor_does_not_exit(self, monkeypatch):
        # At II 3, ops 1-6 drift one II per round while op 0 stays at
        # cycle 0: a shifted repeat except for the edge 4 -> 0 (distance
        # 3).  Once op 4 passes cycle 8 that edge ejects op 0, and the
        # attempt then finds a schedule.
        deps = _hand_built(
            [Opcode.STORE, Opcode.STORE, Opcode.FMUL, Opcode.FMUL,
             Opcode.ADD, Opcode.FMUL, Opcode.ADD],
            [(2, 3, "FLOW", 1), (5, 1, "FLOW", 1), (5, 6, "MEM_OUTPUT", 1),
             (1, 3, "FLOW", 0), (2, 3, "MEM_OUTPUT", 3), (3, 3, "MEM_OUTPUT", 2),
             (4, 5, "MEM_OUTPUT", 0), (0, 1, "MEM_OUTPUT", 1), (4, 0, "MEM_OUTPUT", 3),
             (3, 5, "FLOW", 2), (1, 4, "ANTI", 2), (5, 1, "FLOW", 1),
             (5, 2, "MEM_OUTPUT", 1), (4, 2, "MEM_OUTPUT", 2)],
        )
        pre = SchedPrecomp.build(deps, NARROW)
        spy = _DriftSpy(monkeypatch)
        expected = modulo._try_ii(deps, NARROW, 3, 70)
        assert expected is not None
        assert modulo._try_ii_tables(pre, 3, 70) == expected
        assert spy.fired == []

    @pytest.fixture
    def drift_state(self, ims_attempts):
        """A real state at which the exit fired, with a placed op outside
        ``D`` that has an edge to or from ``D``, and ``D`` itself."""
        _, fired = ims_attempts
        for pre, ii, snapshot, start, last_tried, placed_kind, worklist in fired:
            drift = [i for i in range(pre.n) if last_tried[i] != snapshot[1][i]]
            fixed = [
                j for j in range(pre.n)
                if j not in drift and start[j] is not None
            ]
            if fixed:
                return pre, ii, snapshot, start, last_tried, placed_kind, worklist, drift, fixed
        pytest.fail("no drift exit with a placed op outside the drifting set")

    @staticmethod
    def _with_edge(pre, src, dst, lat, dist):
        succs = [list(row) for row in pre.succs]
        preds = [list(row) for row in pre.preds]
        succs[src].append((dst, lat, dist))
        preds[dst].append((src, lat, dist))
        return dataclasses.replace(
            pre,
            succs=tuple(tuple(row) for row in succs),
            preds=tuple(tuple(row) for row in preds),
        )

    @pytest.mark.parametrize("condition", ["a", "b", "c", "d", "e", "f"])
    def test_each_condition_alone_blocks_the_exit(self, drift_state, condition):
        pre, ii, snapshot, start, last_tried, placed_kind, worklist, drift, fixed = drift_state
        assert modulo._drift_repeats(
            pre, ii, snapshot, start, last_tried, placed_kind, worklist
        )
        snap_start, snap_last, snap_kind, snap_work = snapshot
        start, last_tried, placed_kind = list(start), list(last_tried), list(placed_kind)
        snap_last = list(snap_last)
        i, j = drift[0], fixed[0]
        if condition == "a":  # a placed op changed its unit kind
            placed_kind[j] = placed_kind[j] + 1
        elif condition == "b":  # one op of D drifted a further II
            last_tried[i] += ii
            if start[i] is not None:
                start[i] += ii
        elif condition == "c":  # an op outside D moved by a whole II
            start[j] += ii
        elif condition == "d":  # an op of D had never been tried
            shift = last_tried[i] - snap_last[i]
            snap_last[i] = -1
            last_tried[i] = shift - 1
        elif condition == "e":  # D feeds the placed op j
            pre = self._with_edge(pre, i, j, 0, 0)
        else:  # the placed op j binds on i's next try
            pre = self._with_edge(pre, j, i, max(0, snap_last[i] + 2 - start[j]), 0)
        snapshot = (snap_start, snap_last, snap_kind, snap_work)
        assert not modulo._drift_repeats(
            pre, ii, snapshot, start, last_tried, placed_kind, worklist
        )
