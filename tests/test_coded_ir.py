"""Differential tests: integer-coded bodies against the object IR.

The fast cost engine lowers each source loop once (:mod:`repro.ir.coded`)
and unrolls, cleans up, analyses and schedules on integer tables; the
object passes stay the oracle.  These tests compare the two paths after
every pass and under every :class:`OptimizationPlan` in ``PLANS`` — body
for body (un-lowered), then dependence edges edge for edge and in order,
then the scheduler tables, ``max_live`` and ``swp_register_pressure`` —
on :func:`random_loops` and on :func:`pattern_loops`, which adds indirect
references, early-exit while loops, non-unit strides, wide loads and
predicated stores.
"""

import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.simulate.executor as executor
from repro.ir import coded
from repro.ir.builder import LoopBuilder
from repro.ir.dependence import analyze_dependences
from repro.ir.instruction import Instruction, binop, load, store
from repro.ir.loop import Loop, TripInfo
from repro.ir.types import CmpOp, DType, Opcode
from repro.ir.values import Imm, MemRef, Reg
from repro.machine import ITANIUM2, NARROW
from repro.sched.list_scheduler import list_schedule
from repro.sched.modulo import (
    ModuloSchedule,
    ModuloScheduleError,
    modulo_schedule,
    swp_register_pressure,
)
from repro.sched.precompute import SchedPrecomp
from repro.sched.regpressure import max_live
from repro.simulate.executor import CostModel
from repro.transforms.coalesce import coalesce_loads
from repro.transforms.dce import eliminate_dead_code
from repro.transforms.pipeline import optimize_for_factor
from repro.transforms.scalar_replacement import scalar_replace
from repro.transforms.unroll import unroll

from tests.strategies import AWKWARD_TRIPS, PLANS, pattern_loops, random_loops

LOOPS = st.one_of(random_loops(), pattern_loops())


def _fields(body):
    """Instructions without their uids."""
    return [
        (i.op, i.dest, i.srcs, i.mem, i.pred, i.cmp_op, i.dest2, i.implicit)
        for i in body
    ]


def _edges(graph):
    return [(e.src, e.dst, e.kind.code, e.distance) for e in graph.edges]


def _object_stages(loop, factor, plan):
    """``(stage, main body, remainder body)`` after each object pass."""
    result = unroll(loop, factor)
    stages = [("unroll", result.main, result.remainder)]
    main = result.main
    if main is not None:
        for stage, switch, apply in (
            ("scalar replacement", plan.scalar_replacement, scalar_replace),
            ("coalescing", plan.coalescing, coalesce_loads),
            ("dce", plan.dead_code_elimination, eliminate_dead_code),
        ):
            if switch:
                main = apply(main)
                stages.append((stage, main, result.remainder))
    return stages


def _coded_stages(loop, factor, plan):
    code = coded.lower(loop)
    result = coded.unroll(code, factor)
    stages = [("unroll", result.main, result.remainder)]
    main = result.main
    if main is not None:
        body = main.body
        for stage, switch, apply in (
            ("scalar replacement", plan.scalar_replacement, coded.scalar_replace),
            ("coalescing", plan.coalescing, coded.coalesce),
            ("dce", plan.dead_code_elimination, coded.eliminate_dead_code),
        ):
            if switch:
                body = apply(body)
                part = coded.CodedPart(code, main.name, body, main.trip, main.unroll_factor)
                stages.append((stage, part, result.remainder))
    return stages


def _assert_parts_match(obj, part):
    assert (obj is None) == (part is None)
    if obj is None:
        return
    assert _fields(coded.unlower_part(part)) == _fields(obj.body)
    assert part.trip == obj.trip
    assert part.unroll_factor == obj.unroll_factor
    assert part.swp_eligible == obj.swp_eligible


def _assert_analyses_match(obj, part, machine):
    graph = analyze_dependences(obj)
    deps = coded.analyze_dependences(part)
    assert deps.edges == _edges(graph)
    assert _fields(deps.graph().body) == _fields(graph.body)

    pre_obj = SchedPrecomp.build(graph, machine)
    pre = SchedPrecomp.build(deps, machine)
    for table in ("lat", "occ", "fu_opts", "height", "order", "rank", "succs",
                  "preds", "succs0", "preds0_count", "carried"):
        assert getattr(pre, table) == getattr(pre_obj, table), table

    schedule = list_schedule(graph, machine, pre=pre_obj)
    assert list_schedule(deps, machine, pre=pre) == schedule
    assert coded.max_live(deps, schedule) == max_live(graph, schedule)
    try:
        kernel = modulo_schedule(graph, machine, pre=pre_obj)
    except ModuloScheduleError:
        kernel = None
    if kernel is not None:
        assert coded.swp_register_pressure(deps, kernel) == swp_register_pressure(
            graph, kernel
        )
    # Carried lifetimes (a use before the def) and a tight II.
    reversed_start = tuple(reversed(schedule.start))
    for ii in (1, 3):
        fake = ModuloSchedule(ii, 1, reversed_start, 1.0, 1)
        assert coded.swp_register_pressure(deps, fake) == swp_register_pressure(
            graph, fake
        )


class TestEveryPass:
    @given(
        loop=LOOPS,
        factor=st.integers(1, 8),
        plan=st.sampled_from(PLANS),
        machine=st.sampled_from([ITANIUM2, NARROW]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bodies_edges_and_pressure_match_after_every_pass(
        self, loop, factor, plan, machine
    ):
        object_stages = _object_stages(loop, factor, plan)
        coded_stages = _coded_stages(loop, factor, plan)
        assert [s[0] for s in coded_stages] == [s[0] for s in object_stages]
        for (_, obj_main, obj_rem), (_, main, rem) in zip(object_stages, coded_stages):
            _assert_parts_match(obj_main, main)
            _assert_parts_match(obj_rem, rem)
            for obj, part in ((obj_main, main), (obj_rem, rem)):
                if obj is not None:
                    _assert_analyses_match(obj, part, machine)

    @given(loop=LOOPS, factor=st.integers(1, 8), plan=st.sampled_from(PLANS))
    @settings(max_examples=80, deadline=None)
    def test_optimize_for_factor_matches(self, loop, factor, plan):
        expected = optimize_for_factor(loop, factor, plan)
        result = coded.optimize_for_factor(coded.lower(loop), factor, plan)
        _assert_parts_match(expected.main, result.main)
        _assert_parts_match(expected.remainder, result.remainder)
        assert result.factor == expected.factor
        assert result.requested_factor == expected.requested_factor
        assert result.emitted_size == expected.emitted_size
        assert result.remainder_emitted == expected.remainder_emitted
        assert result.needs_precondition == expected.needs_precondition

    @given(
        loop=pattern_loops(),
        factor=st.integers(1, 8),
        swp=st.booleans(),
        plan=st.sampled_from(PLANS),
    )
    @settings(max_examples=80, deadline=None)
    def test_fast_engine_matches_reference(self, loop, factor, swp, plan):
        fast = CostModel(swp=swp, plan=plan)
        reference = CostModel(swp=swp, plan=plan, engine="reference")
        assert fast.loop_cost(loop, factor) == reference.loop_cost(loop, factor)


class TestLowering:
    @given(loop=LOOPS)
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, loop):
        code = coded.lower(loop)
        assert _fields(coded.unlower_body(code, code.body)) == _fields(loop.body)
        assert {(code.reg_names[r], code.reg_dtypes[r]) for r in code.carried} == {
            (r.name, r.dtype) for r in loop.carried_regs()
        }

    def test_memo_is_per_instance_and_left_out_of_pickles(self, daxpy_loop):
        code = coded.lower(daxpy_loop)
        assert coded.lower(daxpy_loop) is code
        CostModel().loop_cost(daxpy_loop, 5)  # 96 trips: a remainder of 1
        assert daxpy_loop.__dict__.get("_remainders")
        twin = pickle.loads(pickle.dumps(daxpy_loop))
        assert "_coded" not in twin.__dict__
        assert "_remainders" not in twin.__dict__
        assert twin == daxpy_loop
        assert coded.lower(twin) is not code

    def test_per_copy_names_collide_as_in_the_object_unroller(self):
        # At factor 2 the last copy renames ``x`` to ``x.1`` and writes the
        # carried ``x.1`` back under its own name: the object unroller
        # writes one register twice, and the coded one must give both
        # names one id (and both analyses must refuse the body).
        x, acc, t = Reg("x", DType.F64), Reg("x.1", DType.F64), Reg("t.0", DType.F64)
        body = (
            load(x, MemRef("a")),
            binop(Opcode.FADD, acc, acc, x),
            load(Reg("t", DType.F64), MemRef("b")),
            store(t, MemRef("c")),  # an invariant named like a copy of t
        )
        loop = Loop("collide", body, TripInfo(runtime=9))
        for factor in range(1, 9):
            expected = unroll(loop, factor)
            result = coded.unroll(coded.lower(loop), factor)
            _assert_parts_match(expected.main, result.main)
            _assert_parts_match(expected.remainder, result.remainder)
        with pytest.raises(ValueError, match="defined twice"):
            analyze_dependences(unroll(loop, 2).main)
        with pytest.raises(ValueError, match="defined twice"):
            coded.analyze_dependences(coded.unroll(coded.lower(loop), 2).main)

    def test_unusual_operands_survive_the_round_trip(self):
        # An immediate store value (forwarded as ``mov dest, imm``), a
        # predicated load, a compare kind, an implicit op, and an affine
        # reference that still names an index register.
        pred, idx = Reg("p", DType.PRED), Reg("k", DType.I64)
        x, y, z = Reg("x", DType.F64), Reg("y", DType.F64), Reg("z", DType.F64)
        body = (
            Instruction(Opcode.CMP, dest=pred, srcs=(idx, Imm(3)), cmp_op=CmpOp.LT),
            store(Imm(2.5, DType.F64), MemRef("a")),
            load(x, MemRef("a")),
            Instruction(Opcode.LOAD, dest=y, mem=MemRef("b", index_reg=idx),
                        pred=pred, implicit=True),
            binop(Opcode.FADD, z, x, y),
            store(z, MemRef("c")),
        )
        loop = Loop("odd", body, TripInfo(runtime=5))
        for plan in PLANS:
            for factor in (1, 2, 3):
                expected = optimize_for_factor(loop, factor, plan)
                result = coded.optimize_for_factor(coded.lower(loop), factor, plan)
                _assert_parts_match(expected.main, result.main)
                _assert_parts_match(expected.remainder, result.remainder)

    def test_errors_match_the_object_unroller(self, daxpy_loop):
        code = coded.lower(daxpy_loop)
        for factor in (0, 9):
            with pytest.raises(ValueError, match="unroll factor"):
                unroll(daxpy_loop, factor)
            with pytest.raises(ValueError, match="unroll factor"):
                coded.unroll(code, factor)
        rolled = unroll(daxpy_loop, 2).main
        with pytest.raises(ValueError, match="already unrolled"):
            coded.unroll(coded.lower(rolled), 2)
        endless = Loop(
            "endless", daxpy_loop.body, TripInfo(runtime=8, counted=False)
        )
        with pytest.raises(ValueError, match="no exit branch"):
            unroll(endless, 2)
        with pytest.raises(ValueError, match="no exit branch"):
            coded.unroll(coded.lower(endless), 2)

    def test_dead_chains_need_several_object_rounds(self):
        builder = LoopBuilder("dead", TripInfo(runtime=16))
        value = builder.load("a")
        for _ in range(5):
            value = builder.fp(Opcode.FMUL, value, builder.fconst(2.0))
        builder.store(builder.load("b"), "c")
        loop = builder.build()
        code = coded.lower(loop)
        kept = coded.eliminate_dead_code(code.body)
        assert _fields(coded.unlower_body(code, kept)) == _fields(
            eliminate_dead_code(loop).body
        )
        assert len(kept) == 2

    def test_dce_refuses_to_empty_a_body(self):
        x = Reg("x", DType.F64)
        loop = Loop("void", (load(x, MemRef("a")),), TripInfo(runtime=4))
        with pytest.raises(ValueError, match="entire body"):
            eliminate_dead_code(loop)
        with pytest.raises(ValueError, match="entire body"):
            coded.eliminate_dead_code(coded.lower(loop).body, "void")


@st.composite
def _awkward_pattern_loops(draw):
    loop = draw(pattern_loops())
    trip = draw(AWKWARD_TRIPS)
    known = loop.trip.counted and draw(st.booleans())
    return Loop(
        loop.name,
        loop.body,
        TripInfo(trip, trip if known else None, loop.trip.counted),
        arrays=loop.arrays,
        entry_count=draw(st.integers(1, 5)),
    )


class TestRemainder:
    @given(loop=st.one_of(random_loops(), _awkward_pattern_loops()))
    @settings(max_examples=30, deadline=None)
    def test_a_remainder_analyses_like_its_source_body(self, loop):
        source = analyze_dependences(loop)
        for factor in range(2, 9):
            remainder = unroll(loop, factor).remainder
            if remainder is not None:
                assert _edges(analyze_dependences(remainder)) == _edges(source)

    @given(
        loop=_awkward_pattern_loops(),
        swp=st.booleans(),
        plan=st.sampled_from(PLANS),
    )
    @settings(max_examples=25, deadline=None)
    def test_awkward_trips_match_the_reference_engine(self, loop, swp, plan):
        fast = CostModel(swp=swp, plan=plan)
        reference = CostModel(swp=swp, plan=plan, engine="reference")
        for factor in range(1, 9):
            assert fast.loop_cost(loop, factor) == reference.loop_cost(loop, factor)

    def test_one_remainder_analysis_per_loop(self, monkeypatch):
        builder = LoopBuilder("awkward", TripInfo(runtime=97))
        builder.store(builder.fp(Opcode.FADD, builder.load("a"), builder.fconst(1.0)), "b")
        loop = builder.build()
        calls = []
        real = executor.analyze_dependences

        def counting(part):
            calls.append(part.name)
            return real(part)

        monkeypatch.setattr(executor, "analyze_dependences", counting)
        off, on = CostModel(swp=False), CostModel(swp=True)
        for factor in range(2, 9):
            off.loop_cost(loop, factor)
            on.loop_cost(loop, factor)
        assert calls.count("awkward#rem") == 1
        first = off.analyze(loop, 2).rem
        assert all(off.analyze(loop, f).rem is first for f in range(3, 9))
        assert all(on.analyze(loop, f).rem is first for f in range(2, 9))

    def test_dropped_loops_leave_no_cyclic_garbage(self):
        # Labelling pauses the cyclic collector (pool workers for life), so
        # the per-loop memos must be freed by reference counting alone.
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            builder = LoopBuilder("cycles", TripInfo(runtime=29))
            builder.store(builder.fp(Opcode.FMUL, builder.load("a"), builder.fconst(2.0)), "b")
            loop = builder.build()
            model = CostModel(swp=True)
            for factor in range(1, 9):
                model.loop_cost(loop, factor)
            assert "_coded" in loop.__dict__
            del loop, model, builder
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
