"""Unit tests for dependence analysis."""

import pytest

from repro.ir.builder import LoopBuilder
from repro.ir.dependence import DepKind, analyze_dependences
from repro.ir.loop import TripInfo
from repro.ir.types import CmpOp, DType, Opcode
from repro.machine import ITANIUM2


def _edges(graph, kind=None):
    return [
        e for e in graph.edges if kind is None or e.kind is kind
    ]


class TestRegisterDependences:
    def test_flow_edge_from_def_to_use(self, daxpy_loop):
        graph = analyze_dependences(daxpy_loop)
        flows = _edges(graph, DepKind.FLOW)
        # load x -> fma, load y -> fma, fma -> store.
        assert {(e.src, e.dst) for e in flows} == {(0, 2), (1, 2), (2, 3)}
        assert all(e.distance == 0 for e in flows)

    def test_carried_flow_for_recurrence(self, reduction_loop):
        loop, acc, _ = reduction_loop
        graph = analyze_dependences(loop)
        carried = [e for e in graph.edges if e.distance == 1 and e.kind is DepKind.FLOW]
        assert len(carried) == 1
        # The FADD (position 1) feeds itself one iteration later.
        assert carried[0].src == 1 and carried[0].dst == 1

    def test_double_definition_rejected(self):
        builder = LoopBuilder("t", TripInfo(runtime=4))
        value = builder.load("a")
        builder.fp(Opcode.FADD, value, value, dest=value)  # redefines value
        loop = builder.build(validate=False)
        with pytest.raises(ValueError, match="defined twice"):
            analyze_dependences(loop)


class TestMemoryDependences:
    def test_store_load_forwarding_distance(self):
        # store a[i+2]; load a[i] => the load 2 iterations later conflicts.
        builder = LoopBuilder("t", TripInfo(runtime=16))
        value = builder.load("a", offset=0)
        scaled = builder.fp(Opcode.FMUL, value, builder.fconst(0.5))
        builder.store(scaled, "a", offset=2)
        loop = builder.build()
        graph = analyze_dependences(loop)
        mem_flow = _edges(graph, DepKind.MEM_FLOW)
        assert any(e.distance == 2 and e.src == 2 and e.dst == 0 for e in mem_flow)

    def test_independent_arrays_have_no_mem_edges(self, daxpy_loop):
        graph = analyze_dependences(daxpy_loop)
        # x is only loaded; y has a load and a store at the same address.
        mem = [e for e in graph.edges if e.kind.is_memory]
        assert all(
            daxpy_loop.body[e.src].mem.array == "y" for e in mem
        )

    def test_same_address_load_store_intra_iteration(self, daxpy_loop):
        graph = analyze_dependences(daxpy_loop)
        anti = _edges(graph, DepKind.MEM_ANTI)
        # load y[i] (pos 1) then store y[i] (pos 3), distance 0.
        assert any(e.src == 1 and e.dst == 3 and e.distance == 0 for e in anti)

    def test_indirect_store_creates_may_edges(self):
        from repro.workloads.kernels import scatter_increment

        loop = scatter_increment(trip=16, entries=1)
        graph = analyze_dependences(loop)
        may = _edges(graph, DepKind.MEM_MAY)
        assert may, "indirect store/load must produce conservative edges"
        assert any(e.distance == 1 for e in may)

    def test_load_load_pairs_are_free(self, stencil_loop):
        graph = analyze_dependences(stencil_loop)
        mem = [e for e in graph.edges if e.kind.is_memory]
        # Three loads of 'a' overlap across iterations, but no store to 'a'
        # exists, so no memory edges constrain them.
        assert all(stencil_loop.body[e.src].mem.array != "a" or
                   stencil_loop.body[e.dst].mem.array != "a" for e in mem)


class TestControlDependences:
    def test_exit_branch_guards_later_stores(self):
        builder = LoopBuilder("t", TripInfo(runtime=16, counted=False))
        value = builder.load("a")
        hit = builder.cmp(CmpOp.GT, value, builder.fconst(1.0), fp=True)
        builder.exit_if(hit)
        builder.store(value, "out")
        loop = builder.build()
        graph = analyze_dependences(loop)
        control = _edges(graph, DepKind.CONTROL)
        assert len(control) == 1
        assert loop.body[control[0].src].op is Opcode.BR_EXIT
        assert loop.body[control[0].dst].op is Opcode.STORE

    def test_loads_may_be_hoisted_past_exits(self):
        builder = LoopBuilder("t", TripInfo(runtime=16, counted=False))
        value = builder.load("a")
        hit = builder.cmp(CmpOp.GT, value, builder.fconst(1.0), fp=True)
        builder.exit_if(hit)
        later = builder.load("b")
        builder.store(later, "out")
        loop = builder.build()
        graph = analyze_dependences(loop)
        control_targets = {e.dst for e in _edges(graph, DepKind.CONTROL)}
        assert 3 not in control_targets  # the load of b is speculatable


class TestGraphQueries:
    def test_critical_path_includes_latencies(self, daxpy_loop):
        graph = analyze_dependences(daxpy_loop)
        # load (6) -> fma (4) -> store (1) = 11.
        assert graph.critical_path_length(ITANIUM2) == 11

    def test_components_counts_independent_strands(self):
        builder = LoopBuilder("t", TripInfo(runtime=8))
        a = builder.load("a")
        builder.store(a, "out1")
        b = builder.load("b")
        builder.store(b, "out2")
        graph = analyze_dependences(builder.build())
        assert graph.n_components() == 2

    def test_dependence_heights(self, daxpy_loop):
        graph = analyze_dependences(daxpy_loop)
        heights = graph.dependence_heights()
        assert heights[0] == 1  # load x
        assert heights[2] == 2  # fma
        assert heights[3] == 3  # store

    def test_fan_in_degrees(self, daxpy_loop):
        graph = analyze_dependences(daxpy_loop)
        degrees = graph.fan_in_degrees()
        assert degrees[2] == 2  # the fma consumes both loads
