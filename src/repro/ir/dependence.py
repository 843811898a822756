"""Dependence analysis for loop bodies.

Builds the dependence graph of a single loop body: register flow/anti
dependences (including loop-carried recurrences), exact affine memory
dependences with integer iteration distances, conservative "may" dependences
for indirect references, and control dependences from early-exit branches to
later side effects.

Edges carry an iteration *distance*: 0 for intra-iteration dependences and
``d >= 1`` for values that flow around the backedge ``d`` iterations later.
Distance-0 edges always point forward in body order, so the intra-iteration
subgraph is a DAG; carried edges may point backward and create the cycles
whose latency/distance ratio bounds the software pipeliner's RecMII.

The graph is stored as plain adjacency lists for speed (it sits on the
labelling pipeline's hot path).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.ir.instruction import Instruction
from repro.ir.loop import Loop
from repro.ir.types import Opcode
from repro.ir.values import MemRef, Reg

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.model import MachineModel


class DepKind(enum.Enum):
    """Dependence edge classification."""

    FLOW = "flow"  # register def -> use
    ANTI = "anti"  # register use -> (next iteration's) def
    MEM_FLOW = "mem_flow"  # store -> load of the same location
    MEM_ANTI = "mem_anti"  # load -> store over the same location
    MEM_OUTPUT = "mem_out"  # store -> store over the same location
    MEM_MAY = "mem_may"  # conservative edge (indirect reference)
    CONTROL = "control"  # exit branch -> later side effect

    # ``code`` and ``is_memory`` are plain member attributes installed below
    # (as on ``Opcode``): feature extraction reads them once per edge.


#: Small integer id per kind (declaration order): the kind's form in the
#: edge tuples of :mod:`repro.ir.coded` and :class:`SchedPrecomp`'s build.
#: ``is_memory``: the edge orders two memory operations.
for _code, _kind in enumerate(DepKind):
    _kind.code = _code
    _kind.is_memory = _kind in (
        DepKind.MEM_FLOW, DepKind.MEM_ANTI, DepKind.MEM_OUTPUT, DepKind.MEM_MAY
    )
del _code, _kind


@dataclass(frozen=True)
class DepEdge:
    """A dependence from body position ``src`` to body position ``dst``.

    ``distance`` counts backedge traversals: the constraint is
    ``start(dst) + II * distance >= start(src) + latency``.
    """

    src: int
    dst: int
    kind: DepKind
    distance: int


def edge_latency(edge: DepEdge, body: tuple[Instruction, ...], machine: "MachineModel") -> int:
    """Scheduling latency of a dependence edge.

    Flow dependences wait for the producer's full latency; anti and control
    dependences only require issue-order (latency 0, i.e. same cycle is
    legal); memory output/may dependences keep a one-cycle separation so the
    memory system observes program order.
    """
    if edge.kind in (DepKind.FLOW, DepKind.MEM_FLOW):
        return machine.latency(body[edge.src])
    if edge.kind in (DepKind.MEM_OUTPUT, DepKind.MEM_MAY):
        return 1
    return 0


class DependenceGraph:
    """Dependence graph over one loop body.

    Node ``i`` is ``body[i]``.  Use :attr:`edges` for the full edge list and
    :attr:`succs` / :attr:`preds` for adjacency (lists of
    ``(neighbor, edge)`` pairs).
    """

    def __init__(self, body: tuple[Instruction, ...], edges: list[DepEdge]):
        self.body = body
        self.edges = edges
        n = len(body)
        self.succs: list[list[tuple[int, DepEdge]]] = [[] for _ in range(n)]
        self.preds: list[list[tuple[int, DepEdge]]] = [[] for _ in range(n)]
        for edge in edges:
            self.succs[edge.src].append((edge.dst, edge))
            self.preds[edge.dst].append((edge.src, edge))

    def __len__(self) -> int:
        return len(self.body)

    # ------------------------------------------------------------------
    # Queries used by features and schedulers.
    # ------------------------------------------------------------------

    def acyclic_edges(self) -> Iterable[DepEdge]:
        """Intra-iteration (distance 0) edges: a DAG in body order."""
        return (e for e in self.edges if e.distance == 0)

    def carried_edges(self) -> Iterable[DepEdge]:
        """Loop-carried (distance >= 1) edges."""
        return (e for e in self.edges if e.distance >= 1)

    def critical_path_length(self, machine: "MachineModel") -> int:
        """Longest latency-weighted path through the intra-iteration DAG,
        including the final node's own latency (the earliest cycle by which
        the whole body's dataflow can complete)."""
        n = len(self.body)
        finish = [0] * n
        for i in range(n):  # body order is a topological order for dist-0 edges
            start = 0
            for j, edge in self.preds[i]:
                if edge.distance == 0:
                    lat = edge_latency(edge, self.body, machine)
                    if finish[j] + lat > start:
                        start = finish[j] + lat
            finish[i] = start
        if n == 0:
            return 0
        return max(finish[i] + machine.latency(self.body[i]) for i in range(n)) if n else 0

    def dependence_heights(self) -> list[int]:
        """Unit-latency height of every node in the intra-iteration DAG
        (length of the longest dependence chain ending at the node)."""
        n = len(self.body)
        height = [1] * n
        for i in range(n):
            for j, edge in self.preds[i]:
                if edge.distance == 0 and height[j] + 1 > height[i]:
                    height[i] = height[j] + 1
        return height

    def memory_chain_height(self) -> int:
        """Longest chain of memory operations linked by memory dependences."""
        return self._chain_height(lambda e: e.kind.is_memory)

    def control_chain_height(self) -> int:
        """Longest chain of control dependences."""
        return self._chain_height(lambda e: e.kind is DepKind.CONTROL)

    def _chain_height(self, keep) -> int:
        n = len(self.body)
        relevant_nodes = {e.src for e in self.edges if keep(e) and e.distance == 0}
        relevant_nodes |= {e.dst for e in self.edges if keep(e) and e.distance == 0}
        if not relevant_nodes:
            return 0
        height = dict.fromkeys(relevant_nodes, 1)
        for i in sorted(relevant_nodes):
            for j, edge in self.preds[i]:
                if edge.distance == 0 and keep(edge) and j in height:
                    height[i] = max(height[i], height[j] + 1)
        return max(height.values())

    def n_components(self) -> int:
        """Weakly connected components of the intra-iteration DAG — the
        paper's "number of parallel computations in the loop"."""
        n = len(self.body)
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in self.edges:
            if edge.distance == 0:
                ra, rb = find(edge.src), find(edge.dst)
                if ra != rb:
                    parent[ra] = rb
        return len({find(i) for i in range(n)})

    def fan_in_degrees(self) -> list[int]:
        """In-degree of each node in the intra-iteration DAG (the paper's
        "instruction fan-in in DAG" feature averages these)."""
        n = len(self.body)
        degrees = [0] * n
        for edge in self.edges:
            if edge.distance == 0:
                degrees[edge.dst] += 1
        return degrees


# ----------------------------------------------------------------------
# Graph construction.
# ----------------------------------------------------------------------


def _mem_overlap_distances(earlier: MemRef, later: MemRef, max_distance: int) -> set[int]:
    """All iteration distances ``0 <= d <= max_distance`` at which ``later``
    (at iteration ``i + d``) touches an element written/read by ``earlier``
    (at iteration ``i``), honoring reference widths."""
    distances: set[int] = set()
    if earlier.array != later.array:
        return distances
    if earlier.indirect or later.indirect:
        return distances
    ce, cl = earlier.index.coeff, later.index.coeff
    oe, ol = earlier.index.offset, later.index.offset
    for d in range(max_distance + 1):
        # Elements covered: earlier at iteration i -> [ce*i+oe, +width);
        # later at iteration i+d -> [cl*(i+d)+ol, +width).  Overlap for some
        # integer i >= 0 iff the interval of (ce-cl)*i values admits it; we
        # check the stride-difference congruence directly.
        if ce == cl:
            delta = (cl * d + ol) - oe
            if -(later.width - 1) <= delta <= earlier.width - 1:
                distances.add(d)
        else:
            # Different strides over one array: rare in our generator, treat
            # any same-array pair as potentially overlapping at distance d=0
            # only (conservative but bounded).
            if d == 0:
                distances.add(0)
    return distances


def analyze_dependences(loop: Loop, max_carried_distance: int = 8) -> DependenceGraph:
    """Build the dependence graph of ``loop``'s body.

    ``max_carried_distance`` bounds the search for loop-carried memory
    dependences; distances beyond the maximum unroll factor can never affect
    unrolled-body scheduling, so 8 (the label-space maximum) is the default.
    """
    body = loop.body
    n = len(body)
    edges: list[DepEdge] = []
    carried = loop.carried_regs()

    # --- Register dependences -----------------------------------------
    def_site: dict[Reg, int] = {}
    for i, inst in enumerate(body):
        for reg in inst.reg_dests():
            if reg in def_site:
                raise ValueError(
                    f"register {reg} defined twice in {loop.name!r}; bodies must "
                    "be SSA up to loop-carried recurrences"
                )
            def_site[reg] = i

    for i, inst in enumerate(body):
        for reg in inst.reg_srcs():
            d = def_site.get(reg)
            if d is None:
                continue  # loop-invariant live-in
            if d < i:
                edges.append(DepEdge(d, i, DepKind.FLOW, 0))
            else:
                # Read-before-write of a carried register: the value comes
                # from the previous iteration, and this use must precede the
                # (re)definition within an iteration.
                edges.append(DepEdge(d, i, DepKind.FLOW, 1))
                if reg in carried and d != i:
                    edges.append(DepEdge(i, d, DepKind.ANTI, 0))
                elif reg in carried and d == i:
                    # Self-referential update (e.g. acc = acc + x): the flow
                    # edge above already captures the recurrence.
                    pass

    # --- Memory dependences -------------------------------------------
    mem_ops = [
        (i, inst) for i, inst in enumerate(body) if inst.op.is_memory and inst.mem is not None
    ]
    for ai in range(len(mem_ops)):
        a_pos, a = mem_ops[ai]
        for bi in range(len(mem_ops)):
            b_pos, b = mem_ops[bi]
            if a.mem.array != b.mem.array:
                continue
            a_store, b_store = a.op.is_store, b.op.is_store
            if not (a_store or b_store):
                continue  # load-load pairs never constrain
            if a.mem.indirect or b.mem.indirect:
                # Conservative: program order within the iteration, plus a
                # distance-1 may dependence around the backedge.
                if a_pos < b_pos:
                    edges.append(DepEdge(a_pos, b_pos, DepKind.MEM_MAY, 0))
                if ai != bi or a_store:
                    edges.append(DepEdge(a_pos, b_pos, DepKind.MEM_MAY, 1))
                continue
            for d in _mem_overlap_distances(a.mem, b.mem, max_carried_distance):
                if d == 0:
                    if a_pos >= b_pos:
                        continue  # handled by the (b, a) iteration
                    kind = _mem_kind(a_store, b_store)
                    edges.append(DepEdge(a_pos, b_pos, kind, 0))
                else:
                    kind = _mem_kind(a_store, b_store)
                    edges.append(DepEdge(a_pos, b_pos, kind, d))

    # --- Control dependences --------------------------------------------
    exit_positions = [i for i, inst in enumerate(body) if inst.op is Opcode.BR_EXIT]
    for e_pos in exit_positions:
        for j in range(e_pos + 1, n):
            inst = body[j]
            if inst.op.is_store or inst.op is Opcode.BR_EXIT:
                edges.append(DepEdge(e_pos, j, DepKind.CONTROL, 0))

    return DependenceGraph(body, _dedup(edges))


def _mem_kind(a_store: bool, b_store: bool) -> DepKind:
    if a_store and b_store:
        return DepKind.MEM_OUTPUT
    if a_store:
        return DepKind.MEM_FLOW
    return DepKind.MEM_ANTI


def _dedup(edges: list[DepEdge]) -> list[DepEdge]:
    """Drop duplicate edges, keeping the strongest (flow over may, shortest
    distance) representative per (src, dst, kind) triple."""
    best: dict[tuple[int, int, DepKind], DepEdge] = {}
    for edge in edges:
        key = (edge.src, edge.dst, edge.kind)
        kept = best.get(key)
        if kept is None or edge.distance < kept.distance:
            best[key] = edge
    return list(best.values())
