"""Precomputed scheduling tables for one loop body on one machine.

Both schedulers spend their inner loops asking the same questions about the
same body over and over: *what is this instruction's latency, which units can
it issue on, is it pipelined, what are its dependence edges and their
latencies?*  Answered through the IR (enum-keyed dicts, ``Opcode.info``
property chains, per-edge :func:`~repro.ir.dependence.edge_latency` calls),
those questions dominate wall-clock — profiling the labelling pipeline shows
well over half the modulo scheduler's time inside enum hashing and mapping
lookups.

:class:`SchedPrecomp` answers them once.  It flattens everything the
schedulers need into plain integer lists indexed by body position (and
functional units into small integer indices via :data:`FU_INDEX`), computes
the latency-weighted priority heights shared by the list scheduler and the
IMS pipeliner, and pre-resolves every dependence edge's scheduling latency.
The tables are *pure data*: building one never mutates the graph or the
machine, so a precomp can be cached alongside its dependence graph and
reused across every initiation-interval attempt, both scheduling regimes,
and repeated cost queries.

The schedulers consume these tables through their fast paths
(:func:`repro.sched.list_scheduler.list_schedule` and
:func:`repro.sched.modulo.modulo_schedule` accept an optional ``pre``); the
original table-free implementations are retained as ``*_reference``
functions, serving as correctness oracles for the tier-1 equivalence
tests and for perfbench's reference-engine spot check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.dependence import DepKind, DependenceGraph
from repro.ir.types import OPCODES, FUKind
from repro.machine.model import MachineModel

#: Stable small-integer index for each functional-unit kind.
FU_ORDER: tuple[FUKind, ...] = tuple(FUKind)
FU_INDEX: dict[FUKind, int] = {kind: idx for idx, kind in enumerate(FU_ORDER)}
N_FU_KINDS = len(FU_ORDER)

#: Scheduling latency per dependence-kind code, as
#: :func:`~repro.ir.dependence.edge_latency` assigns it: ``-1`` stands for
#: the producer's own latency (flow kinds), memory output/may edges keep a
#: one-cycle separation, anti and control edges only order issue.
_KIND_LATENCY: tuple[int, ...] = tuple(
    -1
    if kind in (DepKind.FLOW, DepKind.MEM_FLOW)
    else 1
    if kind in (DepKind.MEM_OUTPUT, DepKind.MEM_MAY)
    else 0
    for kind in DepKind
)


@dataclass(frozen=True)
class SchedPrecomp:
    """Integer scheduling tables for one ``(body, machine)`` pair.

    Edge adjacency preserves the dependence graph's edge order exactly, so a
    scheduler walking these tables visits neighbours in the same order as
    one walking ``deps.succs`` / ``deps.preds`` — a requirement for
    bit-identical schedules, since several tie-breaks depend on visit order.
    """

    deps: object  # the DependenceGraph or CodedDeps the tables were built from
    machine: MachineModel
    n: int
    #: Result latency per body position (under ``machine``).
    lat: tuple[int, ...]
    #: Reservation occupancy per position: 1 if pipelined, else the latency
    #: (the modulo scheduler additionally clamps this to the current II).
    occ: tuple[int, ...]
    #: Issuable unit kinds per position, as FU indices, in option order.
    fu_opts: tuple[tuple[int, ...], ...]
    is_branch: tuple[bool, ...]
    n_branches: int
    #: Latency-weighted height to the DAG sinks over distance-0 edges — the
    #: priority function shared by the list scheduler and the pipeliner.
    height: tuple[int, ...]
    #: Body positions sorted by (-height, position): IMS scheduling order.
    order: tuple[int, ...]
    #: Each position's index in ``order`` — the list scheduler's priority
    #: sort key (the same total order as ``(-height, position)``).
    rank: tuple[int, ...]
    #: All-edge adjacency: per node, ``(neighbor, latency, distance)``.
    succs: tuple[tuple[tuple[int, int, int], ...], ...]
    preds: tuple[tuple[tuple[int, int, int], ...], ...]
    #: Distance-0 adjacency only: per node, ``(neighbor, latency)``.
    succs0: tuple[tuple[tuple[int, int], ...], ...]
    preds0_count: tuple[int, ...]
    #: Carried edges in graph edge order: ``(src, dst, latency, distance)``.
    carried: tuple[tuple[int, int, int, int], ...]
    #: Unit count per FU index.
    fu_capacity: tuple[int, ...]
    issue_width: int

    @classmethod
    def build(cls, deps, machine: MachineModel) -> "SchedPrecomp":
        """The tables for ``deps`` on ``machine``.

        ``deps`` is an object :class:`~repro.ir.dependence.DependenceGraph`
        (features, the reference engine, tests) or a
        :class:`~repro.ir.coded.CodedDeps` (the fast cost engine); both
        reach one build core as opcode ids plus ``(src, dst, kind code,
        distance)`` edge tuples in graph edge order.
        """
        if isinstance(deps, DependenceGraph):
            ops = [inst.op.code for inst in deps.body]
            edges = [(e.src, e.dst, e.kind.code, e.distance) for e in deps.edges]
        else:
            ops = deps.ops
            edges = deps.edges
        return cls._from_tables(deps, ops, edges, machine)

    @classmethod
    def _from_tables(cls, deps, ops, edges, machine: MachineModel) -> "SchedPrecomp":
        n = len(ops)
        # Latency, occupancy, unit options, and branch-ness are functions of
        # the opcode alone, so they are resolved once per (machine, opcode)
        # and cached on the machine instance as a list indexed by opcode id
        # (derived machines answer these questions for every instruction of
        # every body they schedule).
        op_rows = machine.__dict__.get("_sched_op_rows")
        if op_rows is None:
            op_rows = [None] * len(OPCODES)
            object.__setattr__(machine, "_sched_op_rows", op_rows)
        lat = []
        occ = []
        fu_opts = []
        is_branch = []
        for code in ops:
            row = op_rows[code]
            if row is None:
                op = OPCODES[code]
                op_lat = machine.op_latency(op)
                row = (
                    op_lat,
                    1 if op.info.pipelined else op_lat,
                    tuple(FU_INDEX[k] for k in machine.op_fu_options(op)),
                    op.is_branch,
                )
                op_rows[code] = row
            lat.append(row[0])
            occ.append(row[1])
            fu_opts.append(row[2])
            is_branch.append(row[3])

        succs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        preds: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        succs0: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        preds0_count = [0] * n
        carried: list[tuple[int, int, int, int]] = []
        # One pass in edge order: the graph fills its adjacency lists in
        # the same order, so every neighbour list matches ``deps.succs`` /
        # ``deps.preds``.  Latencies follow
        # :func:`~repro.ir.dependence.edge_latency` (``_KIND_LATENCY``),
        # with the producer's latency read from ``lat``.
        for src, dst, kind, dist in edges:
            elat = _KIND_LATENCY[kind]
            if elat < 0:
                elat = lat[src]
            succs[src].append((dst, elat, dist))
            preds[dst].append((src, elat, dist))
            if dist == 0:
                succs0[src].append((dst, elat))
                preds0_count[dst] += 1
            elif dist >= 1:
                carried.append((src, dst, elat, dist))

        # Latency-weighted height over the distance-0 DAG (body order is a
        # topological order for distance-0 edges, so one reverse pass works).
        height = list(lat)
        for i in range(n - 1, -1, -1):
            for j, elat in succs0[i]:
                if height[j] + elat > height[i]:
                    height[i] = height[j] + elat

        order = tuple(sorted(range(n), key=lambda i: (-height[i], i)))
        rank = [0] * n
        for position, i in enumerate(order):
            rank[i] = position
        capacity = tuple(machine.fu_counts.get(kind, 0) for kind in FU_ORDER)
        return cls(
            deps=deps,
            machine=machine,
            n=n,
            lat=tuple(lat),
            occ=tuple(occ),
            fu_opts=tuple(fu_opts),
            is_branch=tuple(is_branch),
            n_branches=sum(is_branch),
            height=tuple(height),
            order=order,
            rank=tuple(rank),
            succs=tuple(tuple(s) for s in succs),
            preds=tuple(tuple(p) for p in preds),
            succs0=tuple(tuple(s) for s in succs0),
            preds0_count=tuple(preds0_count),
            carried=tuple(carried),
            fu_capacity=capacity,
            issue_width=machine.issue_width,
        )
