"""Iterative modulo scheduling (software pipelining).

Implements the Rau-style software pipeliner that gives the paper's second
experimental regime ("SWP enabled") its character:

* **ResMII** — the resource-constrained lower bound on the initiation
  interval.  It is *fractional*: a loop using 5 memory slots on a 2-port
  machine has ResMII 2.5, but the II must be an integer, so the rolled loop
  pays 3 cycles per iteration.  Unrolling by 2 yields II 5 for two
  iterations — 2.5 per iteration.  This "fractional II" recovery is exactly
  why ORC still unrolls under SWP, and it emerges here from the arithmetic
  rather than being hard-coded.
* **RecMII** — the recurrence-constrained bound: the maximum over dependence
  cycles of (total latency / total distance), computed per strongly
  connected component by parametric binary search (Lawler).
* **IMS** — iterative modulo scheduling with ejection and a scheduling
  budget, falling back to a higher II when placement fails.

Most failing II attempts do not thrash at random until the budget runs
out: they settle into a *drift*, where a set ``D`` of ops is re-placed
over and over, each op exactly ``c = m * II`` cycles later per round,
while every other op stays put.  The table-driven attempt detects this
with Brent-style snapshots of ``(start, last_tried, placed_kind,
worklist)`` taken at iterations 1, 2, 4, 8, ... and returns ``None``
early when the current state is such a shift of the snapshot
(:func:`_drift_repeats` lists the conditions).  The exit is exact, not a
heuristic.  A shift by a multiple of II leaves every reservation row
where it was.  The conditions make sure that the ``0`` floor and the
constraints from ops outside ``D`` never bind on an op of ``D``, and that
no op of ``D`` can eject an op outside it.  Every decision of the next
round is therefore the previous round's decision shifted by ``c``, so
the round repeats forever.  Its worklist is never empty, and the budget
would have run out and returned ``None`` anyway.

Two implementations coexist.  The public entry points run on
:class:`~repro.sched.precompute.SchedPrecomp` integer tables (built on the
fly when the caller does not supply one) and avoid all per-query enum
hashing and IR attribute chains in the hot placement loop.  The original
table-free code is retained verbatim as ``*_reference`` functions: the
equivalence tests assert the two produce bit-identical schedules, and
the reference cost engine built on them is what perfbench's offline
workload spot-checks the pipeline's tables against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.ir.dependence import DependenceGraph, edge_latency
from repro.ir.types import DType, FUKind
from repro.machine.model import MachineModel
from repro.sched.precompute import FU_INDEX, N_FU_KINDS, SchedPrecomp

_MEM = FU_INDEX[FUKind.MEM]
_INT = FU_INDEX[FUKind.INT]
_FP = FU_INDEX[FUKind.FP]
_BR = FU_INDEX[FUKind.BR]


@dataclass(frozen=True)
class ModuloSchedule:
    """A kernel schedule: initiation interval, stage count, issue times."""

    ii: int
    stages: int
    start: tuple[int, ...]
    res_mii: float
    rec_mii: int

    @property
    def mii(self) -> int:
        return integer_mii(self.res_mii, self.rec_mii)


def integer_mii(res_mii: float, rec_mii: int) -> int:
    """The II search's starting point: the fractional ResMII rounded up at
    a 1e-6 resolution (so float noise below it adds no cycle), RecMII, and
    at least 1."""
    return max(-(-int(res_mii * 1_000_000) // 1_000_000), rec_mii, 1)


class ModuloScheduleError(RuntimeError):
    """Raised when no feasible II is found within the search budget."""


# ----------------------------------------------------------------------
# Lower bounds (fast path on precomputed tables).
# ----------------------------------------------------------------------


def resource_mii(
    deps: DependenceGraph, machine: MachineModel, pre: SchedPrecomp | None = None
) -> float:
    """Fractional resource-constrained minimum initiation interval."""
    if pre is None:
        pre = SchedPrecomp.build(deps, machine)
    usage = [0.0] * N_FU_KINDS
    atype = 0.0  # flexible ops that may issue on INT or MEM units
    total_slots = 0.0
    for i in range(pre.n):
        occ = float(pre.occ[i])
        total_slots += 1.0
        options = pre.fu_opts[i]
        if len(options) > 1:
            atype += occ
        else:
            usage[options[0]] += occ

    counts = pre.fu_capacity
    n_branches = pre.n_branches
    bounds = [
        usage[_MEM] / counts[_MEM],
        usage[_FP] / counts[_FP],
        usage[_BR] / counts[_BR],
        # A-type ops share the INT and MEM files with the dedicated users.
        (usage[_INT] + usage[_MEM] + atype) / (counts[_INT] + counts[_MEM]),
        # Each branch closes its issue group, so it effectively costs a
        # whole cycle on top of the non-branch issue bandwidth.
        n_branches + (total_slots - n_branches) / pre.issue_width,
    ]
    return max(bounds)


def recurrence_mii(
    deps: DependenceGraph, machine: MachineModel, pre: SchedPrecomp | None = None
) -> int:
    """Recurrence-constrained minimum II: the ceiling of the maximum cycle
    ratio (sum of latencies / sum of distances) over dependence cycles."""
    if pre is None:
        pre = SchedPrecomp.build(deps, machine)
    n = pre.n
    if n == 0:
        return 1
    succs = pre.succs
    best = 1
    for component in _sccs(n, succs):
        if len(component) == 1:
            node = next(iter(component))
            # Self-loop?
            ratios = [
                -(-lat // dist)
                for t, lat, dist in succs[node]
                if t == node and dist >= 1
            ]
            if ratios:
                best = max(best, max(ratios))
            continue
        best = max(best, _max_cycle_ratio_tables(succs, component))
    return best


def _sccs(n: int, succs) -> list[set[int]]:
    """Iterative Tarjan SCC over the precomputed adjacency tables."""
    index = [0] * n
    lowlink = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    components: list[set[int]] = []
    counter = [1]

    for root in range(n):
        if visited[root]:
            continue
        work = [(root, iter([t for t, _, _ in succs[root]]))]
        visited[root] = True
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if not visited[succ]:
                    visited[succ] = True
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter([t for t, _, _ in succs[succ]])))
                    advanced = True
                    break
                if on_stack[succ] and index[succ] < lowlink[node]:
                    lowlink[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                component: set[int] = set()
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _max_cycle_ratio_tables(succs, component: set[int]) -> int:
    """Smallest integer II admitting no positive cycle with edge weights
    ``latency - II * distance`` inside ``component`` (Lawler's method)."""
    edges = []
    total_lat = 0
    for node in component:
        for succ, lat, dist in succs[node]:
            if succ in component:
                edges.append((node, succ, lat, dist))
                total_lat += lat
    lo, hi = 1, max(total_lat, 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_positive_cycle(component, edges, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _has_positive_cycle(component: set[int], edges: list, ii: int) -> bool:
    """Bellman-Ford positive-cycle detection with weights lat - ii*dist."""
    dist = dict.fromkeys(component, 0)
    nodes = len(component)
    for round_no in range(nodes):
        changed = False
        for src, dst, lat, distance in edges:
            weight = lat - ii * distance
            if dist[src] + weight > dist[dst]:
                dist[dst] = dist[src] + weight
                changed = True
        if not changed:
            return False
    return True


# ----------------------------------------------------------------------
# Iterative modulo scheduling (fast path on precomputed tables).
# ----------------------------------------------------------------------


def modulo_schedule(
    deps: DependenceGraph,
    machine: MachineModel,
    ii_budget: int = 48,
    pre: SchedPrecomp | None = None,
) -> ModuloSchedule:
    """Find a kernel schedule, searching IIs upward from MII."""
    if pre is None:
        pre = SchedPrecomp.build(deps, machine)
    res = resource_mii(deps, machine, pre)
    rec = recurrence_mii(deps, machine, pre)
    mii = integer_mii(res, rec)
    n = pre.n
    for ii in range(mii, mii + ii_budget):
        start = _try_ii_tables(pre, ii, budget=max(64, n * 10))
        if start is not None:
            horizon = max(start) if start else 0
            stages = horizon // ii + 1
            return ModuloSchedule(ii, stages, tuple(start), res, rec)
    raise ModuloScheduleError(
        f"no feasible II within [{mii}, {mii + ii_budget}) for a {n}-op body"
    )


def _try_ii_tables(pre: SchedPrecomp, ii: int, budget: int):
    """One IMS attempt at a fixed II on integer tables.

    Decision-for-decision identical to the reference :func:`_try_ii`:
    same scheduling order, same time-slot search, same unit-option order,
    same ejection scans.  Only the data representation differs (flat lists
    and FU indices instead of enum-keyed dicts and IR lookups), and an
    attempt that has settled into a drift returns ``None`` as soon as the
    drift is detected instead of when its budget runs out (see the module
    docstring): the result is the same.
    """
    n = pre.n
    occ_t = pre.occ
    fu_opts = pre.fu_opts
    capacity = pre.fu_capacity
    succs = pre.succs
    preds = pre.preds

    start: list[int | None] = [None] * n
    last_tried = [-1] * n
    # Modulo reservation table: per unit kind index, per row, occupied count.
    mrt = [[0] * ii for _ in range(N_FU_KINDS)]
    placed_kind = [-1] * n  # -1 = not placed

    worklist = deque(pre.order)
    pop = worklist.popleft
    push = worklist.append
    # Drift detection: a snapshot at iterations 1, 2, 4, 8, ..., compared
    # whenever the worklist's length and head match it.
    iteration = 0
    snapshot_at = 1
    snapshot = None
    snapshot_len = snapshot_head = -1
    while worklist:
        if budget <= 0:
            return None
        budget -= 1
        iteration += 1
        if iteration == snapshot_at:
            snapshot = (start[:], last_tried[:], placed_kind[:], list(worklist))
            snapshot_len = len(worklist)
            snapshot_head = worklist[0]
            snapshot_at <<= 1
        elif (
            len(worklist) == snapshot_len
            and worklist[0] == snapshot_head
            and _drift_repeats(pre, ii, snapshot, start, last_tried, placed_kind, worklist)
        ):
            return None
        i = pop()
        lo = 0
        for j, lat, dist in preds[i]:
            sj = start[j]
            if sj is None:
                continue
            candidate = sj + lat - ii * dist
            if candidate > lo:
                lo = candidate
        t0 = max(lo, last_tried[i] + 1)
        occ = occ_t[i]
        if occ > ii:
            occ = ii
        placed = False
        opts = fu_opts[i]
        if occ == 1:
            # Single-row reservations (every pipelined op) collapse the
            # row scans to one table probe; same slot/option visit order.
            row = t0 % ii
            if len(opts) == 1:
                k0 = opts[0]
                rows0 = mrt[k0]
                cap0 = capacity[k0]
                for t in range(t0, t0 + ii):
                    if rows0[row] < cap0:
                        rows0[row] += 1
                        start[i] = t
                        placed_kind[i] = k0
                        last_tried[i] = t
                        placed = True
                        break
                    row += 1
                    if row == ii:
                        row = 0
            else:
                for t in range(t0, t0 + ii):
                    kind = -1
                    for k in opts:
                        rows = mrt[k]
                        if rows[row] < capacity[k]:
                            rows[row] += 1
                            kind = k
                            break
                    if kind >= 0:
                        start[i] = t
                        placed_kind[i] = kind
                        last_tried[i] = t
                        placed = True
                        break
                    row += 1
                    if row == ii:
                        row = 0
        else:
            for t in range(t0, t0 + ii):
                kind = -1
                for k in opts:
                    cap = capacity[k]
                    rows = mrt[k]
                    free = True
                    for r in range(occ):
                        if rows[(t + r) % ii] >= cap:
                            free = False
                            break
                    if free:
                        for r in range(occ):
                            rows[(t + r) % ii] += 1
                        kind = k
                        break
                if kind >= 0:
                    start[i] = t
                    placed_kind[i] = kind
                    last_tried[i] = t
                    placed = True
                    break
        if not placed:
            # Force placement and eject resource conflicts at that slot.
            t = t0
            target_rows = {(t + r) % ii for r in range(occ)}
            ejected = []
            for j in range(n):
                kind_j = placed_kind[j]
                if j == i or kind_j < 0 or kind_j not in opts:
                    continue
                sj = start[j]
                occ_j = occ_t[j]
                if occ_j == 1:
                    row_j = sj % ii
                    if row_j in target_rows:
                        mrt[kind_j][row_j] -= 1
                        start[j] = None
                        placed_kind[j] = -1
                        ejected.append(j)
                    continue
                if occ_j > ii:
                    occ_j = ii
                rows_j = {(sj + r) % ii for r in range(occ_j)}
                if rows_j & target_rows:
                    rows = mrt[kind_j]
                    for r in range(occ_j):
                        rows[(sj + r) % ii] -= 1
                    start[j] = None
                    placed_kind[j] = -1
                    ejected.append(j)
            kind = -1
            for k in opts:
                cap = capacity[k]
                rows = mrt[k]
                free = True
                for r in range(occ):
                    if rows[(t + r) % ii] >= cap:
                        free = False
                        break
                if free:
                    for r in range(occ):
                        rows[(t + r) % ii] += 1
                    kind = k
                    break
            if kind < 0:
                return None
            start[i] = t
            placed_kind[i] = kind
            last_tried[i] = t
            worklist.extend(ejected)
        # Eject scheduled successors whose dependence constraints broke.
        si = start[i]
        for j, lat, dist in succs[i]:
            sj = start[j]
            if sj is None:
                continue
            if si + lat - ii * dist > sj:
                k = placed_kind[j]
                if k >= 0:
                    occ_j = occ_t[j]
                    if occ_j == 1:
                        mrt[k][sj % ii] -= 1
                    else:
                        if occ_j > ii:
                            occ_j = ii
                        rows = mrt[k]
                        for r in range(occ_j):
                            rows[(sj + r) % ii] -= 1
                start[j] = None
                placed_kind[j] = -1
                push(j)

    return [int(s) for s in start]


def _drift_repeats(
    pre: SchedPrecomp, ii: int, snapshot, start, last_tried, placed_kind, worklist
) -> bool:
    """Whether the attempt's state is the ``snapshot`` state with a set
    ``D`` of ops drifted ``c`` cycles later, so that it repeats forever.

    ``D`` is the ops whose ``last_tried`` moved since the snapshot (every
    op popped in between, since each pop raises it).  All of these hold:

    (a) the worklist and ``placed_kind`` equal the snapshot's;
    (b) every op of ``D`` moved by one ``c > 0`` with ``c % ii == 0``, in
        ``last_tried`` and in ``start`` (an unplaced op stays unplaced);
    (c) every other op kept its ``start`` (an op outside ``D`` was never
        popped, so in a state the attempt reaches this already follows
        from (a); checking it keeps the argument independent of that);
    (d) every op of ``D`` had ``last_tried >= 0`` at the snapshot, so the
        ``0`` floor of its earliest start never binds;
    (e) no successor edge leads from ``D`` to a placed op outside ``D``,
        so no op outside ``D`` is ever ejected;
    (f) every edge into ``i`` in ``D`` from a placed op ``j`` outside ``D``
        gives ``start[j] + lat - ii * dist <= last_tried_snapshot[i] + 1``,
        so it never binds on ``i``'s next try.
    """
    snap_start, snap_last, snap_kind, snap_work = snapshot
    if placed_kind != snap_kind or list(worklist) != snap_work:
        return False
    n = pre.n
    shift = 0
    in_drift = [False] * n
    drift = []
    for i in range(n):
        moved = last_tried[i] - snap_last[i]
        si = start[i]
        snap_si = snap_start[i]
        if moved == 0:
            if si != snap_si:
                return False
            continue
        if snap_last[i] < 0:
            return False
        if shift == 0:
            if moved <= 0 or moved % ii:
                return False
            shift = moved
        elif moved != shift:
            return False
        if si is None:
            if snap_si is not None:
                return False
        elif snap_si is None or si - snap_si != shift:
            return False
        in_drift[i] = True
        drift.append(i)
    succs = pre.succs
    preds = pre.preds
    for i in drift:
        for j, _, _ in succs[i]:
            if not in_drift[j] and start[j] is not None:
                return False
        bound = snap_last[i] + 1
        for j, lat, dist in preds[i]:
            if in_drift[j]:
                continue
            sj = start[j]
            if sj is not None and sj + lat - ii * dist > bound:
                return False
    return shift > 0


# ----------------------------------------------------------------------
# Reference implementation (pre-SchedPrecomp, retained verbatim).
#
# The equivalence tests assert `modulo_schedule` matches this bit for bit,
# and the reference cost engine (perfbench's spot check) runs on it.
# ----------------------------------------------------------------------


def resource_mii_reference(deps: DependenceGraph, machine: MachineModel) -> float:
    """Fractional resource-constrained minimum initiation interval."""
    usage: dict[FUKind, float] = {kind: 0.0 for kind in FUKind}
    atype = 0.0  # flexible ops that may issue on INT or MEM units
    total_slots = 0.0
    for inst in deps.body:
        occ = 1.0 if machine.is_pipelined(inst) else float(machine.latency(inst))
        total_slots += 1.0
        options = machine.fu_options(inst)
        if len(options) > 1:
            atype += occ
        else:
            usage[options[0]] += occ

    counts = {kind: machine.fu_counts.get(kind, 0) for kind in FUKind}
    n_branches = sum(1 for inst in deps.body if inst.op.is_branch)
    bounds = [
        usage[FUKind.MEM] / counts[FUKind.MEM],
        usage[FUKind.FP] / counts[FUKind.FP],
        usage[FUKind.BR] / counts[FUKind.BR],
        # A-type ops share the INT and MEM files with the dedicated users.
        (usage[FUKind.INT] + usage[FUKind.MEM] + atype)
        / (counts[FUKind.INT] + counts[FUKind.MEM]),
        # Each branch closes its issue group, so it effectively costs a
        # whole cycle on top of the non-branch issue bandwidth.
        n_branches + (total_slots - n_branches) / machine.issue_width,
    ]
    return max(bounds)


def recurrence_mii_reference(deps: DependenceGraph, machine: MachineModel) -> int:
    """Recurrence-constrained minimum II: the ceiling of the maximum cycle
    ratio (sum of latencies / sum of distances) over dependence cycles."""
    n = len(deps.body)
    if n == 0:
        return 1
    best = 1
    for component in _strongly_connected(deps):
        if len(component) == 1:
            node = next(iter(component))
            # Self-loop?
            ratios = [
                -(-edge_latency(e, deps.body, machine) // e.distance)
                for t, e in deps.succs[node]
                if t == node and e.distance >= 1
            ]
            if ratios:
                best = max(best, max(ratios))
            continue
        best = max(best, _max_cycle_ratio(deps, component, machine))
    return best


def _strongly_connected(deps: DependenceGraph) -> list[set[int]]:
    """Iterative Tarjan SCC over the full dependence graph."""
    n = len(deps.body)
    index = [0] * n
    lowlink = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    components: list[set[int]] = []
    counter = [1]

    for root in range(n):
        if visited[root]:
            continue
        work = [(root, iter([t for t, _ in deps.succs[root]]))]
        visited[root] = True
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if not visited[succ]:
                    visited[succ] = True
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter([t for t, _ in deps.succs[succ]])))
                    advanced = True
                    break
                if on_stack[succ] and index[succ] < lowlink[node]:
                    lowlink[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                component: set[int] = set()
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _max_cycle_ratio(deps: DependenceGraph, component: set[int], machine: MachineModel) -> int:
    """Smallest integer II admitting no positive cycle with edge weights
    ``latency - II * distance`` inside ``component`` (Lawler's method)."""
    edges = []
    total_lat = 0
    for node in component:
        for succ, edge in deps.succs[node]:
            if succ in component:
                lat = edge_latency(edge, deps.body, machine)
                edges.append((node, succ, lat, edge.distance))
                total_lat += lat
    lo, hi = 1, max(total_lat, 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_positive_cycle(component, edges, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def modulo_schedule_reference(
    deps: DependenceGraph,
    machine: MachineModel,
    ii_budget: int = 48,
) -> ModuloSchedule:
    """Find a kernel schedule, searching IIs upward from MII."""
    res = resource_mii_reference(deps, machine)
    rec = recurrence_mii_reference(deps, machine)
    mii = integer_mii(res, rec)
    n = len(deps.body)
    for ii in range(mii, mii + ii_budget):
        start = _try_ii(deps, machine, ii, budget=max(64, n * 10))
        if start is not None:
            horizon = max(start) if start else 0
            stages = horizon // ii + 1
            return ModuloSchedule(ii, stages, tuple(start), res, rec)
    raise ModuloScheduleError(
        f"no feasible II within [{mii}, {mii + ii_budget}) for a {n}-op body"
    )


def _try_ii(deps: DependenceGraph, machine: MachineModel, ii: int, budget: int):
    """One IMS attempt at a fixed II.  Returns start times or ``None``."""
    body = deps.body
    n = len(body)
    height = [machine.latency(inst) for inst in body]
    for i in range(n - 1, -1, -1):
        for j, edge in deps.succs[i]:
            if edge.distance == 0:
                lat = edge_latency(edge, body, machine)
                if height[j] + lat > height[i]:
                    height[i] = height[j] + lat

    order = sorted(range(n), key=lambda i: (-height[i], i))
    start: list[int | None] = [None] * n
    last_tried = [-1] * n
    # Modulo reservation table: per unit kind, per row, the occupied count.
    mrt: dict[FUKind, list[int]] = {
        kind: [0] * ii for kind in FUKind
    }
    placed_kind: list[FUKind | None] = [None] * n

    def occupancy(i: int) -> int:
        inst = body[i]
        return 1 if machine.is_pipelined(inst) else min(machine.latency(inst), ii)

    def reserve(i: int, t: int) -> FUKind | None:
        occ = occupancy(i)
        for kind in machine.fu_options(body[i]):
            capacity = machine.fu_counts.get(kind, 0)
            rows = [(t + r) % ii for r in range(occ)]
            if all(mrt[kind][row] < capacity for row in rows):
                for row in rows:
                    mrt[kind][row] += 1
                return kind
        return None

    def release(i: int) -> None:
        kind = placed_kind[i]
        if kind is None or start[i] is None:
            return
        occ = occupancy(i)
        for r in range(occ):
            mrt[kind][(start[i] + r) % ii] -= 1

    def estart(i: int) -> int:
        bound = 0
        for j, edge in deps.preds[i]:
            if start[j] is None:
                continue
            lat = edge_latency(edge, body, machine)
            candidate = start[j] + lat - ii * edge.distance
            if candidate > bound:
                bound = candidate
        return bound

    worklist = list(order)
    while worklist:
        if budget <= 0:
            return None
        budget -= 1
        i = worklist.pop(0)
        lo = estart(i)
        t0 = max(lo, last_tried[i] + 1)
        placed = False
        for t in range(t0, t0 + ii):
            kind = reserve(i, t)
            if kind is not None:
                start[i] = t
                placed_kind[i] = kind
                last_tried[i] = t
                placed = True
                break
        if not placed:
            # Force placement and eject resource conflicts at that slot.
            t = t0
            ejected = _eject_conflicts(deps, machine, mrt, start, placed_kind, t, i, ii, occupancy)
            kind = reserve(i, t)
            if kind is None:
                return None
            start[i] = t
            placed_kind[i] = kind
            last_tried[i] = t
            worklist.extend(ejected)
        # Eject scheduled successors whose dependence constraints broke.
        for j, edge in deps.succs[i]:
            if start[j] is None:
                continue
            lat = edge_latency(edge, body, machine)
            if start[i] + lat - ii * edge.distance > start[j]:
                release(j)
                start[j] = None
                placed_kind[j] = None
                worklist.append(j)

    return [int(s) for s in start]


def _eject_conflicts(deps, machine, mrt, start, placed_kind, t, i, ii, occupancy):
    """Remove enough scheduled ops to free a unit for ``i`` at time ``t``."""
    target_rows = {(t + r) % ii for r in range(occupancy(i))}
    options = set(machine.fu_options(deps.body[i]))
    ejected = []
    for j in range(len(deps.body)):
        if j == i or start[j] is None or placed_kind[j] not in options:
            continue
        rows_j = {(start[j] + r) % ii for r in range(occupancy(j))}
        if rows_j & target_rows:
            kind = placed_kind[j]
            for r in range(occupancy(j)):
                mrt[kind][(start[j] + r) % ii] -= 1
            start[j] = None
            placed_kind[j] = None
            ejected.append(j)
    return ejected


# ----------------------------------------------------------------------
# Register pressure under software pipelining.
# ----------------------------------------------------------------------


def swp_register_pressure(deps: DependenceGraph, sched: ModuloSchedule) -> tuple[int, int]:
    """Rotating-register requirement ``(int, fp)``.

    Each value whose lifetime spans ``L`` cycles needs ``ceil(L / II)``
    rotating registers, because that many in-flight copies coexist.
    """
    body = deps.body
    def_time: dict = {}
    last_use: dict = {}
    for i, inst in enumerate(body):
        for reg in inst.reg_dests():
            def_time[reg] = sched.start[i]
        for reg in inst.reg_srcs():
            use = sched.start[i]
            if use > last_use.get(reg, -1):
                last_use[reg] = use
    int_regs = fp_regs = 0
    for reg in set(def_time) | set(last_use):
        if reg.dtype is DType.PRED:
            continue
        born = def_time.get(reg, 0)
        died = last_use.get(reg, born)
        if died < born:
            died = born + sched.ii  # carried value: spans an iteration
        lifetime = max(died - born, 1)
        need = -(-lifetime // sched.ii)
        if reg.dtype is DType.F64:
            fp_regs += need
        else:
            int_regs += need
    return int_regs, fp_regs
