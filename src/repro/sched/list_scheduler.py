"""Cycle scheduler for acyclic loop bodies (the SWP-disabled regime).

A classic critical-path list scheduler for an in-order EPIC machine: each
cycle it issues the highest-priority ready operations onto free functional
units, bounded by the machine's issue width, honoring operation latencies
and the non-pipelined units' blocking behaviour.

The *steady-state cost per body execution* is more than the schedule length:
successive iterations are separated by the taken-branch overhead and by any
loop-carried dependence whose producer finishes too late for the next
iteration's consumer (an in-order machine stalls on use).  See
:func:`steady_state_cycles`.

As in :mod:`repro.sched.modulo`, the public functions run on
:class:`~repro.sched.precompute.SchedPrecomp` integer tables (built on the
fly when not supplied) and the original implementations are retained as
``*_reference`` oracles for the equivalence tests and the reference cost
engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.dependence import DependenceGraph, edge_latency
from repro.ir.instruction import Instruction
from repro.ir.types import FUKind
from repro.machine.model import MachineModel
from repro.sched.precompute import N_FU_KINDS, SchedPrecomp


@dataclass(frozen=True)
class ListSchedule:
    """Result of list scheduling one body."""

    start: tuple[int, ...]  # issue cycle of each body position
    issue_length: int  # last issue cycle + 1
    completion_length: int  # last result-ready cycle

    def __len__(self) -> int:
        return len(self.start)


def list_schedule(
    deps: DependenceGraph, machine: MachineModel, pre: SchedPrecomp | None = None
) -> ListSchedule:
    """Schedule the body of ``deps`` on ``machine``.

    Only intra-iteration (distance-0) dependences constrain the acyclic
    schedule; carried dependences are applied afterwards by
    :func:`steady_state_cycles`.
    """
    if pre is None:
        pre = SchedPrecomp.build(deps, machine)
    n = pre.n
    if n == 0:
        return ListSchedule((), 0, 0)

    rank = pre.rank.__getitem__
    occ_t = pre.occ
    fu_opts = pre.fu_opts
    succs0 = pre.succs0
    is_branch = pre.is_branch
    issue_width = pre.issue_width

    n_preds = list(pre.preds0_count)
    earliest = [0] * n
    ready = [i for i in range(n) if n_preds[i] == 0]
    start = [-1] * n
    scheduled = 0
    cycle = 0
    # Per-unit busy-until times (for non-pipelined operations).
    unit_free = [[0] * pre.fu_capacity[k] for k in range(N_FU_KINDS)]
    max_cycles = n * 64 + 256  # generous safety bound

    while scheduled < n:
        if cycle > max_cycles:
            raise RuntimeError("list scheduler failed to converge (dependence cycle?)")
        issued_this_cycle = 0
        # Highest priority first: ``rank`` orders by (-height, position).
        ready.sort(key=rank)
        deferred: list[int] = []
        for i in ready:
            if issued_this_cycle >= issue_width:
                deferred.append(i)
                continue
            if earliest[i] > cycle:
                deferred.append(i)
                continue
            grabbed = False
            for k in fu_opts[i]:
                slots = unit_free[k]
                for idx in range(len(slots)):
                    if slots[idx] <= cycle:
                        slots[idx] = cycle + occ_t[i]
                        grabbed = True
                        break
                if grabbed:
                    break
            if not grabbed:
                deferred.append(i)
                continue
            start[i] = cycle
            scheduled += 1
            issued_this_cycle += 1
            if is_branch[i]:
                # A branch terminates the issue group: nothing issues in
                # the rest of this cycle (EPIC fetch groups end at taken-
                # branch candidates).  Multi-exit unrolled bodies pay for
                # every duplicated exit branch this way.
                issued_this_cycle = issue_width
            for j, lat in succs0[i]:
                if cycle + lat > earliest[j]:
                    earliest[j] = cycle + lat
                n_preds[j] -= 1
                if n_preds[j] == 0:
                    deferred.append(j)
        ready = deferred
        cycle += 1

    issue_length = max(start) + 1
    completion = max(start[i] + pre.lat[i] for i in range(n))
    return ListSchedule(tuple(start), issue_length, completion)


def steady_state_cycles(
    deps: DependenceGraph,
    schedule: ListSchedule,
    machine: MachineModel,
    pre: SchedPrecomp | None = None,
) -> int:
    """Cycles separating successive body executions in steady state.

    Three terms compose the period:

    * the *resource* cycles the body's slots need (including one whole
      cycle per branch, which terminates its issue group);
    * the latency stalls of the schedule, of which a machine-dependent
      fraction (``overlap_efficiency``) is hidden by overlap with the
      neighbouring iterations;
    * every loop-carried dependence ``src -> dst`` (distance ``d``) must be
      covered within ``d`` body periods, or the consumer stalls.
    """
    if pre is None:
        pre = SchedPrecomp.build(deps, machine)
    n_branches = pre.n_branches
    resource_cycles = n_branches + -(-max(pre.n - n_branches, 0) // pre.issue_width)
    stall_cycles = max(0, schedule.issue_length - resource_cycles)
    effective_issue = schedule.issue_length - machine.overlap_efficiency * stall_cycles
    period = max(resource_cycles, int(round(effective_issue))) + machine.backedge_cycles
    for src, dst, lat, dist in pre.carried:
        slack_needed = schedule.start[src] + lat - schedule.start[dst]
        if slack_needed > 0:
            required = -(-slack_needed // dist)  # ceil division
            if required > period:
                period = required
    return period


# ----------------------------------------------------------------------
# Reference implementation (pre-SchedPrecomp, retained verbatim).
# ----------------------------------------------------------------------


def list_schedule_reference(deps: DependenceGraph, machine: MachineModel) -> ListSchedule:
    """Schedule the body of ``deps`` on ``machine`` (reference oracle)."""
    body = deps.body
    n = len(body)
    if n == 0:
        return ListSchedule((), 0, 0)

    # Priority: latency-weighted height to the DAG sinks.
    height = [machine.latency(inst) for inst in body]
    for i in range(n - 1, -1, -1):
        for j, edge in deps.succs[i]:
            if edge.distance == 0:
                lat = edge_latency(edge, body, machine)
                if height[j] + lat > height[i]:
                    height[i] = height[j] + lat

    n_preds = [0] * n
    earliest = [0] * n
    for i in range(n):
        n_preds[i] = sum(1 for _, e in deps.preds[i] if e.distance == 0)

    ready = [i for i in range(n) if n_preds[i] == 0]
    start = [-1] * n
    scheduled = 0
    cycle = 0
    # Per-unit busy-until times (for non-pipelined operations).
    unit_free: dict[FUKind, list[int]] = {
        kind: [0] * machine.fu_counts.get(kind, 0) for kind in FUKind
    }
    max_cycles = n * 64 + 256  # generous safety bound

    while scheduled < n:
        if cycle > max_cycles:
            raise RuntimeError("list scheduler failed to converge (dependence cycle?)")
        issued_this_cycle = 0
        # Highest priority first; stable order keeps results deterministic.
        ready.sort(key=lambda i: (-height[i], i))
        deferred: list[int] = []
        for i in ready:
            if issued_this_cycle >= machine.issue_width:
                deferred.append(i)
                continue
            if earliest[i] > cycle:
                deferred.append(i)
                continue
            unit = _grab_unit(unit_free, machine, body[i], cycle)
            if unit is None:
                deferred.append(i)
                continue
            start[i] = cycle
            scheduled += 1
            issued_this_cycle += 1
            if body[i].op.is_branch:
                # A branch terminates the issue group: nothing issues in
                # the rest of this cycle (EPIC fetch groups end at taken-
                # branch candidates).  Multi-exit unrolled bodies pay for
                # every duplicated exit branch this way.
                issued_this_cycle = machine.issue_width
            for j, edge in deps.succs[i]:
                if edge.distance != 0:
                    continue
                lat = edge_latency(edge, body, machine)
                if cycle + lat > earliest[j]:
                    earliest[j] = cycle + lat
                n_preds[j] -= 1
                if n_preds[j] == 0:
                    deferred.append(j)
        ready = deferred
        cycle += 1

    issue_length = max(start) + 1
    completion = max(start[i] + machine.latency(body[i]) for i in range(n))
    return ListSchedule(tuple(start), issue_length, completion)


def _grab_unit(
    unit_free: dict[FUKind, list[int]],
    machine: MachineModel,
    inst: Instruction,
    cycle: int,
) -> FUKind | None:
    """Reserve a functional unit for ``inst`` at ``cycle`` if one is free."""
    occupancy = 1 if machine.is_pipelined(inst) else machine.latency(inst)
    for kind in machine.fu_options(inst):
        slots = unit_free[kind]
        for idx, free_at in enumerate(slots):
            if free_at <= cycle:
                slots[idx] = cycle + occupancy
                return kind
    return None


def steady_state_cycles_reference(
    deps: DependenceGraph, schedule: ListSchedule, machine: MachineModel
) -> int:
    """Steady-state period (reference oracle); see :func:`steady_state_cycles`."""
    body = deps.body
    n_branches = sum(1 for inst in body if inst.op.is_branch)
    resource_cycles = n_branches + -(-max(len(body) - n_branches, 0) // machine.issue_width)
    stall_cycles = max(0, schedule.issue_length - resource_cycles)
    effective_issue = schedule.issue_length - machine.overlap_efficiency * stall_cycles
    period = max(resource_cycles, int(round(effective_issue))) + machine.backedge_cycles
    for edge in deps.carried_edges():
        lat = edge_latency(edge, body, machine)
        slack_needed = schedule.start[edge.src] + lat - schedule.start[edge.dst]
        if slack_needed > 0:
            required = -(-slack_needed // edge.distance)  # ceil division
            if required > period:
                period = required
    return period
