"""Feature extraction: loop IR -> 38-dimensional feature vector.

Everything is *static*: features come from the rolled loop body, its
dependence graph, and the compiler's machine model — never from measurement.
(The paper's features are what ORC's analyses can see at compile time; ours
are what this compiler's analyses can see.)
"""

from __future__ import annotations

import numpy as np

from repro.ir.dependence import DepKind, analyze_dependences
from repro.ir.loop import Loop
from repro.ir.types import DType, OpCategory
from repro.machine.itanium2 import ITANIUM2
from repro.machine.model import MachineModel
from repro.features.catalog import N_FEATURES
from repro.sched.list_scheduler import list_schedule
from repro.sched.modulo import recurrence_mii, resource_mii
from repro.sched.precompute import SchedPrecomp
from repro.sched.regpressure import max_live

_PRED = DType.PRED
_INT_CATEGORIES = (OpCategory.INT_ALU, OpCategory.INT_MUL, OpCategory.INT_DIV)
_MULDIV_CATEGORIES = (
    OpCategory.INT_MUL, OpCategory.INT_DIV, OpCategory.FP_MUL, OpCategory.FP_DIV
)


def extract_features(loop: Loop, machine: MachineModel = ITANIUM2) -> np.ndarray:
    """The 38-feature vector of one loop (float64, catalog order)."""
    body = loop.body
    deps = analyze_dependences(loop)
    # One set of scheduling tables serves the list schedule and both MII
    # bounds (the tables are pure data; each would otherwise build its own).
    pre = SchedPrecomp.build(deps, machine)
    schedule = list_schedule(deps, machine, pre=pre)
    pressure = max_live(deps, schedule)
    heights = deps.dependence_heights()
    fan_in = deps.fan_in_degrees()

    # Every body count in one walk (each instruction's flags are plain
    # opcode attributes; see ``repro.ir.types``).
    n_ops = len(body)
    n_fp = n_branches = n_loads = n_stores = n_operands = n_implicit = 0
    n_int = n_muldiv = n_indirect = n_affine = stride_one = n_uses = n_defs = 0
    predicates = set()
    for inst in body:
        op = inst.op
        if op.is_fp:
            n_fp += 1
        if op.is_branch:
            n_branches += 1
        if op.is_load:
            n_loads += 1
        elif op.is_store:
            n_stores += 1
        category = op.category
        if category in _INT_CATEGORIES:
            n_int += 1
        if category in _MULDIV_CATEGORIES:
            n_muldiv += 1
        n_operands += inst.n_operands
        if inst.implicit:
            n_implicit += 1
        for reg in inst.reg_srcs():
            n_uses += 1
            if reg.dtype is _PRED:
                predicates.add(reg)
        for reg in inst.reg_dests():
            n_defs += 1
            if reg.dtype is _PRED:
                predicates.add(reg)
        mem = inst.mem
        if mem is not None:
            if mem.indirect:
                n_indirect += 1
            else:
                n_affine += 1
                if abs(mem.index.coeff) == 1:
                    stride_one += 1
    n_mem = n_loads + n_stores
    stride_one_frac = stride_one / n_affine if n_affine else 0.0

    mem_dep_edges = [e for e in deps.edges if e.kind.is_memory]
    carried_mem = [e.distance for e in mem_dep_edges if e.distance >= 1]
    min_carried_mem = min(carried_mem) if carried_mem else -1

    trip = loop.trip
    tripcount = trip.compile_time if trip.known else -1

    vector = np.empty(N_FEATURES, dtype=np.float64)
    vector[0] = loop.nest_level
    vector[1] = n_ops
    vector[2] = n_fp
    vector[3] = n_branches
    vector[4] = n_mem
    vector[5] = n_operands
    vector[6] = n_implicit
    vector[7] = len(predicates)
    vector[8] = deps.critical_path_length(machine)
    vector[9] = schedule.issue_length
    vector[10] = loop.language.value
    vector[11] = deps.n_components()
    vector[12] = max(heights) if heights else 0
    vector[13] = deps.memory_chain_height()
    vector[14] = deps.control_chain_height()
    # Exact integer sums divided once: bit-equal to ``np.mean`` (which sums
    # the int64 heights in float64, exactly below 2**53, then divides).
    vector[15] = sum(heights) / len(heights) if heights else 0.0
    vector[16] = n_indirect
    vector[17] = min_carried_mem
    vector[18] = len(mem_dep_edges)
    vector[19] = tripcount
    vector[20] = n_uses
    vector[21] = n_defs
    vector[22] = n_int
    vector[23] = n_muldiv
    vector[24] = n_loads
    vector[25] = n_stores
    vector[26] = stride_one_frac
    vector[27] = len(loop.referenced_arrays())
    vector[28] = len(loop.carried_regs())
    vector[29] = pressure.total
    vector[30] = sum(fan_in) / len(fan_in) if fan_in else 0.0
    vector[31] = 1.0 if trip.known else 0.0
    vector[32] = machine.code_bytes(n_ops)
    vector[33] = n_mem / n_ops if n_ops else 0.0
    vector[34] = n_fp / n_ops if n_ops else 0.0
    vector[35] = resource_mii(deps, machine, pre=pre)
    vector[36] = recurrence_mii(deps, machine, pre=pre)
    vector[37] = 1.0 if loop.has_early_exit else 0.0
    return vector


def extract_matrix(loops, machine: MachineModel = ITANIUM2) -> np.ndarray:
    """Feature matrix (``n_loops x 38``) for a sequence of loops."""
    loops = list(loops)
    matrix = np.empty((len(loops), N_FEATURES), dtype=np.float64)
    for row, loop in enumerate(loops):
        matrix[row] = extract_features(loop, machine)
    return matrix
