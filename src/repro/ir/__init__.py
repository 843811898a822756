"""Loop IR: types, values, instructions, loops, analyses, and semantics.

This package is the compiler substrate of the reproduction — an executable
three-address IR for innermost loops modelled on what the Open Research
Compiler's loop optimizer manipulates.
"""

from repro.ir.builder import LoopBuilder
from repro.ir.dependence import (
    DepEdge,
    DependenceGraph,
    DepKind,
    analyze_dependences,
    edge_latency,
)
from repro.ir.instruction import Instruction
from repro.ir.interp import (
    InterpreterError,
    MachineState,
    RunResult,
    initial_state,
    run_loop,
    run_unrolled,
)
from repro.ir.loop import Loop, TripInfo
from repro.ir.printer import format_instruction, format_loop
from repro.ir.program import Benchmark, Suite
from repro.ir.types import (
    MAX_UNROLL,
    UNROLL_FACTORS,
    CmpOp,
    DType,
    FUKind,
    Language,
    OpCategory,
    Opcode,
)
from repro.ir.validate import ValidationError, is_valid_loop, validate_loop
from repro.ir.values import AffineIndex, Imm, MemRef, Reg, carried_distance

__all__ = [
    "AffineIndex",
    "Benchmark",
    "CmpOp",
    "DepEdge",
    "DepKind",
    "DependenceGraph",
    "DType",
    "FUKind",
    "Imm",
    "Instruction",
    "InterpreterError",
    "Language",
    "Loop",
    "LoopBuilder",
    "MachineState",
    "MAX_UNROLL",
    "MemRef",
    "OpCategory",
    "Opcode",
    "Reg",
    "RunResult",
    "Suite",
    "TripInfo",
    "UNROLL_FACTORS",
    "ValidationError",
    "analyze_dependences",
    "carried_distance",
    "edge_latency",
    "format_instruction",
    "format_loop",
    "initial_state",
    "is_valid_loop",
    "run_loop",
    "run_unrolled",
    "validate_loop",
]
