"""Core enumerations for the loop IR.

The IR models the innermost-loop fragment of an EPIC-style compiler
(deliberately close to what the Open Research Compiler exposes to its loop
optimizer): three-address instructions over virtual registers, affine memory
references, full predication, and explicit early-exit branches.

Everything downstream — the unroller, the schedulers, the feature extractor,
and the cycle simulator — dispatches on the tables defined here, so this
module is the single source of truth for opcode semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DType(enum.Enum):
    """Value types carried by virtual registers."""

    I64 = "i64"
    F64 = "f64"
    PRED = "pred"

    @property
    def short(self) -> str:
        """One-letter register prefix used by the printer (``r``/``f``/``p``)."""
        return {DType.I64: "r", DType.F64: "f", DType.PRED: "p"}[self]


class FUKind(enum.Enum):
    """Functional-unit classes of the EPIC machine model.

    Mirrors the Itanium 2 unit taxonomy: memory (M), integer (I), floating
    point (F) and branch (B) units.
    """

    MEM = "M"
    INT = "I"
    FP = "F"
    BR = "B"


class Language(enum.Enum):
    """Source language of the benchmark a loop came from.

    The paper's feature set includes the source language (its training suite
    spans C, Fortran 77, and Fortran 90); the distinction is predictive
    because the language correlates with loop style (array strides, aliasing
    discipline, reduction idioms).
    """

    C = 0
    FORTRAN = 1
    FORTRAN90 = 2


class OpCategory(enum.Enum):
    """Coarse opcode classes used by feature extraction and the heuristics."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    COMPARE = "compare"
    MISC = "misc"


class Opcode(enum.Enum):
    """Instruction opcodes.

    The set is intentionally small but spans everything the cost model cares
    about: integer/floating arithmetic with distinct latencies, memory
    operations (including the wide ``LOAD_PAIR`` produced by post-unroll
    coalescing), compares that define predicate registers, and branches.
    """

    # Integer arithmetic / logic.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    SHL = "shl"
    SHR = "shr"
    AND = "and"
    OR = "or"
    XOR = "xor"
    MOV = "mov"
    SXT = "sxt"
    SELECT = "select"
    # Floating point.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMA = "fma"
    FNEG = "fneg"
    CVT = "cvt"
    # Compares (define predicate registers).
    CMP = "cmp"
    FCMP = "fcmp"
    # Memory.
    LOAD = "load"
    LOAD_PAIR = "ldpair"
    STORE = "store"
    PREFETCH = "prefetch"
    # Control.
    BR_EXIT = "br.exit"

    # Static metadata accessors (``code``, ``info``, ``category``, ``fu_kind``,
    # ``is_memory``, ``is_load``, ``is_store``, ``is_branch``, ``is_fp``,
    # ``is_compare``) are installed as plain member attributes right after
    # ``_OPCODE_TABLE`` below: the schedulers and transform passes query
    # them millions of times per labelling sweep, and a property plus a
    # dict lookup (which re-hashes the enum) costs several times more than
    # an instance-dict read.


@dataclass(frozen=True)
class OpInfo:
    """Per-opcode static metadata.

    Attributes:
        category: coarse class used for feature counting.
        fu_kind: functional-unit class the op issues on.
        n_srcs: number of register/immediate source operands (excluding the
            memory reference of loads/stores and the guarding predicate).
        has_dest: whether the op defines a destination register.
        pipelined: non-pipelined ops (divides) block their unit for their
            whole latency.
    """

    category: OpCategory
    fu_kind: FUKind
    n_srcs: int
    has_dest: bool = True
    pipelined: bool = True


_OPCODE_TABLE: dict[Opcode, OpInfo] = {
    Opcode.ADD: OpInfo(OpCategory.INT_ALU, FUKind.INT, 2),
    Opcode.SUB: OpInfo(OpCategory.INT_ALU, FUKind.INT, 2),
    Opcode.MUL: OpInfo(OpCategory.INT_MUL, FUKind.INT, 2),
    Opcode.DIV: OpInfo(OpCategory.INT_DIV, FUKind.INT, 2, pipelined=False),
    Opcode.REM: OpInfo(OpCategory.INT_DIV, FUKind.INT, 2, pipelined=False),
    Opcode.SHL: OpInfo(OpCategory.INT_ALU, FUKind.INT, 2),
    Opcode.SHR: OpInfo(OpCategory.INT_ALU, FUKind.INT, 2),
    Opcode.AND: OpInfo(OpCategory.INT_ALU, FUKind.INT, 2),
    Opcode.OR: OpInfo(OpCategory.INT_ALU, FUKind.INT, 2),
    Opcode.XOR: OpInfo(OpCategory.INT_ALU, FUKind.INT, 2),
    Opcode.MOV: OpInfo(OpCategory.MISC, FUKind.INT, 1),
    Opcode.SXT: OpInfo(OpCategory.MISC, FUKind.INT, 1),
    Opcode.SELECT: OpInfo(OpCategory.MISC, FUKind.INT, 3),
    Opcode.FADD: OpInfo(OpCategory.FP_ALU, FUKind.FP, 2),
    Opcode.FSUB: OpInfo(OpCategory.FP_ALU, FUKind.FP, 2),
    Opcode.FMUL: OpInfo(OpCategory.FP_MUL, FUKind.FP, 2),
    Opcode.FDIV: OpInfo(OpCategory.FP_DIV, FUKind.FP, 2, pipelined=False),
    Opcode.FMA: OpInfo(OpCategory.FP_MUL, FUKind.FP, 3),
    Opcode.FNEG: OpInfo(OpCategory.FP_ALU, FUKind.FP, 1),
    Opcode.CVT: OpInfo(OpCategory.MISC, FUKind.FP, 1),
    Opcode.CMP: OpInfo(OpCategory.COMPARE, FUKind.INT, 2),
    Opcode.FCMP: OpInfo(OpCategory.COMPARE, FUKind.FP, 2),
    Opcode.LOAD: OpInfo(OpCategory.LOAD, FUKind.MEM, 0),
    Opcode.LOAD_PAIR: OpInfo(OpCategory.LOAD, FUKind.MEM, 0),
    Opcode.STORE: OpInfo(OpCategory.STORE, FUKind.MEM, 1, has_dest=False),
    Opcode.PREFETCH: OpInfo(OpCategory.LOAD, FUKind.MEM, 0, has_dest=False),
    Opcode.BR_EXIT: OpInfo(OpCategory.BRANCH, FUKind.BR, 0, has_dest=False),
}

for _code, (_op, _info) in enumerate(_OPCODE_TABLE.items()):
    #: Small integer id (declaration order), the opcode's form in
    #: :mod:`repro.ir.coded` bodies and the scheduler's op-row tables.
    _op.code = _code
    _op.info = _info
    _op.category = _info.category
    _op.fu_kind = _info.fu_kind
    _op.is_memory = _info.category in (OpCategory.LOAD, OpCategory.STORE)
    _op.is_load = _info.category is OpCategory.LOAD
    _op.is_store = _info.category is OpCategory.STORE
    _op.is_branch = _info.category is OpCategory.BRANCH
    _op.is_fp = _info.category in (
        OpCategory.FP_ALU,
        OpCategory.FP_MUL,
        OpCategory.FP_DIV,
    )
    _op.is_compare = _info.category is OpCategory.COMPARE
del _code, _op, _info


#: Opcodes by their integer id (``Opcode.code``).
OPCODES: tuple[Opcode, ...] = tuple(Opcode)


class CmpOp(enum.Enum):
    """Comparison predicates for :data:`Opcode.CMP` / :data:`Opcode.FCMP`."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    def evaluate(self, lhs: float, rhs: float) -> bool:
        """Apply the comparison to two concrete values."""
        if self is CmpOp.EQ:
            return lhs == rhs
        if self is CmpOp.NE:
            return lhs != rhs
        if self is CmpOp.LT:
            return lhs < rhs
        if self is CmpOp.LE:
            return lhs <= rhs
        if self is CmpOp.GT:
            return lhs > rhs
        return lhs >= rhs


#: Maximum unroll factor considered anywhere in the system.  The paper caps
#: unrolling at eight because larger factors miscompiled parts of its
#: training suite; we adopt the same label space {1, ..., 8}.
MAX_UNROLL = 8

#: Unroll factors forming the classification label space.
UNROLL_FACTORS = tuple(range(1, MAX_UNROLL + 1))
