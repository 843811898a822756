"""IR well-formedness checks.

Passes call :func:`validate_loop` on their outputs in tests; the workload
generator validates everything it emits.  A well-formed loop satisfies:

* the body is SSA up to loop-carried recurrences (every register has at most
  one definition per iteration);
* every register read is either defined earlier in the body, carried around
  the backedge, or a loop-invariant live-in;
* predicate registers have predicate type and are defined by compares;
* memory references name arrays declared in ``loop.arrays`` and stay in
  bounds for the loop's runtime trip count;
* early-exit branches carry a predicate.
"""

from __future__ import annotations

from repro.ir.loop import Loop
from repro.ir.types import DType, Opcode


class ValidationError(ValueError):
    """Raised when a loop violates an IR invariant; ``position`` is the
    index of the offending instruction in ``loop.body``."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


def validate_loop(loop: Loop) -> None:
    """Raise :class:`ValidationError` if ``loop`` is malformed."""
    defined: set = set()
    for pos, inst in enumerate(loop.body):
        for reg in inst.reg_dests():
            if reg in defined:
                raise _fault(loop, pos, f"register {reg} redefined")
            defined.add(reg)
        if inst.pred is not None and inst.pred.dtype is not DType.PRED:
            raise _fault(loop, pos, f"predicate {inst.pred} is not PRED-typed")
        if inst.op.is_compare and inst.dest is not None and inst.dest.dtype is not DType.PRED:
            raise _fault(loop, pos, "compare must define a PRED register")
        if inst.op is Opcode.BR_EXIT and inst.pred is None:
            raise _fault(loop, pos, "exit branch requires a predicate")
        if inst.mem is not None:
            _check_mem(loop, inst, pos)
        if inst.op is Opcode.LOAD_PAIR and inst.dest2 is None:
            raise _fault(loop, pos, "wide load needs two destinations")

    _check_reads(loop)


def _fault(loop: Loop, pos: int, message: str) -> ValidationError:
    """``message`` about ``loop.body[pos]``, prefixed with where it is."""
    return ValidationError(f"{loop.name}[{pos}] ({loop.body[pos].op.value}): {message}", pos)


def _check_mem(loop: Loop, inst, pos: int) -> None:
    mem = inst.mem
    if mem.array not in loop.arrays:
        raise _fault(loop, pos, f"undeclared array {mem.array!r}")
    if mem.indirect:
        if mem.index_reg is None:
            raise _fault(loop, pos, "indirect reference without index register")
        return
    size = loop.arrays[mem.array]
    last_iter = loop.trip.runtime - 1
    for i in (0, last_iter):
        idx = mem.index.at(i)
        if not (0 <= idx <= size - mem.width):
            raise _fault(
                loop,
                pos,
                f"{mem} out of bounds at i={i} "
                f"(index {idx}, array size {size}, width {mem.width})",
            )


def _check_reads(loop: Loop) -> None:
    """Every register read must have a reaching definition."""
    carried = loop.carried_regs()
    invariants = loop.invariant_regs()
    written: set = set()
    for pos, inst in enumerate(loop.body):
        for reg in inst.reg_srcs():
            if reg in written or reg in carried or reg in invariants:
                continue
            if reg in loop.defined_regs():
                raise ValidationError(
                    f"{loop.name}[{pos}]: register {reg} read before its only "
                    "definition but not carried (dataflow is broken)",
                    pos,
                )
            raise ValidationError(f"{loop.name}[{pos}]: register {reg} is never defined", pos)
        written.update(inst.reg_dests())


def is_valid_loop(loop: Loop) -> bool:
    """Non-raising convenience wrapper around :func:`validate_loop`."""
    try:
        validate_loop(loop)
    except ValidationError:
        return False
    return True
