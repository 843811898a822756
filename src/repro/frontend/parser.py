"""Parser for the textual loop language.

Grammar (one statement per line; ``#`` comments)::

    loop NAME [trip=1024] [known] [while] [entries=16] [nest=2] [lang=f77]
      init %acc = 0.0                      # preheader value of a carried reg
      %x = load a[i]                       # affine load
      %j = load.i idx[i]                   # integer-typed load
      %g = load data[%j]                   # indirect (gather) load
      %s = fmul %x, 2.5
      %t = fma %x, %s, %acc
      %acc = fadd %acc, %t                 # read-before-write => carried
      %p = fcmp.gt %t, 10.0
      exit_if %p                           # early exit
      (%p) %u = fadd %x, %s                # predicated instruction
      store %t -> out[2*i+1]
    end

Affine indices are ``[c*i + o]`` with either part optional; ``[%reg]`` is an
indirect reference.  Register types are inferred: compares define
predicates, integer opcodes define I64, everything else F64; ``load.i``
forces an integer load.  A register read before it is written is a live-in
— carried if the body later writes it, invariant otherwise.

The parser is line-oriented: each line, stripped of trailing blanks, is
scanned once by :data:`repro.frontend.lexer.SCAN` into plain token strings,
ended by a ``"\\n"`` sentinel, and the statement is dispatched on its shape
by index.  No token records are built.  Every error is a
:class:`ParseError` (or a :class:`LexError` for unrecognised input) located
as ``line L:C``; the column is recovered by re-scanning the offending line,
so the common path never tracks positions.  Errors surface in source order:
the first line that is malformed, lexically or otherwise, is the one
reported.  A well-formed body is still checked by :func:`validate_loop`,
whose complaints (a redefined register, a predicate that is not PRED-typed,
an index out of bounds) are reported at the offending statement's line.

:func:`parse_loop` returns a validated :class:`repro.ir.loop.Loop`;
:func:`parse_program` handles multi-loop files.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.lexer import (
    SCAN, is_ident, is_number, scanned, token_text, unrecognised,
)
from repro.ir.instruction import Instruction
from repro.ir.loop import Loop, TripInfo
from repro.ir.types import MAX_UNROLL, CmpOp, DType, Language, Opcode
from repro.ir.validate import ValidationError, validate_loop
from repro.ir.values import AffineIndex, Imm, MemRef, Reg


class ParseError(ValueError):
    """Raised on malformed input, with line/column context."""


_INT_OPS = {
    "add": Opcode.ADD, "sub": Opcode.SUB, "mul": Opcode.MUL, "div": Opcode.DIV,
    "rem": Opcode.REM, "shl": Opcode.SHL, "shr": Opcode.SHR, "and": Opcode.AND,
    "or": Opcode.OR, "xor": Opcode.XOR, "sxt": Opcode.SXT,
}
_FP_OPS = {
    "fadd": Opcode.FADD, "fsub": Opcode.FSUB, "fmul": Opcode.FMUL,
    "fdiv": Opcode.FDIV, "fma": Opcode.FMA, "fneg": Opcode.FNEG,
    "cvt": Opcode.CVT,
}
#: Plain arithmetic: mnemonic -> (opcode, operand and result type, operands).
_ARITH = {
    **{name: (op, DType.I64, op.info.n_srcs) for name, op in _INT_OPS.items()},
    **{name: (op, DType.F64, op.info.n_srcs) for name, op in _FP_OPS.items()},
}
_LOADS = {"load": DType.F64, "load.i": DType.I64, "ldpair": DType.F64}
_CMP_OPS = {kind.value: kind for kind in CmpOp}
_LANGS = {
    "c": Language.C,
    "f77": Language.FORTRAN, "fortran": Language.FORTRAN,
    "f90": Language.FORTRAN90, "fortran90": Language.FORTRAN90,
}

_EOL = "\n"  # the sentinel ending every scanned line


@dataclass
class ParsedLoop:
    """A parsed loop plus its carried-register preheader values."""

    loop: Loop
    carried_inits: dict[Reg, float]


class _Fail(Exception):
    """A located error: token ``index`` on the line being parsed (or on
    source ``line``, 0-based, when given) and its message."""

    def __init__(self, index: int, message: str, line: int | None = None):
        super().__init__(message)
        self.index = index
        self.line = line


def _expected(toks: list[str], index: int, what: str) -> _Fail:
    return _Fail(index, f"expected {what}, got {token_text(toks[index])!r}")


def _out_of_range(index: int, text: str) -> _Fail:
    shown = text if len(text) <= 24 else text[:20] + "..."
    return _Fail(index, f"number {shown} is out of range")


def _integer(toks: list[str], index: int) -> int:
    """A number token truncated to an int (``2.5`` -> 2, ``1e3`` -> 1000)."""
    try:
        return int(float(toks[index]))
    except (OverflowError, ValueError):
        raise _out_of_range(index, toks[index]) from None


class _BodyBuilder:
    """Register/array bookkeeping for one loop during parsing."""

    def __init__(self, name: str, trip: TripInfo, nest: int, language: Language, entries: int):
        self.name = name
        self.trip_info = trip
        self.trip = trip.runtime
        self.nest = nest
        self.language = language
        self.entries = entries
        self.body: list[Instruction] = []
        self.line = 0  # source line (0-based) of the statement being parsed
        self.lines: list[int] = []  # source line of each instruction
        self.arrays: dict[str, int] = {}
        self.registers: dict[str, Reg] = {}
        self.carried_inits: dict[Reg, float] = {}

    def declare(self, name: str, dtype: DType, index: int) -> Reg:
        existing = self.registers.get(name)
        if existing is not None:
            if existing.dtype is not dtype:
                raise _Fail(
                    index,
                    f"register %{name} is {existing.dtype.value}, "
                    f"redefined as {dtype.value}",
                )
            return existing
        reg = Reg(name, dtype)
        self.registers[name] = reg
        return reg

    def use(self, name: str, expected: DType) -> Reg:
        existing = self.registers.get(name)
        if existing is not None:
            return existing
        # First sight at a use site: a live-in; adopt the expected type.
        reg = Reg(name, expected)
        self.registers[name] = reg
        return reg

    def note_array(self, name: str, index: AffineIndex | None = None, indirect: bool = False) -> None:
        if indirect:
            self.arrays.setdefault(name, max(self.trip, 64))
            return
        coeff, offset = index.coeff, index.offset
        if coeff >= 0:
            needed = coeff * (self.trip - 1 + MAX_UNROLL) + offset + 1
        else:
            needed = offset + 1
        self.arrays[name] = max(self.arrays.get(name, 0), needed, 1)

    def emit(self, toks: list[str], end: int, inst: Instruction) -> None:
        """Append ``inst`` once the statement's tokens stop at ``end``."""
        if toks[end] != _EOL:
            raise _expected(toks, end, "end of line")
        self.body.append(inst)
        self.lines.append(self.line)

    def finish(self) -> ParsedLoop:
        if not self.body:
            raise ParseError(f"loop {self.name!r} has an empty body")
        loop = Loop(
            name=self.name,
            body=tuple(self.body),
            trip=self.trip_info,
            nest_level=self.nest,
            language=self.language,
            entry_count=self.entries,
            arrays=self.arrays,
        )
        try:
            validate_loop(loop)
        except ValidationError as error:
            raise _Fail(0, str(error), line=self.lines[error.position]) from None
        return ParsedLoop(loop=loop, carried_inits=self.carried_inits)


# -- loop header ------------------------------------------------------------


def _header(toks: list[str], at: int) -> _BodyBuilder:
    """``loop NAME options...`` starting at token ``at``."""
    keyword = toks[at]
    if keyword != "loop":
        if not is_ident(keyword):
            raise _expected(toks, at, "'loop'")
        raise _Fail(at, "expected 'loop'")
    name = toks[at + 1]
    if not (is_ident(name) or name[0] == '"'):
        raise _Fail(at + 1, "expected a loop name")
    name = token_text(name)

    trip, known, counted = 256, False, True
    entries, nest, language = 1, 1, Language.C
    i = at + 2
    while is_ident(toks[i]):
        option = toks[i]
        if option == "known":
            known = True
            i += 1
            continue
        if option == "while":
            counted = False
            i += 1
            continue
        if option not in ("trip", "entries", "nest", "lang"):
            raise _Fail(i, f"unknown loop option {option!r}")
        if toks[i + 1] != "=":
            raise _expected(toks, i + 1, "'='")
        value = toks[i + 2]
        if option == "lang":
            language = _LANGS.get(token_text(value).lower())
            if language is None:
                raise _Fail(i + 2, f"unknown language {token_text(value)!r}")
        else:
            if not is_number(value):
                raise _Fail(i + 2, "expected a number")
            setting = _integer(toks, i + 2)
            if setting < 1:
                raise _Fail(i + 2, f"{option} must be >= 1")
            if option == "trip":
                trip = setting
            elif option == "entries":
                entries = setting
            else:
                nest = setting
        i += 3
    if toks[i] != _EOL:
        raise _expected(toks, i, "end of header line")
    try:
        trip_info = TripInfo(
            runtime=trip, compile_time=trip if known else None, counted=counted
        )
    except ValueError as error:
        raise _Fail(at, str(error)) from None
    return _BodyBuilder(name, trip_info, nest, language, entries)


# -- statements -------------------------------------------------------------


def _statement(b: _BodyBuilder, toks: list[str]) -> None:
    i = 0
    pred = None
    first = toks[0]
    if first == "(":
        reg = toks[1]
        if reg[0] != "%":
            raise _expected(toks, 1, "a predicate register")
        if toks[2] != ")":
            raise _expected(toks, 2, "')'")
        pred = b.use(reg[1:], DType.PRED)
        i = 3
        first = toks[3]

    if first == "init":
        if pred is not None:
            raise _Fail(i, "'init' cannot be predicated")
        reg = toks[i + 1]
        if reg[0] != "%":
            raise _expected(toks, i + 1, "a register")
        if toks[i + 2] != "=":
            raise _expected(toks, i + 2, "'='")
        value = toks[i + 3]
        if not is_number(value):
            raise _expected(toks, i + 3, "a number")
        fp = "." in value or "e" in value or "E" in value
        declared = b.declare(reg[1:], DType.F64 if fp else DType.I64, i + 1)
        b.carried_inits[declared] = float(value)
        if toks[i + 4] != _EOL:
            raise _expected(toks, i + 4, "end of line")
        return

    if first == "exit_if":
        reg = toks[i + 1]
        if reg[0] != "%":
            raise _expected(toks, i + 1, "a predicate register")
        guard = b.use(reg[1:], DType.PRED)
        b.emit(toks, i + 2, Instruction(Opcode.BR_EXIT, pred=guard))
        return

    if first == "store":
        value = _operand(b, toks, i + 1, DType.F64)
        if toks[i + 2] != "->":
            raise _expected(toks, i + 2, "'->'")
        mem, end = _memref(b, toks, i + 3)
        b.emit(toks, end, Instruction(Opcode.STORE, srcs=(value,), mem=mem, pred=pred))
        return

    _assignment(b, toks, i, pred)


def _assignment(b: _BodyBuilder, toks: list[str], i: int, pred) -> None:
    dest = toks[i]
    if dest[0] != "%":
        raise _expected(toks, i, "a destination register")
    j = i + 1
    dest2 = None
    if toks[j] == ",":
        dest2 = toks[j + 1]
        if dest2[0] != "%":
            raise _expected(toks, j + 1, "a second destination")
        j += 2
    if toks[j] != "=":
        raise _expected(toks, j, "'='")
    op_at = j + 1
    op = toks[op_at]
    if not is_ident(op):
        raise _expected(toks, op_at, "an opcode")
    k = op_at + 1
    if toks[k] == ".":
        suffix = toks[k + 1]
        if not is_ident(suffix):
            raise _expected(toks, k + 1, "an opcode suffix")
        op = f"{op}.{suffix}"
        k += 2
    if dest2 is not None and op != "ldpair":
        raise _Fail(i + 2, "only ldpair takes two destinations")

    arith = _ARITH.get(op)
    if arith is not None:
        opcode, dtype, n_srcs = arith
        srcs = [_operand(b, toks, k, dtype)]
        for _ in range(n_srcs - 1):
            if toks[k + 1] != ",":
                raise _expected(toks, k + 1, "','")
            k += 2
            srcs.append(_operand(b, toks, k, dtype))
        reg = b.declare(dest[1:], dtype, i)
        b.emit(toks, k + 1, Instruction(opcode, dest=reg, srcs=tuple(srcs), pred=pred))
        return

    # Loads (affine or indirect, optionally integer-typed or paired).
    dtype = _LOADS.get(op)
    if dtype is not None:
        mem, end = _memref(b, toks, k)
        reg = b.declare(dest[1:], dtype, i)
        if op != "ldpair":
            b.emit(toks, end, Instruction(Opcode.LOAD, dest=reg, mem=mem, pred=pred))
            return
        if dest2 is None:
            raise _Fail(op_at, "ldpair needs two destinations")
        reg2 = b.declare(dest2[1:], dtype, i + 2)
        mem = MemRef(mem.array, mem.index, mem.indirect, mem.index_reg, width=2)
        inst = Instruction(Opcode.LOAD_PAIR, dest=reg, dest2=reg2, mem=mem, pred=pred)
        b.emit(toks, end, inst)
        return

    # Compares.
    if op.startswith(("cmp.", "fcmp.")):
        base, _, condition = op.partition(".")
        kind = _CMP_OPS.get(condition)
        if kind is None:
            raise _Fail(op_at, f"unknown comparison {condition!r}")
        fp = base == "fcmp"
        dtype = DType.F64 if fp else DType.I64
        lhs = _operand(b, toks, k, dtype)
        if toks[k + 1] != ",":
            raise _expected(toks, k + 1, "','")
        rhs = _operand(b, toks, k + 2, dtype)
        reg = b.declare(dest[1:], DType.PRED, i)
        inst = Instruction(
            Opcode.FCMP if fp else Opcode.CMP, dest=reg, srcs=(lhs, rhs), cmp_op=kind, pred=pred
        )
        b.emit(toks, k + 3, inst)
        return

    # select %p, a, b  (type follows the value operands).
    if op in ("select", "select.i"):
        dtype = DType.I64 if op == "select.i" else DType.F64
        guard = _operand(b, toks, k, DType.PRED)
        if toks[k + 1] != ",":
            raise _expected(toks, k + 1, "','")
        if_true = _operand(b, toks, k + 2, dtype)
        if toks[k + 3] != ",":
            raise _expected(toks, k + 3, "','")
        if_false = _operand(b, toks, k + 4, dtype)
        reg = b.declare(dest[1:], dtype, i)
        inst = Instruction(Opcode.SELECT, dest=reg, srcs=(guard, if_true, if_false), pred=pred)
        b.emit(toks, k + 5, inst)
        return

    if op in ("mov", "mov.i"):
        dtype = DType.I64 if op == "mov.i" else DType.F64
        src = _operand(b, toks, k, dtype)
        reg = b.declare(dest[1:], dtype, i)
        b.emit(toks, k + 1, Instruction(Opcode.MOV, dest=reg, srcs=(src,), pred=pred))
        return

    raise _Fail(op_at, f"unknown opcode {op!r}")


# -- operands and memory references -----------------------------------------


def _operand(b: _BodyBuilder, toks: list[str], index: int, expected: DType):
    text = toks[index]
    if text[0] == "%":
        return b.use(text[1:], expected)
    if is_number(text):
        if expected is DType.F64 or "." in text or "e" in text or "E" in text:
            return Imm(float(text), DType.I64 if expected is DType.I64 else DType.F64)
        try:
            return Imm(int(text), DType.I64)
        except ValueError:  # more digits than int() converts
            raise _out_of_range(index, text) from None
    raise _expected(toks, index, "an operand")


def _memref(b: _BodyBuilder, toks: list[str], i: int) -> tuple[MemRef, int]:
    """``array[index]`` at token ``i``; returns the reference and the index
    of the token after it."""
    array = toks[i]
    if not is_ident(array):
        raise _expected(toks, i, "an array name")
    if toks[i + 1] != "[":
        raise _expected(toks, i + 1, "'['")
    first = toks[i + 2]
    if first[0] == "%":
        index_reg = b.use(first[1:], DType.I64)
        if toks[i + 3] != "]":
            raise _expected(toks, i + 3, "']'")
        b.note_array(array, indirect=True)
        return MemRef(array, indirect=True, index_reg=index_reg), i + 4
    index, end = _affine(toks, i + 2)
    if toks[end] != "]":
        raise _expected(toks, end, "']'")
    b.note_array(array, index=index)
    return MemRef(array, index), end + 1


def _affine(toks: list[str], i: int) -> tuple[AffineIndex, int]:
    """``[c*i + o]`` with optional coefficient, optional offset, or a bare
    constant index; returns the index and the token after it."""
    first = toks[i]
    if is_number(first):
        value = _integer(toks, i)
        if toks[i + 1] != "*":
            return AffineIndex(0, value), i + 1
        iv = toks[i + 2]
        if not is_ident(iv):
            raise _expected(toks, i + 2, "'i'")
        if iv != "i":
            raise _Fail(i + 2, "the induction variable is spelled 'i'")
        coeff = value
        i += 3
    elif first == "i":
        coeff = 1
        i += 1
    else:
        raise _Fail(i, "expected an affine index")
    sign = toks[i]
    if sign == "+" or sign == "-":
        if not is_number(toks[i + 1]):
            raise _expected(toks, i + 1, "an offset")
        offset = _integer(toks, i + 1)
        return AffineIndex(coeff, offset if sign == "+" else -offset), i + 2
    if sign[0] == "-" and is_number(sign):
        # The scanner folds a leading minus into the number ("i-3").
        return AffineIndex(coeff, _integer(toks, i)), i + 1
    return AffineIndex(coeff, 0), i


# -- program ----------------------------------------------------------------


def _located(source: str, lines: list[str], index: int, fail: _Fail) -> ParseError:
    """``fail`` as a ParseError at ``line L:C``: the column of its token on
    its line, found by re-scanning that line (the end-of-line sentinel sits
    on the line's newline, or at column 0 on a last line without one)."""
    if fail.line is not None:
        index = fail.line
    line = lines[index]
    columns = [m.start(1) + 1 for m in SCAN.finditer(scanned(line)) if m.group(1)[0] != "#"]
    columns.append(len(line) + 1 if index + 1 < len(lines) else 0)
    return ParseError(f"line {index + 1}:{columns[fail.index]}: {fail}")


def parse_program(source: str) -> list[ParsedLoop]:
    """Parse a whole source file (one or more loops)."""
    lines = source.split("\n")
    loops: list[ParsedLoop] = []
    builder = None
    for index, line in enumerate(lines):
        toks = SCAN.findall(scanned(line))
        if not toks:
            continue
        if "" in toks:
            raise unrecognised(source, lines, index)
        if toks[-1][0] == "#":
            del toks[-1]
            if not toks:
                continue
        toks.append(_EOL)
        try:
            if builder is None:
                builder = _header(toks, 0)
            elif toks[0] == "end":
                loops.append(builder.finish())
                # Anything after 'end' on its line opens the next loop.
                builder = _header(toks, 1) if len(toks) > 2 else None
            else:
                builder.line = index
                _statement(builder, toks)
        except _Fail as fail:
            raise _located(source, lines, index, fail) from None
    if builder is not None:
        raise ParseError(f"line {len(lines)}:0: unterminated loop (missing 'end')")
    if not loops:
        raise ParseError("no loops found")
    return loops


def parse_loop(source: str) -> Loop:
    """Parse exactly one loop and return it."""
    loops = parse_program(source)
    if len(loops) != 1:
        raise ParseError(f"expected exactly one loop, found {len(loops)}")
    return loops[0].loop
