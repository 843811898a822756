"""Integer-coded loop bodies: the fast cost engine's working form.

The labelling pipeline compiles every loop at eight unroll factors under
two scheduling regimes.  On the object IR (:mod:`repro.ir.instruction`)
each factor rebuilds every instruction, register and memory reference of
the unrolled body as frozen dataclasses, and the cleanup passes, the
dependence analysis and the register-pressure estimates then spend their
time hashing those objects.  This module lowers each source :class:`Loop`
*once* into plain integer tables and runs the same passes on them:

* registers become ids into a per-loop table of ``(name, dtype)`` pairs —
  including every per-copy name the unroller can give them, interned at
  lowering time, so renaming a copy is a list lookup and two names the
  object unroller would make equal get the same id;
* opcodes become :attr:`Opcode.code` ids, arrays become ids, immediates
  become negative operand codes (``~index`` into the loop's immediates);
* each instruction is a record ``(op, defs, uses, mem, shape)``: ``defs``
  and ``uses`` are the register ids of ``reg_dests()`` / ``reg_srcs()`` in
  that order, ``mem`` is ``(array id, coeff, offset, width, indirect)`` or
  ``None``, and ``shape`` carries what only un-lowering and store
  forwarding read (source-operand template, predicate and index slots,
  compare kind, ``implicit``).

:func:`optimize_for_factor` (unroll, scalar replacement, coalescing, DCE,
honouring every :class:`OptimizationPlan` switch), :func:`analyze_dependences`,
:func:`max_live` and :func:`swp_register_pressure` mirror their object
counterparts decision for decision; :class:`CodedDeps` feeds
:meth:`SchedPrecomp.build <repro.sched.precompute.SchedPrecomp.build>`
directly.  The object IR stays the oracle: :func:`unlower_body` and
:meth:`CodedDeps.graph` turn coded results back into instructions and a
:class:`DependenceGraph`, and the differential tests compare the two paths
after every pass.

**Determinism.**  Integer ids hash differently from the registers they
stand for, so no pass here iterates a set or a register-keyed dict to
produce output: every walk is in body order, and sets serve membership
tests only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.dependence import DepEdge, DependenceGraph, DepKind
from repro.ir.instruction import Instruction
from repro.ir.loop import Loop, TripInfo
from repro.ir.types import MAX_UNROLL, OPCODES, DType, Opcode
from repro.ir.values import AffineIndex, MemRef, Reg
from repro.sched.regpressure import PressureEstimate

_IS_STORE = tuple(op.is_store for op in OPCODES)
_IS_BRANCH = tuple(op.is_branch for op in OPCODES)
_IS_MEMORY = tuple(op.is_memory for op in OPCODES)
_LOAD = Opcode.LOAD.code
_STORE = Opcode.STORE.code
_MOV = Opcode.MOV.code
_LOAD_PAIR = Opcode.LOAD_PAIR.code
_BR_EXIT = Opcode.BR_EXIT.code

DEP_KINDS: tuple[DepKind, ...] = tuple(DepKind)
_FLOW = DepKind.FLOW.code
_ANTI = DepKind.ANTI.code
_MEM_FLOW = DepKind.MEM_FLOW.code
_MEM_ANTI = DepKind.MEM_ANTI.code
_MEM_OUTPUT = DepKind.MEM_OUTPUT.code
_MEM_MAY = DepKind.MEM_MAY.code
_CONTROL = DepKind.CONTROL.code

#: Register-file class per dtype: pressure counts int and fp, never pred.
_INT, _FP, _PRED = 0, 1, 2
_FILE = {DType.I64: _INT, DType.F64: _FP, DType.PRED: _PRED}

# Record fields, and the shape fields the passes read (un-lowering
# unpacks the whole shape).
OP, DEFS, USES, MEM, SHAPE = range(5)
_ARRAY, _COEFF, _OFFSET, _WIDTH, _INDIRECT = range(5)  # memory-term fields
_TMPL, _PRED_SLOT, _FIXED_INDEX = 0, 1, 7

_MOV_REG_SHAPE = ((0,), -1, -1, None, False, True, False, -1)


@dataclass(eq=False)
class CodedLoop:
    """One source loop, lowered once (see the module docstring).

    ``ren[k]`` / ``ren_last[k]`` map a source register id to its name in
    unrolled copy ``k`` — the second for the last copy, where carried
    registers write back their own name.  Nothing here refers back to
    the analyses built from it, so dropping a loop frees its coded form
    by reference counting alone (labelling pauses the cyclic collector).
    """

    name: str
    body: tuple
    n_source_regs: int
    carried: frozenset
    reg_names: list
    reg_dtypes: list
    reg_files: list
    arrays: list
    imms: list
    ren: tuple
    ren_last: tuple
    trip: TripInfo
    unroll_factor: int
    has_early_exit: bool


@dataclass(eq=False)
class CodedPart:
    """One executing loop part (main or remainder) of a coded unroll.

    ``base`` is the remainder's iteration offset: it is applied to affine
    memory offsets only when the part is un-lowered, since no analysis
    depends on it.
    """

    code: CodedLoop
    name: str
    body: tuple
    trip: TripInfo
    unroll_factor: int
    base: int = 0

    @property
    def swp_eligible(self) -> bool:
        return not self.code.has_early_exit


@dataclass(eq=False)
class CodedUnroll:
    """The coded counterpart of :class:`~repro.transforms.unroll.UnrollResult`."""

    code: CodedLoop
    requested_factor: int
    factor: int
    main: CodedPart | None
    remainder: CodedPart | None
    remainder_emitted: bool
    needs_precondition: bool

    @property
    def emitted_size(self) -> int:
        size = 0
        if self.main is not None:
            size += len(self.main.body)
        if self.remainder_emitted:
            size += len(self.code.body)
        return size


# ----------------------------------------------------------------------
# Lowering and un-lowering.
# ----------------------------------------------------------------------


def lower(loop: Loop) -> CodedLoop:
    """The coded form of ``loop``, built once per :class:`Loop` instance.

    The memo lives on the instance (as :class:`Reg` and
    :class:`Instruction` memoise their hashes), so it is bounded by the
    loop's lifetime and two different loops sharing a name never share a
    lowering; :meth:`Loop.__getstate__` leaves it out of pickles.
    """
    code = loop.__dict__.get("_coded")
    if code is None:
        code = _lower(loop)
        object.__setattr__(loop, "_coded", code)
    return code


def _lower(loop: Loop) -> CodedLoop:
    reg_ids: dict[tuple[str, DType], int] = {}
    names: list[str] = []
    dtypes: list[DType] = []

    def intern(name: str, dtype: DType) -> int:
        key = (name, dtype)
        index = reg_ids.get(key)
        if index is None:
            index = reg_ids[key] = len(names)
            names.append(name)
            dtypes.append(dtype)
        return index

    def rid(reg: Reg) -> int:
        return intern(reg.name, reg.dtype)

    array_ids: dict[str, int] = {}
    arrays: list[str] = []
    imms: list = []
    body = []
    for inst in loop.body:
        uses: list[int] = []
        tmpl: list[int] = []
        for src in inst.srcs:
            if isinstance(src, Reg):
                tmpl.append(len(uses))
                uses.append(rid(src))
            else:
                tmpl.append(~len(imms))
                imms.append(src)
        pred_slot = index_slot = fixed_index = -1
        if inst.pred is not None:
            pred_slot = len(uses)
            uses.append(rid(inst.pred))
        mem = None
        if inst.mem is not None:
            ref = inst.mem
            if ref.index_reg is not None:
                if ref.indirect:
                    index_slot = len(uses)
                    uses.append(rid(ref.index_reg))
                else:
                    fixed_index = rid(ref.index_reg)  # never read, never renamed
            array = array_ids.get(ref.array)
            if array is None:
                array = array_ids[ref.array] = len(arrays)
                arrays.append(ref.array)
            mem = (array, ref.index.coeff, ref.index.offset, ref.width, ref.indirect)
        defs = tuple(rid(reg) for reg in inst.reg_dests())
        shape = (
            tuple(tmpl),
            pred_slot,
            index_slot,
            inst.cmp_op,
            inst.implicit,
            inst.dest is not None,
            inst.dest2 is not None,
            fixed_index,
        )
        body.append((inst.op.code, defs, tuple(uses), mem, shape))
    body = tuple(body)
    n_source = len(names)
    carried = frozenset(_carried(body))

    # Per-copy names, interned into the same table: the object unroller
    # names copy k of register r "r.k", and equal names are one register.
    defined = sorted({d for rec in body for d in rec[DEFS]})
    ren = []
    ren_last = []
    for k in range(MAX_UNROLL):
        table = list(range(n_source))
        for d in defined:
            table[d] = intern(f"{names[d]}.{k}", dtypes[d])
        last = list(table)
        for d in carried:
            last[d] = d
        ren.append(table)
        ren_last.append(last)
    return CodedLoop(
        name=loop.name,
        body=body,
        n_source_regs=n_source,
        carried=carried,
        reg_names=names,
        reg_dtypes=dtypes,
        reg_files=[_FILE[dtype] for dtype in dtypes],
        arrays=arrays,
        imms=imms,
        ren=tuple(ren),
        ren_last=tuple(ren_last),
        trip=loop.trip,
        unroll_factor=loop.unroll_factor,
        has_early_exit=any(rec[OP] == _BR_EXIT for rec in body),
    )


def unlower_body(code: CodedLoop, body, base: int = 0) -> tuple[Instruction, ...]:
    """Object instructions for coded records (fresh uids); affine memory
    offsets are shifted by ``coeff * base`` as :meth:`MemRef.unrolled`
    shifts a remainder's."""
    regs = [Reg(name, dtype) for name, dtype in zip(code.reg_names, code.reg_dtypes)]
    out = []
    for op, defs, uses, mem, shape in body:
        tmpl, pred_slot, index_slot, cmp_op, implicit, has_dest, has_dest2, fixed = shape
        srcs = tuple(regs[uses[t]] if t >= 0 else code.imms[~t] for t in tmpl)
        ref = None
        if mem is not None:
            array, coeff, offset, width, indirect = mem
            index_reg = None
            if index_slot >= 0:
                index_reg = regs[uses[index_slot]]
            elif fixed >= 0:
                index_reg = regs[fixed]
            if not indirect:
                offset += coeff * base
            ref = MemRef(code.arrays[array], AffineIndex(coeff, offset), indirect, index_reg, width)
        out.append(
            Instruction(
                OPCODES[op],
                dest=regs[defs[0]] if has_dest else None,
                srcs=srcs,
                mem=ref,
                pred=regs[uses[pred_slot]] if pred_slot >= 0 else None,
                cmp_op=cmp_op,
                dest2=regs[defs[-1]] if has_dest2 else None,
                implicit=implicit,
            )
        )
    return tuple(out)


def unlower_part(part: CodedPart) -> tuple[Instruction, ...]:
    """The object body of one coded loop part."""
    return unlower_body(part.code, part.body, part.base)


# ----------------------------------------------------------------------
# Unrolling and cleanup (mirrors repro.transforms).
# ----------------------------------------------------------------------


def _carried(body) -> set:
    """Registers read before any write in body order and also written."""
    written: set = set()
    live_in: set = set()
    for rec in body:
        for r in rec[USES]:
            if r not in written:
                live_in.add(r)
        written.update(rec[DEFS])
    return live_in & written


def unroll(code: CodedLoop, factor: int) -> CodedUnroll:
    """Coded :func:`repro.transforms.unroll.unroll`."""
    if not (1 <= factor <= MAX_UNROLL):
        raise ValueError(f"unroll factor must be in [1, {MAX_UNROLL}], got {factor}")
    if code.unroll_factor != 1:
        raise ValueError(f"loop {code.name!r} is already unrolled")
    trip = code.trip
    u = min(factor, trip.compile_time) if trip.known else factor
    if u == 1:
        main = CodedPart(code, code.name, code.body, trip, 1)
        return CodedUnroll(code, factor, 1, main, None, False, False)
    if trip.counted:
        total = trip.runtime
        main_trips, leftover = divmod(total, u)
        main = remainder = None
        if main_trips > 0:
            main = CodedPart(
                code,
                f"{code.name}#u{u}",
                _unrolled_body(code, u),
                TripInfo(main_trips, main_trips if trip.known else None, True),
                u,
            )
        if leftover > 0:
            remainder = CodedPart(
                code,
                f"{code.name}#rem",
                code.body,
                TripInfo(leftover, leftover if trip.known else None, True),
                1,
                base=main_trips * u,
            )
        emitted = (leftover > 0) if trip.known else True
        return CodedUnroll(code, factor, u, main, remainder, emitted, not trip.known)
    if not code.has_early_exit:
        raise ValueError(
            f"non-counted loop {code.name!r} has no exit branch; its trip "
            "semantics would be undefined"
        )
    main = CodedPart(
        code,
        f"{code.name}#u{u}",
        _unrolled_body(code, u),
        TripInfo(-(-trip.runtime // u), None, False),
        u,
    )
    return CodedUnroll(code, factor, u, main, None, False, False)


def _unrolled_body(code: CodedLoop, u: int) -> tuple:
    """Replicate the body ``u`` times: copy ``k`` reads each register's
    latest name (``current``, indexed by source id) and writes
    ``ren[k]`` names; carried registers chain through the copies and the
    last copy writes them back under their own names."""
    current = list(range(code.n_source_regs))
    body = []
    append = body.append
    for k in range(u):
        names = code.ren_last[k] if k == u - 1 else code.ren[k]
        for op, defs, uses, mem, shape in code.body:
            if uses:
                uses = tuple([current[r] for r in uses])
            if defs:
                new_defs = tuple([names[d] for d in defs])
                for d, new in zip(defs, new_defs):
                    current[d] = new
                defs = new_defs
            if mem is not None and not mem[_INDIRECT]:
                coeff = mem[_COEFF]
                mem = (mem[_ARRAY], coeff * u, mem[_OFFSET] + coeff * k, mem[_WIDTH], False)
            append((op, defs, uses, mem, shape))
    return tuple(body)


def scalar_replace(body: tuple) -> tuple:
    """Coded :func:`repro.transforms.scalar_replacement.scalar_replace_body`."""
    stores: dict = {}
    loads: dict = {}
    out = []
    for rec in body:
        op = rec[OP]
        if op == _STORE:
            mem = rec[MEM]
            shape = rec[SHAPE]
            if shape[_PRED_SLOT] >= 0 or mem[_INDIRECT] or mem[_WIDTH] != 1:
                _kill_array(stores, mem[_ARRAY])
                _kill_array(loads, mem[_ARRAY])
            else:
                key = (mem[_ARRAY], mem[_COEFF], mem[_OFFSET])
                _kill_overlapping(stores, key)
                _kill_overlapping(loads, key)
                t = shape[_TMPL][0]
                stores[key] = rec[USES][t] if t >= 0 else t
            out.append(rec)
            continue
        if op == _LOAD:
            mem = rec[MEM]
            if rec[SHAPE][_PRED_SLOT] < 0 and not mem[_INDIRECT] and mem[_WIDTH] == 1:
                key = (mem[_ARRAY], mem[_COEFF], mem[_OFFSET])
                dest = rec[DEFS][0]
                value = stores.get(key)
                if value is not None:
                    out.append(_mov(dest, value))
                    loads[key] = dest
                    continue
                value = loads.get(key)
                if value is not None:
                    out.append(_mov(dest, value))
                    continue
                loads[key] = dest
        out.append(rec)
    return tuple(out)


def _mov(dest: int, value: int) -> tuple:
    """``mov dest, value`` for a register id or an immediate code."""
    if value >= 0:
        return (_MOV, (dest,), (value,), None, _MOV_REG_SHAPE)
    return (_MOV, (dest,), (), None, ((value,), -1, -1, None, False, True, False, -1))


def _kill_overlapping(table: dict, store_key: tuple) -> None:
    array, coeff, offset = store_key
    for key in [k for k in table if k[0] == array and not (k[1] == coeff and k[2] != offset)]:
        del table[key]


def _kill_array(table: dict, array: int) -> None:
    for key in [k for k in table if k[0] == array]:
        del table[key]


def coalesce(body: tuple) -> tuple:
    """Coded :func:`repro.transforms.coalesce.coalesce_loads_body` (to
    fixpoint)."""
    while True:
        merged = _coalesce_sweep(body)
        if merged is body:
            return body
        body = merged


def _coalesce_sweep(body: tuple) -> tuple:
    candidates: dict = {}
    for pos, rec in enumerate(body):
        if rec[OP] == _LOAD:
            mem = rec[MEM]
            if (
                rec[SHAPE][_PRED_SLOT] < 0
                and not mem[_INDIRECT]
                and mem[_WIDTH] == 1
                and mem[_COEFF] % 2 == 0
            ):
                candidates.setdefault((mem[_ARRAY], mem[_COEFF]), []).append(pos)
    if not candidates:
        return body

    merged_at: dict = {}
    removed: set = set()
    for (array, coeff), positions in candidates.items():
        by_offset: dict = {}
        for pos in positions:
            by_offset.setdefault(body[pos][MEM][_OFFSET], pos)
        for offset in sorted(by_offset):
            if offset % 2 != 0 or offset + 1 not in by_offset:
                continue
            # Offsets pair up as (2m, 2m + 1), so no position is claimed
            # twice (the object pass's already-merged check never fires).
            pos_a = by_offset[offset]
            pos_b = by_offset[offset + 1]
            first, second = (pos_a, pos_b) if pos_a < pos_b else (pos_b, pos_a)
            if _store_between(body, first, second, array, coeff, body[second][MEM][_OFFSET]):
                continue
            load_a = body[pos_a]
            mem = load_a[MEM]
            pair = (
                _LOAD_PAIR,
                (load_a[DEFS][0], body[pos_b][DEFS][0]),
                (),
                (mem[_ARRAY], mem[_COEFF], mem[_OFFSET], 2, False),
                ((), -1, -1, None, False, True, True, load_a[SHAPE][_FIXED_INDEX]),
            )
            even_pos = pos_a if pos_a <= pos_b else pos_b
            merged_at[even_pos] = pair
            removed.add(pos_a if even_pos == pos_b else pos_b)

    if not merged_at:
        return body
    return tuple(
        merged_at.get(pos, rec) for pos, rec in enumerate(body) if pos not in removed
    )


def _store_between(body, first: int, second: int, array: int, coeff: int, offset: int) -> bool:
    for pos in range(first, second):
        rec = body[pos]
        if rec[OP] != _STORE:
            continue
        mem = rec[MEM]
        if mem[_ARRAY] != array:
            continue
        if mem[_INDIRECT] or rec[SHAPE][_PRED_SLOT] >= 0:
            return True
        if mem[_COEFF] == coeff and mem[_OFFSET] != offset:
            continue
        return True
    return False


def eliminate_dead_code(body: tuple, name: str = "") -> tuple:
    """Coded :func:`repro.transforms.dce.eliminate_dead_code`.

    The object pass removes, round after round, every instruction whose
    definitions no remaining instruction reads and none of which is
    carried, keeping side effects (stores, branches, no destination).
    Being dead only gets easier as the body shrinks, so the rounds reach
    the same set as this worklist over per-register read counts.
    """
    carried = _carried(body)
    reads: dict = {}  # read count per register; absent once it reaches 0
    for rec in body:
        for r in rec[USES]:
            reads[r] = reads.get(r, 0) + 1

    def dead(rec) -> bool:
        op, defs = rec[OP], rec[DEFS]
        if not defs or _IS_STORE[op] or _IS_BRANCH[op]:
            return False
        for d in defs:
            if d in carried or d in reads:
                return False
        return True

    work = [i for i, rec in enumerate(body) if dead(rec)]
    if not work:
        return body
    definers: dict = {}
    for i, rec in enumerate(body):
        for d in rec[DEFS]:
            definers.setdefault(d, []).append(i)
    alive = [True] * len(body)
    while work:
        i = work.pop()
        if not alive[i]:
            continue
        alive[i] = False
        for r in body[i][USES]:
            left = reads[r] - 1
            if left:
                reads[r] = left
                continue
            del reads[r]
            for j in definers.get(r, ()):
                if alive[j] and dead(body[j]):
                    work.append(j)
    kept = tuple(rec for rec, live in zip(body, alive) if live)
    if not kept:
        raise ValueError(f"DCE removed the entire body of {name!r}")
    return kept


def optimize_for_factor(code: CodedLoop, factor: int, plan=None) -> CodedUnroll:
    """Coded :func:`repro.transforms.pipeline.optimize_for_factor`: unroll,
    then scalar replacement, coalescing and DCE on the main part, each
    under its :class:`~repro.transforms.pipeline.OptimizationPlan` switch."""
    result = unroll(code, factor)
    main = result.main
    if main is None:
        return result
    body = main.body
    if plan is None or plan.scalar_replacement:
        body = scalar_replace(body)
    if plan is None or plan.coalescing:
        body = coalesce(body)
    if plan is None or plan.dead_code_elimination:
        body = eliminate_dead_code(body, main.name)
    if body is not main.body:
        result.main = CodedPart(code, main.name, body, main.trip, main.unroll_factor)
    return result


# ----------------------------------------------------------------------
# Dependences (mirrors repro.ir.dependence.analyze_dependences).
# ----------------------------------------------------------------------


class CodedDeps:
    """Dependence edges of one coded part, in the object graph's order.

    ``edges`` holds ``(src, dst, kind code, distance)`` tuples, exactly the
    de-duplicated edge list :func:`repro.ir.dependence.analyze_dependences`
    returns for the same body; ``ops`` the opcode id per position.
    """

    __slots__ = ("part", "body", "ops", "edges")

    def __init__(self, part: CodedPart, edges: list):
        self.part = part
        self.body = part.body
        self.ops = [rec[OP] for rec in part.body]
        self.edges = edges

    def graph(self) -> DependenceGraph:
        """The object graph: un-lowered body plus :class:`DepEdge` list."""
        return DependenceGraph(
            unlower_part(self.part),
            [DepEdge(s, d, DEP_KINDS[k], dist) for s, d, k, dist in self.edges],
        )


# The bound on loop-carried memory distances; it matches the default of
# ``repro.ir.dependence.analyze_dependences``.
_MAX_CARRIED_DISTANCE = 8


def analyze_dependences(part: CodedPart) -> CodedDeps:
    """Coded :func:`repro.ir.dependence.analyze_dependences`.

    Emits each edge the object analysis keeps after its de-duplication,
    in the same order: register edges, then one memory edge per ordered
    pair of references carrying the shortest distance the object
    analysis finds for it, then control edges.

    Register edges into or out of instruction ``i`` are keyed by ``i`` and
    the def site ``d`` alone, so the only duplicates are two reads at one
    ``i`` reaching the same ``d`` (a register read twice, or both halves
    of a ``LOAD_PAIR``): they are dropped per instruction.  A read at
    ``i`` with ``d >= i`` is a read before the register's only write, so
    the register is carried and, for ``d != i``, the object analysis's
    anti edge always follows.
    """
    body = part.body
    n = len(body)
    def_site: dict = {}
    for i, rec in enumerate(body):
        for r in rec[DEFS]:
            if r in def_site:
                raise ValueError(
                    f"register %{part.code.reg_names[r]} defined twice in "
                    f"{part.name!r}; bodies must be SSA up to loop-carried "
                    "recurrences"
                )
            def_site[r] = i

    edges = []
    append = edges.append
    get_def = def_site.get
    for i, rec in enumerate(body):
        reached = None
        for r in rec[USES]:
            d = get_def(r)
            if d is None:
                continue
            if reached is None:
                reached = [d]
            elif d in reached:
                continue
            else:
                reached.append(d)
            if d < i:
                append((d, i, _FLOW, 0))
            else:
                append((d, i, _FLOW, 1))
                if d != i:
                    append((i, d, _ANTI, 0))

    # Memory: for each reference ``a`` in body order, every reference
    # ``b`` on the same array in body order (the object analysis's pair
    # order with cross-array pairs, which never yield an edge, skipped).
    mem_ops = []
    by_array: dict = {}
    for i, rec in enumerate(body):
        mem = rec[MEM]
        if mem is not None and _IS_MEMORY[rec[OP]]:
            entry = (i, _IS_STORE[rec[OP]], mem)
            mem_ops.append(entry)
            by_array.setdefault(mem[_ARRAY], []).append(entry)
    for a in mem_ops:
        a_pos, a_store, a_mem = a
        for b in by_array[a_mem[_ARRAY]]:
            b_pos, b_store, b_mem = b
            if not (a_store or b_store):
                continue
            if a_mem[_INDIRECT] or b_mem[_INDIRECT]:
                if a_pos < b_pos:
                    append((a_pos, b_pos, _MEM_MAY, 0))
                elif a is not b or a_store:
                    append((a_pos, b_pos, _MEM_MAY, 1))
                continue
            distance = _min_overlap_distance(a_mem, b_mem, a_pos < b_pos)
            if distance is not None:
                kind = (
                    _MEM_OUTPUT if a_store and b_store else _MEM_FLOW if a_store else _MEM_ANTI
                )
                append((a_pos, b_pos, kind, distance))

    for e_pos in range(n):
        if body[e_pos][OP] == _BR_EXIT:
            for j in range(e_pos + 1, n):
                op = body[j][OP]
                if _IS_STORE[op] or op == _BR_EXIT:
                    append((e_pos, j, _CONTROL, 0))
    return CodedDeps(part, edges)


def _min_overlap_distance(earlier, later, allow_zero: bool):
    """The smallest distance ``d`` in ``[0 or 1, _MAX_CARRIED_DISTANCE]``
    at which the object analysis's ``_mem_overlap_distances`` reports an
    overlap of two affine references (``d = 0`` only when
    ``allow_zero``), or ``None``.
    """
    first = 0 if allow_zero else 1
    ce, oe, we = earlier[_COEFF], earlier[_OFFSET], earlier[_WIDTH]
    cl, ol, wl = later[_COEFF], later[_OFFSET], later[_WIDTH]
    if ce != cl:
        return 0 if allow_zero else None  # different strides: d = 0 only
    # Overlap at distance d iff lo <= cl*d + (ol - oe) <= hi.
    lo = -(wl - 1) - (ol - oe)
    hi = (we - 1) - (ol - oe)
    if cl == 0:
        return first if lo <= 0 <= hi else None
    if cl > 0:
        d_min, d_max = -(-lo // cl), hi // cl
    else:
        d_min, d_max = -(-hi // cl), lo // cl
    d = d_min if d_min > first else first
    return d if d <= d_max and d <= _MAX_CARRIED_DISTANCE else None


# ----------------------------------------------------------------------
# Register pressure (mirrors repro.sched.regpressure.max_live and
# repro.sched.modulo.swp_register_pressure).
# ----------------------------------------------------------------------


def _def_and_last_use(body, start) -> tuple[dict, dict]:
    def_cycle: dict = {}
    last_use: dict = {}
    for i, rec in enumerate(body):
        cycle = start[i]
        for r in rec[DEFS]:
            def_cycle[r] = cycle
        for r in rec[USES]:
            if cycle > last_use.get(r, -1):
                last_use[r] = cycle
    return def_cycle, last_use


def max_live(deps: CodedDeps, schedule) -> PressureEstimate:
    """Coded :func:`repro.sched.regpressure.max_live`."""
    body = deps.body
    files = deps.part.code.reg_files
    horizon = (max(schedule.start) if body else 0) + 1
    def_cycle, last_use = _def_and_last_use(body, schedule.start)
    events = ([], [])
    for reg, defined_at in def_cycle.items():
        file = files[reg]
        if file == _PRED:
            continue
        used_at = last_use.get(reg)
        if used_at is None:
            lo, hi = defined_at, horizon  # live out
        elif used_at >= defined_at:
            lo, hi = defined_at, used_at
        else:
            lo, hi = 0, horizon  # carried: live across the body
        events[file].append((lo, 1))
        events[file].append((hi + 1, -1))
    for reg in last_use:
        if reg not in def_cycle:
            file = files[reg]
            if file != _PRED:
                events[file].append((0, 1))  # live-in only
                events[file].append((horizon + 1, -1))
    return PressureEstimate(_peak(events[_INT]), _peak(events[_FP]))


def _peak(events: list) -> int:
    events.sort()
    live = peak = 0
    for _, delta in events:
        live += delta
        if live > peak:
            peak = live
    return peak


def swp_register_pressure(deps: CodedDeps, sched) -> tuple[int, int]:
    """Coded :func:`repro.sched.modulo.swp_register_pressure`."""
    files = deps.part.code.reg_files
    ii = sched.ii
    def_time, last_use = _def_and_last_use(deps.body, sched.start)
    need = [0, 0, 0]
    for reg, born in def_time.items():
        died = last_use.get(reg, born)
        if died < born:
            died = born + ii  # carried value: spans an iteration
        lifetime = died - born if died - born > 1 else 1
        need[files[reg]] += -(-lifetime // ii)
    for reg, died in last_use.items():
        if reg not in def_time:
            lifetime = died if died > 1 else 1  # born at 0
            need[files[reg]] += -(-lifetime // ii)
    return need[_INT], need[_FP]
