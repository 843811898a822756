"""Loops and their static properties.

A :class:`Loop` is the unit everything in this system operates on: the
unroller transforms it, the feature extractor describes it, the simulator
times it, and the classifiers label it.  It corresponds to what the paper
calls an "unrollable innermost loop": a single-block body (with predication
standing in for internal control flow) plus metadata about trip counts,
nesting, language, and runtime behaviour.

Register conventions
--------------------
The body is *almost* SSA: every register is defined at most once per
iteration, except that loop-carried values (recurrences such as reduction
accumulators) are read before being written.  A register that is read before
any write and also written later in the body is a **carried register** — its
incoming value on iteration ``i`` is the value left by iteration ``i - 1``
(or the preheader value on the first iteration).  A register read but never
written is a **loop-invariant live-in**.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterator

from repro.ir.instruction import Instruction
from repro.ir.types import Language, Opcode
from repro.ir.values import Reg


@dataclass(frozen=True)
class TripInfo:
    """Trip-count knowledge about a loop.

    Attributes:
        compile_time: trip count when it is a compile-time constant, else
            ``None`` (the common case for Fortran-style ``DO`` loops over a
            runtime bound).
        runtime: the *actual* average iteration count per entry, used by the
            simulator.  Always known to the simulation even when the
            compiler can't see it.
        counted: True when the trip count is computable at loop entry at run
            time (a counted ``for``/``DO`` loop).  Counted loops unroll with
            a preconditioning remainder; non-counted (``while``-style) loops
            need an exit test per unrolled copy.
    """

    runtime: int
    compile_time: int | None = None
    counted: bool = True

    def __post_init__(self) -> None:
        if self.runtime < 1:
            raise ValueError("runtime trip count must be >= 1")
        if self.compile_time is not None and self.compile_time != self.runtime:
            raise ValueError("compile-time trip count must match runtime value")
        if self.compile_time is not None and not self.counted:
            raise ValueError("a compile-time-known loop is necessarily counted")

    @property
    def known(self) -> bool:
        """Whether the compiler knows the trip count exactly."""
        return self.compile_time is not None


@dataclass(frozen=True)
class Loop:
    """An innermost loop.

    Attributes:
        name: unique id such as ``"176.gcc/loop_041"``.
        body: the loop body, one straight-line predicated block.  The
            induction-variable update, trip-count compare, and backedge are
            *implicit* (modelled by the machine's loop-overhead parameters),
            matching how EPIC hardware loop branches work.
        trip: trip-count knowledge (see :class:`TripInfo`).
        nest_level: 1 for an outermost loop, higher for deeper nests.
        language: source language of the enclosing benchmark.
        entry_count: how many times the program enters this loop per run
            (e.g. the outer-loop trip count for a nested inner loop).
        arrays: element count of each array the body references, used by the
            interpreter and the data-cache footprint model.
        unroll_factor: how many original iterations one body execution
            covers; 1 for a rolled loop.  Set by the unroller.
        benchmark: name of the owning benchmark, if any.
    """

    name: str
    body: tuple[Instruction, ...]
    trip: TripInfo
    nest_level: int = 1
    language: Language = Language.C
    entry_count: int = 1
    arrays: dict[str, int] = field(default_factory=dict)
    unroll_factor: int = 1
    benchmark: str = ""

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("loop body must not be empty")
        if self.nest_level < 1:
            raise ValueError("nest level must be >= 1")
        if self.entry_count < 1:
            raise ValueError("entry count must be >= 1")
        if self.unroll_factor < 1:
            raise ValueError("unroll factor must be >= 1")

    def __getstate__(self) -> dict:
        # Pickles carry the fields only: instance memos (the live-in
        # classes, the cost model's coded form, remainder analyses and
        # memory profile) are rebuilt on use.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ------------------------------------------------------------------
    # Register classification.
    # ------------------------------------------------------------------

    def _live_in_classes(self) -> tuple[frozenset[Reg], frozenset[Reg]]:
        """``(carried, invariant)``: the live-ins split by whether the body
        also writes them, from one walk of the body.  Memoised on the
        instance (the body is immutable; the memo is left out of pickles),
        so validation, dependence analysis and feature extraction of one
        loop share a single walk."""
        classes = self.__dict__.get("_live_in_memo")
        if classes is None:
            written: set[Reg] = set()
            live_in: set[Reg] = set()
            for inst in self.body:
                for reg in inst.reg_srcs():
                    if reg not in written:
                        live_in.add(reg)
                written.update(inst.reg_dests())
            classes = (frozenset(live_in & written), frozenset(live_in - written))
            object.__setattr__(self, "_live_in_memo", classes)
        return classes

    def defined_regs(self) -> set[Reg]:
        """Registers written anywhere in the body."""
        return {reg for inst in self.body for reg in inst.reg_dests()}

    def used_regs(self) -> set[Reg]:
        """Registers read anywhere in the body."""
        return {reg for inst in self.body for reg in inst.reg_srcs()}

    def live_in_regs(self) -> frozenset[Reg]:
        """Registers whose value flows into the body from outside or from
        the previous iteration (read before any write in body order)."""
        carried, invariant = self._live_in_classes()
        return carried | invariant

    def carried_regs(self) -> frozenset[Reg]:
        """Registers carried around the backedge (read-before-write *and*
        written) — the loop's scalar recurrences."""
        return self._live_in_classes()[0]

    def invariant_regs(self) -> frozenset[Reg]:
        """Loop-invariant live-ins (read but never written)."""
        return self._live_in_classes()[1]

    # ------------------------------------------------------------------
    # Structural queries used throughout the system.
    # ------------------------------------------------------------------

    @property
    def has_early_exit(self) -> bool:
        """Whether the body contains a data-dependent exit branch."""
        return any(inst.op is Opcode.BR_EXIT for inst in self.body)

    @property
    def swp_eligible(self) -> bool:
        """Whether the software pipeliner will accept this loop.

        Mirrors ORC: loops with early exits cannot be modulo scheduled and
        fall back to acyclic scheduling even when SWP is enabled.
        """
        return not self.has_early_exit

    def memory_refs(self) -> Iterator[tuple[Instruction, bool]]:
        """Yield ``(instruction, is_store)`` for every memory operation."""
        for inst in self.body:
            if inst.op.is_memory and inst.mem is not None:
                yield inst, inst.op.is_store

    def referenced_arrays(self) -> set[str]:
        """Names of arrays touched by the body."""
        return {inst.mem.array for inst in self.body if inst.mem is not None}

    @property
    def size(self) -> int:
        """Number of instructions in the body."""
        return len(self.body)

    def with_body(self, body: tuple[Instruction, ...], **changes) -> "Loop":
        """A copy of this loop with a replacement body (and other fields)."""
        return replace(self, body=tuple(body), **changes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        from repro.ir.printer import format_loop

        return format_loop(self)
