"""Content-addressed canonical forms for loops.

The measurement pipeline's dedup stage needs to answer one question
exactly: *which loops are guaranteed to cost the same cycles per entry,
at every unroll factor, under every optimization plan?*  This module
answers it with three SHA-256 keys per loop, each a digest of an explicit
serialization (never Python ``hash()``, which varies per process):

* :func:`cost_key` — the strict, order-preserving key.  Two loops with
  equal cost keys produce bit-identical ``per_entry_cycles`` sweeps: the
  serialization walks the body in program order and abstracts exactly the
  things the cost model provably never reads — register names (alpha-
  renamed, dtypes kept), array names (alpha-renamed), immediate *values*
  (``MachineModel.latency`` dispatches on opcode alone), absolute memory
  offsets (shifted per ``(array, stride)`` group by an **even** constant:
  dependence distances depend only on offset differences, cache footprints
  only on stride/width/trips, and the even shift preserves the offset
  parity the load coalescer keys on).  Everything else — opcodes, compare
  kinds, predication, operand wiring, memory strides and widths, trip
  counts, and the element counts of indirectly-indexed arrays (the one
  place ``loop.arrays`` feeds the cost model) — is kept.  ``entry_count``
  is deliberately excluded: total cycles are fanned back out as
  ``per_entry * entry_count``, the exact multiply the cost model performs.
* :func:`structural_key` — the trip-*exclusive*, reorder-invariant key.
  The body is first brought into a canonical order (a deterministic
  topological order of the distance-0 dependence DAG, with ties broken by
  Weisfeiler–Lehman-refined content signatures), so alpha-renaming *and*
  benign (dependence-respecting) statement reordering map to the same
  key.  This key defines the *structural* equivalence classes the dedup
  statistics report as ``class_merges`` — loops that differ only in trip count and
  would be dedupable at equal trips.
* :func:`canonical_key` — the structural serialization plus the trip
  token: invariant under alpha-renaming and benign reordering, changed by
  any semantic perturbation (opcode, stride, width, predication, trip
  count).

:func:`canonicalize` materializes the canonical representative as a
``Loop`` (canonical statement order, ``v<i>`` registers, ``A<i>`` arrays,
normalized offsets); canonicalization is idempotent — the canonical form
of a canonical form is itself, and all three keys are preserved.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass

from repro.ir.dependence import analyze_dependences
from repro.ir.instruction import Instruction
from repro.ir.loop import Loop
from repro.ir.values import AffineIndex, MemRef, Reg


def _digest(tag: str, lines: list[str]) -> str:
    hasher = hashlib.sha256()
    hasher.update(tag.encode())
    for line in lines:
        hasher.update(b"\n")
        hasher.update(line.encode())
    return hasher.hexdigest()


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Offset normalization.
# ----------------------------------------------------------------------


def _group_deltas(loop: Loop) -> dict[tuple[str, int], int]:
    """Even offset shift per ``(array, stride)`` group.

    Every affine reference in a group is shifted down by the same even
    constant (the group's minimum offset rounded down to even).  Uniform
    per-group shifts preserve all dependence distances (same-stride
    overlap depends only on offset differences; cross-stride overlap is
    offset-independent), and evenness preserves the offset parity that
    decides post-unroll load-pair coalescing.  The minimum — rather than
    the first-seen offset — makes the delta independent of statement
    order, so the same normalization serves both the order-preserving
    cost key and the reorder-invariant structural key.
    """
    mins: dict[tuple[str, int], int] = {}
    for inst in loop.body:
        mem = inst.mem
        if mem is None or mem.indirect:
            continue
        key = (mem.array, mem.index.coeff)
        offset = mem.index.offset
        if key not in mins or offset < mins[key]:
            mins[key] = offset
    return {key: low - (low % 2) for key, low in mins.items()}


def _norm_offset(mem: MemRef, deltas: dict[tuple[str, int], int]) -> int:
    return mem.index.offset - deltas[(mem.array, mem.index.coeff)]


# ----------------------------------------------------------------------
# Alpha maps and the shared serialization.
# ----------------------------------------------------------------------


def _operand_scan(inst: Instruction):
    """Register operands in the fixed order serialization names them."""
    for src in inst.srcs:
        if isinstance(src, Reg):
            yield src
    if inst.pred is not None:
        yield inst.pred
    if inst.mem is not None and inst.mem.indirect and inst.mem.index_reg is not None:
        yield inst.mem.index_reg
    if inst.dest is not None:
        yield inst.dest
    if inst.dest2 is not None:
        yield inst.dest2


def _alpha_maps(
    loop: Loop, order: list[int]
) -> tuple[dict[Reg, Reg], dict[str, str]]:
    """First-occurrence alpha renaming of registers and arrays along
    ``order`` (dtypes are preserved; names become ``v<i>`` / ``A<i>``)."""
    reg_map: dict[Reg, Reg] = {}
    array_map: dict[str, str] = {}
    for index in order:
        inst = loop.body[index]
        if inst.mem is not None and inst.mem.array not in array_map:
            array_map[inst.mem.array] = f"A{len(array_map)}"
        for reg in _operand_scan(inst):
            if reg not in reg_map:
                reg_map[reg] = Reg(f"v{len(reg_map)}", reg.dtype)
    return reg_map, array_map


def _serialize_body(
    loop: Loop,
    order: list[int],
    deltas: dict[tuple[str, int], int],
    reg_map: dict[Reg, Reg],
    array_map: dict[str, str],
) -> list[str]:
    """One line per instruction, immediates abstracted to their dtype."""

    def reg_token(reg: Reg | None) -> str:
        if reg is None:
            return "-"
        named = reg_map[reg]
        return f"%{named.name}:{named.dtype.value}"

    lines = []
    for index in order:
        inst = loop.body[index]
        srcs = ",".join(
            reg_token(src) if isinstance(src, Reg) else f"#{src.dtype.value}"
            for src in inst.srcs
        )
        mem = inst.mem
        if mem is None:
            mem_token = "-"
        elif mem.indirect:
            mem_token = f"{array_map[mem.array]}[{reg_token(mem.index_reg)}]w{mem.width}"
        else:
            mem_token = (
                f"{array_map[mem.array]}"
                f"[{mem.index.coeff}i+{_norm_offset(mem, deltas)}]w{mem.width}"
            )
        lines.append(
            "|".join(
                (
                    inst.op.value,
                    inst.cmp_op.value if inst.cmp_op is not None else "-",
                    srcs,
                    reg_token(inst.pred),
                    mem_token,
                    reg_token(inst.dest),
                    reg_token(inst.dest2),
                    "1" if inst.implicit else "0",
                )
            )
        )
    return lines


def _indirect_size_lines(loop: Loop, array_map: dict[str, str]) -> list[str]:
    """Element counts of indirectly-indexed arrays — the only place
    ``loop.arrays`` reaches the cost model (the data-cache footprint of a
    gather defaults to the trip count when the size is absent)."""
    indirect = {
        inst.mem.array
        for inst in loop.body
        if inst.mem is not None and inst.mem.indirect
    }
    lines = []
    for array in sorted(indirect, key=lambda name: array_map[name]):
        size = loop.arrays.get(array)
        lines.append(f"size:{array_map[array]}:{'trip' if size is None else size}")
    return lines


def _trip_line(loop: Loop) -> str:
    trip = loop.trip
    compile_time = trip.compile_time if trip.compile_time is not None else "?"
    return f"trip:{trip.runtime}:{compile_time}:{int(trip.counted)}:u{loop.unroll_factor}"


# ----------------------------------------------------------------------
# Canonical statement order (reorder-invariant).
# ----------------------------------------------------------------------


def _array_fingerprints(
    loop: Loop, deltas: dict[tuple[str, int], int]
) -> dict[str, str]:
    """Order-invariant fingerprint of each array's full access multiset,
    so content signatures can tell apart same-shaped accesses to
    differently-shared arrays before any names are assigned."""
    shapes: dict[str, list[str]] = {}
    for inst in loop.body:
        mem = inst.mem
        if mem is None:
            continue
        if mem.indirect:
            token = f"{inst.op.value}:ind:w{mem.width}"
        else:
            token = (
                f"{inst.op.value}:{mem.index.coeff}:{_norm_offset(mem, deltas)}"
                f":w{mem.width}"
            )
        shapes.setdefault(mem.array, []).append(token)
    return {
        array: _short("&".join(sorted(tokens))) for array, tokens in shapes.items()
    }


def _local_signature(
    inst: Instruction, deltas: dict[tuple[str, int], int], array_fp: dict[str, str]
) -> str:
    """Name-free content of one instruction (registers reduced to dtypes,
    arrays to their access fingerprints)."""
    mem = inst.mem
    if mem is None:
        mem_token = "-"
    elif mem.indirect:
        mem_token = f"ind:{array_fp[mem.array]}:w{mem.width}"
    else:
        mem_token = (
            f"aff:{array_fp[mem.array]}:{mem.index.coeff}"
            f":{_norm_offset(mem, deltas)}:w{mem.width}"
        )
    srcs = ",".join(
        f"r{src.dtype.value}" if isinstance(src, Reg) else f"i{src.dtype.value}"
        for src in inst.srcs
    )
    return "|".join(
        (
            inst.op.value,
            inst.cmp_op.value if inst.cmp_op is not None else "-",
            srcs,
            "p" if inst.pred is not None else "-",
            mem_token,
            inst.dest.dtype.value if inst.dest is not None else "-",
            inst.dest2.dtype.value if inst.dest2 is not None else "-",
            "1" if inst.implicit else "0",
        )
    )


def _partition(sigs: list[str]) -> list[tuple[int, ...]]:
    groups: dict[str, list[int]] = {}
    for index, sig in enumerate(sigs):
        groups.setdefault(sig, []).append(index)
    return sorted(tuple(group) for group in groups.values())


def _canonical_order(loop: Loop) -> list[int]:
    """A topological order of the distance-0 dependence DAG that depends
    only on loop *content*, not on the input statement order.

    Distance-0 dependence edges are exactly the orderings a benign
    reordering must preserve, so any two benign permutations of the same
    body yield the same DAG.  Node priorities are Weisfeiler–Lehman-
    refined content signatures (local content, then iteratively the
    multiset of ``(direction, kind, distance, neighbor signature)`` over
    *all* dependence edges, carried edges included); Kahn's algorithm
    then picks the smallest-signature ready node first.  Ties after full
    refinement are between indistinguishable statements, where either
    order serializes identically.
    """
    body = loop.body
    n = len(body)
    edges = analyze_dependences(loop).edges
    succs: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    neighbors: list[list[tuple[int, str, int, int]]] = [[] for _ in range(n)]
    for edge in edges:
        if edge.distance == 0 and edge.src != edge.dst:
            succs[edge.src].append(edge.dst)
            indegree[edge.dst] += 1
        neighbors[edge.src].append((0, edge.kind.name, edge.distance, edge.dst))
        neighbors[edge.dst].append((1, edge.kind.name, edge.distance, edge.src))

    deltas = _group_deltas(loop)
    array_fp = _array_fingerprints(loop, deltas)
    sigs = [_short(_local_signature(inst, deltas, array_fp)) for inst in body]
    grouping = _partition(sigs)
    for _ in range(n):
        refined = []
        for index in range(n):
            env = sorted(
                (direction, kind, distance, sigs[other])
                for direction, kind, distance, other in neighbors[index]
            )
            refined.append(
                _short(
                    sigs[index]
                    + "<"
                    + ";".join(f"{d}{k}{dist}{sig}" for d, k, dist, sig in env)
                )
            )
        regrouped = _partition(refined)
        sigs = refined
        if regrouped == grouping:
            break
        grouping = regrouped

    ready = [(sigs[index], index) for index in range(n) if indegree[index] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, index = heapq.heappop(ready)
        order.append(index)
        for succ in succs[index]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, (sigs[succ], succ))
    if len(order) != n:  # pragma: no cover - the dep DAG is acyclic by construction
        raise ValueError(f"{loop.name}: dependence DAG has a distance-0 cycle")
    return order


# ----------------------------------------------------------------------
# Public API.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """All three content keys of one loop."""

    cost_key: str
    structural_key: str
    canonical_key: str


def cost_key(loop: Loop) -> str:
    """Order-preserving content key: equal keys guarantee bit-identical
    ``per_entry_cycles`` at every factor, plan, and scheduling regime."""
    order = list(range(len(loop.body)))
    deltas = _group_deltas(loop)
    reg_map, array_map = _alpha_maps(loop, order)
    lines = _serialize_body(loop, order, deltas, reg_map, array_map)
    lines.extend(_indirect_size_lines(loop, array_map))
    lines.append(_trip_line(loop))
    return _digest("cost", lines)


def _structural_lines(loop: Loop) -> list[str]:
    order = _canonical_order(loop)
    deltas = _group_deltas(loop)
    reg_map, array_map = _alpha_maps(loop, order)
    lines = _serialize_body(loop, order, deltas, reg_map, array_map)
    lines.extend(_indirect_size_lines(loop, array_map))
    return lines


def structural_key(loop: Loop) -> str:
    """Trip-exclusive, reorder-invariant content key (merge statistics)."""
    return _digest("structural", _structural_lines(loop))


def canonical_key(loop: Loop) -> str:
    """Reorder-invariant content key including the trip count."""
    return _digest("canonical", _structural_lines(loop) + [_trip_line(loop)])


def canonical_form(loop: Loop) -> CanonicalForm:
    """All three keys, sharing the canonical-order computation."""
    lines = _structural_lines(loop)
    return CanonicalForm(
        cost_key=cost_key(loop),
        structural_key=_digest("structural", lines),
        canonical_key=_digest("canonical", lines + [_trip_line(loop)]),
    )


def canonicalize(loop: Loop) -> Loop:
    """The canonical representative of ``loop``'s equivalence class.

    Statements in canonical order, registers renamed ``v<i>`` and arrays
    ``A<i>`` in first-occurrence order, offsets normalized per group.
    Idempotent: canonicalizing a canonical loop returns an identical loop
    (fresh instruction uids aside), and every key is preserved.  The
    result is cost-equivalent to the input, not element-for-element
    identical (offsets are shifted), so it feeds keys and dedup decisions,
    never the interpreter.
    """
    order = _canonical_order(loop)
    deltas = _group_deltas(loop)
    reg_map, array_map = _alpha_maps(loop, order)
    body = []
    for index in order:
        inst = loop.body[index]
        mem = inst.mem
        if mem is not None:
            if mem.indirect:
                index_reg = (
                    reg_map[mem.index_reg] if mem.index_reg is not None else None
                )
                mem = MemRef(
                    array_map[mem.array], mem.index, True, index_reg, mem.width
                )
            else:
                mem = MemRef(
                    array_map[mem.array],
                    AffineIndex(mem.index.coeff, _norm_offset(mem, deltas)),
                    False,
                    None,
                    mem.width,
                )
        body.append(
            Instruction(
                op=inst.op,
                dest=reg_map[inst.dest] if inst.dest is not None else None,
                srcs=tuple(
                    reg_map[src] if isinstance(src, Reg) else src
                    for src in inst.srcs
                ),
                mem=mem,
                pred=reg_map[inst.pred] if inst.pred is not None else None,
                cmp_op=inst.cmp_op,
                dest2=reg_map[inst.dest2] if inst.dest2 is not None else None,
                implicit=inst.implicit,
            )
        )
    arrays = {
        array_map[name]: size
        for name, size in loop.arrays.items()
        if name in array_map
    }
    return loop.with_body(tuple(body), arrays=arrays)
