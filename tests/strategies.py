"""Shared hypothesis strategies for the property-based suites."""

import numpy as np
from hypothesis import strategies as st

from repro.features.catalog import N_FEATURES
from repro.ir.builder import LoopBuilder
from repro.ir.instruction import Instruction
from repro.ir.loop import TripInfo
from repro.ir.types import MAX_UNROLL, CmpOp, DType, Opcode
from repro.pipeline.measurements import MeasurementTable
from repro.transforms.pipeline import OptimizationPlan
from repro.workloads.patterns import PATTERNS, emit_search_exit

FP_OPS = [Opcode.FADD, Opcode.FSUB, Opcode.FMUL]

#: The default cleanup plan plus every single-switch ablation the benches
#: use, and all switches off.
PLANS = [
    OptimizationPlan(),
    OptimizationPlan(scalar_replacement=False),
    OptimizationPlan(coalescing=False),
    OptimizationPlan(dead_code_elimination=False),
    OptimizationPlan(
        scalar_replacement=False, coalescing=False, dead_code_elimination=False
    ),
]


def assert_tables_bit_identical(a: MeasurementTable, b: MeasurementTable) -> None:
    """Assert two measurement tables are byte-for-byte the same.

    ``tobytes`` comparison on the float columns is deliberately stricter
    than ``allclose`` *and* than ``array_equal``: it distinguishes
    ``-0.0`` from ``0.0`` and treats NaN holes (quarantined units) as
    values that must match positionally.  Provenance columns are compared
    element-wise so a mismatch names the first offending row.
    """
    assert a.swp == b.swp, f"swp regime differs: {a.swp} vs {b.swp}"
    assert len(a) == len(b), f"row count differs: {len(a)} vs {len(b)}"
    for column in ("loop_names", "benchmarks", "suites", "languages"):
        lhs, rhs = getattr(a, column), getattr(b, column)
        if not np.array_equal(lhs, rhs):
            row = int(np.flatnonzero(lhs != rhs)[0])
            raise AssertionError(
                f"{column} differ at row {row}: {lhs[row]!r} vs {rhs[row]!r}"
            )
    for column in ("X", "measured", "true_cycles", "entry_counts"):
        lhs, rhs = getattr(a, column), getattr(b, column)
        if lhs.tobytes() != rhs.tobytes():
            diff = lhs != rhs
            if np.issubdtype(lhs.dtype, np.floating):
                diff &= ~(np.isnan(lhs) & np.isnan(rhs))
            rows = np.unique(np.argwhere(diff)[:, 0])[:5]
            raise AssertionError(
                f"{column} are not bit-identical; differing rows "
                f"{rows.tolist()} ({a.loop_names[rows].tolist()})"
            )

#: Loop sources the parser must reject with a located ``ParseError``
#: (``line L:C: ...``), each with a pattern its message matches.  Parsers
#: that built a loop before validating it let the first five escape as
#: ``ValidationError``/``OverflowError``/``ValueError``.
MALFORMED_SOURCES = {
    "redefined register": (
        "loop t trip=8\n  %x = load a[i]\n  %x = load b[i]\n  store %x -> o[i]\nend\n",
        r"line 3:3: .*register %x redefined",
    ),
    "non-predicate guard": (
        "loop t trip=8\n  %x = load a[i]\n  (%x) store %x -> o[i]\nend\n",
        r"line 3:3: .*predicate %x is not PRED-typed",
    ),
    "out-of-bounds index": (
        "loop t trip=8\n  %x = load a[-5]\n  store %x -> o[i]\nend\n",
        r"line 2:3: .*out of bounds",
    ),
    "overflowing option": (
        "loop t trip=8 nest=1e400\n  %x = load a[i]\n  store %x -> o[i]\nend\n",
        r"line 1:20: number 1e400 is out of range",
    ),
    "negative trip": (
        "loop t trip=-3\n  %x = load a[i]\n  store %x -> o[i]\nend\n",
        r"line 1:13: trip must be >= 1",
    ),
    "known while loop": (
        "loop t trip=8 known while\n  %x = load a[i]\n  store %x -> o[i]\nend\n",
        r"line 1:1: a compile-time-known loop is necessarily counted",
    ),
    "two-destination load": (
        "loop t trip=8\n  %x, %y = load a[i]\n  store %x -> o[i]\nend\n",
        r"line 2:7: only ldpair takes two destinations",
    ),
    "oversized immediate": (
        "loop t trip=8\n  %x = add 1" + "0" * 5000 + ", 1\n  store %x -> o[i]\nend\n",
        r"line 2:12: number 1000000000.*\.\.\. is out of range",
    ),
}

#: Names as they appear on disk: any unicode except surrogates and NUL
#: (numpy's fixed-width unicode arrays cannot represent either faithfully).
_NAME_ALPHABET = st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\x00"
)
_NAMES = st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=16)

_CYCLES = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def measurement_tables(draw):
    """An arbitrary (but shape-consistent) :class:`MeasurementTable`:
    any number of rows, unicode provenance strings, either SWP regime."""
    n = draw(st.integers(min_value=1, max_value=6))

    def names():
        return np.array(
            draw(st.lists(_NAMES, min_size=n, max_size=n)), dtype=str
        )

    def cycles_matrix():
        rows = draw(
            st.lists(
                st.lists(_CYCLES, min_size=MAX_UNROLL, max_size=MAX_UNROLL),
                min_size=n,
                max_size=n,
            )
        )
        return np.array(rows, dtype=np.float64)

    features = draw(
        st.lists(
            st.lists(_CYCLES, min_size=N_FEATURES, max_size=N_FEATURES),
            min_size=n,
            max_size=n,
        )
    )
    return MeasurementTable(
        X=np.array(features, dtype=np.float64),
        measured=cycles_matrix(),
        true_cycles=cycles_matrix(),
        loop_names=names(),
        benchmarks=names(),
        suites=names(),
        languages=names(),
        entry_counts=np.array(
            draw(st.lists(st.integers(1, 10**9), min_size=n, max_size=n)),
            dtype=np.int64,
        ),
        swp=draw(st.booleans()),
    )


@st.composite
def labelled_datasets(draw):
    """A small, well-formed :class:`LoopDataset` for classifier
    differential tests: 2..4 factor classes with class-separable feature
    clusters (so every family has signal to learn), either SWP regime,
    seeded through hypothesis so shrinking stays deterministic."""
    from repro.ml.dataset import LoopDataset

    n_classes = draw(st.integers(min_value=2, max_value=4))
    per_class = draw(st.integers(min_value=3, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16 - 1))
    separation = draw(st.floats(min_value=0.6, max_value=2.0))
    swp = draw(st.booleans())

    rng = np.random.default_rng(seed)
    factors = np.sort(
        rng.choice(np.arange(1, MAX_UNROLL + 1), size=n_classes, replace=False)
    )
    n = n_classes * per_class
    labels = np.repeat(factors, per_class).astype(np.int64)
    X = rng.normal(size=(n, N_FEATURES)) + labels[:, None] * separation
    cycles = rng.uniform(1e4, 1e6, size=(n, MAX_UNROLL))
    return LoopDataset(
        X=X,
        labels=labels,
        cycles=cycles,
        true_cycles=cycles * 1.01,
        loop_names=np.array([f"bench{i % 3}/loop{i}" for i in range(n)]),
        benchmarks=np.array([f"bench{i % 3}" for i in range(n)]),
        suites=np.array(["s"] * n),
        languages=np.array(["C"] * n),
        swp=swp,
    )


@st.composite
def random_loops(draw):
    """A random but well-formed counted loop built through the DSL."""
    trip = draw(st.integers(min_value=1, max_value=40))
    known = draw(st.booleans())
    builder = LoopBuilder(
        "prop",
        TripInfo(runtime=trip, compile_time=trip if known else None),
    )
    values = []
    n_strands = draw(st.integers(min_value=1, max_value=3))
    for strand in range(n_strands):
        kind = draw(st.sampled_from(["map", "reduce", "stencil", "carried_store"]))
        if kind == "map":
            value = builder.load(f"in{strand}", offset=draw(st.integers(0, 2)))
            op = draw(st.sampled_from(FP_OPS))
            result = builder.fp(op, value, builder.fconst(draw(st.floats(0.5, 2.0))))
            builder.store(result, f"out{strand}")
            values.append(result)
        elif kind == "reduce":
            acc = builder.carried(DType.F64, init=0.0)
            value = builder.load(f"r{strand}")
            builder.fp(Opcode.FADD, acc, value, dest=acc)
        elif kind == "stencil":
            a = builder.load(f"s{strand}", offset=0)
            b = builder.load(f"s{strand}", offset=draw(st.integers(1, 3)))
            builder.store(builder.fp(Opcode.FADD, a, b), f"sout{strand}")
        else:
            value = builder.load(f"c{strand}", offset=0)
            scaled = builder.fp(Opcode.FMUL, value, builder.fconst(0.75))
            builder.store(scaled, f"c{strand}", offset=draw(st.integers(1, 4)))
    if draw(st.booleans()) and values:
        # Optionally a predicated consumer of an earlier value.
        pred = builder.cmp(CmpOp.GT, values[0], builder.fconst(0.0), fp=True)
        builder.store(values[0], "pred_out", pred=pred)
    return builder.build()


#: Trip counts that stress the remainder machinery: nothing a factor in
#: 2..8 divides cleanly, plus the degenerate 1..3 range where the main
#: loop may not run at all.
AWKWARD_TRIPS = st.sampled_from([1, 2, 3, 5, 7, 11, 13, 17, 23, 29, 37, 41, 65, 97])


@st.composite
def awkward_trip_loops(draw):
    """A well-formed counted loop whose trip count is deliberately not a
    multiple (nor usually a power) of two — every unroll factor in 2..8
    leaves a remainder, and tiny trips force the factor-clamping path."""
    trip = draw(AWKWARD_TRIPS)
    known = draw(st.booleans())
    builder = LoopBuilder(
        "awkward",
        TripInfo(runtime=trip, compile_time=trip if known else None),
    )
    acc = builder.carried(DType.F64, init=draw(st.floats(-1.0, 1.0)))
    value = builder.load("a", offset=draw(st.integers(0, 2)))
    builder.fp(draw(st.sampled_from(FP_OPS)), acc, value, dest=acc)
    if draw(st.booleans()):
        builder.store(acc, "out")
    return builder.build(), builder.carried_inits


@st.composite
def predicated_loops(draw):
    """A loop whose body is dominated by predicated execution: a compare
    guards an FP op and a store (the ``conditional_update`` idiom), with an
    optional predicated load on the same predicate."""
    trip = draw(st.integers(min_value=1, max_value=48))
    known = draw(st.booleans())
    builder = LoopBuilder(
        "predicated",
        TripInfo(runtime=trip, compile_time=trip if known else None),
    )
    value = builder.load("a", offset=draw(st.integers(0, 1)))
    threshold = builder.fconst(draw(st.floats(-0.5, 0.5)))
    above = builder.cmp(draw(st.sampled_from([CmpOp.GT, CmpOp.LT, CmpOp.GE])),
                        value, threshold, fp=True)
    scaled = builder.fp(
        draw(st.sampled_from(FP_OPS)),
        value,
        builder.fconst(draw(st.floats(0.5, 2.0))),
        pred=above,
    )
    builder.store(scaled, "out", pred=above)
    if draw(st.booleans()):
        # A predicated load consumed under the same predicate: the whole
        # chain is dead on false predicates, so per-copy renaming in the
        # unroller must keep each copy's chain on its own predicate.
        extra = builder.load("b", pred=above)
        builder.store(extra, "bout", pred=above)
    return builder.build()


@st.composite
def early_exit_loops(draw):
    """A while-style sentinel search plus where its exit fires.

    Returns ``(loop, key_reg, exit_at)``: the loop exits when ``a[i]``
    equals the invariant ``key_reg``; tests plant the key at index
    ``exit_at`` (always < trip, so strict-exit runs terminate) and may
    also zero the rest of ``a`` to keep the sentinel unique."""
    trip = draw(st.integers(min_value=2, max_value=40))
    exit_at = draw(st.integers(min_value=0, max_value=trip - 1))
    builder = LoopBuilder(
        "early-exit",
        TripInfo(runtime=trip, compile_time=None, counted=False),
    )
    key = builder.reg(DType.F64)  # invariant live-in: the searched-for value
    value = builder.load("a")
    found = builder.cmp(CmpOp.EQ, value, key, fp=True)
    builder.exit_if(found)
    running = builder.carried(DType.F64, init=0.0)
    builder.fp(Opcode.FADD, running, value, dest=running)
    if draw(st.booleans()):
        builder.store(running, "partial")
    return builder.build(), key, exit_at


@st.composite
def pattern_loops(draw):
    """A loop composed from the workload generator's pattern emitters, with
    the shapes :func:`random_loops` never builds: indirect gathers and
    scatters, while-style loops with early exits, non-unit and mismatched
    strides on one array, predicated stores, and wide (``LOAD_PAIR``)
    references overlapping narrow ones."""
    trip = draw(st.integers(min_value=1, max_value=40))
    while_style = draw(st.booleans())
    known = not while_style and draw(st.booleans())
    builder = LoopBuilder(
        "pattern",
        TripInfo(
            runtime=trip,
            compile_time=trip if known else None,
            counted=not while_style,
        ),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = draw(
        st.lists(
            st.sampled_from(sorted(name for name in PATTERNS if name != "search_exit")),
            min_size=1,
            max_size=4,
        )
    )
    if while_style or draw(st.booleans()):
        emit_search_exit(builder, rng, tag="exit")
    for index, name in enumerate(names):
        PATTERNS[name](builder, rng, tag=f"p{index}")
    if draw(st.booleans()):
        # Strides other than 1 on one array (negative and zero included):
        # a strided load, a store at the same or another stride, and
        # (coalescing fodder) an even-stride pair.
        stride = draw(st.sampled_from([-1, 0, 2, 3, 4]))
        base = trip + MAX_UNROLL if stride < 0 else 0  # stays in bounds
        value = builder.load("strided", stride=stride, offset=base + draw(st.integers(0, 3)))
        builder.load("strided", stride=2, offset=0)
        builder.load("strided", stride=2, offset=1)
        store_stride = draw(st.sampled_from([1, 2, stride]))
        builder.store(value, "strided", stride=store_stride,
                      offset=(base if store_stride < 0 else 0) + draw(st.integers(0, 3)))
    if draw(st.booleans()):
        # A wide load overlapping narrow stores of the same array.
        first, second = builder.reg(DType.F64), builder.reg(DType.F64)
        builder.emit(Instruction(
            Opcode.LOAD_PAIR, dest=first, dest2=second,
            mem=builder.mem("wide", stride=2, offset=draw(st.integers(0, 2)), width=2),
        ))
        builder.store(builder.fp(Opcode.FADD, first, second), "wide",
                      stride=draw(st.sampled_from([1, 2])), offset=draw(st.integers(0, 3)))
    if draw(st.booleans()):
        # A predicated store into the array a load reads: it kills the
        # load's forwarding and, once unrolled, sits between the copies'
        # coalescable loads.
        value = builder.load("guarded")
        pred = builder.cmp(CmpOp.LT, value, builder.fconst(0.5), fp=True)
        builder.store(value, "guarded", offset=draw(st.integers(0, 2)), pred=pred)
    return builder.build()
