"""The source route: parser output, feature vectors, and the grammar's edges.

A compiler client sends loop text; the daemon parses it and extracts the
38 features before any family predicts.  These tests pin that route:

* frozen SHA-256 digests of the parsed serve pool (every field of every
  loop except ``Instruction.uid``, plus carried-register inits) and of
  ``extract_matrix`` over the same loops, recorded before the parser and
  the feature walk were rewritten;
* a hypothesis round trip: ``parse_program(to_source(loop))`` rebuilds
  generated loops field for field, carried inits included;
* a hypothesis mutation tier: deleting, duplicating or swapping a
  character or a token of ``to_source`` output, or truncating it, yields
  either a validated loop or a ``ParseError``/``LexError`` -- never
  another exception type.
"""

import hashlib
import re

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.features.extract import extract_features, extract_matrix
from repro.frontend import LexError, ParseError, parse_program, to_source
from repro.ir.validate import validate_loop
from repro.workloads.generator import generate_suite
from tests.strategies import pattern_loops, random_loops

#: SHA-256 of ``_program_digest`` over the parsed test-sized serve pool.
PARSED_POOL_SHA256 = "410497aabe7f1f6ca3ee787d1869a01578256cb698f5527055486a23b118cd4e"
#: SHA-256 of ``extract_matrix`` (float64 bytes) over the same loops.
FEATURE_MATRIX_SHA256 = "9787d0cec2c62178dcaa1cde690c76eeb835f0c81947edc4e1b717e21eebdd03"

#: The serve workload's pool generator (``generate_suite(seed=1)``) at a
#: test-sized scale: 217 loops.
POOL_SEED = 1
POOL_SCALE = 0.05


def _reg(reg):
    return None if reg is None else (reg.name, reg.dtype.value)


def _operand(value):
    if hasattr(value, "name"):
        return ("reg",) + _reg(value)
    return ("imm", type(value.value).__name__, repr(value.value), value.dtype.value)


def _mem(mem):
    if mem is None:
        return None
    index = None if mem.indirect else (mem.index.coeff, mem.index.offset)
    return (mem.array, index, mem.indirect, _reg(mem.index_reg), mem.width)


def loop_fields(loop) -> tuple:
    """Every field of ``loop`` as plain values, ``Instruction.uid`` aside."""
    body = tuple(
        (
            inst.op.value,
            _reg(inst.dest),
            tuple(_operand(src) for src in inst.srcs),
            _mem(inst.mem),
            _reg(inst.pred),
            None if inst.cmp_op is None else inst.cmp_op.value,
            _reg(inst.dest2),
            inst.implicit,
        )
        for inst in loop.body
    )
    trip = (loop.trip.runtime, loop.trip.compile_time, loop.trip.counted)
    return (
        loop.name,
        body,
        trip,
        loop.nest_level,
        loop.language.value,
        loop.entry_count,
        tuple(loop.arrays.items()),
        loop.unroll_factor,
        loop.benchmark,
    )


def _inits(carried_inits) -> tuple:
    return tuple(
        sorted((_reg(reg), type(value).__name__, repr(value)) for reg, value in carried_inits.items())
    )


def _program_digest(parsed) -> str:
    digest = hashlib.sha256()
    for entry in parsed:
        digest.update(repr((loop_fields(entry.loop), _inits(entry.carried_inits))).encode())
    return digest.hexdigest()


def _pool_sources() -> list[str]:
    loops = generate_suite(seed=POOL_SEED, loops_scale=POOL_SCALE).all_loops()
    return [to_source(loop) for loop in loops]


class TestFrozenSourceRoute:
    def test_parsed_pool_and_features_digests(self):
        parsed = [entry for source in _pool_sources() for entry in parse_program(source)]
        assert len(parsed) == 217
        assert _program_digest(parsed) == PARSED_POOL_SHA256
        matrix = extract_matrix(entry.loop for entry in parsed)
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == FEATURE_MATRIX_SHA256


# ---------------------------------------------------------------------------
# Grammar property tier.
# ---------------------------------------------------------------------------

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _assert_round_trip(loop, carried_inits=None):
    source = to_source(loop, carried_inits)
    (entry,) = parse_program(source)
    rebuilt = entry.loop
    # The text carries no array sizes: the parser derives them from the
    # trip count and the references, so only the array names must agree.
    assert loop_fields(rebuilt)[:6] == loop_fields(loop)[:6]
    assert loop_fields(rebuilt)[7:] == loop_fields(loop)[7:]
    assert set(rebuilt.arrays) == set(loop.arrays)
    expected_inits = {
        reg: (carried_inits or {}).get(reg, 0.0) for reg in loop.carried_regs()
    }
    assert _inits(entry.carried_inits) == _inits(
        {
            reg: float(value) if reg.dtype.value == "f64" else float(int(value))
            for reg, value in expected_inits.items()
        }
    )
    # Parsing is a fixed point: the rebuilt loop prints and parses to
    # itself, array sizes included.
    (again,) = parse_program(to_source(rebuilt, entry.carried_inits))
    assert loop_fields(again.loop) == loop_fields(rebuilt)
    assert _inits(again.carried_inits) == _inits(entry.carried_inits)


class TestRoundTrip:
    @_SETTINGS
    @given(loop=random_loops())
    def test_random_loops(self, loop):
        _assert_round_trip(loop)

    @_SETTINGS
    @given(loop=pattern_loops(), seed=st.integers(0, 2**16))
    def test_pattern_loops_with_inits(self, loop, seed):
        rng = np.random.default_rng(seed)
        inits = {reg: float(rng.normal()) for reg in loop.carried_regs()}
        _assert_round_trip(loop, inits)


_TOKEN = re.compile(r"\S+")


@st.composite
def mutated_sources(draw):
    """``to_source`` output with one character or token deleted,
    duplicated or swapped with its neighbour, or the text truncated."""
    loop = draw(st.one_of(random_loops(), pattern_loops()))
    source = to_source(loop)
    kind = draw(st.sampled_from(["char", "token", "truncate"]))
    if kind == "truncate":
        return source[: draw(st.integers(0, len(source) - 1))]
    if kind == "char":
        spans = [(i, i + 1) for i in range(len(source))]
    else:
        spans = [match.span() for match in _TOKEN.finditer(source)]
    k = draw(st.integers(0, len(spans) - 1))
    start, end = spans[k]
    piece = source[start:end]
    action = draw(st.sampled_from(["delete", "duplicate", "swap"]))
    if action == "delete":
        return source[:start] + source[end:]
    if action == "duplicate":
        return source[:end] + (" " + piece if kind == "token" else piece) + source[end:]
    if k + 1 >= len(spans):
        return source[:start] + source[end:]
    next_start, next_end = spans[k + 1]
    return (
        source[:start] + source[next_start:next_end] + source[end:next_start]
        + piece + source[next_end:]
    )


class TestMutatedSources:
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(source=mutated_sources())
    def test_validated_loop_or_typed_error(self, source):
        try:
            parsed = parse_program(source)
        except (ParseError, LexError) as error:
            assert re.match(r"line \d+:\d+: |no loops found|loop .* has an empty body", str(error))
            return
        for entry in parsed:
            validate_loop(entry.loop)
            assert extract_features(entry.loop).shape == (38,)
