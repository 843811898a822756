"""Unit tests for the textual loop language."""

import time

import numpy as np
import pytest

from repro.frontend import LexError, ParseError, parse_loop, parse_program, tokenize
from repro.frontend.lexer import TokenKind
from repro.ir.interp import initial_state, run_loop
from repro.ir.types import DType, Language, Opcode
from tests.strategies import MALFORMED_SOURCES


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("%x = load a[i+1]  # comment\n")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            TokenKind.REG, TokenKind.EQUALS, TokenKind.IDENT, TokenKind.IDENT,
            TokenKind.LBRACKET, TokenKind.IDENT, TokenKind.PLUS, TokenKind.NUMBER,
            TokenKind.RBRACKET, TokenKind.NEWLINE, TokenKind.EOF,
        ]

    def test_numbers(self):
        tokens = tokenize("1 -2 3.5 -0.25 1e-3")
        values = [t.text for t in tokens if t.kind is TokenKind.NUMBER]
        assert values == ["1", "-2", "3.5", "-0.25", "1e-3"]

    def test_positions_reported(self):
        tokens = tokenize("a\n  b")
        b = [t for t in tokens if t.text == "b"][0]
        assert (b.line, b.column) == (2, 3)

    def test_unknown_character_raises(self):
        with pytest.raises(LexError, match="line 1"):
            tokenize("%x = load a[i] @ oops")

    def test_blank_lines_collapse(self):
        tokens = tokenize("a\n\n\nb\n")
        newlines = sum(1 for t in tokens if t.kind is TokenKind.NEWLINE)
        assert newlines == 2

    def test_long_blank_runs_scan_in_linear_time(self):
        # A blank run that no token follows (trailing blanks, a blank-only
        # line) must not make the scanner retry it from every position: at
        # 60,000 blanks a quadratic scan takes minutes, a linear one
        # milliseconds.
        blanks = " " * 60_000
        body = f"  %x = load a[i]{blanks}\n{blanks}\n\t\r{blanks}\n  store %x -> b[i]\nend\n"
        source = f"loop t trip=8{blanks}\n{body}"
        start = time.perf_counter()
        assert parse_loop(source).name == "t"
        assert tokenize(source)[-1].kind is TokenKind.EOF
        # The end-of-line token still sits on the newline, past the blanks.
        with pytest.raises(ParseError, match=r"line 2:60012: expected an array name"):
            parse_loop(f"loop t\n  %x = load{blanks}\nend\n")
        with pytest.raises(LexError, match=r"line 2:17: unrecognised input '@"):
            parse_loop(f"loop t\n  %x = load a[i]@{blanks}\nend\n")
        assert time.perf_counter() - start < 5.0


class TestParserBasics:
    def test_header_options(self):
        loop = parse_loop("loop t trip=128 known entries=7 nest=3 lang=f90\n"
                          "  %x = load a[i]\n  store %x -> o[i]\nend\n")
        assert loop.trip.compile_time == 128
        assert loop.entry_count == 7
        assert loop.nest_level == 3
        assert loop.language is Language.FORTRAN90

    def test_while_loop(self):
        loop = parse_loop(
            "loop t trip=32 while\n"
            "  %x = load a[i]\n"
            "  %p = fcmp.ge %x, 3.0\n"
            "  exit_if %p\n"
            "end\n"
        )
        assert not loop.trip.counted
        assert loop.has_early_exit

    def test_affine_forms(self):
        loop = parse_loop(
            "loop t trip=16\n"
            "  %a = load x[i]\n"
            "  %b = load x[3*i+2]\n"
            "  %c = load x[i-0]\n"
            "  %d = load x[5]\n"
            "  store %a -> o[i]\n"
            "end\n"
        )
        refs = [inst.mem.index for inst in loop.body if inst.op is Opcode.LOAD]
        assert (refs[0].coeff, refs[0].offset) == (1, 0)
        assert (refs[1].coeff, refs[1].offset) == (3, 2)
        assert (refs[2].coeff, refs[2].offset) == (1, 0)
        assert (refs[3].coeff, refs[3].offset) == (0, 5)

    def test_indirect_reference(self):
        loop = parse_loop(
            "loop t trip=16\n"
            "  %j = load.i idx[i]\n"
            "  %v = load data[%j]\n"
            "  store %v -> o[i]\n"
            "end\n"
        )
        gather = loop.body[1]
        assert gather.mem.indirect
        assert gather.mem.index_reg.dtype is DType.I64

    def test_carried_register_with_init(self):
        loop = parse_loop(
            "loop t trip=16\n"
            "  init %acc = 1.5\n"
            "  %x = load a[i]\n"
            "  %acc = fadd %acc, %x\n"
            "end\n"
        )
        carried = loop.carried_regs()
        assert {r.name for r in carried} == {"acc"}

    def test_predicated_statement(self):
        loop = parse_loop(
            "loop t trip=16\n"
            "  %x = load a[i]\n"
            "  %p = fcmp.gt %x, 0.0\n"
            "  (%p) store %x -> o[i]\n"
            "end\n"
        )
        assert loop.body[-1].pred is not None

    def test_ldpair(self):
        loop = parse_loop(
            "loop t trip=16\n"
            "  %a, %b = ldpair x[2*i]\n"
            "  store %a -> o1[i]\n"
            "  store %b -> o2[i]\n"
            "end\n"
        )
        assert loop.body[0].op is Opcode.LOAD_PAIR
        assert loop.body[0].mem.width == 2

    def test_multiple_loops_in_one_file(self):
        parsed = parse_program(
            "loop a trip=8\n  %x = load p[i]\n  store %x -> q[i]\nend\n"
            "loop b trip=8\n  %y = load r[i]\n  store %y -> s[i]\nend\n"
        )
        assert [p.loop.name for p in parsed] == ["a", "b"]


class TestParserErrors:
    def test_missing_end(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_loop("loop t trip=8\n  %x = load a[i]\n")

    def test_unknown_opcode(self):
        with pytest.raises(ParseError, match="unknown opcode"):
            parse_loop("loop t trip=8\n  %x = frobnicate a, b\nend\n")

    def test_unknown_option(self):
        with pytest.raises(ParseError, match="unknown loop option"):
            parse_loop("loop t speed=9\n  %x = load a[i]\nend\n")

    def test_type_conflict_reported(self):
        with pytest.raises(ParseError, match="redefined as"):
            parse_loop(
                "loop t trip=8\n"
                "  %x = load a[i]\n"       # f64
                "  %x = add 1, 2\n"        # i64 redefinition
                "end\n"
            )

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError, match="empty body"):
            parse_loop("loop t trip=8\nend\n")

    def test_bad_comparison(self):
        with pytest.raises(ParseError, match="unknown comparison"):
            parse_loop("loop t trip=8\n  %p = fcmp.zz 1.0, 2.0\nend\n")

    @pytest.mark.parametrize("case", sorted(MALFORMED_SOURCES))
    def test_malformed_source_is_a_located_parse_error(self, case):
        source, message = MALFORMED_SOURCES[case]
        with pytest.raises(ParseError, match=message):
            parse_program(source)

    def test_positions_match_the_token_stream(self):
        # Errors name the offending token's line and column, the end-of-line
        # token sitting on the newline (or at column 0 on a last line
        # without one).
        with pytest.raises(ParseError, match=r"line 2:12: expected an array name, got '\\n'"):
            parse_loop("loop t\n  %x = load\nend\n")
        with pytest.raises(ParseError, match=r"line 2:0: expected an array name"):
            parse_loop("loop t\n  %x = load")
        with pytest.raises(ParseError, match=r"line 3:0: unterminated loop"):
            parse_loop("loop t\n  %x = load a[i]\n")
        with pytest.raises(ParseError, match=r"line 2:13: expected an operand, got 'y'"):
            parse_loop('loop t\n  %x = fadd "y", 1.0\nend\n')

    def test_lex_errors_keep_their_position(self):
        with pytest.raises(LexError, match=r"line 2:18: unrecognised input '@\\nend\\n'"):
            parse_program("loop t trip=8\n  %x = load a[i] @\nend\n")
        # The first malformed line is the one reported.
        with pytest.raises(ParseError, match="line 2:"):
            parse_program("loop t trip=8\n  %x = frob\n  @\nend\n")

    def test_loop_may_follow_end_on_its_line(self):
        parsed = parse_program(
            "loop a\n  %x = load p[i]\n  store %x -> q[i]\nend loop b\n"
            "  %y = load r[i]\n  store %y -> s[i]\nend\n"
        )
        assert [p.loop.name for p in parsed] == ["a", "b"]

    def test_comments_and_spacing_are_free(self):
        loop = parse_loop(
            "# leading comment\n\nloop t trip=8 # header\n"
            "  %x=load a [ 2 * i + 1 ]\t# tabbed\r\n"
            "  %p=fcmp.gt %x,0.0\n  (%p)store %x->o[i]\n"
            "end"
        )
        assert (loop.body[0].mem.index.coeff, loop.body[0].mem.index.offset) == (2, 1)


class TestParsedSemantics:
    def test_parsed_loop_is_executable(self):
        loop = parse_loop(
            "loop t trip=10 known\n"
            "  %x = load a[i]\n"
            "  %y = fmul %x, 3.0\n"
            "  store %y -> out[i]\n"
            "end\n"
        )
        state = initial_state(loop, seed=1)
        source = state.arrays["a"].copy()
        run_loop(loop, state)
        np.testing.assert_allclose(state.arrays["out"][:10], source[:10] * 3.0)

    def test_parsed_loop_unrolls_correctly(self):
        from repro.ir.interp import run_unrolled
        from repro.transforms import unroll

        loop = parse_loop(
            "loop t trip=23\n"
            "  init %acc = 0.0\n"
            "  %x = load a[i]\n"
            "  %acc = fadd %acc, %x\n"
            "  store %acc -> running[i]\n"
            "end\n"
        )
        for factor in (2, 3, 8):
            rolled = initial_state(loop, seed=2, carried_inits={})
            unrolled_state = rolled.copy()
            run_loop(loop, rolled)
            run_unrolled(unroll(loop, factor), unrolled_state)
            for key, value in rolled.observable(loop).items():
                np.testing.assert_allclose(unrolled_state.observable(loop)[key], value)

    def test_parsed_loop_feeds_the_predictor(self, mini_dataset):
        from repro.heuristics import train_nn_heuristic

        loop = parse_loop(
            "loop t trip=100 entries=50\n"
            "  %x = load a[i]\n"
            "  %y = load b[i]\n"
            "  %z = fma %x, %y, %x\n"
            "  store %z -> c[i]\n"
            "end\n"
        )
        heuristic = train_nn_heuristic(mini_dataset)
        assert 1 <= heuristic.predict_loop(loop) <= 8


class TestUnparser:
    def _assert_round_trip(self, loop, carried_inits=None):
        from repro.frontend import parse_loop, to_source

        source = to_source(loop, carried_inits)
        rebuilt = parse_loop(source)
        assert rebuilt.size == loop.size
        assert rebuilt.trip == loop.trip
        assert rebuilt.entry_count == loop.entry_count
        assert rebuilt.nest_level == loop.nest_level
        assert rebuilt.language == loop.language
        for a, b in zip(loop.body, rebuilt.body):
            assert a.op is b.op
            assert (a.dest is None) == (b.dest is None)
            assert a.cmp_op == b.cmp_op
            if a.mem is not None:
                assert b.mem is not None
                assert a.mem.array == b.mem.array
                assert a.mem.indirect == b.mem.indirect
                if not a.mem.indirect:
                    assert a.mem.index == b.mem.index
        assert {r.name for r in rebuilt.carried_regs()} == {
            r.name for r in loop.carried_regs()
        }
        return rebuilt

    @pytest.mark.parametrize(
        "kernel",
        ["daxpy", "dot", "stencil3", "vsum", "gather", "cond_update", "cmul",
         "search", "int_hash", "linrec", "matvec_row", "scatter"],
    )
    def test_kernels_round_trip(self, kernel):
        from repro.workloads.kernels import KERNELS

        self._assert_round_trip(KERNELS[kernel]())

    def test_round_trip_preserves_semantics(self):
        from repro.frontend import parse_loop, to_source
        from repro.workloads.kernels import stencil3

        loop = stencil3(trip=20, entries=1)
        rebuilt = parse_loop(to_source(loop))
        state_a = initial_state(loop, seed=3)
        # Rebuilt loop has the same array names/sizes; run on cloned data.
        state_b = state_a.copy()
        run_loop(loop, state_a)
        run_loop(rebuilt, state_b)
        np.testing.assert_allclose(state_b.arrays["out"], state_a.arrays["out"])

    def test_generated_loops_round_trip(self):
        from repro.workloads import generate_suite

        suite = generate_suite(seed=12, loops_scale=0.05)
        for loop in list(suite.all_loops())[:30]:
            self._assert_round_trip(loop)
