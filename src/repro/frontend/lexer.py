"""Scanner for the textual loop language.

The language is a readable serialisation of the IR — what the printer emits,
plus a header line — with one statement per line.  :data:`SCAN` splits one
line into plain token strings, which the parser dispatches on directly;
:func:`tokenize` wraps the same scanner into positioned :class:`Token`
records for tools and tests.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class TokenKind(enum.Enum):
    """Token categories of the loop language."""

    IDENT = "ident"  # load, fadd, loop, array names, keywords
    REG = "reg"  # %name
    NUMBER = "number"  # 42, -3, 2.5, -0.5
    STRING = "string"  # "176.gcc/loop_004"
    LBRACKET = "["
    RBRACKET = "]"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    EQUALS = "="
    ARROW = "->"
    STAR = "*"
    PLUS = "+"
    MINUS = "-"
    DOT = "."
    NEWLINE = "newline"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexed token with its source position."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.text!r}, {self.line}:{self.column})"


class LexError(ValueError):
    """Raised on unrecognised input."""


#: One token per match, after optional blanks.  Where two alternatives can
#: start at the same character ('-' opens a number, an arrow or a minus) the
#: longer one comes first.  The final empty lookahead matches where no token
#: can start, so a scan yields ``''`` exactly at unrecognised input.  Scan
#: only lines stripped by :func:`scanned`: a run of blanks that no token
#: follows makes every start position in it re-read the rest of the run,
#: quadratic in its length.
SCAN = re.compile(
    r"""
    [ \t\r]*
    (
        %[A-Za-z_][A-Za-z0-9_.]*                    # register
      | [A-Za-z_][A-Za-z0-9_.]*                     # identifier
      | [\[\](),=*+.]                               # punctuation
      | -?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?            # number
      | ->
      | -
      | "[^"\n]*"                                   # string
      | \#.*                                        # comment
      | (?=[^ \t\r])                                # unrecognised input
    )
    """,
    re.VERBOSE,
)

_PUNCT = {
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    "=": TokenKind.EQUALS,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    ".": TokenKind.DOT,
    "->": TokenKind.ARROW,
}


def scanned(line: str) -> str:
    """``line`` without trailing blanks, ready for :data:`SCAN`: every blank
    run left is followed by a token or by unrecognised input, so the scan is
    linear.  Columns are unchanged."""
    return line.rstrip(" \t\r")


# A scanned token's first character decides its kind; these tests hold only
# for tokens the scanner accepted (not comments or unrecognised input).
def is_ident(text: str) -> bool:
    """Whether a scanned token is an identifier."""
    first = text[0]
    return first.isalpha() or first == "_"


def is_number(text: str) -> bool:
    """Whether a scanned token is a number (``-`` alone is a minus)."""
    first = text[0]
    return first.isdigit() or (first == "-" and text[1:2].isdigit())


def _token_kind(text: str) -> TokenKind:
    """The kind of one scanned token."""
    first = text[0]
    if first == "%":
        return TokenKind.REG
    if first == '"':
        return TokenKind.STRING
    if is_ident(text):
        return TokenKind.IDENT
    if is_number(text):
        return TokenKind.NUMBER
    return _PUNCT[text]


def token_text(text: str) -> str:
    """A scanned token as :class:`Token` reports it: strings without their
    quotes, registers without their ``%``."""
    if text[0] == '"':
        return text[1:-1]
    if text[0] == "%":
        return text[1:]
    return text


def unrecognised(source: str, lines: list[str], index: int) -> LexError:
    """The error for the first unrecognised character of ``lines[index]``
    (0-based), quoting up to ten characters of ``source`` from there."""
    column = next(m.start(1) for m in SCAN.finditer(scanned(lines[index])) if not m.group(1))
    offset = sum(len(line) + 1 for line in lines[:index]) + column
    snippet = source[offset : offset + 10]
    return LexError(f"line {index + 1}:{column + 1}: unrecognised input {snippet!r}")


def tokenize(source: str) -> list[Token]:
    """Tokenize a whole source string.

    Comments (``# ...``) are skipped; blank lines collapse; an EOF token
    terminates the stream.
    """
    tokens: list[Token] = []
    lines = source.split("\n")
    for index, line in enumerate(lines):
        number = index + 1
        for match in SCAN.finditer(scanned(line)):
            text = match.group(1)
            if not text:
                raise unrecognised(source, lines, index)
            if text[0] == "#":
                continue
            tokens.append(Token(_token_kind(text), token_text(text), number, match.start(1) + 1))
        if number < len(lines) and tokens and tokens[-1].kind is not TokenKind.NEWLINE:
            tokens.append(Token(TokenKind.NEWLINE, "\n", number, len(line) + 1))
    if tokens and tokens[-1].kind is not TokenKind.NEWLINE:
        tokens.append(Token(TokenKind.NEWLINE, "\n", len(lines), 0))
    tokens.append(Token(TokenKind.EOF, "", len(lines), 0))
    return tokens
