"""Totality of the frontend: any input compiles or raises ``ReproError``.

The frontend is the first thing that sees user files, so no input may
escape it as a bare ``ValueError``, ``KeyError``, ``AttributeError``,
... .  Hypothesis feeds it arbitrary text and soups of mini-C tokens and
keywords, both loose and inside a function body (where lowering runs),
and every outcome must be a module or a :class:`~repro.errors.ReproError`.
The lint pass (``repro lint``) sees the same inputs, and must return its
diagnostics or raise ``ReproError``.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import LexError, ParseError, ReproError
from repro.lang import compile_source
from repro.lang.lexer import KEYWORDS, PUNCT
from repro.lang.sema import check_source

#: inputs that once escaped as a bare ValueError from ``int()``
MALFORMED_NUMBERS = ["int x = 0x;", "int f(void) { return 0xUL; }", "int x = ²;"]
#: nesting deeper than the parser's recursion allows
DEEP_NESTING = "int x = " + "(" * 2000 + "1" + ")" * 2000 + ";"

_WORDS = ["x", "y", "p", "q", "s", "v", "next", "f", "g", "t", "lbl",
          "malloc", "kfree", "free", "spin_lock", "spin_unlock", "memset"]
_LITERALS = ["0", "1", "42", "0x1F", "7UL", "0x", "0xUL", "08", '"s"', '"a\\"b"',
             "'c'", "'\\n'", "''", "'", '"', "²", "٣", "é", "@"]
_TRIVIA = ["/* c */", "/*", "*/", "// c\n", "#define X 1\n", "\\\n", "\n"]

_TOKEN = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(PUNCT),
    st.sampled_from(_WORDS),
    st.sampled_from(_LITERALS),
    st.sampled_from(_TRIVIA),
)
_SOUP = st.lists(_TOKEN, max_size=40).map(" ".join)

_PRELUDE = "struct s { int v; struct s *next; };\ntypedef int t;\nint g;\n"


def compiles_or_raises_repro_error(source: str) -> None:
    """Compile ``source``, then lint it; both may only raise ReproError."""
    try:
        compile_source(source, "fuzz.c")
    except ReproError:
        pass
    try:
        assert isinstance(check_source(source, "fuzz.c"), list)
    except ReproError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
@example(MALFORMED_NUMBERS[0])
@example(MALFORMED_NUMBERS[1])
@example(MALFORMED_NUMBERS[2])
@example(DEEP_NESTING)
def test_arbitrary_text(source):
    compiles_or_raises_repro_error(source)


@settings(max_examples=300, deadline=None)
@given(_SOUP)
def test_token_soup(source):
    compiles_or_raises_repro_error(source)


@settings(max_examples=300, deadline=None)
@given(_SOUP)
def test_token_soup_in_function_body(body):
    compiles_or_raises_repro_error(
        _PRELUDE + "int f(int x, struct s *p, t y) {\n" + body + "\n}\n")


@pytest.mark.parametrize("source", MALFORMED_NUMBERS)
def test_malformed_number_is_a_lex_error(source):
    with pytest.raises(LexError):
        compile_source(source)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nesting too deep"):
        compile_source(DEEP_NESTING)


def test_deep_nesting_is_a_lint_parse_error():
    with pytest.raises(ParseError, match="nesting too deep"):
        check_source(DEEP_NESTING)
