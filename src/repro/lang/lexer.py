"""Lexer for mini-C, the C subset the corpus and examples are written in.

Mini-C covers the constructs PATA's evaluation exercises: structs with
designated initializers (module-interface registration), pointers, field
accesses, arrays, control flow including ``goto``, and the kernel-ish
allocation/locking APIs (recognized later, at lowering).

The whole lexer is one compiled master regex driven by ``finditer``; see
:data:`_MASTER` for why its alternatives come in the order they do.
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple

from ..errors import LexError

KEYWORDS = {
    "struct", "union", "enum", "typedef", "static", "extern", "inline",
    "const", "volatile", "unsigned", "signed", "void", "int", "char",
    "long", "short", "float", "double", "bool",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "goto", "switch", "case", "default", "sizeof", "NULL",
}

# Multi-character punctuation, longest first so maximal munch works.
PUNCT = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]

_CHAR_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", "'": "'", "r": "\r"}

# The master regex: optional blanks, then one alternative per token
# class.  The alternatives are tried in this order at each offset:
#
# * ``word`` first: identifiers and keywords are the commonest tokens.
# * ``skip`` (comments, ``#`` lines with ``\``-continuations) before
#   ``punct``, so ``//`` and ``/*`` open comments instead of lexing as
#   ``/``.  An unterminated ``/*`` fails ``skip``, and ``punct`` refuses
#   a ``/`` before ``*``, so it reaches ``error``.
# * ``punct`` longest first (maximal munch); single characters last, as
#   one character class.
# * ``num`` is ASCII only.  A ``0x`` with no hex digit is not a number
#   and reaches ``error``.
# * ``uword``: an identifier that starts with a non-ASCII letter.  Its
#   first character is checked in Python, which keeps ``word`` a plain
#   ASCII class on the hot path.
# * ``error`` matches any one non-blank character, so every offset is
#   covered.  Trailing blanks end in ``skip``'s ``\Z``; were they left
#   unmatched, ``finditer`` would retry the blank prefix from each of
#   them, which is quadratic.
#
# Blanks are a prefix of every match rather than matches of their own,
# which halves the number of matches.  The loop dispatches on
# ``lastindex``, the number of the group that matched, which is cheaper
# than comparing ``lastgroup`` names.
_GROUPS = (
    ("word", r"[A-Za-z_]\w*"),
    ("newline", r"\n"),
    ("skip", r"//[^\n]*|/\*.*?\*/|\#(?:\\\n|[^\n])*|\Z"),
    ("punct", "|".join(re.escape(p) for p in PUNCT if len(p) > 1)
     + r"|/(?!\*)|[" + re.escape("".join(p for p in PUNCT if len(p) == 1 and p != "/")) + "]"),
    ("num", r"0[xX][0-9a-fA-F]+[uUlL]*|(?!0[xX])[0-9]+[uUlL]*"),
    ("string", r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'),
    ("char", r"'(?:\\.|[^\\])'"),
    ("uword", r"[^\x00-\x7f]\w*"),
    ("error", r"[^ \t\r]"),
)
_MASTER = re.compile(
    r"[ \t\r]*(?:" + "|".join(f"(?P<{name}>{pattern})" for name, pattern in _GROUPS) + ")",
    re.DOTALL,
)
_WORD, _NEWLINE, _SKIP, _PUNCT, _NUM, _STRING, _CHAR, _UWORD, _ERROR = range(1, len(_GROUPS) + 1)

#: in a string literal a backslash keeps the character after it as is
_STRING_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


class Token(NamedTuple):
    kind: str  # 'id', 'num', 'char', 'string', 'kw', 'punct', 'eof'
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


_new_token = tuple.__new__


class Lexer:
    """Tokenizer over one mini-C source buffer."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename

    def tokens(self) -> Iterator[Token]:
        """Yield the buffer's tokens in order, then one ``eof`` token."""
        source = self.source
        keywords = KEYWORDS
        line, line_start = 1, 0
        for match in _MASTER.finditer(source):
            group = match.lastindex
            if group == _WORD:
                text = match.group(group)
                yield _new_token(Token, ("kw" if text in keywords else "id", text, line,
                                         match.start(group) - line_start + 1))
            elif group == _PUNCT:
                yield _new_token(Token, ("punct", match.group(group), line, match.start(group) - line_start + 1))
            elif group == _NEWLINE:
                line += 1
                line_start = match.end()
            elif group == _NUM:
                yield _new_token(Token, ("num", match.group(group), line, match.start(group) - line_start + 1))
            else:
                start = match.start(group)
                text = match.group(group)
                column = start - line_start + 1
                if group == _STRING:
                    yield _new_token(Token, ("string", _STRING_ESCAPE.sub(r"\1", text[1:-1]), line, column))
                elif group == _CHAR:
                    body = text[1:-1]
                    value = _CHAR_ESCAPES.get(body[1], body[1]) if body[0] == "\\" else body
                    yield _new_token(Token, ("char", value, line, column))
                elif group == _UWORD and text[0].isalpha():
                    yield _new_token(Token, ("id", text, line, column))
                elif group != _SKIP:
                    raise LexError(_error_message(source, start), self.filename, line, column)
                if "\n" in text:  # block comment, continued # line, escaped newline
                    line += text.count("\n")
                    line_start = start + text.rindex("\n") + 1
        yield _new_token(Token, ("eof", "", line, len(source) - line_start + 1))


def _error_message(source: str, start: int) -> str:
    ch = source[start]
    if ch == '"':
        return "unterminated string literal"
    if ch == "'":
        return "unterminated character literal"
    if source.startswith("/*", start):
        return "unterminated block comment"
    if ch == "0":
        return "hex literal without digits"
    return f"unexpected character {ch!r}"


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` fully, returning the token list ending with EOF."""
    return list(Lexer(source, filename).tokens())


def parse_int_literal(text: str) -> int:
    """Parse a C integer literal (decimal or 0x hex, suffixes ignored)."""
    text = text.rstrip("uUlL")
    return int(text, 16) if text.lower().startswith("0x") else int(text, 10)
