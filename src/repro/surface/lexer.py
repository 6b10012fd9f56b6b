"""Tokenizer for the surface syntax of algebra expressions.

The surface language is an ASCII rendering of the paper's notation::

    P(B)                      powerset
    Pb(B)                     powerbag
    delta(B)                  bag-destroy
    eps(B)                    duplicate elimination
    beta(e)                   bagging
    tau(e1, e2)               tupling
    alpha2(e)                 attribute projection
    pi[1,4](B)                projection map
    map[x: tau(alpha2(x))](B) restructuring
    sigma[x: alpha1(x) = 'a'](B)   selection
    A (+) B | A - B | A u B | A n B | A x B    the binary operators
    {{ 'a', 'a', ['b','c'] }} bag literal
    ['a', 'b']                tuple literal
    'a', 42                   atom literals
    ifp[X: body; seed]        inflationary fixpoint (extension)

Identifiers not matching a keyword are variables (database bag names or
lambda parameters).
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.core.errors import ParseError

__all__ = ["Token", "tokenize", "KEYWORDS"]

#: Reserved operator keywords of the surface syntax.
KEYWORDS = frozenset({
    "P", "Pb", "delta", "eps", "beta", "tau", "alpha", "pi", "map",
    "sigma", "ifp", "nest", "unnest", "u", "n", "x",
})

_PUNCTUATION = {
    "(+)": "ADDUNION",
    "!=": "NE",
    "<=": "LE",
    "{{": "LBAG",
    "}}": "RBAG",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    ":": "COLON",
    ";": "SEMI",
    "-": "MINUS",
    "=": "EQ",
    "<": "LT",
}

#: One alternation per token class, tried in this order at every
#: offset: blanks, longest-first punctuation, a quoted atom, a run of
#: word characters (``\w`` is exactly ``str.isalnum() or "_"``; the
#: digit and identifier rules below carve runs up), anything else.
_MASTER = re.compile(
    r"[ \t\r\n]+|(?P<punct>%s)|'(?P<string>[^']*)'|(?P<run>\w+)"
    r"|(?P<bad>(?s:.))" % "|".join(map(
        re.escape, sorted(_PUNCTUATION, key=len, reverse=True))))


class Token(NamedTuple):
    """One lexical token: a kind, its text, and its source offset."""

    kind: str
    text: str
    position: int


def tokenize(source: str) -> List[Token]:
    """Tokenize a surface-syntax expression.

    Raises :class:`ParseError` on unrecognised characters or unclosed
    string literals.
    """
    tokens: List[Token] = []
    scan = _MASTER.match
    position = 0
    length = len(source)
    while position < length:
        match = scan(source, position)
        group = match.lastgroup
        start, position = position, match.end()
        if group is None:
            continue
        text = match[group]
        if group == "punct":
            kind = _PUNCTUATION[text]
        elif group == "string":
            kind = "STRING"
        elif text[0].isdigit():
            kind = "INT"
            if not text.isdigit():
                # "12ab": the number ends where the digits do
                text = text[:next(i for i, char in enumerate(text)
                                  if not char.isdigit())]
                position = start + len(text)
        elif group == "bad" or not (text[0].isalpha()
                                    or text[0] == "_"):
            # no token starts here: a quote that never closes, a stray
            # character, or a numeric that is neither digit nor letter
            # (a vulgar fraction)
            raise ParseError(
                "unclosed string literal" if text == "'" else
                f"unexpected character {text[0]!r}", start, source)
        elif text.startswith("alpha") and text[5:].isdigit():
            # "alpha3" style: keyword fused with an index
            kind = "ALPHA"
        elif text in KEYWORDS:
            kind = "KEYWORD"
        else:
            kind = "IDENT"
        tokens.append(Token(kind, text, start))
    tokens.append(Token("EOF", "", length))
    return tokens
