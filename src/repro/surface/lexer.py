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

__all__ = ["Token", "tokenize", "scan", "kind_of", "KEYWORDS", "KINDS"]

#: Reserved operator keywords of the surface syntax.
KEYWORDS = frozenset({
    "P", "Pb", "delta", "eps", "beta", "tau", "alpha", "pi", "map",
    "sigma", "ifp", "nest", "unnest", "u", "n", "x",
})

_PUNCTUATION = {
    "(+)": "ADDUNION", "!=": "NE", "<=": "LE", "{{": "LBAG", "}}": "RBAG",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET",
    ",": "COMMA", ":": "COLON", ";": "SEMI", "-": "MINUS", "=": "EQ",
    "<": "LT",
}

#: Token text -> kind, for the texts whose kind is their spelling.
KINDS = dict(_PUNCTUATION, **dict.fromkeys(KEYWORDS, "KEYWORD"))

#: One token after blanks (only space, tab, CR and LF are blank).  The
#: captured alternatives are the tokens whose text settles their kind:
#: punctuation (longest first), a quoted atom (quotes kept), a word
#: led by an ASCII letter or underscore, ASCII digits that end a word.
#: Any other word (``\w`` is exactly ``str.isalnum() or "_"``) and a
#: character that starts no token match uncaptured, as ``""``.
_SCAN = re.compile(
    r"[ \t\r\n]*(?:(%s|'[^']*'|[A-Za-z_]\w*|[0-9]+(?!\w))|\w+|[^ \t\r\n])"
    % "|".join(map(re.escape,
                   sorted(_PUNCTUATION, key=len, reverse=True))))


class Token(NamedTuple):
    """One lexical token: a kind, its text, and its source offset."""

    kind: str
    text: str
    position: int


def scan(source: str) -> List[str]:
    """The token texts of ``source`` (an atom keeps its quotes), from
    one ``findall``.  A text holding a word the fast alternatives do
    not settle is rescanned token by token: ``str.isdigit`` ends a
    number (``12ab`` is two tokens), and the first character that
    starts no token raises :class:`ParseError`."""
    texts = _SCAN.findall(source)
    if "" not in texts:
        return texts
    texts, position = [], 0
    while match := _SCAN.match(source, position):
        text, position = match[0].lstrip(" \t\r\n"), match.end()
        start = position - len(text)
        if not match[1] and text[0].isdigit():
            text = text[:next((i for i, char in enumerate(text)
                               if not char.isdigit()), len(text))]
            position = start + len(text)
        elif not (match[1] or text[0].isalpha() or text[0] == "_"):
            # a quote that never closes, a stray character, or a
            # numeric that is neither digit nor letter (a vulgar
            # fraction)
            raise ParseError(
                "unclosed string literal" if text == "'" else
                f"unexpected character {text[0]!r}", start, source)
        texts.append(text)
    return texts


def kind_of(text: str) -> str:
    """The kind of a token text from :func:`scan` (``""`` is EOF)."""
    kind = KINDS.get(text)
    if kind is not None:
        return kind
    if not text:
        return "EOF"
    if text[0] == "'":
        return "STRING"
    if text[0].isdigit():
        return "INT"
    if text.startswith("alpha") and text[5:].isdigit():
        return "ALPHA"  # "alpha3": the keyword fused with an index
    return "IDENT"


def tokenize(source: str) -> List[Token]:
    """Tokenize a surface-syntax expression.

    Raises :class:`ParseError` on unrecognised characters or unclosed
    string literals.  Only blanks lie between two tokens, so a token's
    position is where its text next occurs.
    """
    tokens: List[Token] = []
    position = 0
    for text in scan(source):
        position = source.index(text, position)
        kind = kind_of(text)
        tokens.append(Token(kind, text[1:-1] if kind == "STRING" else text,
                            position))
        position += len(text)
    tokens.append(Token("EOF", "", len(source)))
    return tokens
