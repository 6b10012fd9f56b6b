"""Recursive-descent parser for the surface syntax.

Grammar (binary operators listed loosest-first; all left-associative)::

    expr      := sum
    sum       := extreme (('(+)' | '-') extreme)*
    extreme   := product (('u' | 'n') product)*
    product   := unary ('x' unary)*
    unary     := 'P' '(' expr ')' | 'Pb' '(' expr ')'
               | 'delta' '(' expr ')' | 'eps' '(' expr ')'
               | 'beta' '(' expr ')' | 'tau' '(' args ')'
               | ALPHA '(' expr ')'                 -- alphaN
               | 'pi' '[' INT (',' INT)* ']' '(' expr ')'
               | 'map' '[' IDENT ':' expr ']' '(' expr ')'
               | 'sigma' '[' IDENT ':' expr cmp expr ']' '(' expr ')'
               | 'ifp' '[' IDENT ':' expr ';' expr ']'
               | literal | IDENT | '(' expr ')'
    cmp       := '=' | '!=' | '<=' | '<'
    literal   := '{{' [expr (',' expr)*] '}}'       -- bag (of literals)
               | '[' [expr (',' expr)*] ']'         -- tuple literal
               | STRING | INT

Bag and tuple literals must be ground (no variables inside) — they
become :class:`~repro.core.expr.Const` nodes.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.core.bag import Bag, Tup
from repro.core.derived import project_expr
from repro.core.errors import ParseError
from repro.core.expr import (
    AdditiveUnion, Attribute, Bagging, BagDestroy, Cartesian, Const,
    Dedup, Expr, Intersection, Lam, Map, MaxUnion, Powerbag, Powerset,
    Select, Subtraction, Tupling, Var,
)
from repro.core.nest import Nest, Unnest
from repro.machines.ifp import Ifp
from repro.surface.lexer import KINDS, kind_of, scan, tokenize

__all__ = ["parse"]

#: binary operator text -> (binding level, loosest 0, node class)
_BINARY = {"(+)": (0, AdditiveUnion), "-": (0, Subtraction),
           "u": (1, MaxUnion), "n": (1, Intersection),
           "x": (2, Cartesian)}
_SIMPLE = {"P": Powerset, "Pb": Powerbag, "delta": BagDestroy,
           "eps": Dedup, "beta": Bagging}
_CMP = {"=": "eq", "!=": "ne", "<=": "le", "<": "lt"}


def parse(source: str) -> Expr:
    """Parse a surface-syntax expression into an AST.

    >>> parse("pi[1](sigma[t: alpha1(t) = 'a'](B))")  # doctest: +SKIP
    """
    parser = _Parser(source)
    expr = parser.expr()
    if parser.tokens[parser.index]:
        parser.fail("expected 'EOF', found {found!r}")
    return expr


class _Parser:
    """Recursive descent over the token texts of one :func:`scan`;
    ``""`` ends the list (EOF)."""

    __slots__ = ("tokens", "index", "source")

    def __init__(self, source: str):
        self.tokens = scan(source) + [""]
        self.index = 0
        self.source = source

    # -- token plumbing --------------------------------------------------

    def fail(self, template: str, index: int | None = None) -> None:
        """Raise at token ``index`` (default: the next one).  Positions
        and the ``{text}`` / ``{found}`` of the message are the
        token's as :func:`tokenize` reports it (an atom unquoted)."""
        token = tokenize(self.source)[
            self.index if index is None else index]
        raise ParseError(
            template.format(text=token.text, found=token.text or "EOF"),
            token.position, self.source)

    def expect(self, text: str) -> None:
        if self.tokens[self.index] != text:
            self.fail(f"expected {KINDS[text]!r}, found {{found!r}}")
        self.index += 1

    def take(self, kind: str) -> str:
        text = self.tokens[self.index]
        if kind_of(text) != kind:
            self.fail(f"expected {kind!r}, found {{found!r}}")
        self.index += 1
        return text

    def items(self, item: Callable[[], Any], close: str,
              empty: bool = False) -> List[Any]:
        """``item (',' item)*`` then ``close``; none at all when
        ``empty`` allows it and ``close`` comes first."""
        found = []
        if not (empty and self.tokens[self.index] == close):
            found.append(item())
            while self.tokens[self.index] == ",":
                self.index += 1
                found.append(item())
        self.expect(close)
        return found

    # -- grammar ----------------------------------------------------------

    def expr(self, level: int = 0) -> Expr:
        """Operands joined by binary operators that bind at ``level``
        or tighter, left-associative."""
        left = self.unary()
        tokens = self.tokens
        while True:
            operator = _BINARY.get(tokens[self.index])
            if operator is None or operator[0] < level:
                return left
            self.index += 1
            left = operator[1](left, self.expr(operator[0] + 1))

    def parens(self) -> Expr:
        self.expect("(")
        inner = self.expr()
        self.expect(")")
        return inner

    def binder(self) -> str:
        """``'[' IDENT ':'``, the head of map, sigma and ifp."""
        self.expect("[")
        param = self.take("IDENT")
        self.expect(":")
        return param

    def indices(self) -> List[int]:
        self.expect("[")
        return self.items(lambda: int(self.take("INT")), "]")

    def unary(self) -> Expr:
        index = self.index
        text = self.tokens[index]
        self.index = index + 1
        if text in _SIMPLE:
            return _SIMPLE[text](self.parens())
        rule = _RULES.get(text)
        if rule is not None:
            return rule(self, index)
        first = text[:1]
        if first.isalpha() or first == "_":
            if text in KINDS:
                self.fail("keyword {text!r} cannot start an expression",
                          index)
            if text.startswith("alpha") and text[5:].isdigit():
                attribute = int(text[5:])
                return Attribute(self.parens(), attribute)
            return Var(text)
        self.index = index
        if first in ("'", "{", "[") or first.isdigit():
            return Const(self.literal())
        self.fail("unexpected token {text!r}")

    def _paren(self, index: int) -> Expr:
        inner = self.expr()
        self.expect(")")
        return inner

    def _tau(self, index: int) -> Expr:
        self.expect("(")
        return Tupling(*self.items(self.expr, ")"))

    def _nest(self, index: int) -> Expr:
        indices = self.indices()
        return Nest(self.parens(), *indices)

    def _unnest(self, index: int) -> Expr:
        indices = self.indices()
        operand = self.parens()
        if len(indices) != 1:
            self.fail("unnest takes exactly one index", index)
        return Unnest(operand, indices[0])

    def _pi(self, index: int) -> Expr:
        indices = self.indices()
        return project_expr(self.parens(), *indices)

    def _map(self, index: int) -> Expr:
        param = self.binder()
        body = self.expr()
        self.expect("]")
        return Map(Lam(param, body), self.parens())

    def _sigma(self, index: int) -> Expr:
        param = self.binder()
        left = self.expr()
        comparator = _CMP.get(self.tokens[self.index])
        if comparator is None:
            self.fail("expected a comparator (= != <= <)")
        self.index += 1
        right = self.expr()
        self.expect("]")
        return Select(Lam(param, left), Lam(param, right), self.parens(),
                      op=comparator)

    def _ifp(self, index: int) -> Expr:
        param = self.binder()
        body = self.expr()
        self.expect(";")
        seed = self.expr()
        self.expect("]")
        return Ifp(param, body, seed)

    # -- literals ----------------------------------------------------------

    def literal(self) -> Any:
        index = self.index
        text = self.tokens[index]
        self.index = index + 1
        if text == "{{":
            return Bag(self.items(self.literal, "}}", empty=True))
        if text == "[":
            return Tup(*self.items(self.literal, "]", empty=True))
        if text[:1] == "'":
            return text[1:-1]
        if text[:1].isdigit():
            return int(text)
        self.fail("expected a literal, found {text!r}", index)


#: token text -> the rule of the operand it starts
_RULES = {"(": _Parser._paren, "tau": _Parser._tau,
          "nest": _Parser._nest, "unnest": _Parser._unnest,
          "pi": _Parser._pi, "map": _Parser._map,
          "sigma": _Parser._sigma, "ifp": _Parser._ifp}
