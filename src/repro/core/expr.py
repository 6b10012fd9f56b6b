"""Expression AST for the bag algebra BALG (Section 3).

An :class:`Expr` denotes a mapping from database instances (environments
binding bag names to bag values) to complex objects.  Following the
paper, expressions cover both bag-level operators (union, powerset, ...)
and object-level constructs used inside lambda expressions (attribute
projection, tupling, constants).

Lambda notation
---------------
``Lam("x", body)`` is the paper's ``lambda x . e(x)``.  Lambdas appear
in ``MAP`` and in selections ``sigma_{phi = phi'}``; their bodies are
ordinary expressions in which the bound variable occurs free, and they
close over enclosing lambda variables lexically (the parity query of
Section 4 needs exactly that).

Evaluation and typing are *not* implemented here: every node implements
two hooks — ``_evaluate(evaluator, env)`` and ``_infer(checker, tenv)``
— and the drivers live in :mod:`repro.core.eval` and
:mod:`repro.core.typecheck`.  New operators (e.g. the inflationary
fixpoint of Theorem 6.6, defined in :mod:`repro.machines.ifp`) plug in
by subclassing :class:`Expr` and implementing the same hooks.

Structure has one hook too: ``with_children(*children)`` rebuilds a
node over new children, in :meth:`Expr.children` order, and
:meth:`Expr.binders` says which variable scopes each child.  Every
term walker — the planner's rule fixpoint, invariant hoisting, the
shrinker, and the capture-avoiding :func:`substitute` — is generic
code over that pair.

Python operator sugar on expressions::

    e1 + e2     additive union  (+)
    e1 - e2     subtraction     -
    e1 | e2     maximal union   u
    e1 & e2     intersection    n
    e1 * e2     Cartesian product x
"""

from __future__ import annotations

from functools import lru_cache
from operator import is_
from typing import (
    Any, Callable, Collection, Iterator, Mapping, Optional, Sequence,
    Tuple,
)

from repro.core.bag import Bag, Tup
from repro.core.errors import BagTypeError
from repro.core import ops
from repro.core.types import (
    BagType, TupleType, Type, U, UNKNOWN, type_of, unify,
)

__all__ = [
    "Expr", "Var", "Const", "Lam",
    "AdditiveUnion", "Subtraction", "MaxUnion", "Intersection",
    "Tupling", "Bagging", "Cartesian", "Powerset", "Powerbag",
    "Attribute", "BagDestroy", "Map", "Select", "Dedup",
    "EMPTY", "const", "var", "structure_slots",
    "map_children", "fresh_name", "substitute",
]

#: Comparison operators allowed in selections.  The paper's sigma only
#: tests equality; ``ne/le/lt`` support the order-enriched setting of
#: Section 4 (parity of a cardinality is definable *given an order on
#: the domain*).
_SELECT_OPS = ("eq", "ne", "le", "lt")


@lru_cache(maxsize=None)
def structure_slots(cls: type) -> Tuple[str, ...]:
    """The slots holding a node's structure, base class first: every
    slot but the cached ``_hash``.  What generic walkers (the plan
    cache's canonical key, pickling) read off a node."""
    return tuple(slot for base in reversed(cls.__mro__)
                 for slot in getattr(base, "__slots__", ())
                 if slot != "_hash")


class Expr:
    """Abstract base class of algebra expressions; immutable once built."""

    __slots__ = ("_hash",)

    # -- structure -----------------------------------------------------

    def children(self) -> Tuple["Expr", ...]:
        """Direct subexpressions: dataflow children first, lambda
        bodies last."""
        raise NotImplementedError

    def lambdas(self) -> Tuple["Lam", ...]:
        """Lambda arguments of this node, if any."""
        return ()

    def binders(self) -> Tuple[Optional[str], ...]:
        """Per child, the variable its parent binds over it (a lambda
        parameter), or ``None`` for a dataflow child."""
        lams = self.lambdas()
        return ((None,) * (len(self.children()) - len(lams))
                + tuple(lam.param for lam in lams))

    def with_children(self, *children: "Expr",
                      binders: Optional[Sequence[Optional[str]]] = None
                      ) -> "Expr":
        """This node over ``children`` (in :meth:`children` order),
        its bound variables renamed to ``binders`` when given.  The
        default suits nodes whose constructor takes exactly their
        children and binds nothing."""
        return type(self)(*children)

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree, descending into
        lambda bodies."""
        yield self
        for child in self.children():
            yield from child.walk()

    def free_vars(self) -> frozenset:
        """Names of free variables (database names and unbound lambda
        parameters)."""
        found = set()
        for child in self.children():
            found |= child.free_vars()
        for lam in self.lambdas():
            found |= lam.body.free_vars() - {lam.param}
        return frozenset(found)

    def size(self) -> int:
        """Number of AST nodes (the induction measure of Prop 4.1)."""
        return 1 + sum(child.size() for child in self.children())

    # -- hooks ----------------------------------------------------------

    def _evaluate(self, evaluator, env) -> Any:
        raise NotImplementedError

    def _infer(self, checker, tenv) -> Type:
        raise NotImplementedError

    # -- sugar ----------------------------------------------------------

    def __add__(self, other: "Expr") -> "AdditiveUnion":
        return AdditiveUnion(self, _as_expr(other))

    def __sub__(self, other: "Expr") -> "Subtraction":
        return Subtraction(self, _as_expr(other))

    def __or__(self, other: "Expr") -> "MaxUnion":
        return MaxUnion(self, _as_expr(other))

    def __and__(self, other: "Expr") -> "Intersection":
        return Intersection(self, _as_expr(other))

    def __mul__(self, other: "Expr") -> "Cartesian":
        return Cartesian(self, _as_expr(other))

    # Structural equality lets the optimizer compare rewrites.
    def __eq__(self, other: Any) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        # planner dicts key on subtrees: uncached, each lookup re-walks
        try:
            return self._hash
        except AttributeError:
            self._hash = value = hash((type(self).__name__,
                                       self._key()))
            return value

    def __getstate__(self):
        """Pickle and copy carry structure only: str hashes are salted
        per interpreter, so a cached hash must not cross processes."""
        return (getattr(self, "__dict__", None),
                {slot: getattr(self, slot)
                 for slot in structure_slots(type(self))})

    def _key(self) -> Tuple:
        raise NotImplementedError


def _as_expr(value: Any) -> Expr:
    """Lift raw complex objects to Const nodes in operator sugar."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (Bag, Tup)) or value is None:
        return Const(value)
    return Const(value)


class Var(Expr):
    """A variable: a database bag name or a lambda-bound object."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise BagTypeError(f"variable name must be a non-empty str, "
                               f"got {name!r}")
        self.name = name

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def free_vars(self) -> frozenset:
        return frozenset({self.name})

    def _evaluate(self, evaluator, env):
        return evaluator.lookup(self.name, env)

    def _infer(self, checker, tenv):
        return checker.lookup(self.name, tenv)

    def _key(self):
        return (self.name,)

    def __repr__(self) -> str:
        return self.name


class Const(Expr):
    """A literal complex object (atom, tuple, or bag)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        if isinstance(value, (list, set, dict)):
            raise BagTypeError(
                "constants must be complex objects (atom/Tup/Bag), got "
                f"{type(value).__name__}")
        self.value = value

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def _evaluate(self, evaluator, env):
        sr = evaluator.semiring
        if sr is not None and isinstance(self.value, Bag):
            return sr.adapt_bag(self.value)
        return self.value

    def _infer(self, checker, tenv):
        return type_of(self.value)

    def _key(self):
        return (self.value,)

    def __repr__(self) -> str:
        return repr(self.value)


class Lam:
    """The paper's lambda notation ``lambda x . e(x)``.

    Not itself an expression: lambdas only occur as arguments of MAP
    and selections.
    """

    __slots__ = ("param", "body")

    def __init__(self, param: str, body: Expr):
        if not isinstance(param, str) or not param:
            raise BagTypeError("lambda parameter must be a non-empty str")
        if not isinstance(body, Expr):
            raise BagTypeError(
                f"lambda body must be an Expr, got {type(body).__name__}")
        self.param = param
        self.body = body

    def rebuilt(self, body: Expr, param: Optional[str] = None) -> "Lam":
        """This lambda over ``body``, its parameter renamed to
        ``param`` when given; itself when neither changes."""
        param = param or self.param
        if body is self.body and param == self.param:
            return self
        return Lam(param, body)

    def apply(self, evaluator, env, argument: Any) -> Any:
        """Evaluate the body with ``param`` bound to ``argument``."""
        return evaluator.eval(self.body, evaluator.bind(env, self.param,
                                                        argument))

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, Lam) and self.param == other.param
                and self.body == other.body)

    def __hash__(self) -> int:
        return hash(("Lam", self.param, self.body))

    def __repr__(self) -> str:
        return f"λ{self.param}.{self.body!r}"


class _Binary(Expr):
    """Shared plumbing for the four same-type binary bag operators."""

    __slots__ = ("left", "right")
    _op = None            # type: ignore[assignment]
    _symbol = "?"

    def __init__(self, left: Expr, right: Expr):
        self.left = _as_expr(left)
        self.right = _as_expr(right)

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def _evaluate(self, evaluator, env):
        left = evaluator.eval(self.left, env)
        right = evaluator.eval(self.right, env)
        return type(self)._op(left, right, evaluator.semiring)

    def _infer(self, checker, tenv):
        left = checker.infer(self.left, tenv)
        right = checker.infer(self.right, tenv)
        if not isinstance(left, BagType) or not isinstance(right, BagType):
            raise BagTypeError(
                f"{self._symbol} requires bag operands, got "
                f"{left!r} and {right!r}")
        return unify(left, right)

    def _key(self):
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self._symbol} {self.right!r})"


class AdditiveUnion(_Binary):
    """``B (+) B'``: additive union."""
    __slots__ = ()
    _op = staticmethod(ops.additive_union)
    _symbol = "(+)"


class Subtraction(_Binary):
    """``B - B'``: bag subtraction (monus on multiplicities)."""
    __slots__ = ()
    _op = staticmethod(ops.subtraction)
    _symbol = "-"


class MaxUnion(_Binary):
    """``B u B'``: maximal union."""
    __slots__ = ()
    _op = staticmethod(ops.max_union)
    _symbol = "u"


class Intersection(_Binary):
    """``B n B'``: bag intersection."""
    __slots__ = ()
    _op = staticmethod(ops.intersection)
    _symbol = "n"


class Tupling(Expr):
    """``tau(o1, ..., ok)``: tuple construction."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Expr):
        self.parts = tuple(_as_expr(part) for part in parts)

    def children(self) -> Tuple[Expr, ...]:
        return self.parts

    def _evaluate(self, evaluator, env):
        return Tup(*(evaluator.eval(part, env) for part in self.parts))

    def _infer(self, checker, tenv):
        return TupleType(tuple(checker.infer(part, tenv)
                               for part in self.parts))

    def _key(self):
        return self.parts

    def __repr__(self) -> str:
        inner = ", ".join(repr(part) for part in self.parts)
        return f"τ({inner})"


class Bagging(Expr):
    """``beta(o)``: singleton bag construction."""

    __slots__ = ("item",)

    def __init__(self, item: Expr):
        self.item = _as_expr(item)

    def children(self) -> Tuple[Expr, ...]:
        return (self.item,)

    def _evaluate(self, evaluator, env):
        item = evaluator.eval(self.item, env)
        sr = evaluator.semiring
        if sr is None:
            return Bag.of(item)
        return Bag.from_counts({item: sr.one})

    def _infer(self, checker, tenv):
        return BagType(checker.infer(self.item, tenv))

    def _key(self):
        return (self.item,)

    def __repr__(self) -> str:
        return f"β({self.item!r})"


class Cartesian(Expr):
    """``B x B'``: Cartesian product of bags of tuples."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = _as_expr(left)
        self.right = _as_expr(right)

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def _evaluate(self, evaluator, env):
        return ops.cartesian(evaluator.eval(self.left, env),
                             evaluator.eval(self.right, env),
                             evaluator.semiring)

    def _infer(self, checker, tenv):
        left = checker.infer(self.left, tenv)
        right = checker.infer(self.right, tenv)
        for side, bag_type in (("left", left), ("right", right)):
            if not isinstance(bag_type, BagType):
                raise BagTypeError(
                    f"cartesian product: {side} operand must be a bag, "
                    f"got {bag_type!r}")
        left_el, right_el = left.element, right.element
        left_attrs = _tuple_attrs(left_el, "left")
        right_attrs = _tuple_attrs(right_el, "right")
        return BagType(TupleType(left_attrs + right_attrs))

    def _key(self):
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} x {self.right!r})"


def _tuple_attrs(element_type: Type, side: str) -> Tuple[Type, ...]:
    """Attribute types of a product operand; empty bags contribute an
    unknown-arity placeholder, which we reject to keep typing decidable."""
    if isinstance(element_type, TupleType):
        return element_type.attributes
    if element_type == UNKNOWN:
        raise BagTypeError(
            f"cartesian product: cannot infer the arity of the {side} "
            "operand (empty-bag literal); annotate it via the schema")
    raise BagTypeError(
        f"cartesian product requires bags of tuples; {side} element "
        f"type is {element_type!r}")


class Powerset(Expr):
    """``P(B)``: the bag of all subbags, one occurrence each."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = _as_expr(operand)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def _evaluate(self, evaluator, env):
        return ops.powerset(evaluator.eval(self.operand, env),
                            budget=evaluator.powerset_budget,
                            sr=evaluator.semiring)

    def _infer(self, checker, tenv):
        operand = checker.infer(self.operand, tenv)
        if not isinstance(operand, BagType):
            raise BagTypeError(
                f"powerset requires a bag operand, got {operand!r}")
        return BagType(operand)

    def _key(self):
        return (self.operand,)

    def __repr__(self) -> str:
        return f"P({self.operand!r})"


class Powerbag(Expr):
    """``P_b(B)``: the duplicate-aware powerset of Definition 5.1.

    Not part of BALG proper — the paper excludes it for tractability —
    but provided for the Section 5/6 experiments."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = _as_expr(operand)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def _evaluate(self, evaluator, env):
        return ops.powerbag(evaluator.eval(self.operand, env),
                            budget=evaluator.powerset_budget,
                            sr=evaluator.semiring)

    def _infer(self, checker, tenv):
        operand = checker.infer(self.operand, tenv)
        if not isinstance(operand, BagType):
            raise BagTypeError(
                f"powerbag requires a bag operand, got {operand!r}")
        return BagType(operand)

    def _key(self):
        return (self.operand,)

    def __repr__(self) -> str:
        return f"Pb({self.operand!r})"


class Attribute(Expr):
    """``alpha_i(o)``: attribute projection of a tuple, 1-based."""

    __slots__ = ("operand", "index")

    def __init__(self, operand: Expr, index: int):
        if not isinstance(index, int) or index < 1:
            raise BagTypeError(
                f"attribute index must be a positive int, got {index!r}")
        self.operand = _as_expr(operand)
        self.index = index

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, operand, binders=None):
        return Attribute(operand, self.index)

    def _evaluate(self, evaluator, env):
        return ops.attribute(evaluator.eval(self.operand, env), self.index)

    def _infer(self, checker, tenv):
        operand = checker.infer(self.operand, tenv)
        if not isinstance(operand, TupleType):
            raise BagTypeError(
                f"alpha_{self.index} requires a tuple operand, got "
                f"{operand!r}")
        return operand.attribute(self.index)

    def _key(self):
        return (self.operand, self.index)

    def __repr__(self) -> str:
        return f"α{self.index}({self.operand!r})"


class BagDestroy(Expr):
    """``delta(B)``: flatten one level of bag nesting additively."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = _as_expr(operand)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def _evaluate(self, evaluator, env):
        return ops.bag_destroy(evaluator.eval(self.operand, env),
                               evaluator.semiring)

    def _infer(self, checker, tenv):
        operand = checker.infer(self.operand, tenv)
        if not isinstance(operand, BagType):
            raise BagTypeError(
                f"bag-destroy requires a bag operand, got {operand!r}")
        inner = operand.element
        if isinstance(inner, BagType):
            return inner
        if inner == UNKNOWN:
            return BagType(UNKNOWN)
        raise BagTypeError(
            f"bag-destroy requires a bag of bags, element type is "
            f"{inner!r}")

    def _key(self):
        return (self.operand,)

    def __repr__(self) -> str:
        return f"δ({self.operand!r})"


class Map(Expr):
    """``MAP_phi(B)``: restructuring; multiplicities of colliding images
    add up."""

    __slots__ = ("lam", "operand")

    def __init__(self, lam: Lam, operand: Expr):
        if not isinstance(lam, Lam):
            raise BagTypeError("MAP requires a Lam argument")
        self.lam = lam
        self.operand = _as_expr(operand)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand, self.lam.body)

    def lambdas(self) -> Tuple[Lam, ...]:
        return (self.lam,)

    def free_vars(self) -> frozenset:
        return (self.operand.free_vars()
                | (self.lam.body.free_vars() - {self.lam.param}))

    def with_children(self, operand, body, binders=None):
        return Map(self.lam.rebuilt(body, binders and binders[1]),
                   operand)

    def _evaluate(self, evaluator, env):
        operand = evaluator.eval(self.operand, env)
        return ops.map_bag(
            lambda element: self.lam.apply(evaluator, env, element),
            operand, evaluator.semiring)

    def _infer(self, checker, tenv):
        operand = checker.infer(self.operand, tenv)
        if not isinstance(operand, BagType):
            raise BagTypeError(f"MAP requires a bag operand, got "
                               f"{operand!r}")
        image = checker.infer(
            self.lam.body,
            checker.bind(tenv, self.lam.param, operand.element))
        return BagType(image)

    def _key(self):
        return (self.lam, self.operand)

    def __repr__(self) -> str:
        return f"MAP[{self.lam!r}]({self.operand!r})"


class Select(Expr):
    """``sigma_{phi op phi'}(B)``: selection.

    ``op`` is ``eq`` in the pure paper algebra; ``ne``, ``le``, ``lt``
    are available for the order-enriched results of Section 4 (the
    comparison uses the canonical order on complex objects, which on
    homogeneous atoms coincides with the natural order).
    """

    __slots__ = ("left", "right", "operand", "op")

    def __init__(self, left: Lam, right: Lam, operand: Expr,
                 op: str = "eq"):
        if not isinstance(left, Lam) or not isinstance(right, Lam):
            raise BagTypeError("selection requires two Lam arguments")
        if op not in _SELECT_OPS:
            raise BagTypeError(
                f"selection comparator must be one of {_SELECT_OPS}, "
                f"got {op!r}")
        self.left = left
        self.right = right
        self.operand = _as_expr(operand)
        self.op = op

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand, self.left.body, self.right.body)

    def lambdas(self) -> Tuple[Lam, ...]:
        return (self.left, self.right)

    def free_vars(self) -> frozenset:
        return (self.operand.free_vars()
                | (self.left.body.free_vars() - {self.left.param})
                | (self.right.body.free_vars() - {self.right.param}))

    def with_children(self, operand, left, right, binders=None):
        _, left_param, right_param = binders or (None, None, None)
        return Select(self.left.rebuilt(left, left_param),
                      self.right.rebuilt(right, right_param), operand,
                      self.op)

    def _evaluate(self, evaluator, env):
        operand = evaluator.eval(self.operand, env)

        def predicate(element):
            lhs = self.left.apply(evaluator, env, element)
            rhs = self.right.apply(evaluator, env, element)
            return _compare(self.op, lhs, rhs)

        return ops.select(predicate, operand, evaluator.semiring)

    def _infer(self, checker, tenv):
        operand = checker.infer(self.operand, tenv)
        if not isinstance(operand, BagType):
            raise BagTypeError(
                f"selection requires a bag operand, got {operand!r}")
        lhs = checker.infer(
            self.left.body,
            checker.bind(tenv, self.left.param, operand.element))
        rhs = checker.infer(
            self.right.body,
            checker.bind(tenv, self.right.param, operand.element))
        unify(lhs, rhs)  # both sides of the comparison must agree
        return operand

    def _key(self):
        return (self.left, self.right, self.operand, self.op)

    def __repr__(self) -> str:
        symbol = {"eq": "=", "ne": "!=", "le": "<=", "lt": "<"}[self.op]
        return (f"σ[{self.left!r} {symbol} {self.right!r}]"
                f"({self.operand!r})")


def _compare(op: str, lhs: Any, rhs: Any) -> bool:
    """Comparison semantics for selections."""
    if op == "eq":
        return lhs == rhs
    if op == "ne":
        return lhs != rhs
    from repro.core.bag import canonical_key
    left_key, right_key = canonical_key(lhs), canonical_key(rhs)
    if op == "le":
        return left_key <= right_key
    return left_key < right_key


class Dedup(Expr):
    """``eps(B)``: duplicate elimination."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = _as_expr(operand)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def _evaluate(self, evaluator, env):
        return ops.dedup(evaluator.eval(self.operand, env),
                         evaluator.semiring)

    def _infer(self, checker, tenv):
        operand = checker.infer(self.operand, tenv)
        if not isinstance(operand, BagType):
            raise BagTypeError(
                f"duplicate elimination requires a bag, got {operand!r}")
        return operand

    def _key(self):
        return (self.operand,)

    def __repr__(self) -> str:
        return f"ε({self.operand!r})"


# ----------------------------------------------------------------------
# Generic term rewriting over the rebuild hook
# ----------------------------------------------------------------------

def map_children(expr: Expr, fn: Callable[[Expr], Expr],
                 dataflow_only: bool = False) -> Expr:
    """``expr`` over ``fn`` of its children — with ``dataflow_only``,
    of the children no binder scopes (a lambda body stays as it is).
    ``expr`` itself when no child changed, so an unchanged subtree
    keeps its identity (and its cached hash)."""
    children = expr.children()
    if dataflow_only:
        passed = tuple(child if binder is not None else fn(child)
                       for child, binder in zip(children,
                                                expr.binders()))
    else:
        passed = tuple(map(fn, children))
    if all(map(is_, passed, children)):
        return expr
    return expr.with_children(*passed)


def fresh_name(stem: str, taken: Collection[str]) -> str:
    """A variable name built from ``stem`` that is not in ``taken`` and
    that the surface lexer reads as one identifier (word characters,
    a leading letter, and an ``_n`` suffix no keyword has)."""
    stem = "".join(char for char in stem if char.isalnum() or char == "_")
    if not stem[:1].isalpha():
        stem = "v" + stem
    number = 1
    while f"{stem}_{number}" in taken:
        number += 1
    return f"{stem}_{number}"


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous, capture-avoiding substitution of ``mapping[name]``
    for every free occurrence of each ``name`` in ``expr``.

    A binder shadows the names it binds; a binder that would capture a
    free variable of an inserted term is first renamed to a
    :func:`fresh_name`.  Unchanged subtrees come back as they were."""
    free = expr.free_vars()
    mapping = {name: term for name, term in mapping.items()
               if name in free}
    if not mapping:
        return expr
    if isinstance(expr, Var):
        return mapping[expr.name]
    binders = list(expr.binders())
    replaced = []
    for position, child in enumerate(expr.children()):
        binder, inner = binders[position], mapping
        if binder is not None:
            names = child.free_vars() - {binder}
            inner = {name: term for name, term in mapping.items()
                     if name in names}
            inserted = frozenset().union(
                *(term.free_vars() for term in inner.values()))
            if binder in inserted:
                binders[position] = fresh_name(binder, names | inserted)
                inner[binder] = Var(binders[position])
        replaced.append(substitute(child, inner))
    return expr.with_children(*replaced, binders=tuple(binders))


#: The empty-bag literal ``[[ ]]``.
EMPTY = Const(Bag())


def const(value: Any) -> Const:
    """Shorthand constructor for constants."""
    return Const(value)


def var(name: str) -> Var:
    """Shorthand constructor for variables."""
    return Var(name)
