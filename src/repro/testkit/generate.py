"""Seeded, typed expression generation and structural shrinking.

The generator is *type-directed*: it first draws a multi-relation
schema of (possibly nested) bag types, then grows an expression of a
target type by picking among the productions applicable at that type —
so every generated case is well-typed by construction and lies inside
the requested fragment ``BALG^k`` (the bag-nesting bound of Section 3;
``balg1`` exercises the tractable flat fragment of Section 4,
``balg2``/``balg3`` the nested fragments where aggregates and the
powerset hierarchy of Section 6 live).

Everything is driven by a plain :class:`random.Random`, **not**
Hypothesis: a ``(seed, index)`` pair reproduces a case byte-for-byte
across processes, which is what the corpus replay and the ``repro
fuzz`` CLI need.  ``tests/strategies.py`` delegates its BALG^1 grammar
here (:func:`balg1_expr`, :func:`flat_input_bag`) so the Hypothesis
properties and the differential harness share one generator.

Shrinking is greedy and structural (:func:`shrink_case`): promote
subexpressions over their parents, shrink constant bags, shrink the
database, drop unused relations — accept any candidate that still
fails, repeat until a fixpoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence,
    Tuple,
)

from repro.core.bag import Bag, Tup
from repro.core.derived import count_expr
from repro.core.errors import ReproError
from repro.core.fragments import max_bag_nesting
from repro.core.expr import (
    AdditiveUnion, Attribute, BagDestroy, Bagging, Cartesian, Const,
    Dedup, Expr, Intersection, Lam, Map, MaxUnion, Powerbag, Powerset,
    Select, Subtraction, Tupling, Var,
)
from repro.core.nest import Nest, Unnest
from repro.core.typecheck import TypeChecker
from repro.core.types import BagType, TupleType, Type, U

__all__ = [
    "ATOMS", "FRAGMENT_NESTING", "Case", "CaseGenerator",
    "generate_case", "shrink_case", "subterms_with_rebuild",
    "balg1_expr", "flat_input_bag",
]

#: Atom alphabet of generated constants and database values.
ATOMS: Tuple[Any, ...] = ("a", "b", "c", "d", 0, 1, 2)

#: Fragment name -> maximal bag nesting of any subexpression type.
FRAGMENT_NESTING = {"balg1": 1, "balg2": 2, "balg3": 3}

#: Constants used inside BALG^1-compat expressions (the distinguished
#: input atom "a" is excluded — the counting-lemma hypothesis of the
#: existing Hypothesis properties).
EXPR_ATOMS = ("b", "c")

#: The single input relation of the BALG^1-compat grammar.
INPUT_NAME = "B"


@dataclass(frozen=True)
class Case:
    """One differential test case: a schema, a database instance of
    it, and a well-typed expression over the schema."""

    schema: Mapping[str, Type]
    database: Mapping[str, Bag]
    expr: Expr
    fragment: str = "balg2"
    seed: Optional[int] = None
    index: Optional[int] = None

    def label(self) -> str:
        if self.seed is None:
            return "<adhoc>"
        return f"seed={self.seed} index={self.index}"


# ----------------------------------------------------------------------
# Type and value generation
# ----------------------------------------------------------------------

def _random_element_type(rng: random.Random, nesting: int,
                         max_arity: int = 3) -> Type:
    """A random element type with bag nesting at most ``nesting``."""
    if nesting <= 0 or rng.random() < 0.55:
        if rng.random() < 0.3:
            return U
        arity = rng.randint(1, max_arity)
        return TupleType(tuple(U for _ in range(arity)))
    roll = rng.random()
    if roll < 0.6:
        # tuple with at least one nested-bag attribute
        arity = rng.randint(1, max_arity)
        attrs = []
        nested_at = rng.randrange(arity)
        for position in range(arity):
            if position == nested_at:
                attrs.append(BagType(
                    _random_element_type(rng, nesting - 1, max_arity)))
            else:
                attrs.append(U if rng.random() < 0.7 else BagType(
                    _random_element_type(rng, nesting - 1, max_arity)))
        return TupleType(tuple(attrs))
    # plain bag-of-... element
    return BagType(_random_element_type(rng, nesting - 1, max_arity))


def _random_value(rng: random.Random, typ: Type, max_card: int = 3,
                  atoms: Sequence[Any] = ATOMS) -> Any:
    """A random complex object of the given type."""
    if isinstance(typ, TupleType):
        return Tup(*(_random_value(rng, attr, max_card, atoms)
                     for attr in typ.attributes))
    if isinstance(typ, BagType):
        count = rng.randint(0, max_card)
        return Bag([_random_value(rng, typ.element, max_card, atoms)
                    for _ in range(count)])
    return rng.choice(list(atoms))


def _random_bag(rng: random.Random, typ: BagType, max_card: int,
                atoms: Sequence[Any] = ATOMS,
                allow_empty: bool = True) -> Bag:
    low = 0 if allow_empty else 1
    count = rng.randint(low, max(low, max_card))
    elements = [_random_value(rng, typ.element, 2, atoms)
                for _ in range(count)]
    # bias toward duplicates: multiplicity bugs (monus off-by-one,
    # group collapse in nest, count products in unnest) are invisible
    # on duplicate-free data
    for element in list(elements):
        if rng.random() < 0.35:
            elements.append(element)
    return Bag(elements)


# ----------------------------------------------------------------------
# The nested, multi-relation generator
# ----------------------------------------------------------------------

class CaseGenerator:
    """Grows well-typed cases for one fragment.

    ``size`` bounds the number of operator nodes; the generator splits
    the budget across operands, so expression size is roughly linear
    in ``size`` regardless of how the productions nest.
    """

    def __init__(self, rng: random.Random, fragment: str = "balg2",
                 size: int = 14, max_relations: int = 3,
                 max_arity: int = 3, max_bag_size: int = 4,
                 atoms: Sequence[Any] = ATOMS):
        if fragment not in FRAGMENT_NESTING:
            raise ValueError(f"unknown fragment {fragment!r} "
                             f"(choices: {sorted(FRAGMENT_NESTING)})")
        self.rng = rng
        self.fragment = fragment
        self.nesting_cap = FRAGMENT_NESTING[fragment]
        self.size = size
        self.max_relations = max_relations
        self.max_arity = max_arity
        self.max_bag_size = max_bag_size
        self.atoms = tuple(atoms)
        self._params = 0

    # -- public entry ----------------------------------------------------

    def case(self, seed: Optional[int] = None,
             index: Optional[int] = None) -> Case:
        """One complete (schema, database, expression) case."""
        schema = self.schema()
        database = self.database_for(schema)
        target = self.result_type(schema)
        for _ in range(20):
            try:
                expr = self.bag_expr(target, dict(schema), self.size)
                TypeChecker().check(expr, schema)
                # the fragment cap is over *every* subterm's type, not
                # only the result: a Tupling that wraps a whole
                # relation can push an intermediate one level deeper
                # than any schema or result type, so check the tree
                if max_bag_nesting(expr, schema) > self.nesting_cap:
                    continue
                break
            except ReproError:
                continue
        else:  # pragma: no cover - generator is correct by construction
            expr = Var(next(iter(schema)))
        return Case(schema=dict(schema), database=dict(database),
                    expr=expr, fragment=self.fragment, seed=seed,
                    index=index)

    def schema(self) -> Dict[str, Type]:
        relations = self.rng.randint(1, self.max_relations)
        out: Dict[str, Type] = {}
        for number in range(relations):
            nesting = self.rng.randint(0, self.nesting_cap - 1)
            element = _random_element_type(self.rng, nesting,
                                           self.max_arity)
            out[f"R{number}"] = BagType(element)
        return out

    def database_for(self, schema: Mapping[str, Type]) -> Dict[str, Bag]:
        return {name: _random_bag(self.rng, typ, self.max_bag_size,
                                  self.atoms)
                for name, typ in schema.items()
                if isinstance(typ, BagType)}

    def result_type(self, schema: Mapping[str, Type]) -> BagType:
        """The target type of the generated expression: usually one of
        the relation types (so variables appear as leaves), sometimes
        a fresh type."""
        candidates = [typ for typ in schema.values()
                      if isinstance(typ, BagType)]
        if candidates and self.rng.random() < 0.7:
            return self.rng.choice(candidates)
        nesting = self.rng.randint(0, self.nesting_cap - 1)
        return BagType(_random_element_type(self.rng, nesting,
                                            self.max_arity))

    # -- expression productions ------------------------------------------

    def bag_expr(self, target: BagType, env: Dict[str, Type],
                 budget: int) -> Expr:
        """A random expression of bag type ``target`` under ``env``."""
        if budget <= 0 or self.rng.random() < 0.18:
            return self._leaf(target, env)
        productions = self._applicable(target, env, budget)
        name, build = self.rng.choice(productions)
        try:
            return build(target, env, budget)
        except ReproError:
            # rare dead end (e.g. no compatible attribute); fall back
            return self._leaf(target, env)

    def _applicable(self, target, env, budget):
        element = target.element
        out: List[Tuple[str, Callable]] = [
            ("union", self._binary(AdditiveUnion)),
            ("max", self._binary(MaxUnion)),
            ("inter", self._binary(Intersection)),
            ("minus", self._binary(Subtraction)),
            ("dedup", self._dedup),
            ("map", self._map),
            ("select", self._select),
            ("bagging", self._bagging),
        ]
        if isinstance(element, TupleType) and element.arity >= 2:
            out.append(("product", self._cartesian))
        if (isinstance(element, TupleType) and element.attributes
                and isinstance(element.attributes[-1], BagType)
                and isinstance(element.attributes[-1].element,
                               TupleType)):
            out.append(("nest", self._nest))
        if isinstance(element, TupleType):
            out.append(("unnest", self._unnest))
        if isinstance(element, BagType):
            out.append(("powerset", self._powerset))
            if budget <= 4:
                out.append(("powerbag", self._powerbag))
        if target.bag_nesting() + 1 <= self.nesting_cap:
            out.append(("delta", self._bagdestroy))
        if element == TupleType((U,)) and budget >= 2:
            out.append(("count", self._count))
        return out

    def _leaf(self, target: BagType, env: Dict[str, Type]) -> Expr:
        names = [name for name, typ in env.items() if typ == target]
        if names and self.rng.random() < 0.65:
            return Var(self.rng.choice(names))
        return Const(_random_bag(self.rng, target, self.max_bag_size,
                                 self.atoms, allow_empty=False))

    def _binary(self, node):
        def build(target, env, budget):
            half = budget // 2
            return node(self.bag_expr(target, env, half),
                        self.bag_expr(target, env, budget - half - 1))
        return build

    def _dedup(self, target, env, budget):
        return Dedup(self.bag_expr(target, env, budget - 1))

    def _bagdestroy(self, target, env, budget):
        return BagDestroy(self.bag_expr(BagType(target), env,
                                        budget - 1))

    def _bagging(self, target, env, budget):
        return Bagging(self.object_expr(target.element, env,
                                        min(budget - 1, 3)))

    def _powerset(self, target, env, budget):
        # governed: keep the operand small so the budgeted expansion
        # usually succeeds; blow-ups are an *expected* governed outcome
        inner = self.bag_expr(target.element, env, min(budget - 1, 3))
        return Powerset(inner)

    def _powerbag(self, target, env, budget):
        inner = self.bag_expr(target.element, env, min(budget - 1, 2))
        return Powerbag(inner)

    def _cartesian(self, target, env, budget):
        element = target.element
        split = self.rng.randint(1, element.arity - 1)
        left = BagType(TupleType(element.attributes[:split]))
        right = BagType(TupleType(element.attributes[split:]))
        half = budget // 2
        return Cartesian(self.bag_expr(left, env, half),
                         self.bag_expr(right, env, budget - half - 1))

    def _map(self, target, env, budget):
        source_nesting = self.rng.randint(
            0, max(0, self.nesting_cap - 1))
        source = BagType(_random_element_type(self.rng, source_nesting,
                                              self.max_arity))
        param = self._fresh_param()
        half = budget // 2
        operand = self.bag_expr(source, env, half)
        inner_env = dict(env)
        inner_env[param] = source.element
        body = self.object_expr(target.element, inner_env,
                                budget - half - 1, param_hint=param)
        return Map(Lam(param, body), operand)

    def _select(self, target, env, budget):
        element = target.element
        operand = self.bag_expr(target, env, budget - 1)
        param = self._fresh_param()
        if isinstance(element, TupleType) and element.attributes:
            index = self.rng.randint(1, element.arity)
            attr_type = element.attribute(index)
            left = Attribute(Var(param), index)
            partners = [j for j in range(1, element.arity + 1)
                        if element.attribute(j) == attr_type]
            if partners and self.rng.random() < 0.5:
                right: Expr = Attribute(Var(param),
                                        self.rng.choice(partners))
            else:
                right = Const(_random_value(self.rng, attr_type, 2,
                                            self.atoms))
        else:
            left = Var(param)
            right = Const(_random_value(self.rng, element, 2,
                                        self.atoms))
        op = self.rng.choice(("eq", "eq", "ne", "le", "lt"))
        return Select(Lam(param, left), Lam(param, right), operand,
                      op=op)

    def _nest(self, target, env, budget):
        element = target.element
        rest = element.attributes[:-1]
        grouped = element.attributes[-1].element.attributes
        arity = len(rest) + len(grouped)
        positions = list(range(1, arity + 1))
        self.rng.shuffle(positions)
        group_positions = positions[:len(grouped)]
        rest_positions = sorted(positions[len(grouped):])
        attrs: List[Optional[Type]] = [None] * arity
        for attr_type, position in zip(grouped, group_positions):
            attrs[position - 1] = attr_type
        for attr_type, position in zip(rest, rest_positions):
            attrs[position - 1] = attr_type
        source = BagType(TupleType(tuple(attrs)))
        return Nest(self.bag_expr(source, env, budget - 1),
                    *group_positions)

    def _unnest(self, target, env, budget):
        element = target.element
        arity = element.arity
        start = self.rng.randint(0, max(0, arity - 1))
        stop = self.rng.randint(start + 1, arity) if arity else 0
        segment = element.attributes[start:stop]
        if len(segment) == 1 and self.rng.random() < 0.4:
            inner: Type = BagType(segment[0])  # non-tuple inner values
        else:
            inner = BagType(TupleType(segment))
        if inner.bag_nesting() > self.nesting_cap:
            raise ReproError("unnest source would exceed the fragment")
        attrs = (element.attributes[:start] + (inner,)
                 + element.attributes[stop:])
        source = BagType(TupleType(attrs))
        return Unnest(self.bag_expr(source, env, budget - 1),
                      start + 1)

    def _count(self, target, env, budget):
        source_nesting = self.rng.randint(
            0, max(0, self.nesting_cap - 1))
        source = BagType(_random_element_type(self.rng, source_nesting,
                                              self.max_arity))
        return count_expr(self.bag_expr(source, env, budget - 2))

    # -- object-level expressions (lambda bodies, tupling parts) ---------

    def object_expr(self, target: Type, env: Dict[str, Type],
                    budget: int,
                    param_hint: Optional[str] = None) -> Expr:
        """An expression of (possibly non-bag) type ``target`` — the
        language of MAP/SELECT lambda bodies."""
        rng = self.rng
        # reaching through a tuple-typed binding
        paths = self._attribute_paths(target, env)
        if paths and (budget <= 0 or rng.random() < 0.45):
            return rng.choice(paths)()
        exact = [name for name, typ in env.items() if typ == target]
        if exact and rng.random() < 0.4:
            return Var(rng.choice(exact))
        if isinstance(target, TupleType):
            part_budget = max(0, (budget - 1) // max(1, target.arity))
            return Tupling(*(self.object_expr(attr, env, part_budget,
                                              param_hint)
                             for attr in target.attributes))
        if isinstance(target, BagType):
            if budget > 1 and rng.random() < 0.5:
                # full bag algebra inside the lambda body — the BALG^2
                # aggregate idiom of Section 3 (closes over the binder)
                return self.bag_expr(target, env, min(budget - 1, 4))
            if budget > 0 and rng.random() < 0.5:
                return Bagging(self.object_expr(target.element, env,
                                                budget - 1, param_hint))
            return Const(_random_bag(rng, target, 2, self.atoms))
        return Const(rng.choice(list(self.atoms)))

    def _attribute_paths(self, target: Type, env: Dict[str, Type]):
        """Zero-argument builders for ``alpha_i(v)`` expressions of the
        target type reachable from tuple-typed bindings."""
        out = []
        for name, typ in env.items():
            if isinstance(typ, TupleType):
                for position in range(1, typ.arity + 1):
                    if typ.attribute(position) == target:
                        out.append(
                            lambda n=name, p=position:
                            Attribute(Var(n), p))
        return out

    def _fresh_param(self) -> str:
        self._params += 1
        return f"t{self._params}"


def generate_case(seed: int, index: int = 0, fragment: str = "balg2",
                  size: int = 14, **kwargs) -> Case:
    """The (seed, index) -> case function used by the fuzz loop: each
    index draws from an independent deterministic stream."""
    rng = random.Random(seed * 1_000_003 + index)
    if fragment == "mixed":
        fragment = rng.choice(tuple(FRAGMENT_NESTING))
    generator = CaseGenerator(rng, fragment=fragment, size=size,
                              **kwargs)
    return generator.case(seed=seed, index=index)


# ----------------------------------------------------------------------
# The BALG^1-compat grammar (delegation target of tests/strategies.py)
# ----------------------------------------------------------------------

def flat_input_bag(rng: random.Random, arity: int = 2,
                   max_size: int = 6,
                   atoms: Sequence[Any] = ("a", "b", "c")) -> Bag:
    """A random flat input relation over a small atom alphabet."""
    count = rng.randint(0, max_size)
    return Bag([Tup(*(rng.choice(list(atoms)) for _ in range(arity)))
                for _ in range(count)])


def balg1_expr(rng: random.Random, arity: int = 2,
               input_arity: int = 2, max_depth: int = 4,
               include_dedup: bool = True,
               include_subtraction: bool = True,
               include_order: bool = False,
               allow_input_atom: bool = True) -> Expr:
    """A random BALG^1 expression of result type ``{{U^arity}}`` over
    the input variable ``B`` of type ``{{U^input_arity}}`` — the exact
    grammar the Hypothesis properties quantify over (flags carve out
    the fragments of Props 4.1/4.2 and the genericity law)."""
    return _balg1(rng, arity, input_arity, max_depth, include_dedup,
                  include_subtraction, include_order, allow_input_atom)


def _balg1_constant_bag(rng: random.Random, arity: int) -> Bag:
    count = rng.randint(1, 3)
    return Bag([Tup(*(rng.choice(EXPR_ATOMS) for _ in range(arity)))
                for _ in range(count)])


def _balg1(rng, arity, input_arity, depth, dedup, minus, order,
           input_atom) -> Expr:
    if depth <= 0 or rng.randint(0, 3) == 0:
        if arity == input_arity and rng.random() < 0.5:
            return Var(INPUT_NAME)
        return Const(_balg1_constant_bag(rng, arity))
    choices = ["union", "max", "inter", "map", "select"]
    if minus:
        choices.append("minus")
    if dedup:
        choices.append("dedup")
    if arity >= 2:
        choices.append("product")
    kind = rng.choice(choices)
    if kind == "product":
        left_arity = rng.randint(1, arity - 1)
        left = _balg1(rng, left_arity, input_arity, depth - 1, dedup,
                      minus, order, input_atom)
        right = _balg1(rng, arity - left_arity, input_arity, depth - 1,
                       dedup, minus, order, input_atom)
        return Cartesian(left, right)
    if kind in ("union", "max", "inter", "minus"):
        node = {"union": AdditiveUnion, "max": MaxUnion,
                "inter": Intersection, "minus": Subtraction}[kind]
        return node(
            _balg1(rng, arity, input_arity, depth - 1, dedup, minus,
                   order, input_atom),
            _balg1(rng, arity, input_arity, depth - 1, dedup, minus,
                   order, input_atom))
    if kind == "dedup":
        return Dedup(_balg1(rng, arity, input_arity, depth - 1, dedup,
                            minus, order, input_atom))
    if kind == "map":
        in_arity = rng.randint(1, 3)
        inner = _balg1(rng, in_arity, input_arity, depth - 1, dedup,
                       minus, order, input_atom)
        parts: List[Expr] = []
        for _ in range(arity):
            if rng.random() < 0.5:
                parts.append(Attribute(Var("·g"),
                                       rng.randint(1, in_arity)))
            else:
                parts.append(Const(rng.choice(EXPR_ATOMS)))
        return Map(Lam("·g", Tupling(*parts)), inner)
    # select
    inner = _balg1(rng, arity, input_arity, depth - 1, dedup, minus,
                   order, input_atom)
    index = rng.randint(1, arity)
    comparator = rng.choice(("eq", "ne", "le", "lt") if order
                            else ("eq", "ne"))
    if rng.random() < 0.5:
        right_body: Expr = Attribute(Var("·s"), rng.randint(1, arity))
    else:
        alphabet = EXPR_ATOMS + (("a",) if input_atom else ())
        right_body = Const(rng.choice(alphabet))
    return Select(Lam("·s", Attribute(Var("·s"), index)),
                  Lam("·s", right_body), inner, op=comparator)


# ----------------------------------------------------------------------
# Greedy structural shrinking
# ----------------------------------------------------------------------

def subterms_with_rebuild(expr: Expr):
    """``(child, rebuild)`` pairs for every immediate subexpression, in
    :meth:`~repro.core.expr.Expr.children` order, where
    ``rebuild(new)`` reconstructs the parent with the child replaced —
    the shrinker's (and tests') structural accessor."""
    children = expr.children()

    def rebuild(position):
        return lambda new: expr.with_children(
            *children[:position], new, *children[position + 1:])

    return [(child, rebuild(position))
            for position, child in enumerate(children)]


def _node_count(expr: Expr) -> int:
    return sum(1 for _ in expr.walk())


def _shrunk_constants(value: Any) -> Iterator[Any]:
    """Smaller versions of a constant value."""
    if isinstance(value, Bag):
        if value.is_empty():
            return
        distinct = sorted(value.distinct(), key=repr)
        yield Bag.of(distinct[0])
        for dropped in distinct:
            counts = {element: count for element, count in value.items()
                      if element != dropped}
            yield Bag.from_counts(counts)
        if any(count > 1 for _, count in value.items()):
            yield Bag.from_counts(
                {element: 1 for element, _ in value.items()})
    elif isinstance(value, Tup):
        for position, item in enumerate(value.items()):
            for smaller in _shrunk_constants(item):
                items = list(value.items())
                items[position] = smaller
                yield Tup(*items)
    elif isinstance(value, str) and value != "a":
        yield "a"
    elif isinstance(value, int) and value != 0:
        yield 0


def _expr_shrinks(expr: Expr) -> Iterator[Expr]:
    """One-step structural reductions of an expression, most
    aggressive first.  Candidates may be ill-typed; the shrink loop
    filters through the type checker."""
    # promote any immediate subexpression over the node
    for child, _rebuild in subterms_with_rebuild(expr):
        yield child
    if isinstance(expr, Const):
        for smaller in _shrunk_constants(expr.value):
            yield Const(smaller)
    # recurse: shrink one child in place
    for child, rebuild in subterms_with_rebuild(expr):
        for smaller in _expr_shrinks(child):
            yield rebuild(smaller)


def _case_shrinks(case: Case) -> Iterator[Case]:
    # drop relations the expression no longer mentions
    free = case.expr.free_vars()
    if set(case.schema) - free:
        yield replace(
            case,
            schema={name: typ for name, typ in case.schema.items()
                    if name in free},
            database={name: bag for name, bag in case.database.items()
                      if name in free})
    # shrink the expression
    for smaller in _expr_shrinks(case.expr):
        yield replace(case, expr=smaller)
    # shrink the database
    for name, bag in case.database.items():
        for smaller in _shrunk_constants(bag):
            database = dict(case.database)
            database[name] = smaller
            yield replace(case, database=database)
        if not bag.is_empty():
            database = dict(case.database)
            database[name] = Bag()
            yield replace(case, database=database)


def _valid(case: Case) -> bool:
    try:
        TypeChecker().check(case.expr, case.schema)
        return True
    except ReproError:
        return False


def shrink_case(case: Case,
                still_fails: Callable[[Case], bool],
                max_attempts: int = 500) -> Case:
    """Greedy minimization: repeatedly accept the first smaller,
    still-failing candidate until no candidate helps (or the attempt
    budget runs out).  ``still_fails`` must be deterministic."""
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _case_shrinks(case):
            attempts += 1
            if attempts >= max_attempts:
                break
            if not _valid(candidate):
                continue
            try:
                failing = still_fails(candidate)
            except Exception:
                failing = False
            if failing:
                case = candidate
                improved = True
                break
    return case
