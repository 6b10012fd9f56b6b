"""Types at plan time: what the planner proves, and what it lets the
engine skip.

On a plan-cache miss the planner types the tree it lowers in the
bound bags' types (:func:`repro.core.typecheck.static_types`).  A
proven plan runs no union-family type check, and a rigid root (atoms
and tuples of them) is sealed with :meth:`Bag.trusted` instead of
re-validated row by row.  This module pins

* soundness, generated: for BALG^1/2/3 cases under every semiring, the
  tree walker's value at every dataflow node has a type that is an
  *instance* of the node's static type — the same type, with
  ``UNKNOWN`` wherever the value has an empty part;
* counts, not clocks: ``columnar.require_same_type`` runs zero times
  in a well-typed plan on every engine, and at least once in an
  ill-typed one, which holds no exchange;
* the trusted-seal audit, generated: on every engine and semiring the
  root bag equals ``Bag.from_counts(result.counts())`` in value,
  ``_shape``, cardinality and distinct count, and equals the walker's;
* the cache key: equal arities, different types, two plans;
* four mutants, each caught within 10 generated cases: a kernel that
  keeps a zero count, a type-to-shape conversion one attribute too
  wide, a dropped check step in an ill-typed plan, and a plan-cache
  key on arities only.

A longer stream (the CI ``engine-parity`` job runs it on the run-id
seed)::

    PYTHONPATH=src python -m tests.test_plan_types --cases 100 \\
        --seed 7
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import multiprocessing
import random
import sys
from typing import Any, Dict, Iterator, List, Optional

import pytest

import repro.core.types as types_module
import repro.engine.codegen as codegen
import repro.engine.columnar as columnar
from repro.core.bag import Bag, Tup
from repro.core.errors import (
    BagTypeError, GovernedError, ReproError, ResourceLimitError,
)
from repro.core.eval import Evaluator
from repro.core.expr import (
    AdditiveUnion, Attribute, Const, Dedup, Expr, Intersection, Lam,
    MaxUnion, Select, Subtraction, Var, var,
)
from repro.core.typecheck import static_types
from repro.core.types import (
    AtomType, BagType, TupleType, UnknownType, type_of,
)
from repro.engine import EngineStats, PlanCache, evaluate, plan_for
from repro.engine.cache import PlanCache as CacheClass
from repro.engine.parallel import Exchange, ParallelPolicy, shutdown_pools
from repro.engine.physical import HashUnion
from repro.testkit import Case, generate_case
from repro.testkit.cli import _resolve_seed
from repro.testkit.differential import DEFAULT_LIMITS

#: the module (``repro.engine.lower`` the attribute is the function)
lower_module = importlib.import_module("repro.engine.lower")

SEED = 26
CASES = 20
FRAGMENTS = ("balg1", "balg2", "balg3")
SEMIRINGS = ("nat", "bool", "tropical", "provenance")
_FORCED = dict(engine="parallel", workers=2, parallel_threshold=0.0,
               min_morsel_rows=1)
ENGINES = {
    "physical": dict(engine="physical"),
    "opt0": dict(engine="physical", opt_level=0),
    "codegen": dict(engine="codegen"),
    "parallel-thread": dict(_FORCED, parallel_backend="thread"),
    "parallel-process": dict(_FORCED, parallel_backend="process"),
}


@pytest.fixture(autouse=True, scope="module")
def _fresh_workers():
    """Process workers fork from this module's state, patches
    included: start and leave with no resident pool."""
    shutdown_pools()
    yield
    shutdown_pools()


def _case(seed: int, index: int):
    return generate_case(seed, index,
                         fragment=FRAGMENTS[index % len(FRAGMENTS)])


def _types(database) -> Dict[str, Any]:
    return {name: type_of(bag) for name, bag in database.items()}


def _outcome(expr: Expr, database, semiring: str, engine: str = "tree",
             **options) -> Any:
    """The bag, the typed error's ``(type, text)``, or ``None`` for a
    governed verdict (not what these tests are about)."""
    try:
        if engine == "tree":
            return Evaluator(semiring=semiring,
                             limits=DEFAULT_LIMITS).run(expr, database)
        return evaluate(expr, database, engine=engine, semiring=semiring,
                        limits=DEFAULT_LIMITS, **options)
    except (GovernedError, ResourceLimitError, RecursionError):
        return None
    except ReproError as error:
        return type(error), str(error)


# ----------------------------------------------------------------------
# Soundness
# ----------------------------------------------------------------------

def dataflow_nodes(expr: Expr) -> Iterator[Expr]:
    """``expr`` and its descendants outside every lambda body."""
    yield expr
    bodies = [lam.body for lam in expr.lambdas()]
    for child in expr.children():
        if all(child is not body for body in bodies):
            yield from dataflow_nodes(child)


def is_instance(dynamic, static) -> bool:
    """``dynamic`` is ``static`` with some parts replaced by
    ``UNKNOWN``; a static ``UNKNOWN`` admits only an empty part."""
    if isinstance(dynamic, UnknownType):
        return True
    if isinstance(static, AtomType):
        return isinstance(dynamic, AtomType)
    if isinstance(static, BagType):
        return (isinstance(dynamic, BagType)
                and is_instance(dynamic.element, static.element))
    if isinstance(static, TupleType):
        return (isinstance(dynamic, TupleType)
                and dynamic.arity == static.arity
                and all(map(is_instance, dynamic.attributes,
                            static.attributes)))
    return False


def soundness_problems(case) -> List[str]:
    """Every dataflow node whose walker value is not an instance of its
    static type, under every semiring."""
    static = static_types(case.expr, _types(case.database))
    problems = []
    for node in dataflow_nodes(case.expr):
        expected = static.get(id(node))
        if expected is None:
            continue
        for semiring in SEMIRINGS:
            value = _outcome(node, case.database, semiring)
            if value is None or isinstance(value, tuple):
                continue
            if not is_instance(type_of(value), expected):
                problems.append(f"{case.label()} {semiring}: {node!r} "
                                f"is {type_of(value)!r}, static "
                                f"{expected!r}")
    return problems


def soundness_sweep(seed: int, cases: int) -> List[str]:
    return [problem for index in range(cases)
            for problem in soundness_problems(_case(seed, index))]


def test_the_walker_inhabits_every_static_type():
    assert not soundness_sweep(SEED, CASES * len(FRAGMENTS))


def test_most_generated_cases_are_proven():
    proven = sum(id(case.expr) in static_types(case.expr,
                                               _types(case.database))
                 for case in map(lambda i: _case(SEED, i), range(30)))
    assert proven >= 20


def test_instance_is_the_placeholder_relation():
    flat = type_of(Bag([Tup("a", Bag(["b"]))]))
    assert is_instance(type_of(Bag([Tup("a", Bag())])), flat)
    assert is_instance(type_of(Bag()), flat)
    assert not is_instance(flat, type_of(Bag([Tup("a", Bag())])))
    assert not is_instance(type_of(Bag([Tup("a", "b")])), flat)


def test_a_fixpoint_is_not_proven():
    from repro.machines.ifp import transitive_closure_expr
    graph = {"G": Bag([Tup(1, 2), Tup(2, 3)])}
    expr = Dedup(transitive_closure_expr(var("G")))
    assert id(expr) not in static_types(expr, _types(graph))
    plan = plan_for(expr, graph)
    assert not plan.proven and plan.shape is None


def test_selection_lambdas_decide_membership_not_type():
    # the sides compare a tuple with an atom: no member survives, and
    # the selection is still as typed as its operand
    rows = {"R": Bag([Tup(1, 2)])}
    expr = Select(Lam("t", Var("t")), Lam("t", Const("a")), var("R"))
    assert static_types(expr, _types(rows))[id(expr)] == type_of(rows["R"])
    assert evaluate(expr, rows, cache=None) == Bag()


# ----------------------------------------------------------------------
# Counts, not clocks
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _counted_checks():
    """``columnar.require_same_type`` counted in this process and in
    every process worker forked while the patch is on."""
    calls = multiprocessing.get_context("fork").Value("i", 0)
    original = columnar.require_same_type

    def counting(*args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return original(*args, **kwargs)

    shutdown_pools()
    columnar.require_same_type = counting
    try:
        yield calls
    finally:
        columnar.require_same_type = original
        shutdown_pools()


def _flat(rng: random.Random, arity: int, rows: int = 40) -> Bag:
    return Bag([Tup(*(rng.randrange(6) for _ in range(arity)))
                for _ in range(rows)])


_X, _Y, _Z = var("X"), var("Y"), var("Z")
WELL_TYPED = (
    Intersection(Dedup(Subtraction(AdditiveUnion(_X, _Y), _Z)),
                 MaxUnion(_X, _Z)),
    Dedup(AdditiveUnion(Subtraction(_X, _Y), Subtraction(_Y, _X))),
    Dedup(AdditiveUnion(Dedup(_X), _Y)),
    AdditiveUnion(_X, _Y),
)


def _database() -> Dict[str, Bag]:
    rng = random.Random(3)
    return {"X": _flat(rng, 2), "Y": _flat(rng, 2), "Z": _flat(rng, 2),
            "W": _flat(rng, 3)}


def test_a_well_typed_plan_runs_no_type_check():
    database = _database()
    for name, options in ENGINES.items():
        with _counted_checks() as calls:
            for expr in WELL_TYPED:
                assert evaluate(expr, database, cache=None, **options) \
                    == evaluate(expr, database, engine="tree")
        assert calls.value == 0, name
    assert "Exchange" in plan_for(WELL_TYPED[0], database,
                                  policy=ParallelPolicy(0.0)).render()


def test_an_ill_typed_plan_checks_and_is_never_split():
    database = _database()
    # the selection is empty at run time, so the walker sees no
    # mismatch and answers X; statically it is a 3-ary operand of a
    # union with a 2-ary one, so nothing is proven
    empty = Select(Lam("t", Attribute(Var("t"), 1)),
                   Lam("t", Const("none")), var("W"))
    runs = AdditiveUnion(empty, _X)
    raises = Subtraction(_X, var("W"))
    for name, options in ENGINES.items():
        with _counted_checks() as calls:
            assert evaluate(runs, database, cache=None, **options) \
                == database["X"]
            with pytest.raises(BagTypeError):
                evaluate(raises, database, cache=None, **options)
        assert calls.value >= 2, name
    plan = plan_for(raises, database, policy=ParallelPolicy(0.0))
    assert not plan.proven and "Exchange" not in plan.render()
    # the selection alone may be exchanged; the union never is
    plan = plan_for(runs, database, policy=ParallelPolicy(0.0))
    assert not plan.proven and isinstance(plan.root, HashUnion)
    assert not any(isinstance(node, _UNIONS)
                   for exchange in _exchanges(plan.root)
                   for node in exchange.program.expr.walk())


_UNIONS = (AdditiveUnion, Subtraction, MaxUnion, Intersection)


def _exchanges(node) -> Iterator[Exchange]:
    if isinstance(node, Exchange):
        yield node
    for child in node.children():
        yield from _exchanges(child)


# ----------------------------------------------------------------------
# The trusted-seal audit
# ----------------------------------------------------------------------

def seal_problems(label: str, result: Any, expected: Any) -> List[str]:
    """How a result differs from its checked re-seal, or from the
    walker's answer (an error: its type)."""
    if isinstance(result, tuple) and isinstance(expected, tuple):
        if result[0] is expected[0]:
            return []
    if result != expected:
        return [f"{label}: {result!r} != walker's {expected!r}"]
    if not isinstance(result, Bag):
        return []
    resealed = Bag.from_counts(result.counts())
    problems = []
    for what, got, want in (
            ("value", result, resealed),
            ("_shape", result._shape, resealed._shape),
            ("cardinality", result.cardinality, resealed.cardinality),
            ("distinct", result.distinct_count,
             resealed.distinct_count)):
        if got != want:
            problems.append(f"{label}: {what} {got!r} != re-seal's "
                            f"{want!r}")
    return problems


def audit_problems(case, semirings=SEMIRINGS, engines=None) -> List[str]:
    problems = []
    for semiring in semirings:
        expected = _outcome(case.expr, case.database, semiring)
        if expected is None:
            continue
        for name, options in (engines or ENGINES).items():
            got = _outcome(case.expr, case.database, semiring,
                           cache=None, **options)
            if got is not None:
                problems += seal_problems(
                    f"{case.label()} {semiring}/{name}", got, expected)
    return problems


def audit_sweep(seed: int, cases: int) -> List[str]:
    return [problem for index in range(cases)
            for problem in audit_problems(_case(seed, index))]


def test_the_trusted_seal_equals_the_checked_one():
    assert not audit_sweep(SEED, CASES)


def test_the_audit_sees_trusted_seals():
    trusted = sum(plan_for(case.expr, case.database).shape is not None
                  for case in map(lambda i: _case(SEED, i), range(30)))
    assert trusted >= 8


def test_equal_arities_different_types_are_two_plans():
    flat = Bag([Tup(1, 2), Tup(3, 4)])
    nested = Bag([Tup(1, Tup(2, 5)), Tup(3, Tup(4, 5))])
    expr = Dedup(AdditiveUnion(var("R"), var("R")))
    cache, stats = PlanCache(capacity=8), EngineStats()
    for relation in (flat, nested, flat):
        result = evaluate(expr, {"R": relation}, cache=cache,
                          stats=stats)
        assert result == Bag(relation.distinct())
        assert result._shape == Bag.from_counts(result.counts())._shape
    assert (stats.cache_misses, stats.cache_hits) == (2, 1)


# ----------------------------------------------------------------------
# Mutants
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _mutated(patches):
    """Each ``(owner, name)`` replaced by ``patch(original)``, the
    type-to-shape table emptied on the way in and out."""
    originals = {key: vars(key[0])[key[1]] for key in patches}
    types_module._TYPE_SHAPES.clear()
    for (owner, name), patch in patches.items():
        setattr(owner, name, patch(getattr(owner, name)))
    try:
        yield
    finally:
        for (owner, name), original in originals.items():
            setattr(owner, name, original)
        types_module._TYPE_SHAPES.clear()


def _first_caught(patches, problems_of, cases: int = 10
                  ) -> Optional[int]:
    """The 1-based index of the first generated case on which
    ``problems_of(index)`` finds something under the mutant."""
    with _mutated(patches):
        for index in range(cases):
            if problems_of(index):
                return index + 1
    return None


_SERIAL = {"physical": ENGINES["physical"]}


def _flat_case(index: int):
    """``(A (+) B) - B`` over two generated flat relations of one
    arity: a proven plan with a rigid root, where every row of B that
    A lacks cancels to a zero count."""
    rng = random.Random(index)
    arity = rng.randint(1, 3)
    return Case(schema={}, database={"A": _flat(rng, arity, 8),
                                     "B": _flat(rng, arity, 8)},
                expr=Subtraction(AdditiveUnion(var("A"), var("B")),
                                 var("B")))


def test_a_kernel_keeping_zero_counts_is_caught():
    def patch(original):
        def keeps_zeros(left, right, *sr):
            get = right.get
            return {value: count - get(value, 0)
                    for value, count in left.items()
                    if count - get(value, 0) >= 0}
        return keeps_zeros

    assert _first_caught(
        {(columnar, "c_monus"): patch},
        lambda index: audit_problems(_flat_case(index), ("nat",),
                                     _SERIAL)) is not None


def test_a_shape_one_attribute_too_wide_is_caught():
    def patch(original):
        def wider(typ):
            shape = original(typ)
            if shape is not None and shape[0] == "tuple":
                return ("tuple", shape[1] + (("atom",),))
            return shape
        return wider

    assert _first_caught(
        {(lower_module, "rigid_shape"): patch},
        lambda index: audit_problems(_case(SEED, index), ("nat",),
                                     _SERIAL)) is not None


def test_a_dropped_check_step_is_caught():
    from tests.union_family_sweep import check_case, shapes
    patches = {(codegen._Compiler, "_check"):
               lambda original: lambda *args, **kwargs: None}
    assert _first_caught(patches, lambda index: any(
        check_case(case, _SERIAL)
        for _, case in shapes(random.Random(index)))) is not None


def _retyped(database: Dict[str, Bag]) -> Dict[str, Bag]:
    """Each flat relation with its first attribute wrapped in a
    1-tuple: every arity kept, every type changed."""
    def wrap(row):
        if isinstance(row, Tup) and row.arity and not isinstance(
                row[0], (Tup, Bag)):
            return Tup(Tup(row[0]), *row.items()[1:])
        return row
    return {name: Bag.from_counts({wrap(row): count
                                   for row, count in bag.items()})
            for name, bag in database.items()}


def key_problems(case) -> List[str]:
    """The case over its database and over the retyped one, through
    one plan cache."""
    cache = PlanCache(capacity=8)
    problems = []
    for database in (case.database, _retyped(case.database)):
        expected = _outcome(case.expr, database, "nat")
        got = _outcome(case.expr, database, "nat", "physical",
                       cache=cache)
        if expected is not None and got is not None:
            problems += seal_problems(case.label(), got, expected)
    return problems


def test_a_key_on_arities_only_is_caught():
    def patch(original):
        def arities_only(expr, types=None, tag=None):
            return original(expr, {
                name: getattr(getattr(typ, "element", None), "arity",
                              None)
                for name, typ in (types or {}).items()}, tag)
        return staticmethod(arities_only)

    assert not any(key_problems(case) for index in range(10)
                   for case in (_case(SEED, index), _flat_case(index)))
    assert _first_caught({(CacheClass, "key_for"): patch},
                         lambda index: key_problems(
                             _flat_case(index))) is not None


# ----------------------------------------------------------------------
# The longer stream
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", default=str(SEED),
                        help="integer, or 'from-run-id' for "
                             "$GITHUB_RUN_ID")
    parser.add_argument("--cases", type=int, default=CASES)
    arguments = parser.parse_args(argv)
    seed = _resolve_seed(arguments.seed)
    problems = (soundness_sweep(seed, arguments.cases)
                + audit_sweep(seed, arguments.cases))
    shutdown_pools()
    for problem in problems:
        print(f"MISMATCH {problem}")
    verdict = "FAILED" if problems else "OK"
    print(f"plan types: seed {seed}, {arguments.cases} cases (soundness "
          f"x {len(SEMIRINGS)} semirings; seal audit x "
          f"{len(SEMIRINGS)} semirings x {len(ENGINES)} engines): "
          f"{verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
