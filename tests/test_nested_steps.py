"""The BALG^2 steps: nest / unnest on raw item tuples, sealed once.

* mixed arities under ``nest`` / ``unnest`` are the walker's typed
  error on every engine (``k_nest`` used to freeze its grouping
  complement from the first row and silently drop the longer rows'
  extra attribute);
* counts, not clocks: how often the checked ``Tup`` constructor,
  ``Tup.trusted`` and ``_shape_of`` run for one grouping;
* the shapes the kernels *derive* (an inner bag's, an output row's, a
  spliced row's) are the shapes the checked constructors compute;
* a generated sweep of nest / unnest shapes and of lambdas mixing
  closed and open sub-terms against the tree walker, per semiring and
  engine, cold and through one warm ``PlanCache``.
"""

from __future__ import annotations

import random

import pytest

import repro.core.bag as bag_module
import repro.engine.kernels as kernels
from repro.core.bag import Bag, Tup, _shape_of
from repro.core.derived import count_expr, project_expr
from repro.core.errors import (
    BagTypeError, HeterogeneousBagError, ReproError,
)
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Const, Dedup, Intersection,
    Lam, Map, Select, Subtraction, Tupling, Var, var,
)
from repro.core.nest import Nest, Unnest, nest_bag, unnest_bag
from repro.core.semiring import resolve_semiring
from repro.engine import PlanCache, evaluate
from repro.engine.kernels import collect, k_nest, k_unnest
from repro.testkit import Case
from tests import rearrangement_sweep
from tests.rearrangement_sweep import SEMIRINGS

_FORCED = dict(engine="parallel", workers=2, parallel_threshold=0.0,
               min_morsel_rows=1)
_ENGINES = {
    "physical": dict(engine="physical"),
    "opt0": dict(engine="physical", opt_level=0),
    "codegen": dict(engine="codegen"),
    "parallel-thread": dict(_FORCED, parallel_backend="thread"),
}
_PROCESS = {"parallel-process": dict(_FORCED,
                                     parallel_backend="process")}


# ----------------------------------------------------------------------
# Mixed arities are a typed error, never a bag
# ----------------------------------------------------------------------

_MIXED = {
    "nest": (Nest(AdditiveUnion(var("X"), var("Z")), 2), {
        "X": Bag([Tup("a", "b"), Tup("a", "c")]),
        "Z": Bag([Tup("a", "d", "e")])}),
    # the two arities land in different groups (and shards)
    "nest-apart": (Nest(AdditiveUnion(var("X"), var("Z")), 2), {
        "X": Bag([Tup("a", "b"), Tup("b", "c")]),
        "Z": Bag([Tup("q", "d", "e"), Tup("r", "d", "e")])}),
    "unnest": (Unnest(AdditiveUnion(var("X"), var("Z")), 2), {
        "X": Bag([Tup("a", Bag([Tup("b")]))]),
        "Z": Bag([Tup("a", Bag([Tup("c")]), "z")])}),
}


@pytest.mark.parametrize("engine", sorted({**_ENGINES, **_PROCESS}))
@pytest.mark.parametrize("name", sorted(_MIXED))
def test_mixed_arities_are_rejected_on_every_engine(name, engine):
    options = {**_ENGINES, **_PROCESS}[engine]
    expr, database = _MIXED[name]
    # the walker refuses the union itself
    with pytest.raises(BagTypeError, match="additive union requires "
                                           "bags of the same type") as walker:
        evaluate(expr, database, engine="tree")
    with pytest.raises(ReproError) as info:
        evaluate(expr, database, cache=None, **options)
    # and so does every engine's union step — before the kernel, and
    # under an exchange on the whole inputs, where the two arities may
    # meet in no shard
    assert type(info.value) is BagTypeError
    assert str(info.value) == str(walker.value)


def test_the_nest_kernel_names_both_shapes():
    rows = {Tup("a", "b"): 1, Tup("a", "c"): 2, Tup("a", "d", "e"): 1}
    with pytest.raises(HeterogeneousBagError) as info:
        collect(k_nest(rows, (2,)))
    assert str(info.value) == (
        "bags must be homogeneous: cannot mix elements of shapes "
        "('tuple', (('atom',), ('atom',))) and "
        "('tuple', (('atom',), ('atom',), ('atom',)))")
    # the other checks are where they were
    with pytest.raises(BagTypeError, match="nest requires bags of "
                                           "tuples"):
        collect(k_nest({"atom": 1}, (1,)))
    with pytest.raises(BagTypeError, match=r"nest indices \(3,\) out "
                                           "of range for arity 2"):
        collect(k_nest({Tup("a", "b"): 1}, (3,)))
    with pytest.raises(BagTypeError, match="unnest index 3 out of "
                                           "range for arity 2"):
        collect(k_unnest({Tup("a", Bag()): 1}, 3))
    with pytest.raises(BagTypeError, match="attribute 1 is not "
                                           "bag-valued"):
        collect(k_unnest({Tup("a", Bag()): 1}, 1))


def test_rows_whose_shapes_only_merge_are_homogeneous():
    """An empty inner bag beside a full one: two shapes, one type —
    the per-row check merges, and the groups take the checked seal."""
    relation = Bag([Tup("g", Bag()), Tup("g", Bag(["x"])),
                    Tup("h", Bag(["y", "y"]))])
    nested = Bag.from_counts(collect(k_nest(relation._counts, (2,))))
    assert nested == nest_bag(relation, (2,))
    assert _shape_of(nested) == _shape_of(nest_bag(relation, (2,)))


# ----------------------------------------------------------------------
# Counts, not clocks
# ----------------------------------------------------------------------

def test_nest_wraps_once_per_member_and_group(monkeypatch):
    """1 000 distinct rows in 20 groups: no checked ``Tup``, one
    ``Tup.trusted`` per member and per group, no structure walk over
    any member — and the derived shapes are the checked ones."""
    relation = Bag([Tup(g, m % 50) for g in range(20)
                    for m in range(100)])
    counts = relation._counts
    assert len(counts) == 1000 and set(counts.values()) == {2}
    expected = nest_bag(relation, (2,))

    checked, wrapped, walked = [], [], []
    init, trusted, shape_of = Tup.__init__, Tup.trusted, _shape_of

    def counting_init(self, *items):
        checked.append(items)
        init(self, *items)

    def counting_trusted(items, shape=None):
        wrapped.append(items)
        return trusted(items, shape)

    def counting_shape_of(value):
        walked.append(value)
        return shape_of(value)

    monkeypatch.setattr(Tup, "__init__", counting_init)
    monkeypatch.setattr(Tup, "trusted", staticmethod(counting_trusted))
    monkeypatch.setattr(kernels, "_shape_of", counting_shape_of)
    monkeypatch.setattr(bag_module, "_shape_of", counting_shape_of)
    nested = collect(k_nest(counts, (2,)))
    monkeypatch.undo()

    assert not checked
    assert len(wrapped) == 1000 + 20
    assert not walked  # the rows carried their shape; no member needs one
    assert Bag.from_counts(nested) == expected
    for row in nested:
        assert row._shape == _shape_of(Tup(*row._items))
        assert _shape_of(row[1]) == _shape_of(Bag(row[1].elements()))


def test_nest_never_seals_a_zero_multiplicity_unchecked():
    (row,) = collect(k_nest({Tup("g", "m"): 0, Tup("g", "n"): 2}, (2,)))
    assert row == Tup("g", Bag.from_counts({Tup("n"): 2}))
    with pytest.raises(ReproError, match="multiplicity must be "
                                         "non-negative"):
        collect(k_nest({Tup("g", "m"): -1}, (2,)))
    # ... nor a zero annotation
    tropical = resolve_semiring("tropical")
    (row,) = collect(k_nest(
        {Tup("g", "m"): tropical.zero, Tup("g", "n"): tropical.one},
        (2,), tropical), sr=tropical)
    assert row[1].distinct_count == 1 and Tup("n") in row[1]


def test_bag_trusted_keeps_the_dict_and_the_shape():
    members = {Tup("a"): 2, Tup("b"): 1}
    checked = Bag.from_counts(members)
    sealed = Bag.trusted(members, checked._shape)
    assert sealed == checked and hash(sealed) == hash(checked)
    assert sealed._counts is members
    assert sealed.cardinality == 3 and sealed.distinct_count == 2
    assert _shape_of(sealed) == _shape_of(checked)
    assert Bag.trusted({}, None) == Bag()


def test_unnest_stamps_the_spliced_shape(monkeypatch):
    relation = Bag([Tup("g", Bag([Tup(1, Bag(["p"])),
                                 Tup(2, Bag(["q"]))]), "s"),
                    Tup("h", Bag([Tup(3, Bag(["p", "p"]))]), "s"),
                    Tup("i", Bag(), "s")])
    checked = []
    init = Tup.__init__

    def counting_init(self, *items):
        checked.append(items)
        init(self, *items)

    monkeypatch.setattr(Tup, "__init__", counting_init)
    spliced = collect(k_unnest(relation._counts, 2))
    monkeypatch.undo()
    assert not checked
    assert Bag.from_counts(spliced) == unnest_bag(relation, 2)
    shapes = {id(row._shape) for row in spliced}
    assert len(shapes) == 1  # interned: the seal compares identities
    for row in spliced:
        assert row._shape == _shape_of(Tup(*row._items))
    # an atom member occupies one attribute
    atoms = collect(k_unnest({Tup("g", Bag(["x", "y", "y"])): 2}, 2))
    assert atoms == {Tup("g", "x"): 2, Tup("g", "y"): 4}
    assert all(row._shape == _shape_of(Tup(*row._items))
               for row in atoms)


# ----------------------------------------------------------------------
# The generated sweep
# ----------------------------------------------------------------------

_T = Var("t")


def _relation(rng: random.Random, arity: int, nested_at=None) -> Bag:
    """The projection sweep's relation: 5-9 rows over a small atom
    pool, a third repeated; attribute ``nested_at`` (0-based) holds a
    bag of 0-2 atoms."""
    return rearrangement_sweep._relation(rng, arity, nested_at)[0]


def _shapes(rng: random.Random):
    """``(name, expression, database)`` over one generated database."""
    arity = rng.randint(2, 4)
    nested_at = rng.randrange(1, arity)
    database = {
        "A": _relation(rng, arity), "B": _relation(rng, arity),
        "N": _relation(rng, arity, nested_at),
        "L": _relation(rng, 2), "R": _relation(rng, 2),
        "V": _relation(rng, 1),
    }
    every = tuple(range(1, arity + 1))
    groupings = {"one": (rng.choice(every),),
                 "several": tuple(sorted(rng.sample(every, 2))),
                 "all-but-one": every[1:],
                 "all": every}
    for label, indices in groupings.items():
        yield f"nest/{label}", Nest(var("A"), *indices), database
    # BALG^3: the grouped attribute is itself a bag / the key is
    yield "nest/bag-member", Nest(var("N"), nested_at + 1), database
    yield ("nest/bag-key",
           Nest(var("N"), 1 if nested_at else arity), database)
    # trusted upstream rows: no shape cached on any of them
    join = Select(Lam("t", Attribute(_T, 2)), Lam("t", Attribute(_T, 3)),
                  Cartesian(var("L"), var("R")))
    yield "nest/trusted-rows", Nest(project_expr(join, 4, 1), 2), database
    yield ("nest/trusted-product",
           Nest(Cartesian(var("L"), var("V")), 1, 3), database)
    for index in every:
        yield (f"unnest-nest/{index}",
               Unnest(Nest(var("A"), index), arity), database)
    yield ("unnest/bag-attribute",
           Unnest(var("N"), nested_at + 1), database)
    yield ("unnest-unnest-nest",
           Unnest(Unnest(Nest(var("N"), nested_at + 1), arity), arity),
           database)
    # nested results as dictionary keys: a stale hash or a wrongly
    # derived shape shows in the merge
    nested_a, nested_b = Nest(var("A"), arity), Nest(var("B"), arity)
    yield "keys/dedup", Dedup(AdditiveUnion(nested_a, nested_a)), database
    yield ("keys/intersect",
           Intersection(nested_a, Nest(AdditiveUnion(var("A"), var("B")),
                                       arity)), database)
    yield ("keys/monus", Subtraction(
        Nest(AdditiveUnion(var("A"), var("B")), arity), nested_b),
        database)
    # ... against rows the checked constructors built
    literal = Const(nest_bag(database["A"], (arity,)))
    yield "keys/checked-union", AdditiveUnion(nested_a, literal), database
    yield "keys/checked-monus", Subtraction(literal, nested_a), database
    yield ("keys/checked-unnest", Intersection(
        Unnest(nested_a, arity), var("A")), database)
    # lambdas mixing closed and open sub-terms
    count_v = count_expr(var("V"))
    yield ("lambda/map-mixed", Map(
        Lam("t", Tupling(Attribute(_T, 1), count_v,
                         AdditiveUnion(var("V"), var("V")))),
        var("A")), database)
    yield ("lambda/select-mixed", Select(
        Lam("t", Tupling(Attribute(_T, 1), count_v)),
        Lam("t", Tupling(Attribute(_T, 2), count_v)), var("A")), database)
    yield ("lambda/select-closed-side", Select(
        Lam("t", project_expr(Cartesian(var("V"), var("V")), 1)),
        Lam("t", Map(Lam("u", Tupling(Attribute(Var("u"), 1))),
                     Cartesian(var("V"), var("V")))),
        var("A")), database)
    yield ("lambda/map-over-nest", Map(
        Lam("t", Tupling(Attribute(_T, 1),
                         Dedup(Attribute(_T, arity)),
                         Dedup(var("V")))),
        Nest(var("A"), arity)), database)


def test_fixed_seed_sweep():
    problems = []
    for index in range(3):
        rng = random.Random(2101 + index)
        for name, expr, database in _shapes(rng):
            case = Case(schema={}, database=database, expr=expr)
            caches = {engine: PlanCache(capacity=64)
                      for engine in _ENGINES}
            for semiring in SEMIRINGS:
                expected = rearrangement_sweep._outcome(
                    case, semiring, dict(engine="tree"))
                assert isinstance(expected, Bag), (name, expected)
                for engine, options in _ENGINES.items():
                    cold = rearrangement_sweep._outcome(
                        case, semiring, options)
                    warm = [evaluate(expr, database, semiring=semiring,
                                     cache=caches[engine], **options)
                            for _ in range(2)]
                    for label, got in (("cold", cold),
                                       ("warm-miss", warm[0]),
                                       ("warm-hit", warm[1])):
                        if got != expected:
                            problems.append(
                                f"{name} (database {index}) "
                                f"{semiring}/{engine}/{label}: "
                                f"{got!r} != {expected!r}")
            for engine, cache in caches.items():
                assert cache.stats.hits >= len(SEMIRINGS), (name, engine)
    assert not problems, problems[:5]
