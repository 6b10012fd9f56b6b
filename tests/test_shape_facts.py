"""A bag's type and standard-encoding size are read off its sealed shape.

``types.type_of`` and ``database.encoding_size`` used to walk every
member of every bag; now they read ``Bag._shape`` (the merged shape the
seal computed) through intern tables.  This module holds the
member-walking versions as *references* and pins

* equivalence on generated values: nesting depth up to 4, empty inner
  bags beside full ones, bags of atoms and of bags, zero-arity tuples,
  every semiring's ``adapt_bag`` output (``int``-counted nested bags
  inside annotated ones) — and values built on the trusted paths:
  ``Tup.concat``, ``k_nest`` / ``k_unnest`` output, ``decode_shard``;
* counts, not clocks: neither the union type check, nor the size, nor
  ``EvalStats.record`` touches a member of a bag whose shape holds no
  bag, at 10 rows or at 10 000;
* ``EvalStats`` field for field on the E06 / E08 / E14 / E17 batteries
  and on 200 fuzz cases, against values frozen from the member-walking
  implementation (``tests/frozen_evalstats.json``; regenerate with
  ``PYTHONPATH=src python -m tests.test_shape_facts > ...`` only when a
  battery changes on purpose);
* four mutants, each caught by unit pins and within 10 generated
  cases: the empty bag's element typed ``U``, the rigid size multiplied
  by the distinct count, a bag-valued attribute counted as size 1, and
  an engine union check that trusts a first row holding an empty inner
  bag.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys

import pytest

import repro.core.bag as bag_module
import repro.core.database as database_module
import repro.core.ops as ops_module
import repro.core.types as types_module
from repro.core.bag import Bag, Tup
from repro.core.database import encoding_size
from repro.core.derived import (
    average_expr, card_greater_expr, count_expr, derived_dedup,
    hartig_expr, int_as_bag, parity_even_expr, project_expr, sum_expr,
)
from repro.core.errors import (
    BagTypeError, ReproError, ResourceLimitError,
)
from repro.core.eval import EvalStats, Evaluator
from repro.core.expr import (
    BagDestroy, Cartesian, Powerset, Var, var,
)
from repro.core.nest import Nest
from repro.core.ops import cartesian
from repro.core.semiring import Trop, resolve_semiring
from repro.core.types import (
    UNKNOWN, BagType, TupleType, U, flat_tuple_type, type_of, unify,
)
from repro.engine.kernels import collect, k_nest, k_unnest
from repro.engine.parallel.codec import decode_shard, encode_shard
from repro.guard import Limits
from repro.testkit import Harness, generate_case
from repro.testkit.differential import DEFAULT_LIMITS

FROZEN = os.path.join(os.path.dirname(__file__), "frozen_evalstats.json")


# ----------------------------------------------------------------------
# The member-walking references
# ----------------------------------------------------------------------

def reference_type_of(value):
    """Unify the types of every member, recursively."""
    if isinstance(value, Tup):
        return TupleType(tuple(reference_type_of(item)
                               for item in value.items()))
    if isinstance(value, Bag):
        element = UNKNOWN
        for member in value.distinct():
            element = unify(element, reference_type_of(member))
        return BagType(element)
    return U


def reference_encoding_size(value) -> int:
    """Sum every member's size, written once per occurrence (an
    annotation weighs one)."""
    if isinstance(value, Tup):
        return 1 + sum(reference_encoding_size(item)
                       for item in value.items())
    if isinstance(value, Bag):
        return 1 + sum((count if isinstance(count, int) else 1)
                       * reference_encoding_size(element)
                       for element, count in value.items())
    return 1


# ----------------------------------------------------------------------
# Generated values
# ----------------------------------------------------------------------

_ATOMS = ("a", "b", "c", 0, 1, 2.5)
_SEMIRINGS = ("bool", "tropical", "provenance")


def _random_type(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return "U"
    if roll < 0.7:
        return ("tuple", tuple(_random_type(rng, depth - 1)
                               for _ in range(rng.randint(0, 3))))
    return ("bag", _random_type(rng, depth - 1))


def _value(rng: random.Random, typ):
    if typ == "U":
        return rng.choice(_ATOMS)
    if typ[0] == "tuple":
        return Tup(*(_value(rng, item) for item in typ[1]))
    if rng.random() < 0.3:
        return Bag()  # an empty inner bag beside full ones
    return Bag.from_counts({_value(rng, typ[1]): rng.randint(1, 3)
                            for _ in range(rng.randint(1, 4))})


def _tuple_bag(rng: random.Random, arity: int, depth: int = 2) -> Bag:
    """A bag of ``arity``-tuples, some attributes bag-valued."""
    typ = ("bag", ("tuple", tuple(_random_type(rng, depth)
                                  for _ in range(arity))))
    bag = _value(rng, typ)
    while bag.is_empty():
        bag = _value(rng, typ)
    return bag


def _trusted_values(rng: random.Random):
    """Values built on the trusted paths: concatenation (shapes cached
    on both sides, and not), nest / unnest kernel output, the shard
    decoder's."""
    left, right = _tuple_bag(rng, 2), _tuple_bag(rng, rng.randint(0, 2))
    if rng.random() < 0.5:
        for row in list(left.distinct()) + list(right.distinct()):
            bag_module._shape_of(row)
    yield cartesian(left, right)
    yield left.an_element().concat(right.an_element())
    relation = _tuple_bag(rng, rng.randint(2, 3))
    arity = relation.an_element().arity
    indices = tuple(sorted(rng.sample(range(1, arity + 1),
                                      rng.randint(1, arity))))
    nested = collect(k_nest(relation._counts, indices))
    yield Bag.from_counts(nested)
    # unnest every bag-valued attribute, of the input and of the output
    for source in (relation._counts, nested):
        for index, item in enumerate(next(iter(source)).items(), 1):
            if isinstance(item, Bag):
                rows = collect(k_unnest(source, index))
                yield Bag.from_counts(rows)
                for row in rows:  # each row alone: its own shape
                    yield Bag.from_counts({row: 1})
    for source in (relation, nested):
        counts = (source._counts if isinstance(source, Bag)
                  else source)
        yield Bag.from_counts(decode_shard(encode_shard(counts)))
    sr = resolve_semiring(rng.choice(_SEMIRINGS))
    adapted = sr.adapt_bag(relation, "R")
    yield Bag.from_counts(decode_shard(encode_shard(adapted._counts)))


def generated_values(seed: int, count: int):
    """``count`` rounds of: a bag of depth up to 4, its adaptation
    under every non-N semiring, a bag mixing ``int`` counts with
    annotations, and the trusted-path values."""
    rng = random.Random(seed)
    for _ in range(count):
        typ = ("bag", _random_type(rng, 3))
        bag = _value(rng, typ)
        yield bag
        for name in _SEMIRINGS:
            yield resolve_semiring(name).adapt_bag(bag, "B")
        yield Bag.from_counts({Tup("m", bag): 2, Tup("n", bag): Trop(1.0)})
        # ... flat, and decoded as an inner bag: the rigid size
        # multiplies the cardinality the decoder computed
        mixed = Bag.from_counts({Tup("m"): rng.randint(1, 3),
                                 Tup("n"): Trop(1.0)})
        yield Bag.from_counts(decode_shard(encode_shard({Tup(mixed): 1})))
        yield from _trusted_values(rng)


def _with_parts(value):
    """The value and every value inside it."""
    yield value
    if isinstance(value, Tup):
        for item in value.items():
            yield from _with_parts(item)
    elif isinstance(value, Bag):
        for member in value.distinct():
            yield from _with_parts(member)


def test_generated_values_match_the_references():
    checked = 0
    for value in generated_values(2503, 150):
        for part in _with_parts(value):
            expected = reference_type_of(part)
            got = type_of(part)
            assert got == expected and repr(got) == repr(expected), part
            assert encoding_size(part) == reference_encoding_size(part), \
                part
            checked += 1
    assert checked > 5_000


def test_the_placeholder_is_unknown():
    assert repr(type_of(Bag())) == "{{?}}"
    assert repr(type_of(Bag([Tup("a", Bag())]))) == "{{[U, {{?}}]}}"
    assert repr(type_of(Tup())) == "[]"
    assert repr(type_of(Bag([Tup("a", Bag()), Tup("b", Bag(["c"]))]))
                ) == "{{[U, {{U}}]}}"
    # {{[a, {{}}]}} (+) {{[b, {{[c, d]}}]}} is well typed
    ops_module.additive_union(Bag([Tup("a", Bag())]),
                              Bag([Tup("b", Bag([Tup("c", "d")]))]))


def test_sizes_weigh_duplicates_and_annotations():
    assert encoding_size(Bag()) == 1
    assert encoding_size(Bag.from_counts({Tup(1, 2): 3})) == 1 + 3 * 3
    assert encoding_size(Bag([Tup("a", Bag(["x", "y"]))])) == 6
    assert encoding_size(Bag.from_counts(
        {Tup(1): Trop(2.0), Tup(2): 3})) == 1 + (1 + 3) * 2
    assert encoding_size(Bag.from_counts({Tup(): 4})) == 1 + 4


# ----------------------------------------------------------------------
# Counts, not clocks
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _counting(*targets):
    """Wrap each ``(owner, name)`` callable to count its calls."""
    calls = {name: 0 for _, name in targets}
    originals = [(owner, name, getattr(owner, name))
                 for owner, name in targets]

    def wrap(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for owner, name, original in originals:
        setattr(owner, name, wrap(name, original))
    try:
        yield calls
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def _flat(rows: int, arity: int = 2) -> Bag:
    return Bag.from_counts({Tup(*range(row, row + arity)): 1 + row % 3
                            for row in range(rows)})


_MEMBER_READS = ((Bag, "items"), (Bag, "distinct"), (Bag, "elements"),
                 (Bag, "__iter__"))


def test_the_union_check_counts_the_same_at_any_size():
    seen = []
    for rows in (10, 10_000):
        left, right = _flat(rows), _flat(rows // 2)
        with _counting((types_module, "_shape_of"), (types_module, "unify"),
                       (ops_module, "unify"), *_MEMBER_READS) as calls:
            ops_module._require_same_type(left, right, "subtraction")
        seen.append(calls)
    assert seen[0] == seen[1]
    assert not any(seen[0][name] for _, name in _MEMBER_READS)


def test_a_flat_size_reads_no_member():
    for rows in (10, 10_000):
        bag = _flat(rows, arity=3)
        with _counting(*_MEMBER_READS) as calls:
            assert encoding_size(bag) == 1 + bag.cardinality * 4
        assert not any(calls.values()), calls


def test_record_runs_the_int_filter_only_on_annotated_bags():
    node = Var("R")
    for rows in (10, 10_000):
        stats = EvalStats()
        bag = _flat(rows)
        with _counting(*_MEMBER_READS) as calls:
            stats.record(node, bag)
        assert not any(calls.values()), calls
        assert (stats.peak_multiplicity, stats.peak_distinct) == (3, rows)
    # annotations have no order: the int counts are filtered out first
    stats = EvalStats()
    mixed = Bag.from_counts({Tup(1): Trop(1.0), Tup(2): 7, Tup(3): 2})
    with _counting((Bag, "items")) as calls:
        stats.record(node, mixed)
    assert calls["items"] == 1 and stats.peak_multiplicity == 7
    stats.record(node, Bag.from_counts({Tup(1): Trop(1.0)}))
    assert stats.peak_multiplicity == 7


# ----------------------------------------------------------------------
# EvalStats, field for field
# ----------------------------------------------------------------------

def _batteries():
    """``(label, expr, database)``: the queries of the E06 / E08 / E14
    / E17 batteries over inputs shaped like the benches'."""
    for n in (4, 8, 16, 32):
        database = {"R": Bag([Tup(i) for i in range(n)]),
                    "S": Bag([Tup(-i - 1) for i in range(max(1, n // 2))])}
        for name, expr in (
                ("card", card_greater_expr(var("R"), var("S"))),
                ("hartig", hartig_expr(var("R"), var("S"))),
                ("parity", parity_even_expr(var("R"))),
                ("pi1", project_expr(Cartesian(Cartesian(
                    var("R"), var("R")), var("S")), 1))):
            yield f"E06/{name}/{n}", expr, database
    for n in (2, 4, 6, 8, 10):
        yield (f"E08/sparse/{n}", BagDestroy(Powerset(var("R"))),
               {"R": Bag([Tup(str(i)) for i in range(n)])})
    for n in (4, 8, 16, 32):
        yield (f"E08/duplicates/{n}", BagDestroy(Powerset(var("R"))),
               {"R": Bag.from_counts({Tup("a"): n})})
    for n in (2, 4, 6):
        yield (f"E08/derived-dedup/{n}",
               derived_dedup(var("R"), flat_tuple_type(1)),
               {"R": Bag.from_counts({Tup(str(i)): 2 for i in range(n)})})
    rng = random.Random(14)
    for n in (5, 20, 80, 320):
        orders = Bag([Tup(f"cust{rng.randrange(4)}",
                          f"item{rng.randrange(6)}") for _ in range(n)])
        yield f"E14/count/{n}", count_expr(var("O")), {"O": orders}
    for values in ((4, 4, 4), (1, 5, 0, 2, 6), (3, 0, 6)):
        encoded = {"V": Bag([int_as_bag(v) for v in values])}
        yield f"E14/sum/{values}", sum_expr(var("V")), encoded
        yield f"E14/average/{values}", average_expr(var("V")), encoded
    for total in (4, 8, 16):
        yield (f"E14/cost/{total}", average_expr(var("V")),
               {"V": Bag([int_as_bag(total // 2)] * 2)})
    for keys, per_key in ((1, 2), (2, 2), (3, 2), (4, 2), (4, 3)):
        workload = {"B": Bag([Tup(f"k{key}", f"v{member}")
                              for key in range(keys)
                              for member in range(per_key)])}
        yield f"E17/nest/{keys}x{per_key}", Nest(var("B"), 2), workload
        if keys <= 3:
            yield (f"E17/powerset/{keys}x{per_key}", Powerset(var("B")),
                   workload)


def _fuzz_cases():
    for index in range(200):
        case = generate_case(25, index, fragment="mixed")
        yield f"fuzz/25/{index}", case.expr, case.database


def _stats_of(expr, database, governed: bool):
    evaluator = (Evaluator(limits=DEFAULT_LIMITS) if governed
                 else Evaluator())
    try:
        evaluator.run(expr, database)
        status = "ok"
    except (ReproError, ResourceLimitError, RecursionError) as error:
        status = type(error).__name__
    stats = evaluator.stats
    return [status, stats.peak_encoding_size, stats.peak_multiplicity,
            stats.peak_distinct, stats.nodes_evaluated,
            sorted(stats.op_counts.items())]


def observed_evalstats():
    """Every battery and fuzz case's stats, JSON-shaped."""
    out = {label: _stats_of(expr, database, False)
           for label, expr, database in _batteries()}
    out.update((label, _stats_of(expr, database, True))
               for label, expr, database in _fuzz_cases())
    return json.loads(json.dumps(out))


def test_evalstats_match_the_frozen_member_walking_run():
    with open(FROZEN, encoding="utf-8") as handle:
        frozen = json.load(handle)
    observed = observed_evalstats()
    assert sorted(observed) == sorted(frozen)
    differ = [label for label in frozen if observed[label] != frozen[label]]
    assert not differ, [(label, observed[label], frozen[label])
                        for label in differ[:3]]
    # the fuzz leg is not vacuous: sizes, multiplicities, governed runs
    fuzz = [row for label, row in frozen.items()
            if label.startswith("fuzz/")]
    assert sum(row[0] == "ok" for row in fuzz) > 150
    assert max(row[1] for row in fuzz) > 100


# ----------------------------------------------------------------------
# Mutants
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _mutated(patches):
    """Each ``(module, name)`` replaced by ``patch(original)``, with the
    shape tables emptied on the way in and out (a cached entry would
    hide the mutant, or outlive it)."""
    originals = {key: getattr(*key) for key in patches}

    def clear():
        types_module._SHAPE_TYPES.clear()
        database_module._RIGID_SIZES.clear()

    clear()
    for (module, name), patch in patches.items():
        setattr(module, name, patch(originals[module, name]))
    try:
        yield
    finally:
        for (module, name), original in originals.items():
            setattr(module, name, original)
        clear()


def _sweep_case(index):
    """The union-family sweep's cases, one generated database each."""
    from tests.union_family_sweep import shapes
    return [case for _, case in shapes(random.Random(index))]


def _detect_union(patches, cases=10):
    """The 1-based index of the first generated database on which the
    tree walker and the serial engine disagree under the mutant, or
    None."""
    from tests.union_family_sweep import ENGINES, check_case
    engines = {"physical": ENGINES["physical"]}
    with _mutated(patches):
        for index in range(cases):
            for case in _sweep_case(index):
                if check_case(case, engines):
                    return index + 1
    return None


_SIZE_LIMITS = Limits(max_steps=300_000, max_size=16,
                      powerset_budget=1024, max_depth=300)


def _size_verdicts(patches=None, cases=10):
    """``repro fuzz --fragment balg3 --max-size 16 --backends oracle``:
    each case's outcome — ``ok``, or the governed verdict with the size
    it observed."""
    harness = Harness(backends=("oracle",), limits=_SIZE_LIMITS,
                      metamorphic=False)
    verdicts = []
    with _mutated(patches or {}):
        for index in range(cases):
            outcome = harness.run_case(generate_case(
                0, index, fragment="balg3")).outcomes["oracle"]
            verdicts.append((outcome.status, str(outcome.error)))
    return verdicts


def _detect_size(patches, cases=10):
    clean = _size_verdicts(cases=cases)
    assert any(status == "governed" for status, _ in clean)
    mutated = _size_verdicts(patches, cases)
    for index, (left, right) in enumerate(zip(clean, mutated)):
        if left != right:
            return index + 1
    return None


def _type_pins():
    assert repr(type_of(Bag([Tup("a", Bag())]))) == "{{[U, {{?}}]}}"
    ops_module.additive_union(Bag([Tup("a", Bag())]),
                              Bag([Tup("b", Bag([Tup("c", "d")]))]))


def _size_pins():
    assert encoding_size(Bag.from_counts({Tup(1, 2): 3})) == 10
    assert encoding_size(Bag([Tup("a", Bag(["x", "y"]))])) == 6


def _union_pins():
    from repro.engine.columnar import require_same_type
    hidden = Bag([Tup("a", Bag()), Tup("b", Bag([Tup("c", "d")]))])
    try:
        require_same_type(hidden._counts, {Tup("e", Bag(["f"])): 1},
                          "additive union")
    except BagTypeError as error:
        assert str(error).startswith("additive union requires bags")
    else:
        raise AssertionError("the mismatch behind the empty first row "
                             "passed")


def _caught(pins, patches):
    pins()
    with _mutated(patches), pytest.raises((AssertionError, ReproError)):
        pins()


class TestShapeMutants:
    def test_placeholder_typed_as_atoms_is_caught(self):
        def patch(original):
            def mutant(shape):
                if shape == ("bag", None):
                    return BagType(U)
                return original(shape)
            return mutant

        patches = {(types_module, "_shape_type"): patch}
        _caught(_type_pins, patches)
        assert _detect_union(patches) is not None

    def test_rigid_size_times_distinct_count_is_caught(self):
        def patch(original):
            def mutant(bag):
                member = database_module._rigid_size(bag._shape) \
                    if bag._shape is not None else None
                if member is not None:
                    return 1 + bag.distinct_count * member
                return original(bag)
            return mutant

        patches = {(database_module, "_bag_size"): patch}
        _caught(_size_pins, patches)
        assert _detect_size(patches) is not None

    def test_bag_attribute_as_rigid_size_one_is_caught(self):
        def patch(original):
            def mutant(shape):
                if shape[0] in ("atom", "bag"):
                    return 1
                return 1 + sum(mutant(item) for item in shape[1])
            return mutant

        patches = {(database_module, "_rigid_size"): patch}
        _caught(_size_pins, patches)
        assert _detect_size(patches) is not None

    def test_union_check_trusting_a_placeholder_row_is_caught(self):
        from repro.engine import columnar

        def patch(original):
            return lambda rows: bag_module._shape_of(next(iter(rows)))

        patches = {(columnar, "_side_shape"): patch}
        _caught(_union_pins, patches)
        assert _detect_union(patches) is not None


if __name__ == "__main__":
    rows = sorted(observed_evalstats().items())
    sys.stdout.write("{\n" + ",\n".join(
        f"{json.dumps(label)}: {json.dumps(row)}" for label, row in rows)
        + "\n}\n")
