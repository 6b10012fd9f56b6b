"""The text-to-plan front end against figures frozen from the
token-object parser, the repr-ordered plan-cache key and the
per-node estimator that the single-scan front end replaced.

* the parser: 2 000 generated cases round-trip through the printer,
  and a malformed corpus (every text cut at each token boundary, and
  the same text with one stray character inserted there) raises the
  same exception, message and offset as before;
* the planner: the physical EXPLAIN of the ``adhoc_text`` ladder's
  surface texts at seed 1993, estimates included, is the one the
  per-node estimator printed;
* the plan-cache key: it partitions a corpus (with commutative
  operands swapped at random depths) exactly as the repr-ordered key
  did, swapping operands never changes it, and two queries with equal
  keys compute equal bags on every engine.

``python -m tests.test_front_end_frozen`` prints the digests of the
current code (what the pins below were frozen from).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.bag import Bag, Tup
from repro.core.errors import ParseError, ReproError
from repro.core.expr import (
    AdditiveUnion, Const, Expr, Intersection, MaxUnion, var,
)
from repro.engine import evaluate, explain_physical
from repro.engine.cache import PlanCache, canonical_key
from repro.planner import stats as stats_module
from repro.surface import parse, to_text, tokenize
from repro.testkit import generate_case

_COMMUTATIVE = (AdditiveUnion, MaxUnion, Intersection)

#: characters inserted at token boundaries: lexical errors (a stray
#: quote, a non-token character, a numeric that is not a digit, a
#: non-blank space) and tokens that only break the grammar
_STRAYS = ("?", "'", "}", ")", ",", "\xbd", "(", "=", "\xe9", "2",
           "\xa0", "x", "[", "{{", ";")


def _round_trip_cases():
    """2 000 printed ``testkit.generate`` cases, three fragments."""
    for fragment in ("balg1", "balg2", "mixed"):
        for index in range(667 if fragment != "mixed" else 666):
            yield generate_case(41, index, fragment=fragment).expr


def _outcome(text: str):
    try:
        return ("ok", repr(parse(text)))
    except ParseError as error:
        return ("ParseError", error.args[0], error.position)
    except Exception as error:  # construction errors keep their type
        return (type(error).__name__, str(error))


def _malformed_corpus():
    """Every mixed-fragment text cut at each token boundary, and with
    one stray character inserted there."""
    for index in range(120):
        text = to_text(generate_case(43, index, fragment="mixed").expr)
        for number, token in enumerate(tokenize(text)):
            cut = token.position
            yield text[:cut]
            yield (text[:cut] + _STRAYS[number % len(_STRAYS)]
                   + text[cut:])


def _digest(items) -> tuple:
    digest, count = hashlib.sha256(), 0
    for item in items:
        count += 1
        digest.update(repr(item).encode())
    return count, digest.hexdigest()


# ----------------------------------------------------------------------
# the adhoc_text ladder's surface texts (its sampling, seed 1993)
# ----------------------------------------------------------------------

_ADHOC_STRATA = {(1, 5): 48, (6, 10): 72, (11, 15): 64, (16, 22): 40,
                 (23, 40): 16}


def _node_count(expr: Expr) -> int:
    return 1 + sum(_node_count(child) for child in expr.children())


def _adhoc_cases(seed: int = 1993):
    """``(text, database)`` pairs sampled as the ladder's
    ``adhoc_text`` workload samples its surface strata."""
    quota = dict(_ADHOC_STRATA)
    cases = {band: [] for band in quota}
    seen = set()
    index = 0
    while any(quota.values()):
        case = generate_case(seed, index, fragment="balg1", size=20)
        index += 1
        nodes = _node_count(case.expr)
        band = next((band for band in quota
                     if band[0] <= nodes <= band[1]), None)
        if band is None or quota[band] == 0:
            continue
        try:
            text = to_text(case.expr)
            if text in seen or parse(text) != case.expr:
                continue
            evaluate(case.expr, case.database, engine="tree")
        except ReproError:
            continue
        seen.add(text)
        quota[band] -= 1
        cases[band].append((text, dict(case.database)))
    return [case for band in cases.values() for case in band]


@pytest.fixture(scope="module")
def adhoc_cases():
    return _adhoc_cases()


def _explains(cases):
    for text, database in cases:
        yield explain_physical(parse(text), database, cache=None,
                               execute=False)


# ----------------------------------------------------------------------
# commutative swaps
# ----------------------------------------------------------------------

def _swapped(expr: Expr, rng: random.Random) -> Expr:
    """``expr`` with the operands of some commutative nodes swapped,
    at any dataflow depth (a lambda is keyed as written)."""
    children = list(expr.children())
    flow = len(children) - len(expr.lambdas())
    children[:flow] = [_swapped(child, rng) for child in children[:flow]]
    if isinstance(expr, _COMMUTATIVE) and rng.random() < 0.5:
        children.reverse()
    if all(new is old for new, old in zip(children, expr.children())):
        return expr
    return expr.with_children(*children)


def _key_corpus():
    """Generated expressions, each followed by a swapped twin."""
    rng = random.Random(5)
    for fragment in ("balg1", "balg2"):
        for index in range(150):
            expr = generate_case(47, index, fragment=fragment).expr
            yield expr
            yield _swapped(expr, rng)


def _key_partition(exprs):
    """The corpus grouped by key: position lists, in first-seen
    order."""
    groups = {}
    for position, expr in enumerate(exprs):
        groups.setdefault(canonical_key(expr), []).append(position)
    return list(groups.values())


# ----------------------------------------------------------------------
# frozen figures
# ----------------------------------------------------------------------

_ROUND_TRIP = (1731, (2000, "eb6f326a2a8e98730f4c612b52ac66b2"
                           "9442304d47788ac11ae436751fd461de"))
_MALFORMED = (14618, "238883bd3fdb52f383ec9a8aa5d8208c"
                     "c43b9387fc412785f911a3a6417a2960")
_EXPLAIN = (240, "c9274fcfc832dd681bced7f3d0789bd3"
                 "3aad8c4ba05f96b67a6e8d11678b2665")
_PARTITION = (249, "b5722c5a2731cd822a418e34e6fafbb5"
                   "f5222133a9adb7e17eb59d1993885af3")


class TestParser:
    def test_generated_cases_round_trip(self):
        """Each case re-parses to the tree it printed from, except where
        the printer renames a derived lambda's parameter; the trees
        themselves are frozen."""
        texts = [to_text(expr) for expr in _round_trip_cases()]
        same = sum(parse(text) == expr
                   for text, expr in zip(texts, _round_trip_cases()))
        assert (same, _digest(map(_outcome, texts))) == _ROUND_TRIP

    def test_malformed_corpus_fails_as_before(self):
        assert _digest(map(_outcome, _malformed_corpus())) == _MALFORMED


class TestPlans:
    def test_adhoc_explain_is_unchanged(self, adhoc_cases):
        assert len(adhoc_cases) == sum(_ADHOC_STRATA.values())
        assert _digest(_explains(adhoc_cases)) == _EXPLAIN

    def test_each_node_is_estimated_once(self, adhoc_cases, monkeypatch):
        """One memo serves a lowering and the estimator's recursion, so
        no query estimates a node twice (the per-node recursion
        estimated some nodes of these queries 21 times)."""
        calls = []
        per_node = stats_module._estimate

        def counting(expr, *args):
            calls.append(expr)
            return per_node(expr, *args)

        monkeypatch.setattr(stats_module, "_estimate", counting)
        total = 0
        for text, database in adhoc_cases:
            calls.clear()
            evaluate(parse(text), database, cache=None, engine="codegen")
            assert len(calls) == len(set(calls)), text
            total += len(calls)
        assert total > len(adhoc_cases)


class TestCanonicalKey:
    def test_partition_is_unchanged(self):
        assert _digest(_key_partition(_key_corpus())) == _PARTITION

    def test_swaps_at_any_depth_keep_the_key(self):
        rng = random.Random(9)
        for index in range(300):
            expr = generate_case(53, index, fragment="mixed").expr
            for _ in range(3):
                assert canonical_key(_swapped(expr, rng)) == \
                    canonical_key(expr)

    def test_swapped_bag_constants_keep_the_key(self):
        # neither a Bag nor a Tup orders: the key falls back to repr
        left = Const(Bag([Tup("a", 1), Tup("a", 1)]))
        right = Const(Bag([Tup("b", 2)]))
        mixed = Const(Bag([Tup(1, "a")]))
        for node in _COMMUTATIVE:
            assert canonical_key(node(left, right)) == \
                canonical_key(node(right, left))
            assert canonical_key(node(left, mixed)) == \
                canonical_key(node(mixed, left))
            nested = node(node(left, var("R")), node(right, mixed))
            assert canonical_key(nested) == canonical_key(
                node(node(mixed, right), node(var("R"), left)))

    def test_equal_keys_compute_equal_bags(self):
        """Equal keys share a plan: a twin served its original's
        cached plan computes what the tree walker computes for it."""
        rng = random.Random(13)
        hits = 0
        for index in range(60):
            case = generate_case(59, index, fragment="balg1")
            twin = _swapped(case.expr, rng)
            assert canonical_key(twin) == canonical_key(case.expr)
            try:
                expected = evaluate(twin, case.database, engine="tree")
            except ReproError:
                continue
            for engine in ("physical", "codegen", "parallel"):
                cache = PlanCache()
                evaluate(case.expr, case.database, engine=engine,
                         cache=cache)
                assert evaluate(twin, case.database, engine=engine,
                                cache=cache) == expected
                hits += cache.stats.hits
        assert hits > 0


if __name__ == "__main__":
    TEXTS = [to_text(expr) for expr in _round_trip_cases()]
    print("round trip", sum(
        parse(text) == expr
        for text, expr in zip(TEXTS, _round_trip_cases())),
        _digest(map(_outcome, TEXTS)))
    print("malformed", _digest(map(_outcome, _malformed_corpus())))
    print("explain", _digest(_explains(_adhoc_cases())))
    print("partition", _digest(_key_partition(_key_corpus())))
