"""The ladder's five workloads: seeded inputs and fixed query lists.

Every workload is a function ``(seed, size) -> Inputs``.  ``size`` is
one of the parameter dicts in :data:`SIZES` — the engines run at
*run* scale, the tree-walking oracle at the scaled-down *check* scale
(the walker is 10-400x slower on flat chains, see README.md).  All
relation shapes (rows, distinct count, multiplicities) are fixed by
the size; the seed only decides *which* tuples occur, so the amount
of work barely moves between seeds and timings stay comparable.

The program under test never sees the seed — only the generated
relations and query sources.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.bag import Bag
from repro.core.derived import (
    average_expr, in_degree_greater_expr, int_as_bag, project_expr,
)
from repro.core.errors import ReproError
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Const, Dedup, Expr,
    Intersection, Lam, Map, MaxUnion, Select, Subtraction, Tupling,
    Var, var,
)
from repro.core.nest import Nest, Unnest
from repro.storage import RelationSpec, synthesize_bag
from repro.surface import parse, to_text
from repro.testkit.generate import generate_case
from repro.workloads import order_book

__all__ = ["Query", "Inputs", "WORKLOADS", "SIZES", "build_inputs",
           "symdiff_chain"]


@dataclass(frozen=True)
class Query:
    """One query of a workload's fixed list.

    ``form`` says what the engines are handed: an ``Expr``, surface
    ``text`` (``repro.surface.parse`` is on the clock), or ``sql``
    text (``repro.sql.compile_sql`` is on the clock).  ``database``
    names the bindings it runs against (``"main"`` is the workspace;
    the ad-hoc generated cases carry their own tiny databases).
    ``exchange`` is the degradation contract for the parallel engines:
    ``True`` — the run must execute morsels, ``False`` — the plan must
    not contain an exchange, ``None`` — either.
    """

    name: str
    form: str
    source: Any
    database: str = "main"
    use_catalog: bool = True
    semiring: Optional[str] = None
    exchange: Optional[bool] = None


@dataclass
class Inputs:
    """What one workload hands the program at one scale."""

    relations: Dict[str, Bag]
    queries: List[Query]
    #: relation name -> column names, for relations SQL texts mention
    columns: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: extra in-memory databases (the generated ad-hoc cases)
    side_databases: Dict[str, Dict[str, Bag]] = field(
        default_factory=dict)
    #: the relation whose dedup is the set-up's "first trivial query"
    #: and the pair the kernel probes of the traced run operate on
    probe: Tuple[str, str] = ("X", "Y")


# ----------------------------------------------------------------------
# Query shapes (E20 / E22 / E26 / E14 / E04 of EXPERIMENTS.md)
# ----------------------------------------------------------------------

def _swap() -> Lam:
    return Lam("t", Tupling(Attribute(Var("t"), 2),
                            Attribute(Var("t"), 1)))


def symdiff_chain(depth: int, left: str = "X",
                  right: str = "Y") -> Expr:
    """``eps((X - Y) (+) (Y - X))`` iterated (E20/E26 headline)."""
    x, y = var(left), var(right)
    for _ in range(depth):
        x = Dedup(AdditiveUnion(Subtraction(x, y), Subtraction(y, x)))
    return x


def scale_cascade(depth: int) -> Expr:
    """``X (+) X`` doubled ``depth`` times (E26)."""
    x = var("X")
    for _ in range(depth):
        x = AdditiveUnion(x, x)
    return x


def union_dedup_cascade(levels: int, relations: int) -> Expr:
    """``eps(acc (+) A_j)`` iterated (E26)."""
    x = var("A0")
    for level in range(levels):
        x = Dedup(AdditiveUnion(
            x, var(f"A{(level % (relations - 1)) + 1}")))
    return x


def intersect_maxunion() -> Expr:
    """``(X n Y) u (X - Y)``: min, monus and max kernels in one
    segment, none of them collapsible into the sym-diff super-kernel."""
    x, y = var("X"), var("Y")
    return MaxUnion(Intersection(x, y), Subtraction(x, y))


def join_core() -> Expr:
    """``sigma_{2=3}(L x R)`` — fused into a hash join (E20/E22)."""
    return Select(Lam("t", Attribute(Var("t"), 2)),
                  Lam("t", Attribute(Var("t"), 3)),
                  Cartesian(var("L"), var("R")))


def dedup_map_chain(depth: int) -> Expr:
    """``eps(MAP_swap(X (+) X))`` iterated (E20 satellite)."""
    x = var("X")
    for _ in range(depth):
        x = Dedup(Map(_swap(), AdditiveUnion(x, x)))
    return x


def select_map(threshold: Any) -> Expr:
    """``MAP_swap(sigma_{1 <= c}(X))``: predicate + Tup rebuild per
    row, no hashing beyond the final seal."""
    selected = Select(Lam("t", Attribute(Var("t"), 1)),
                      Lam("t", Const(threshold)), var("X"), op="le")
    return Map(_swap(), selected)


# ----------------------------------------------------------------------
# Relation synthesis
# ----------------------------------------------------------------------

def _relation(name: str, seed: int, distinct: int, copies: int = 4,
              domain: Optional[int] = None) -> Bag:
    """A duplicate-rich 2-ary integer multigraph: ``distinct`` edges,
    ``copies`` x that many rows, zipfian multiplicities."""
    spec = RelationSpec(name, rows=distinct * copies, arity=2,
                        distinct=distinct, domain=domain,
                        skew="zipfian")
    return synthesize_bag(spec, seed)


def _group_domain(distinct: int) -> int:
    """Column width making the tuple space ~2.2x ``distinct``: every
    first attribute then owns a few dozen tuples, so nest has groups
    to build and selections on one attribute keep real rows."""
    width = 2
    while width * width < 2.2 * distinct:
        width += 1
    return width


#: Column width of the chain relations: a tuple space so much larger
#: than any relation that two independent draws (almost) never share
#: a tuple, which leaves every overlap to :func:`_overlapping_pair`.
_SPARSE_DOMAIN = 4000


def _overlapping_pair(seed: int, distinct: int) -> Dict[str, Bag]:
    """``X`` and ``Y``, sharing exactly half of their distinct tuples.

    Monus, intersection and the sym-diff sweep do work proportional to
    the overlap; left to chance it moves by several percent from seed
    to seed and the timings with it.  ``Y`` takes ``X``'s tuple of
    rank ``i + 1`` at each even rank ``i`` (neighbouring zipfian ranks
    carry different multiplicities, so both monus branches stay
    non-trivial) and keeps its own tuple at each odd rank."""
    x = _relation("X", seed, distinct, domain=_SPARSE_DOMAIN)
    y = _relation("Y", seed, distinct, domain=_SPARSE_DOMAIN)
    x_tuples = list(x.distinct())
    counts = {}
    for rank, (value, count) in enumerate(y.items()):
        if rank % 2 == 0 and rank + 1 < len(x_tuples):
            value = x_tuples[rank + 1]
        counts[value] = count
    return {"X": x, "Y": Bag.from_counts(counts)}


def _chain_relations(seed: int, distinct: int) -> Dict[str, Bag]:
    """The flat chains' inputs: the ``X``/``Y`` pair plus the four
    half-size relations the union-dedup cascade cycles through."""
    relations = _overlapping_pair(seed, distinct)
    for index in range(4):
        name = f"A{index}"
        relations[name] = _relation(name, seed, max(2, distinct // 2),
                                    domain=_SPARSE_DOMAIN)
    return relations


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------

def flat_fused(seed: int, size: Dict[str, int]) -> Inputs:
    relations = _chain_relations(seed, size["distinct"])
    queries = [
        Query("symdiff_chain", "expr", symdiff_chain(3),
              exchange=True),
        Query("scale_cascade", "expr", scale_cascade(6),
              exchange=True),
        Query("union_dedup_cascade", "expr",
              union_dedup_cascade(6, 4), exchange=True),
        Query("intersect_maxunion", "expr", intersect_maxunion(),
              exchange=True),
    ]
    return Inputs(relations, queries)


def join_map(seed: int, size: Dict[str, int]) -> Inputs:
    relations = {
        "L": _relation("L", seed, size["join_distinct"], copies=3,
                       domain=size["join_domain"]),
        "R": _relation("R", seed, size["join_distinct"], copies=3,
                       domain=size["join_domain"]),
        "X": _relation("X", seed, size["distinct"]),
    }
    # the median first attribute: the selection keeps about half of X
    firsts = sorted(value.attribute(1)
                    for value in relations["X"].distinct())
    threshold = firsts[len(firsts) // 2]
    queries = [
        Query("hash_join", "expr", Dedup(join_core()), exchange=True),
        Query("join_project", "expr", project_expr(join_core(), 1, 4),
              exchange=True),
        Query("dedup_map_chain", "expr", dedup_map_chain(3),
              exchange=True),
        Query("select_map", "expr", select_map(threshold),
              exchange=True),
    ]
    return Inputs(relations, queries, probe=("L", "R"))


def _order_pools(size: Dict[str, int]):
    customers = [f"c{index:03d}" for index in range(size["customers"])]
    items = [f"i{index:02d}" for index in range(size["items"])]
    return customers, items


def nested_agg(seed: int, size: Dict[str, int]) -> Inputs:
    d = size["distinct"]
    relations = {name: _relation(name, seed, d,
                                 domain=_group_domain(d))
                 for name in ("X", "Y", "G")}
    # integers-as-bags: pairwise distinct (equal integers would merge
    # into one element and shrink every MAP over V) and with an integer
    # mean, so the powerset selection of average_expr finds a witness
    rng = random.Random(seed * 7919 + 17)
    mean = size["mean"]
    values: List[int] = []
    for delta in rng.sample(range(1, mean), size["integers"] // 2):
        values += [mean - delta, mean + delta]
    relations["V"] = Bag([int_as_bag(value) for value in values])
    customers, items = _order_pools(size)
    relations["orders"] = order_book(size["orders"], seed=seed,
                                     customers=customers, items=items)
    node = relations["G"].an_element().attribute(2)
    queries = [
        Query("nest_unnest", "expr", Unnest(Nest(var("X"), 2), 2)),
        Query("nest_dedup_text", "text", "eps(nest[2](X (+) Y))"),
        Query("count_agg", "sql",
              f"SELECT COUNT(*) FROM orders WHERE item = '{items[1]}'"),
        Query("avg_powerset", "expr", average_expr(var("V"))),
        Query("in_degree", "expr",
              in_degree_greater_expr(var("G"), node)),
    ]
    return Inputs(relations, queries,
                  columns={"orders": ("customer", "item")})


#: Surface-text strata of ``adhoc_text``: (min nodes, max nodes) ->
#: how many distinct generated cases of that size a pass holds.  The
#: quotas pin the total expression size, so parse / plan / execute
#: work is nearly the same for every seed.
_ADHOC_STRATA = {(1, 5): 48, (6, 10): 72, (11, 15): 64, (16, 22): 40,
                 (23, 40): 16}

_SQL_TEMPLATES: Tuple[Callable[[str, str, str], str], ...] = (
    lambda c, d, i: f"SELECT customer, item FROM orders WHERE item = '{i}'",
    lambda c, d, i: f"SELECT DISTINCT customer FROM orders WHERE item = '{i}'",
    lambda c, d, i: f"SELECT COUNT(*) FROM orders WHERE customer = '{c}'",
    lambda c, d, i: ("SELECT o.customer, r.item FROM orders o, returns r "
                     f"WHERE o.customer = r.customer AND r.item = '{i}'"),
    lambda c, d, i: (f"SELECT item FROM orders WHERE customer = '{c}' "
                     f"UNION SELECT item FROM returns WHERE customer = '{d}'"),
    lambda c, d, i: ("SELECT COUNT(*) FROM orders o, returns r "
                     f"WHERE o.item = r.item AND o.customer = '{c}'"),
    lambda c, d, i: (f"SELECT customer, item FROM orders WHERE customer = '{c}' "
                     "EXCEPT ALL SELECT customer, item FROM returns"),
    lambda c, d, i: (f"SELECT item FROM orders WHERE customer = '{c}' "
                     f"INTERSECT ALL SELECT item FROM orders WHERE customer = '{d}'"),
)


def _node_count(expr: Expr) -> int:
    return 1 + sum(_node_count(child) for child in expr.children())


def _adhoc_cases(seed: int, scale: float):
    """Seeded ``testkit.generate`` BALG^1 cases, rejection-sampled
    into the size strata (returned stratum by stratum); a case is kept
    only when it prints, re-parses to itself and the oracle evaluates
    it (no operation may fail)."""
    from repro.engine import evaluate
    quota = {band: max(1, round(count * scale))
             for band, count in _ADHOC_STRATA.items()}
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
    return list(cases.items())


def adhoc_text(seed: int, size: Dict[str, int]) -> Inputs:
    rng = random.Random(seed * 104729 + 5)
    customers, items = _order_pools(size)
    relations = {
        "orders": order_book(size["orders"], seed=seed,
                             customers=customers, items=items),
        "returns": order_book(size["returns"], seed=seed + 1,
                              customers=customers, items=items),
    }
    # one group per surface stratum and per SQL template: a pass holds
    # every distinct text once and a fixed share of each group twice
    groups: List[List[Query]] = []
    side: Dict[str, Dict[str, Bag]] = {}
    for band, cases in _adhoc_cases(seed, size["surface_scale"]):
        group = []
        for text, database in cases:
            number = len(side)
            side[f"case{number}"] = database
            group.append(Query(f"surface{number:03d}", "text", text,
                               database=f"case{number}",
                               use_catalog=False, exchange=False))
        groups.append(group)
    number = 0
    for template in _SQL_TEMPLATES:
        texts: List[str] = []
        while len(texts) < size["sql_per_template"]:
            text = template(rng.choice(customers),
                            rng.choice(customers), rng.choice(items))
            if text not in texts:
                texts.append(text)
        groups.append([Query(f"sql{number + offset:03d}", "sql", text,
                             exchange=False)
                       for offset, text in enumerate(texts)])
        number += len(texts)
    # a session repeats itself: ~40% of a pass are texts seen earlier
    # in the same pass (plan-cache hits), in seeded order
    queries = [query for group in groups for query in group]
    for group in groups:
        queries += rng.sample(group, round(len(group) * size["repeat"]))
    rng.shuffle(queries)
    return Inputs(relations, queries,
                  columns={"orders": ("customer", "item"),
                           "returns": ("customer", "item")},
                  side_databases=side, probe=("orders", "returns"))


def semiring_mix(seed: int, size: Dict[str, int]) -> Inputs:
    relations = _chain_relations(seed, size["distinct"])
    for name in ("L", "R"):
        relations[name] = _relation(name, seed, size["join_distinct"],
                                    copies=3,
                                    domain=size["join_domain"])
    shapes = [("symdiff_chain", symdiff_chain(3)),
              ("union_dedup_cascade", union_dedup_cascade(6, 4)),
              ("hash_join", Dedup(join_core()))]
    queries = [Query(f"{name}.{semiring}", "expr", expr,
                     use_catalog=False, semiring=semiring,
                     exchange=True)
               for semiring in ("bool", "tropical", "provenance")
               for name, expr in shapes]
    return Inputs(relations, queries)


#: name -> builder (BENCHMARK.json says why each one exists)
WORKLOADS: Dict[str, Callable[[int, Dict[str, int]], Inputs]] = {
    "flat_fused": flat_fused, "join_map": join_map,
    "nested_agg": nested_agg, "adhoc_text": adhoc_text,
    "semiring_mix": semiring_mix,
}

#: scale -> workload -> {"run": size, "check": size}.  ``full`` is what
#: BENCHMARK.json measures; ``smoke`` is the self-tests' quick tier
#: (still above the 1024-row exchange threshold at run scale).
SIZES: Dict[str, Dict[str, Dict[str, Dict[str, Any]]]] = {
    "full": {
        "flat_fused": {"run": {"distinct": 8000},
                       "check": {"distinct": 1000}},
        "join_map": {
            "run": {"join_distinct": 1000, "join_domain": 34,
                    "distinct": 4000},
            "check": {"join_distinct": 240, "join_domain": 16,
                      "distinct": 800}},
        "nested_agg": {
            "run": {"distinct": 8000, "integers": 20, "mean": 20,
                    "orders": 4000, "customers": 200, "items": 50},
            "check": {"distinct": 4000, "integers": 14, "mean": 14,
                      "orders": 2000, "customers": 200, "items": 50}},
        "adhoc_text": {
            "run": {"surface_scale": 1.0, "sql_per_template": 8,
                    "repeat": 0.67, "orders": 120, "returns": 24,
                    "customers": 20, "items": 12},
            "check": {"surface_scale": 1.0, "sql_per_template": 8,
                      "repeat": 0.67, "orders": 120, "returns": 24,
                      "customers": 20, "items": 12}},
        "semiring_mix": {
            "run": {"distinct": 1000, "join_distinct": 560,
                    "join_domain": 45},
            "check": {"distinct": 400, "join_distinct": 100,
                      "join_domain": 12}},
    },
    "smoke": {
        "flat_fused": {"run": {"distinct": 800},
                       "check": {"distinct": 150}},
        "join_map": {
            "run": {"join_distinct": 360, "join_domain": 20,
                    "distinct": 700},
            "check": {"join_distinct": 60, "join_domain": 8,
                      "distinct": 120}},
        "nested_agg": {
            "run": {"distinct": 800, "integers": 8, "mean": 8,
                    "orders": 400, "customers": 40, "items": 10},
            "check": {"distinct": 200, "integers": 6, "mean": 6,
                      "orders": 100, "customers": 40, "items": 10}},
        "adhoc_text": {
            "run": {"surface_scale": 0.15, "sql_per_template": 2,
                    "repeat": 0.67, "orders": 60, "returns": 30,
                    "customers": 6, "items": 5},
            "check": {"surface_scale": 0.15, "sql_per_template": 2,
                      "repeat": 0.67, "orders": 60, "returns": 30,
                      "customers": 6, "items": 5}},
        "semiring_mix": {
            "run": {"distinct": 640, "join_distinct": 560,
                    "join_domain": 40},
            "check": {"distinct": 100, "join_distinct": 50,
                      "join_domain": 8}},
    },
}


def build_inputs(workload: str, seed: int, scale: str,
                 tier: str) -> Inputs:
    """Inputs of one workload at ``tier`` (``run`` / ``check``) of
    ``scale`` (``full`` / ``smoke``)."""
    return WORKLOADS[workload](seed, SIZES[scale][workload][tier])
