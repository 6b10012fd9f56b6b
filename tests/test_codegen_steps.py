"""What the emitted source text used to guarantee implicitly.

A fused segment is a list of pre-bound step callables over a
call-local register file; nothing is printed, compiled or ``exec``'d.
Four properties the old source text gave for free are pinned here:

* no ``compile()``/``exec()`` on any engine's path to an answer;
* late binding — a plan already in a :class:`PlanCache` sees a
  ``columnar.c_*`` kernel patched afterwards;
* re-entrancy — one cached :class:`PhysicalPlan` run from many threads
  at once over different databases;
* governance parity — :class:`EngineStats` counters, the governor's
  step total and the ``max_steps``/``max_size`` verdicts of a fixed
  plan list, frozen from the source-emitting compiler (PR 16).
"""

from __future__ import annotations

import builtins
import dataclasses
import sys
import threading

import pytest

import repro.engine.columnar as columnar
from repro.core.bag import Bag, Tup
from repro.core.database import encoding_size
from repro.core.errors import (
    BudgetExceeded, GovernedError, ReproError, UnboundVariableError,
)
from repro.core.derived import average_expr, count_expr, int_as_bag
from repro.core.eval import Evaluator, evaluate as tree_evaluate
from repro.core.expr import (
    AdditiveUnion, Attribute, BagDestroy, Bagging, Cartesian, Const,
    Dedup, Lam, Map, MaxUnion, Powerset, Select, Subtraction, Tupling,
    Var, var,
)
from repro.core.nest import Nest, Unnest
from repro.core.types import TupleType
from repro.engine import (
    EngineStats, PlanCache, evaluate, explain_physical, plan_for,
)
from repro.engine.lower import PhysicalPlan, hoist_invariants
from repro.engine.parallel.partition import clear_segment_cache
from repro.engine.physical import ExecContext
from repro.guard import Limits, ResourceGovernor
from repro.testkit import generate_case
from repro.testkit.differential import DEFAULT_LIMITS
from repro.workloads import random_multigraph, random_relation
from tests.test_columnar import (
    _scale_cascade, _sym_diff_chain, _union_dedup_cascade,
)

X = random_multigraph(10, 300, seed=1)
Y = random_multigraph(10, 300, seed=2)
R = random_relation(40, arity=2, seed=3)
S = random_relation(40, arity=2, seed=4)
DB = {"X": X, "Y": Y, "R": R, "S": S,
      "P": Bag({Tup("a"): 2, Tup("b"): 1}),
      "Q": Bag({Tup("b"): 1, Tup("c"): 1}),
      **{f"A{i}": random_relation(12, arity=2, seed=20 + i)
         for i in range(3)}}

_SHARED = Subtraction(var("X"), var("Y"))
_T = Var("t")
_JOIN = Select(Lam("t", Attribute(_T, 2)), Lam("t", Attribute(_T, 3)),
               Cartesian(var("R"), var("S")))

#: name -> expression; the governance-parity plan list
PLANS = {
    "sym-diff-chain": _sym_diff_chain(3),
    "scale-cascade": _scale_cascade(4),
    "union-dedup-cascade": _union_dedup_cascade(6),
    "hash-join": _JOIN,
    "select-map-chain": Map(
        Lam("t", Tupling(Attribute(_T, 2), Attribute(_T, 1))),
        Select(Lam("t", Attribute(_T, 1)), Lam("t", Attribute(_T, 2)),
               AdditiveUnion(var("X"), var("Y")))),
    "shared-subexpression": AdditiveUnion(
        Subtraction(_SHARED, var("Y")), Subtraction(var("Y"), _SHARED)),
    "barrier-leaf": AdditiveUnion(Powerset(var("P")),
                                  Powerset(var("Q"))),
    # pi over a join / a product: one fused step since PR 19, which
    # must count, tick and size as the two steps did
    "join-project": Map(
        Lam("t", Tupling(Attribute(_T, 1), Attribute(_T, 4))), _JOIN),
    "product-project": Map(
        Lam("t", Tupling(Attribute(_T, 4), Attribute(_T, 1))),
        Cartesian(var("A0"), var("A1"))),
    "dedup-join-project": Dedup(Map(
        Lam("t", Tupling(Attribute(_T, 4), Attribute(_T, 4),
                         Attribute(_T, 1))), _JOIN)),
    # eps over a join / a product (and over pi on a product): one
    # fused step that multiplies no count, which must count, tick and
    # size as the separate steps did
    "dedup-join": Dedup(_JOIN),
    "dedup-product": Dedup(Cartesian(var("A0"), var("A1"))),
    "dedup-product-project": Dedup(Map(
        Lam("t", Tupling(Attribute(_T, 4), Attribute(_T, 1))),
        Cartesian(var("A0"), var("A1")))),
}

#: the plans the fused join-dedup step runs
_DEDUP_PLANS = ("dedup-join", "dedup-product", "dedup-join-project",
                "dedup-product-project")


def _verdict(expr, semiring, limits, engine):
    """``(subtype, details)`` of the governed failure."""
    with pytest.raises(BudgetExceeded) as info:
        evaluate(expr, DB, cache=None, semiring=semiring, limits=limits,
                 **engine)
    return type(info.value).__name__, info.value.details


def observe(name, semiring, engine=None):
    """Everything one governed run of a plan lets us count (on
    ``codegen`` unless ``engine`` gives other ``evaluate`` options):
    ``(fused_segments, kernel counts, rows_emitted,
    shared_materialized, shared_reused, barrier_fallbacks, governor
    steps, size observed under max_size=5)``."""
    expr = PLANS[name]
    engine = engine or {"engine": "codegen"}
    stats = EngineStats()
    governor = ResourceGovernor(Limits(max_steps=1 << 30))
    evaluate(expr, DB, cache=None, stats=stats, governor=governor,
             semiring=semiring, **engine)
    steps = governor.steps
    # one step short of the total: the budget fires inside execution,
    # past every planner tick
    assert _verdict(expr, semiring, Limits(max_steps=steps - 1),
                    engine) == (
        "BudgetExceeded",
        {"budget": "steps", "limit": steps - 1, "observed": steps})
    subtype, details = _verdict(expr, semiring, Limits(max_size=5),
                                engine)
    assert (subtype, details["budget"], details["limit"]) == (
        "BudgetExceeded", "size", 5)
    return (stats.fused_segments,
            " ".join(f"{kernel}:{count}" for kernel, count
                     in sorted(stats.kernel_counts.items())),
            stats.rows_emitted, stats.shared_materialized,
            stats.shared_reused, stats.barrier_fallbacks, steps,
            details["observed"])


#: ``observe`` of every plan, recorded at PR 16 (segments were emitted
#: source run through ``compile()``/``exec``); steps must count alike.
#: The step column includes the planner's governor tick per pass of its
#: one rewrite fixpoint.
FROZEN = {
    ("sym-diff-chain", "nat"):
        (3, "scan:4 sym-diff-dedup:3", 658, 2, 0, 0, 11, 271),
    ("sym-diff-chain", "bool"):
        (3, "scan:4 sym-diff-dedup:3", 495, 2, 0, 0, 11, 25),
    ("scale-cascade", "nat"):
        (1, "scale:1 scan:1", 194, 0, 0, 0, 4, 14401),
    ("scale-cascade", "bool"): (1, "scan:1", 97, 0, 0, 0, 3, 292),
    ("union-dedup-cascade", "nat"):
        (1, "additive-union:1 dedup:1 dedup-union:5 scan:7", 1387, 0, 0,
         0, 17, 319),
    ("union-dedup-cascade", "bool"):
        (1, "additive-union:1 dedup:1 dedup-union:5 scan:7", 1387, 0, 0,
         0, 17, 319),
    ("hash-join", "nat"):
        (1, "hash-join:1 scan:2", 17603, 0, 0, 0, 157, 80006),
    ("hash-join", "bool"):
        (1, "hash-join:1 scan:2", 17603, 0, 0, 0, 157, 80006),
    ("select-map-chain", "nat"):
        (1, "additive-union:1 map:1 scan:2 select:2", 252, 0, 0, 0, 9,
         157),
    ("select-map-chain", "bool"):
        (1, "additive-union:1 map:1 scan:2 select:2", 252, 0, 0, 0, 9,
         31),
    ("shared-subexpression", "nat"):
        (2, "additive-union:1 monus:3 scan:4", 605, 1, 1, 0, 11, 322),
    ("shared-subexpression", "bool"):
        (2, "additive-union:1 monus:3 scan:4", 587, 1, 1, 0, 11, 16),
    ("barrier-leaf", "nat"):
        (1, "additive-union:1 powerset:2 scan:2", 18, 0, 0, 2, 7, 13),
    ("barrier-leaf", "bool"):
        (1, "additive-union:1 powerset:2 scan:2", 18, 0, 0, 2, 7, 13),
    # recorded at PR 18, where the join and the map were two steps
    ("join-project", "nat"):
        (1, "hash-join:1 map:1 scan:2", 33604, 0, 0, 0, 283, 48004),
    ("join-project", "bool"):
        (1, "hash-join:1 map:1 scan:2", 33604, 0, 0, 0, 283, 4801),
    ("product-project", "nat"):
        (1, "map:1 nested-loop-product:1 scan:2", 10939, 0, 0, 0, 95,
         16189),
    ("product-project", "bool"):
        (1, "map:1 nested-loop-product:1 scan:2", 10939, 0, 0, 0, 95,
         433),
    ("dedup-join-project", "nat"):
        (1, "dedup:1 hash-join:1 map:1 scan:2", 35204, 0, 0, 0, 296,
         6401),
    ("dedup-join-project", "bool"):
        (1, "dedup:1 hash-join:1 map:1 scan:2", 35204, 0, 0, 0, 296,
         6401),
    # recorded where the pair kernel and the dedup were two steps
    ("dedup-join", "nat"):
        (1, "dedup:1 hash-join:1 scan:2", 33604, 0, 0, 0,
         283, 80006),
    ("dedup-join", "bool"):
        (1, "dedup:1 hash-join:1 scan:2", 33604, 0, 0, 0,
         283, 80006),
    ("dedup-product", "nat"):
        (1, "dedup:1 nested-loop-product:1 scan:2", 10939, 0, 0, 0,
         95, 26981),
    ("dedup-product", "bool"):
        (1, "dedup:1 nested-loop-product:1 scan:2", 10939, 0, 0, 0,
         95, 26981),
    ("dedup-product-project", "nat"):
        (1, "dedup:1 map:1 nested-loop-product:1 scan:2", 11083, 0, 0, 0,
         97, 433),
    ("dedup-product-project", "bool"):
        (1, "dedup:1 map:1 nested-loop-product:1 scan:2", 11083, 0, 0, 0,
         97, 433),
}


@pytest.mark.parametrize("name, semiring", sorted(FROZEN))
def test_governance_parity(name, semiring):
    assert observe(name, semiring) == FROZEN[name, semiring]


# ----------------------------------------------------------------------
# Verdicts raised from inside the fused join-project step
# ----------------------------------------------------------------------

class _SteppingClock:
    """A clock that advances one second per reading: a deadline then
    trips after a fixed number of governed steps, on any machine."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


#: plan -> limit kind -> a governor that stops the plan inside the
#: quadratic kernel (steps, deadline: both scans recorded, the join or
#: product not yet) or at the size check on the projected dict
_MID_KERNEL = {
    "join-project": {
        "steps": lambda: ResourceGovernor(Limits(max_steps=22)),
        "deadline": lambda: ResourceGovernor(
            Limits(timeout=44.0), clock=_SteppingClock()),
        "size": lambda: ResourceGovernor(Limits(max_size=400)),
        # past the join's epilogue, inside the map's
        "steps-in-the-map-epilogue": lambda: ResourceGovernor(
            Limits(max_steps=200)),
    },
    "product-project": {
        "steps": lambda: ResourceGovernor(Limits(max_steps=6)),
        "deadline": lambda: ResourceGovernor(
            Limits(timeout=12.0), clock=_SteppingClock()),
        "size": lambda: ResourceGovernor(Limits(max_size=400)),
    },
    "dedup-join": {
        "steps": lambda: ResourceGovernor(Limits(max_steps=22)),
        "deadline": lambda: ResourceGovernor(
            Limits(timeout=44.0), clock=_SteppingClock()),
        "size": lambda: ResourceGovernor(Limits(max_size=400)),
        # inside the join's epilogue, then inside the dedup's
        "steps-in-the-join-epilogue": lambda: ResourceGovernor(
            Limits(max_steps=60)),
        "steps-in-the-dedup-epilogue": lambda: ResourceGovernor(
            Limits(max_steps=200)),
    },
    "dedup-product": {
        "steps": lambda: ResourceGovernor(Limits(max_steps=6)),
        "deadline": lambda: ResourceGovernor(
            Limits(timeout=12.0), clock=_SteppingClock()),
        "size": lambda: ResourceGovernor(Limits(max_size=400)),
        "steps-in-the-join-epilogue": lambda: ResourceGovernor(
            Limits(max_steps=10)),
        "steps-in-the-dedup-epilogue": lambda: ResourceGovernor(
            Limits(max_steps=60)),
    },
}


def mid_kernel_verdict(name, semiring, kind, engine=None):
    """``(subtype, details, partial EvalStats, kernels recorded)`` of
    the governed failure (on ``codegen`` unless ``engine`` gives other
    ``evaluate`` options)."""
    stats = EngineStats()
    with pytest.raises(GovernedError) as info:
        evaluate(PLANS[name], DB, cache=None, stats=stats,
                 governor=_MID_KERNEL[name][kind](), semiring=semiring,
                 **(engine or {"engine": "codegen"}))
    error = info.value
    return (type(error).__name__,
            " ".join(f"{key}={value}" for key, value
                     in sorted(error.details.items())),
            dataclasses.astuple(error.stats),
            " ".join(f"{kernel}:{count}" for kernel, count
                     in sorted(stats.kernel_counts.items())))


#: ``mid_kernel_verdict`` at PR 18 (two steps, joined rows built)
FROZEN_VERDICTS = {
    ("join-project", "nat", "steps"):
        ("BudgetExceeded", "budget=steps limit=22 observed=23",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("join-project", "nat", "deadline"):
        ("DeadlineExceeded", "steps=24 timeout=44.0",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("join-project", "nat", "size"):
        ("BudgetExceeded", "budget=size limit=400 observed=48004",
         ({}, 0, 0, 0, 0), "hash-join:1 map:1 scan:2"),
    ("join-project", "nat", "steps-in-the-map-epilogue"):
        ("BudgetExceeded", "budget=steps limit=200 observed=201",
         ({}, 0, 0, 0, 0), "hash-join:1 map:1 scan:2"),
    ("join-project", "provenance", "steps"):
        ("BudgetExceeded", "budget=steps limit=22 observed=23",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("join-project", "provenance", "deadline"):
        ("DeadlineExceeded", "steps=24 timeout=44.0",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("join-project", "provenance", "size"):
        ("BudgetExceeded", "budget=size limit=400 observed=4801",
         ({}, 0, 0, 0, 0), "hash-join:1 map:1 scan:2"),
    ("join-project", "provenance", "steps-in-the-map-epilogue"):
        ("BudgetExceeded", "budget=steps limit=200 observed=201",
         ({}, 0, 0, 0, 0), "hash-join:1 map:1 scan:2"),
    ("product-project", "nat", "steps"):
        ("BudgetExceeded", "budget=steps limit=6 observed=7",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("product-project", "nat", "deadline"):
        ("DeadlineExceeded", "steps=8 timeout=12.0",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("product-project", "nat", "size"):
        ("BudgetExceeded", "budget=size limit=400 observed=16189",
         ({}, 0, 0, 0, 0), "map:1 nested-loop-product:1 scan:2"),
    ("product-project", "provenance", "steps"):
        ("BudgetExceeded", "budget=steps limit=6 observed=7",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("product-project", "provenance", "deadline"):
        ("DeadlineExceeded", "steps=8 timeout=12.0",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("product-project", "provenance", "size"):
        ("BudgetExceeded", "budget=size limit=400 observed=433",
         ({}, 0, 0, 0, 0), "map:1 nested-loop-product:1 scan:2"),
    # recorded where the pair kernel and the dedup were two steps
    ("dedup-join", "nat", "steps"):
        ("BudgetExceeded", "budget=steps limit=22 observed=23",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("dedup-join", "nat", "deadline"):
        ("DeadlineExceeded", "steps=24 timeout=44.0",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("dedup-join", "nat", "size"):
        ("BudgetExceeded", "budget=size limit=400 observed=80006",
         ({}, 0, 0, 0, 0), "dedup:1 hash-join:1 scan:2"),
    ("dedup-join", "nat", "steps-in-the-join-epilogue"):
        ("BudgetExceeded", "budget=steps limit=60 observed=61",
         ({}, 0, 0, 0, 0), "hash-join:1 scan:2"),
    ("dedup-join", "nat", "steps-in-the-dedup-epilogue"):
        ("BudgetExceeded", "budget=steps limit=200 observed=201",
         ({}, 0, 0, 0, 0), "dedup:1 hash-join:1 scan:2"),
    ("dedup-join", "provenance", "steps"):
        ("BudgetExceeded", "budget=steps limit=22 observed=23",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("dedup-join", "provenance", "deadline"):
        ("DeadlineExceeded", "steps=24 timeout=44.0",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("dedup-join", "provenance", "size"):
        ("BudgetExceeded", "budget=size limit=400 observed=80006",
         ({}, 0, 0, 0, 0), "dedup:1 hash-join:1 scan:2"),
    ("dedup-join", "provenance", "steps-in-the-join-epilogue"):
        ("BudgetExceeded", "budget=steps limit=60 observed=61",
         ({}, 0, 0, 0, 0), "hash-join:1 scan:2"),
    ("dedup-join", "provenance", "steps-in-the-dedup-epilogue"):
        ("BudgetExceeded", "budget=steps limit=200 observed=201",
         ({}, 0, 0, 0, 0), "dedup:1 hash-join:1 scan:2"),
    ("dedup-product", "nat", "steps"):
        ("BudgetExceeded", "budget=steps limit=6 observed=7",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("dedup-product", "nat", "deadline"):
        ("DeadlineExceeded", "steps=8 timeout=12.0",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("dedup-product", "nat", "size"):
        ("BudgetExceeded", "budget=size limit=400 observed=26981",
         ({}, 0, 0, 0, 0), "dedup:1 nested-loop-product:1 scan:2"),
    ("dedup-product", "nat", "steps-in-the-join-epilogue"):
        ("BudgetExceeded", "budget=steps limit=10 observed=11",
         ({}, 0, 0, 0, 0), "nested-loop-product:1 scan:2"),
    ("dedup-product", "nat", "steps-in-the-dedup-epilogue"):
        ("BudgetExceeded", "budget=steps limit=60 observed=61",
         ({}, 0, 0, 0, 0), "dedup:1 nested-loop-product:1 scan:2"),
    ("dedup-product", "provenance", "steps"):
        ("BudgetExceeded", "budget=steps limit=6 observed=7",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("dedup-product", "provenance", "deadline"):
        ("DeadlineExceeded", "steps=8 timeout=12.0",
         ({}, 0, 0, 0, 0), "scan:2"),
    ("dedup-product", "provenance", "size"):
        ("BudgetExceeded", "budget=size limit=400 observed=26981",
         ({}, 0, 0, 0, 0), "dedup:1 nested-loop-product:1 scan:2"),
    ("dedup-product", "provenance", "steps-in-the-join-epilogue"):
        ("BudgetExceeded", "budget=steps limit=10 observed=11",
         ({}, 0, 0, 0, 0), "nested-loop-product:1 scan:2"),
    ("dedup-product", "provenance", "steps-in-the-dedup-epilogue"):
        ("BudgetExceeded", "budget=steps limit=60 observed=61",
         ({}, 0, 0, 0, 0), "dedup:1 nested-loop-product:1 scan:2"),
}


@pytest.mark.parametrize("name, semiring, kind", sorted(FROZEN_VERDICTS))
def test_verdicts_from_inside_the_fused_join_project_step(
        name, semiring, kind):
    assert (mid_kernel_verdict(name, semiring, kind)
            == FROZEN_VERDICTS[name, semiring, kind])


#: the parallel engines at their default threshold, which shard these
#: plans' joins and products
_PARALLEL = {
    "thread": {"engine": "parallel", "workers": 2,
               "parallel_backend": "thread"},
    "process": {"engine": "parallel", "workers": 2,
                "parallel_backend": "process"},
}


def parallel_observe(name, semiring, options):
    """What a parallel run counts whatever the shards' interleaving:
    ``(fused_segments, kernel counts, rows_emitted,
    barrier_fallbacks)`` of one run, then ``(subtype, budget, limit)``
    of each ``_MID_KERNEL`` verdict (the observed steps, size and
    clock reading depend on which shard gets there first)."""
    stats = EngineStats()
    evaluate(PLANS[name], DB, cache=None, stats=stats,
             semiring=semiring, **options)
    verdicts = []
    for kind in _MID_KERNEL.get(name, ()):
        with pytest.raises(GovernedError) as info:
            evaluate(PLANS[name], DB, cache=None,
                     governor=_MID_KERNEL[name][kind](),
                     semiring=semiring, **options)
        details = info.value.details
        verdicts.append((type(info.value).__name__,
                         details.get("budget"), details.get("limit")))
    return (stats.fused_segments,
            " ".join(f"{kernel}:{count}" for kernel, count
                     in sorted(stats.kernel_counts.items())),
            stats.rows_emitted, stats.barrier_fallbacks, verdicts)


_DEDUP_JOIN_VERDICTS = [("BudgetExceeded", "steps", 22),
                        ("DeadlineExceeded", None, None),
                        ("BudgetExceeded", "size", 400),
                        ("BudgetExceeded", "steps", 60),
                        ("BudgetExceeded", "steps", 200)]
_DEDUP_PRODUCT_VERDICTS = [("BudgetExceeded", "steps", 6),
                           ("DeadlineExceeded", None, None),
                           ("BudgetExceeded", "size", 400),
                           ("BudgetExceeded", "steps", 10),
                           ("BudgetExceeded", "steps", 60)]

#: ``parallel_observe`` of the dedup plans, recorded on both backends
#: where the pair kernel and the dedup were two steps
FROZEN_PARALLEL = {
    "dedup-join": (5, "dedup:4 exchange:1 hash-join:4 scan:10", 51207,
                   0, _DEDUP_JOIN_VERDICTS),
    "dedup-product": (5, "dedup:4 exchange:1 nested-loop-product:1 "
                         "scan:6", 21731, 0, _DEDUP_PRODUCT_VERDICTS),
    "dedup-join-project": (9, "dedup:4 exchange:2 hash-join:4 map:4 "
                              "scan:14", 41606, 0, []),
    "dedup-product-project": (2, "dedup:1 exchange:1 map:1 "
                                 "nested-loop-product:1 scan:3", 11371,
                              0, []),
}


@pytest.mark.parametrize("name", _DEDUP_PLANS)
def test_the_fused_join_dedup_step_governs_alike_on_every_engine(name):
    # physical runs codegen's one segment: everything must match
    for (plan, semiring), frozen in FROZEN.items():
        if plan == name:
            assert observe(name, semiring,
                           {"engine": "physical"}) == frozen
    for (plan, semiring, kind), frozen in FROZEN_VERDICTS.items():
        if plan == name:
            assert mid_kernel_verdict(name, semiring, kind,
                                      {"engine": "physical"}) == frozen
    # the shards run it too, on either backend
    for options in _PARALLEL.values():
        for semiring in ("nat", "provenance"):
            assert parallel_observe(name, semiring, options) \
                == FROZEN_PARALLEL[name]


# ----------------------------------------------------------------------
# No compile(), no exec()
# ----------------------------------------------------------------------

_ENGINES = {
    "physical": {"engine": "physical"},
    "codegen": {"engine": "codegen"},
    "parallel": {"engine": "parallel", "workers": 2,
                 "parallel_threshold": 0.0, "min_morsel_rows": 1},
}


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize("name, semiring", [
    ("sym-diff-chain", None), ("hash-join", None),
    ("barrier-leaf", None), ("shared-subexpression", "provenance")])
def test_no_engine_compiles_or_execs(monkeypatch, engine, name,
                                     semiring):
    options = dict(_ENGINES[engine], cache=None, semiring=semiring)
    # first run: lazy imports (which do exec) happen unpatched
    expected = evaluate(PLANS[name], DB, **options)
    assert expected == tree_evaluate(PLANS[name], DB, semiring=semiring)

    def forbidden(*args, **kwargs):
        raise AssertionError("generated text reached the compiler")

    clear_segment_cache()  # the exchange compiles its shard program
    # undone before pytest reports a failure (it compiles to do so)
    with monkeypatch.context() as patched:
        patched.setattr(builtins, "compile", forbidden)
        patched.setattr(builtins, "exec", forbidden)
        answer = evaluate(PLANS[name], DB, **options)
    assert answer == expected


# ----------------------------------------------------------------------
# Late binding under a cached plan
# ----------------------------------------------------------------------

def test_cached_plan_sees_a_kernel_patched_afterwards(monkeypatch):
    cache, stats = PlanCache(capacity=4), EngineStats()
    expr = PLANS["shared-subexpression"]
    honest = evaluate(expr, DB, engine="codegen", cache=cache,
                      stats=stats)
    calls = []

    def monus_keeping_everything(left, right):
        calls.append(len(left))
        return dict(left)

    monkeypatch.setattr(columnar, "c_monus", monus_keeping_everything)
    mutant = evaluate(expr, DB, engine="codegen", cache=cache,
                      stats=stats)
    assert (stats.cache_misses, stats.cache_hits) == (1, 1)
    assert len(calls) == 3
    assert mutant != honest


# ----------------------------------------------------------------------
# One cached plan, many threads
# ----------------------------------------------------------------------

def test_one_plan_runs_from_eight_threads_at_once():
    # the in-place dedup-union and the memoised shared segment are the
    # two places a register file shared between calls would corrupt
    expr = AdditiveUnion(
        _union_dedup_cascade(6),
        Dedup(AdditiveUnion(Subtraction(_SHARED, var("Y")),
                            Subtraction(var("Y"), _SHARED))))
    databases = [
        {"X": random_multigraph(10, 300, seed=100 + i),
         "Y": random_multigraph(10, 300, seed=200 + i),
         **{f"A{k}": random_multigraph(10, 120, seed=10 * i + k)
            for k in range(3)}}
        for i in range(8)]
    expected = [tree_evaluate(expr, db) for db in databases]
    plan = plan_for(expr, databases[0], engine="codegen")
    assert isinstance(plan, PhysicalPlan) and len(plan.segments) > 1
    wrong, errors = [], []

    def worker(index):
        try:
            for _ in range(25):
                ctx = ExecContext(databases[index],
                                  Evaluator(track_stats=False))
                if plan.execute(ctx) != expected[index]:
                    wrong.append(index)
        except Exception as error:  # surfaced below, not swallowed
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not wrong


if __name__ == "__main__":  # regenerate FROZEN* (run at the parent)
    for name in PLANS:
        for sr in ("nat", "bool"):
            print(f"    ({name!r}, {sr!r}): {observe(name, sr)!r},")
    for name, kinds in _MID_KERNEL.items():
        for sr in ("nat", "provenance"):
            for kind in kinds:
                print(f"    ({name!r}, {sr!r}, {kind!r}):\n        "
                      f"{mid_kernel_verdict(name, sr, kind)!r},")


# ----------------------------------------------------------------------
# Steps with no columnar twin: nest, unnest, flatten, powerset, oracle
# ----------------------------------------------------------------------

def _barrier_exprs(name, arity):
    """One expression per twin-less step, over relation ``name``."""
    rel = var(name)
    boxed = Map(Lam("t", Bagging(_T)), rel)      # {{ {{t}} : t in R }}
    return {
        "nest": Nest(rel, arity),
        "unnest": Unnest(Nest(rel, arity), arity),
        "flatten": BagDestroy(boxed),
        "powerset": Powerset(rel),
        # Bagging is object-typed: lowering hands it to the oracle
        "oracle": Bagging(rel),
    }


#: position -> how the barrier expression ``x`` sits in the plan
_POSITIONS = {
    "root": lambda x: x,
    "under-a-fused-parent": lambda x: Dedup(AdditiveUnion(x, x)),
    "shared-by-two-parents": lambda x: AdditiveUnion(
        Dedup(x), MaxUnion(x, Dedup(x))),
}

_BARRIER_ENGINES = {
    "physical": {"engine": "physical"},
    "parallel-thread": {"engine": "parallel", "workers": 2,
                        "parallel_threshold": 0.0, "min_morsel_rows": 1},
}


def _generated_relations(wanted):
    """``(case, relation name, arity)`` for the first ``wanted``
    generated databases holding a relation of arity >= 2."""
    found = []
    for index in range(200):
        case = generate_case(18, index, fragment="balg1")
        for name in sorted(case.database):
            element = getattr(case.schema[name], "element", None)
            if (isinstance(element, TupleType) and element.arity >= 2
                    and not case.database[name].is_empty()):
                found.append((case, name, element.arity))
                break
        if len(found) == wanted:
            return found
    raise AssertionError("the generator ran dry")


def _outcome(expr, database, semiring, **options):
    try:
        return evaluate(expr, database, semiring=semiring, cache=None,
                        limits=DEFAULT_LIMITS, **options)
    except ReproError as error:
        return type(error)


@pytest.mark.parametrize("semiring",
                         ["nat", "bool", "tropical", "provenance"])
@pytest.mark.parametrize("position", sorted(_POSITIONS))
def test_barrier_steps_agree_with_the_tree_walker(position, semiring):
    for case, name, arity in _generated_relations(6):
        for step, barrier in _barrier_exprs(name, arity).items():
            expr = _POSITIONS[position](barrier)
            expected = _outcome(expr, case.database, semiring,
                                engine="tree")
            for engine, options in _BARRIER_ENGINES.items():
                got = _outcome(expr, case.database, semiring, **options)
                assert got == expected, (step, engine, case.label())


def test_a_shared_barrier_runs_once_and_counts_per_step():
    case, name, arity = _generated_relations(1)[0]
    expr = _POSITIONS["shared-by-two-parents"](Nest(var(name), arity))
    stats = EngineStats()
    evaluate(expr, case.database, cache=None, stats=stats)
    assert stats.kernel_counts["nest-build"] == 1
    assert stats.barrier_fallbacks == 1
    assert (stats.shared_materialized, stats.shared_reused) == (2, 2)
    # nested barriers are one step each, not one fallback per subtree
    stats = EngineStats()
    evaluate(Unnest(Nest(var(name), arity), arity), case.database,
             cache=None, stats=stats)
    assert stats.barrier_fallbacks == 2 and stats.fused_segments == 1


def test_a_root_oracle_hands_back_a_non_bag_value_as_is():
    expr = Tupling(Const("a"), Const("b"))
    stats = EngineStats()
    assert evaluate(expr, {}, cache=None, stats=stats) == Tup("a", "b")
    assert stats.oracle_fallbacks == 1 and stats.fused_segments == 1
    # ... but not from bag position
    with pytest.raises(UnboundVariableError, match="bag position"):
        ExecContext({}, Evaluator(track_stats=False)).collect(
            plan_for(expr, {}).root)


def _governed(expr, database, stats=None, **options):
    with pytest.raises(GovernedError) as info:
        evaluate(expr, database, cache=None, stats=stats, opt_level=0,
                 **options)
    return type(info.value), info.value.details


@pytest.mark.parametrize("options", sorted(_BARRIER_ENGINES))
def test_verdicts_from_inside_a_barrier_step_are_the_tree_walkers(
        options):
    options = _BARRIER_ENGINES[options]
    relation = Bag([Tup(i % 3, i) for i in range(8)])
    database = {"R": relation}

    # powerset budget: checked before the first subbag, by the kernel
    expr = Dedup(Powerset(var("R")))
    assert _governed(expr, database, powerset_budget=200, **options) \
        == _governed(expr, database, powerset_budget=200, engine="tree") \
        == (BudgetExceeded, {"budget": "powerset", "limit": 200,
                             "observed": 256})

    # steps: the third tick is the nest step's epilogue
    expr = Unnest(Nest(var("R"), 2), 2)
    stats = EngineStats()
    limits = Limits(max_steps=2)
    assert _governed(expr, database, stats, limits=limits,
                     engine="physical") \
        == _governed(expr, database, limits=limits, engine="tree") \
        == (BudgetExceeded, {"budget": "steps", "limit": 2,
                             "observed": 3})
    assert stats.kernel_counts == {"scan": 1, "nest-build": 1}

    # size: the input fits, the powerset the step materialises does not
    expr = Powerset(var("R"))
    limits = Limits(max_size=encoding_size(relation))
    verdict = _governed(expr, database, limits=limits, **options)
    assert verdict == _governed(expr, database, limits=limits,
                                engine="tree")
    assert verdict[1]["budget"] == "size"
    assert verdict[1]["observed"] == encoding_size(
        tree_evaluate(expr, database))


# ----------------------------------------------------------------------
# Lambda-invariant sub-terms: evaluated once per step, lazily
# ----------------------------------------------------------------------

_C = Var("c")
_HOIST_DB = {
    "R": Bag([Tup(i % 3, i) for i in range(8)]),
    "S": Bag([Tup(i, i, i) for i in range(3)]),
    "N": Bag([Tup("g", Bag([Tup(i), Tup(i + 1)])) for i in range(4)]),
    "V": Bag([Tup(i) for i in range(12)]),
    "E": Bag(),
}
_HOIST_ENGINES = {
    "physical": {"engine": "physical"},
    "opt0": {"engine": "physical", "opt_level": 0},
    "codegen": {"engine": "codegen"},
    **_BARRIER_ENGINES,
}


def _deep_union(depth):
    expr = var("R")
    for _ in range(depth):
        expr = AdditiveUnion(expr, var("R"))
    return expr


#: name -> (a closed sub-term that fails, the limits it fails under)
_FAILING_TERMS = {
    "unbound": (AdditiveUnion(var("nope"), var("R")), {}),
    "ill-typed": (AdditiveUnion(var("R"), var("S")), {}),
    "powerset-budget": (Powerset(var("V")), {"powerset_budget": 100}),
    "step-budget": (_deep_union(40), {"limits": Limits(max_steps=30)}),
}

#: operator -> the expression holding ``term`` in an uncompiled lambda
_HOSTS = {
    "select": lambda term, operand: Select(
        Lam("c", Tupling(Attribute(_C, 1), term)),
        Lam("c", Tupling(Attribute(_C, 2), term)), operand),
    "map": lambda term, operand: Map(
        Lam("c", Tupling(Attribute(_C, 1), term)), operand),
}


def _verdict_of(run):
    """The bag, or ``(subtype, message, details)`` of the typed
    error."""
    try:
        return run()
    except ReproError as error:
        return (type(error), str(error),
                getattr(error, "details", None))


@pytest.mark.parametrize("engine", sorted(_HOIST_ENGINES))
@pytest.mark.parametrize("operand", ["E", "R"])
@pytest.mark.parametrize("host", sorted(_HOSTS))
@pytest.mark.parametrize("term", sorted(_FAILING_TERMS))
def test_a_failing_invariant_fails_as_the_tree_walker_does(
        term, host, operand, engine):
    closed, limits = _FAILING_TERMS[term]
    expr = _HOSTS[host](closed, var(operand))
    expected = _verdict_of(lambda: evaluate(
        expr, _HOIST_DB, engine="tree", **limits))
    got = _verdict_of(lambda: evaluate(
        expr, _HOIST_DB, cache=None, **limits,
        **_HOIST_ENGINES[engine]))
    assert got == expected
    if term == "unbound":
        # the entry point names a missing relation before any row
        assert expected[0] is UnboundVariableError
    elif operand == "E":
        assert expected == Bag()  # no row, so nothing is evaluated
    else:
        assert isinstance(expected, tuple)


@pytest.mark.parametrize("host", sorted(_HOSTS))
def test_an_invariant_meets_its_unbound_variable_on_the_first_row(host):
    """Past the entry point's check (a plan run over bindings that
    lack the relation): the step raises what the walker's own lookup
    raises, and only once there is a row."""
    closed, _ = _FAILING_TERMS["unbound"]
    for operand, raises in (("E", False), ("R", True)):
        expr = _HOSTS[host](closed, var(operand))
        plan = plan_for(expr, dict(_HOIST_DB, nope=Bag()))

        def walker():
            return Evaluator().eval(expr, (_HOIST_DB, None))

        def engine():
            return plan.execute(ExecContext(
                _HOIST_DB, Evaluator(track_stats=False)))

        assert _verdict_of(engine) == _verdict_of(walker)
        assert isinstance(_verdict_of(walker), tuple) is raises


_D = Var("d")
_COUNT_V = count_expr(var("V"))
_INNER_CLOSED = Map(Lam("d", Tupling(Attribute(_D, 1))), var("V"))

#: name -> (the lambda over a row of N, the sub-terms hoisted from it)
_SHADOWING = {
    # the inner binder reuses the outer name: its body's ``c`` is its
    # own, and the operand's is the row
    "inner-rebinds-the-parameter": (
        Lam("c", Map(Lam("c", Tupling(Attribute(_C, 1), Const("x"))),
                     Attribute(_C, 2))), []),
    # the inner body captures the row: the whole MAP is open, and its
    # closed operand is the only thing evaluated outside the rows
    "inner-mentions-the-parameter": (
        Lam("c", Map(Lam("d", Tupling(Attribute(_D, 1),
                                      Attribute(_C, 1))),
                     AdditiveUnion(var("V"), var("V")))),
        [AdditiveUnion(var("V"), var("V"))]),
    # a closed inner body under an open operand stays where it is ...
    "inner-body-is-closed": (
        Lam("c", Map(Lam("d", _COUNT_V), Attribute(_C, 2))), []),
    # ... and a MAP closed as a whole is hoisted as a whole
    "inner-map-is-closed": (
        Lam("c", Tupling(Attribute(_C, 1), _INNER_CLOSED)),
        [_INNER_CLOSED]),
    "a-leaf-is-not-hoisted": (
        Lam("c", Tupling(Attribute(_C, 1), var("V"), Const("k"))), []),
    "the-whole-body-is-closed": (Lam("c", _COUNT_V), [_COUNT_V]),
}


@pytest.mark.parametrize("name", sorted(_SHADOWING))
def test_hoisting_stops_at_an_inner_binder(name):
    lam, hoisted = _SHADOWING[name]
    (rewritten,), invariants = hoist_invariants(lam)
    assert [expr for _, expr in invariants] == hoisted
    if not hoisted:
        assert rewritten is lam
    else:
        # each hoisted term is replaced by its reserved variable and
        # nowhere else does the body change
        names = {name for name, _ in invariants}
        assert names <= rewritten.body.free_vars()
        assert not names & lam.body.free_vars()
    for host in (Map(lam, var("N")),
                 Select(lam, lam, var("N")),
                 Select(lam, Lam("c", Const("other")), var("N"), "ne")):
        expected = evaluate(host, _HOIST_DB, engine="tree")
        for engine, options in _HOIST_ENGINES.items():
            assert evaluate(host, _HOIST_DB, cache=None,
                            **options) == expected, engine


def test_an_invariant_is_evaluated_once_per_step_execution():
    """E14's average over 12 integers-as-bags: the walker re-evaluates
    ``count(V)`` and ``sum(V)`` for each of the 79 candidate subbags,
    the step evaluates each once — what is left is linear in the
    candidates, and frozen."""
    def nodes(integers):
        values = [int_as_bag(value) for value in integers]
        database = {"V": Bag(values)}
        expr = average_expr(var("V"))
        plan = plan_for(expr, database)
        evaluator = Evaluator()
        result = plan.execute(ExecContext(database, evaluator))
        assert result == tree_evaluate(expr, database)
        candidates = sum(integers) + 1
        counts = evaluator.stats.op_counts
        # sum(V) = delta(V) once; count(V) = pi_1(const x MAP(V)) once
        # beside the per-candidate pi_1(c x count)
        assert counts["BagDestroy"] == 1
        assert counts["Cartesian"] == candidates + 1
        assert counts["Map"] == candidates + 2
        return candidates, evaluator.stats.nodes_evaluated

    (few, few_nodes), (many, many_nodes) = (
        nodes(range(1, 13)), nodes(range(3, 15)))
    # eight nodes a candidate, the two invariants (64 nodes) once
    assert (few, few_nodes) == (79, 8 * 79 + 64)
    assert many_nodes - few_nodes == 8 * (many - few)
    # the walker pays the invariants per candidate
    walker = Evaluator()
    walker.run(average_expr(var("V")),
               {"V": Bag([int_as_bag(v) for v in range(1, 13)])})
    assert walker.stats.nodes_evaluated == 5769


def test_explain_counts_the_invariants():
    text = explain_physical(average_expr(var("V")),
                            {"V": Bag([int_as_bag(2), int_as_bag(4)])})
    assert "StreamingSelect  kernel=select" in text
    assert "σ[2 invariants]" in text
    text = explain_physical(
        Map(_SHADOWING["inner-map-is-closed"][0], var("N")), _HOIST_DB)
    assert "MAP[1 invariant]" in text
    # compiled lambdas and bodies with nothing closed say nothing
    text = explain_physical(
        Map(_SHADOWING["inner-body-is-closed"][0], var("N")), _HOIST_DB)
    assert "invariant" not in text
