"""What the emitted source text used to guarantee implicitly.

A fused segment is a list of pre-bound step callables over a
call-local register file; nothing is printed, compiled or ``exec``'d.
Four properties the old source text gave for free are pinned here:

* no ``compile()``/``exec()`` on any engine's path to an answer;
* late binding — a plan already in a :class:`PlanCache` sees a
  ``columnar.c_*`` kernel patched afterwards;
* re-entrancy — one cached :class:`CodegenPlan` run from many threads
  at once over different databases;
* governance parity — :class:`EngineStats` counters, the governor's
  step total and the ``max_steps``/``max_size`` verdicts of a fixed
  plan list, frozen from the source-emitting compiler (PR 16).
"""

from __future__ import annotations

import builtins
import sys
import threading

import pytest

import repro.engine.columnar as columnar
from repro.core.bag import Bag, Tup
from repro.core.errors import BudgetExceeded
from repro.core.eval import Evaluator, evaluate as tree_evaluate
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Dedup, Lam, Map, Powerset,
    Select, Subtraction, Tupling, Var, var,
)
from repro.engine import EngineStats, PlanCache, evaluate, plan_for
from repro.engine.codegen import CodegenPlan
from repro.engine.parallel.partition import clear_segment_cache
from repro.engine.physical import ExecContext
from repro.guard import Limits, ResourceGovernor
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

#: name -> expression; the governance-parity plan list
PLANS = {
    "sym-diff-chain": _sym_diff_chain(3),
    "scale-cascade": _scale_cascade(4),
    "union-dedup-cascade": _union_dedup_cascade(6),
    "hash-join": Select(Lam("t", Attribute(_T, 2)),
                        Lam("t", Attribute(_T, 3)),
                        Cartesian(var("R"), var("S"))),
    "select-map-chain": Map(
        Lam("t", Tupling(Attribute(_T, 2), Attribute(_T, 1))),
        Select(Lam("t", Attribute(_T, 1)), Lam("t", Attribute(_T, 2)),
               AdditiveUnion(var("X"), var("Y")))),
    "shared-subexpression": AdditiveUnion(
        Subtraction(_SHARED, var("Y")), Subtraction(var("Y"), _SHARED)),
    "barrier-leaf": AdditiveUnion(Powerset(var("P")),
                                  Powerset(var("Q"))),
}


def _verdict(expr, semiring, limits):
    """``(subtype, details)`` of the governed failure."""
    with pytest.raises(BudgetExceeded) as info:
        evaluate(expr, DB, engine="codegen", cache=None,
                 semiring=semiring, limits=limits)
    return type(info.value).__name__, info.value.details


def observe(name, semiring):
    """Everything one governed codegen run of a plan lets us count:
    ``(fused_segments, kernel counts, rows_emitted,
    shared_materialized, shared_reused, barrier_fallbacks, governor
    steps, size observed under max_size=5)``."""
    expr = PLANS[name]
    stats = EngineStats()
    governor = ResourceGovernor(Limits(max_steps=1 << 30))
    evaluate(expr, DB, engine="codegen", cache=None, stats=stats,
             governor=governor, semiring=semiring)
    steps = governor.steps
    # one step short of the total: the budget fires inside execution,
    # past every planner tick
    assert _verdict(expr, semiring, Limits(max_steps=steps - 1)) == (
        "BudgetExceeded",
        {"budget": "steps", "limit": steps - 1, "observed": steps})
    subtype, details = _verdict(expr, semiring, Limits(max_size=5))
    assert (subtype, details["budget"], details["limit"]) == (
        "BudgetExceeded", "size", 5)
    return (stats.fused_segments,
            " ".join(f"{kernel}:{count}" for kernel, count
                     in sorted(stats.kernel_counts.items())),
            stats.rows_emitted, stats.shared_materialized,
            stats.shared_reused, stats.barrier_fallbacks, steps,
            details["observed"])


#: ``observe`` of every plan, recorded at PR 16 (segments were emitted
#: source run through ``compile()``/``exec``); steps must count alike
FROZEN = {
    ("sym-diff-chain", "nat"):
        (3, "scan:4 sym-diff-dedup:3", 658, 2, 0, 0, 12, 271),
    ("sym-diff-chain", "bool"):
        (3, "scan:4 sym-diff-dedup:3", 495, 2, 0, 0, 12, 25),
    ("scale-cascade", "nat"):
        (1, "scale:1 scan:1", 194, 0, 0, 0, 5, 14401),
    ("scale-cascade", "bool"): (1, "scan:1", 97, 0, 0, 0, 4, 292),
    ("union-dedup-cascade", "nat"):
        (1, "additive-union:1 dedup:1 dedup-union:5 scan:7", 1387, 0, 0,
         0, 18, 319),
    ("union-dedup-cascade", "bool"):
        (1, "additive-union:1 dedup:1 dedup-union:5 scan:7", 1387, 0, 0,
         0, 18, 319),
    ("hash-join", "nat"):
        (1, "hash-join:1 scan:2", 17603, 0, 0, 0, 158, 80006),
    ("hash-join", "bool"):
        (1, "hash-join:1 scan:2", 17603, 0, 0, 0, 158, 80006),
    ("select-map-chain", "nat"):
        (1, "additive-union:1 map:1 scan:2 select:2", 252, 0, 0, 0, 10,
         157),
    ("select-map-chain", "bool"):
        (1, "additive-union:1 map:1 scan:2 select:2", 252, 0, 0, 0, 10,
         31),
    ("shared-subexpression", "nat"):
        (2, "additive-union:1 monus:3 scan:4", 605, 1, 1, 0, 12, 322),
    ("shared-subexpression", "bool"):
        (2, "additive-union:1 monus:3 scan:4", 587, 1, 1, 0, 12, 16),
    ("barrier-leaf", "nat"):
        (1, "additive-union:1 powerset:2 scan:2", 18, 0, 0, 2, 8, 13),
    ("barrier-leaf", "bool"):
        (1, "additive-union:1 powerset:2 scan:2", 18, 0, 0, 2, 8, 13),
}


@pytest.mark.parametrize("name, semiring", sorted(FROZEN))
def test_governance_parity(name, semiring):
    assert observe(name, semiring) == FROZEN[name, semiring]


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
    assert isinstance(plan, CodegenPlan) and len(plan.segments) > 1
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


if __name__ == "__main__":  # regenerate FROZEN (run at the parent)
    for name in PLANS:
        for sr in ("nat", "bool"):
            print(f"    ({name!r}, {sr!r}): {observe(name, sr)!r},")
