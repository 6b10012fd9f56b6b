"""The N-way differential harness.

Every case runs through up to ten independently written evaluation
paths:

======================  ================================================
backend                 what it exercises
======================  ================================================
``oracle``              the tree-walker of :mod:`repro.core.eval`
``engine``              the physical engine, *cold* (no cache): fused
                        step programs over the bulk kernels of
                        :mod:`repro.engine.columnar` and the dict
                        kernels of :mod:`repro.engine.kernels` —
                        segment fusion, the super-kernels
                        (sym-diff-dedup, in-place dedup-union, scale
                        folding) and the dict/column currency
                        conversions on trial
``engine-warm``         the engine through a shared plan cache, twice —
                        the second run must hit the cache, so canonical
                        keys and plan/data separation are on trial
``engine-parallel``     the morsel-driven parallel executor (2 workers,
                        threshold 0 so exchanges fire on tiny bags) —
                        hash partitioning, segment programs, budget
                        splitting, and the ordered gather on trial
``engine-chaos``        the parallel executor under *injected worker
                        crashes* (a seeded per-case
                        :class:`~repro.guard.ChaosPlan`) with the
                        resilience layer armed — morsel retry, the
                        degradation ladder, and demotion accounting
                        on trial: results must stay bag-equal no
                        matter which workers died
``engine-opt0``         the planner pipeline with every rewrite
                        disabled and naive lowering (no join fusion,
                        no reordering, no sharing) — the purely
                        syntax-directed plan on trial against the
                        optimized ones
``engine-opt2``         the same engine after the planner's full
                        rewrite fixpoint (opt level 2): the plans the
                        rewritten trees lower to on trial
``optimized``           the planner's full rewrite fixpoint (opt
                        level 2), then the oracle on the rewritten
                        tree (rule soundness)
``surface``             ``parse(to_text(e))`` — printer/parser round
                        trip, then the oracle on the reparse
``sql``                 where the expression matches a SQL-able shape,
                        the mini-SQL pipeline end to end
======================  ================================================

``engine-parallel-process`` is also recognized but is not in
:data:`DEFAULT_BACKENDS`: ``engine-parallel``'s forced multi-shard
split on the process backend, so generated shards — not only fixed
cases — cross the shard codec (:mod:`repro.engine.parallel.codec`)
through the resident worker pool.

Three further extra backends form the **set-semantics
tri-equivalence** (CI's semiring-parity job):

``engine-boolean``      the physical engine under the Bool semiring
                        (``semiring="bool"``) — every generic kernel
                        branch on trial
``ralg``                the independently written
                        :class:`~repro.relational.ralg.SetEvaluator`
                        (dedup after every operator; the paper's
                        RALG/RALG^k baseline)
``delta-bag``           ``deep_dedup`` of the N tree-walker's result —
                        sound only where δ commutes with the plan, so
                        it reports ``unsupported`` outside the
                        monus/powerset/nesting-free flat fragment

They evaluate under *set* semantics, so they are compared only among
themselves — never against the N-semantics reference.

All backends run under the same :class:`~repro.guard.Limits`.  A
*governed* failure (any :class:`~repro.core.errors.GovernedError` or
:class:`~repro.core.errors.ResourceLimitError`) is an acceptable
per-backend outcome — a rewrite may legitimately remove a powerset, so
budgets can fire asymmetrically — but any other exception must be a
:class:`~repro.core.errors.ReproError` subclass, and every backend
that *does* produce a value must produce the same bag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.bag import Bag
from repro.core.errors import (
    GovernedError, ReproError, ResourceLimitError,
)
from repro.core.eval import Evaluator
from repro.core.expr import (
    AdditiveUnion, Attribute, BagDestroy, Bagging, Cartesian, Const,
    Dedup, Expr, Intersection, Map, Powerbag, Powerset, Select,
    Subtraction, Tupling, Var,
)
from repro.core.typecheck import infer_type
from repro.core.types import TupleType, Type
from repro.engine import PlanCache, ResilienceConfig
from repro.engine import evaluate as engine_evaluate
from repro.guard import ChaosPlan, Limits, ResourceGovernor
from repro.planner import PassConfig, PlanContext
from repro.planner import compile as planner_compile
from repro.sql import Catalog, run_sql
from repro.surface import parse, to_text
from repro.testkit.generate import Case
from repro.testkit.metamorphic import LawResult, check_laws

__all__ = [
    "DEFAULT_BACKENDS", "EXTRA_BACKENDS", "SET_BACKENDS",
    "DEFAULT_LIMITS", "BackendOutcome",
    "CaseReport", "Harness", "Mismatch", "RunSummary",
    "delta_commutes", "sql_view",
]

#: Backend execution order; the first ``ok`` outcome is the reference.
DEFAULT_BACKENDS = ("oracle", "engine", "engine-warm", "engine-parallel",
                    "engine-chaos", "engine-opt0", "engine-opt2",
                    "optimized", "surface", "sql")

#: Valid but non-default backends: the parallel-parity job's
#: process-backend leg (generated shards through the shard codec), and
#: the semiring tri-equivalence legs (Bool-semiring engine vs the
#: relational SetEvaluator vs δ of the N result).
EXTRA_BACKENDS = ("engine-parallel-process", "engine-boolean", "ralg",
                  "delta-bag")

#: Threshold 0 forces exchanges wherever a segment compiles, and
#: ``min_morsel_rows=1`` disables adaptive granularity, so even tiny
#: fuzz bags exercise the partition machinery and the multi-shard merge.
_FORCED_EXCHANGES = dict(engine="parallel", workers=2,
                         parallel_threshold=0.0, min_morsel_rows=1)

#: The backends that are the one executor, cold, under other options:
#: backend -> keyword arguments of ``repro.engine.evaluate``.
_ENGINE_OPTIONS: Dict[str, Dict[str, Any]] = {
    "engine": {},
    "engine-opt0": {"opt_level": 0},
    "engine-opt2": {"opt_level": 2},
    "engine-parallel": _FORCED_EXCHANGES,
    # every shard and every result crosses the shard codec, through
    # the resident worker pool
    "engine-parallel-process": dict(_FORCED_EXCHANGES,
                                    parallel_backend="process"),
    # inputs deep-dedup to sets and every kernel takes its generic
    # branch; compared with the independent set-semantics evaluators
    "engine-boolean": {"semiring": "bool"},
}

#: Backends that evaluate under set semantics: they form their own
#: comparison group (their results legitimately differ from the N
#: reference whenever an input carries duplicates).
SET_BACKENDS = frozenset({"engine-boolean", "ralg", "delta-bag"})

#: Per-(shard, attempt) crash probability for ``engine-chaos``: high
#: enough that most cases inject at least one crash, low enough that
#: three attempts plus the ladder make completion certain in practice.
CHAOS_PROBABILITY = 0.25

#: Generous but finite: big enough that ordinary cases complete, small
#: enough that a powerset blow-up degrades into a governed error in
#: milliseconds instead of an OOM.
DEFAULT_LIMITS = Limits(max_steps=300_000, max_size=60_000,
                        powerset_budget=1024, max_depth=300)

_ACCEPTABLE = (GovernedError, ResourceLimitError)


@dataclass
class BackendOutcome:
    """What one backend did with one case."""

    backend: str
    status: str  # "ok" | "governed" | "unsupported" | "error" | "crash"
    value: Any = None
    error: Optional[BaseException] = None

    def describe(self) -> str:
        if self.status == "ok":
            return f"{self.backend}: ok"
        if self.error is None:
            return f"{self.backend}: {self.status}"
        return (f"{self.backend}: {self.status} "
                f"({type(self.error).__name__}: {self.error})")


@dataclass
class Mismatch:
    """One disagreement between backends (or with a metamorphic law)."""

    case: Case
    kind: str  # "value" | "error" | "crash" | "metamorphic"
    backend: str
    reference: str
    detail: str

    def describe(self) -> str:
        return (f"[{self.kind}] {self.backend} vs {self.reference} on "
                f"{self.case.label()}: {self.detail}")


@dataclass
class CaseReport:
    """Everything the harness learned about one case."""

    case: Case
    outcomes: Dict[str, BackendOutcome]
    mismatches: List[Mismatch]
    laws: List[LawResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class RunSummary:
    """Aggregate counters over a fuzz run."""

    cases: int = 0
    governed: Dict[str, int] = field(default_factory=dict)
    unsupported: Dict[str, int] = field(default_factory=dict)
    laws_checked: int = 0
    laws_skipped: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    def absorb(self, report: CaseReport) -> None:
        self.cases += 1
        for name, outcome in report.outcomes.items():
            if outcome.status == "governed":
                self.governed[name] = self.governed.get(name, 0) + 1
            elif outcome.status == "unsupported":
                self.unsupported[name] = (
                    self.unsupported.get(name, 0) + 1)
        for law in report.laws:
            if law.status == "skipped":
                self.laws_skipped += 1
            else:
                self.laws_checked += 1
        self.mismatches.extend(report.mismatches)

    def describe(self) -> str:
        parts = [f"{self.cases} cases",
                 f"{len(self.mismatches)} mismatches",
                 f"{self.laws_checked} law checks "
                 f"({self.laws_skipped} skipped)"]
        if self.governed:
            listed = ", ".join(f"{name}={count}" for name, count
                               in sorted(self.governed.items()))
            parts.append(f"governed: {listed}")
        if self.unsupported:
            listed = ", ".join(f"{name}={count}" for name, count
                               in sorted(self.unsupported.items()))
            parts.append(f"unsupported: {listed}")
        return "; ".join(parts)


class Harness:
    """Runs cases through the differential matrix.

    ``faults`` (a :class:`~repro.guard.FaultSequence`) is threaded into
    every backend's governor — the retry/fault tests drive the harness
    with injected failures to check that governed outcomes stay
    structured end to end.
    """

    def __init__(self,
                 backends: Sequence[str] = DEFAULT_BACKENDS,
                 limits: Optional[Limits] = None,
                 metamorphic: bool = True,
                 cache_capacity: int = 128,
                 faults=None,
                 catalog=None):
        known = set(DEFAULT_BACKENDS) | set(EXTRA_BACKENDS)
        unknown = set(backends) - known
        if unknown:
            raise ValueError(f"unknown backends: {sorted(unknown)} "
                             f"(choices: "
                             f"{DEFAULT_BACKENDS + EXTRA_BACKENDS})")
        self.backends = tuple(backends)
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self.metamorphic = metamorphic
        self.faults = faults
        #: Optional statistics catalog (a
        #: :class:`~repro.storage.Workspace` in the workspace fuzz
        #: mode): the engine backends compile against it, so the
        #: statistics-driven planner paths — selectivity oracle,
        #: catalog-tagged plan-cache keys — are on trial too.
        self.catalog = catalog
        self.cache = PlanCache(capacity=cache_capacity)

    # -- running ---------------------------------------------------------

    def governor(self) -> ResourceGovernor:
        return ResourceGovernor(self.limits, faults=self.faults)

    def run_case(self, case: Case) -> CaseReport:
        outcomes: Dict[str, BackendOutcome] = {}
        for backend in self.backends:
            outcomes[backend] = self._run_backend(backend, case)
        mismatches = self._compare(case, outcomes)
        laws: List[LawResult] = []
        oracle = outcomes.get("oracle")
        if (self.metamorphic and oracle is not None
                and oracle.status == "ok"
                and isinstance(oracle.value, Bag)):
            laws = self._run_laws(case, oracle.value)
            for law in laws:
                if law.status == "failed":
                    mismatches.append(Mismatch(
                        case=case, kind="metamorphic",
                        backend=f"law:{law.name}", reference="oracle",
                        detail=law.detail))
        return CaseReport(case=case, outcomes=outcomes,
                          mismatches=mismatches, laws=laws)

    def _engine(self, case: Case, cache=None, **options) -> Any:
        return engine_evaluate(case.expr, case.database, cache=cache,
                               governor=self.governor(),
                               catalog=self.catalog, **options)

    def _run_backend(self, backend: str, case: Case) -> BackendOutcome:
        try:
            if backend == "oracle":
                value = self._oracle(case.expr, case)
            elif backend in _ENGINE_OPTIONS:
                value = self._engine(case, **_ENGINE_OPTIONS[backend])
            elif backend == "engine-warm":
                self._engine(case, cache=self.cache)
                value = self._engine(case, cache=self.cache)
            elif backend == "engine-chaos":
                # the parallel executor with seeded worker crashes
                # injected: the resilience layer must absorb them
                # (retry, then the degradation ladder) and still
                # produce the same bag — a crash that escapes is a
                # mismatch, not an acceptable outcome
                value = self._engine(
                    case, resilience=self._chaos_resilience(case),
                    **_FORCED_EXCHANGES)
            elif backend == "ralg":
                from repro.relational.ralg import SetEvaluator
                value = SetEvaluator(governor=self.governor()).run(
                    case.expr, case.database)
            elif backend == "delta-bag":
                # δ ∘ (N engine): sound only where dedup commutes
                # with every operator of the plan
                if not delta_commutes(case.expr, case.database):
                    return BackendOutcome(backend, "unsupported")
                from repro.relational.ralg import deep_dedup
                value = deep_dedup(self._oracle(case.expr, case))
            elif backend == "optimized":
                rewritten = planner_compile(
                    case.expr,
                    PlanContext(engine="tree", schema=case.schema,
                                governor=self.governor(),
                                config=PassConfig.for_level(2))
                ).logical
                value = self._oracle(rewritten, case)
            elif backend == "surface":
                reparsed = parse(to_text(case.expr))
                value = self._oracle(reparsed, case)
            elif backend == "sql":
                view = sql_view(case.expr, case.schema)
                if view is None:
                    return BackendOutcome(backend, "unsupported")
                text, catalog = view
                value = run_sql(text, catalog, case.database,
                                governor=self.governor())
            else:  # pragma: no cover - constructor validates
                raise ValueError(backend)
        except _ACCEPTABLE as error:
            return BackendOutcome(backend, "governed", error=error)
        except ReproError as error:
            return BackendOutcome(backend, "error", error=error)
        except RecursionError as error:
            return BackendOutcome(backend, "governed", error=error)
        except Exception as error:  # noqa: BLE001 - the point
            return BackendOutcome(backend, "crash", error=error)
        return BackendOutcome(backend, "ok", value=value)

    def _oracle(self, expr: Expr, case: Case) -> Any:
        return Evaluator(governor=self.governor()).run(
            expr, case.database)

    @staticmethod
    def _chaos_resilience(case: Case) -> ResilienceConfig:
        """The seeded fault-tolerance policy for ``engine-chaos``:
        which (shard, attempt) executions crash is a pure function of
        the case identity, so a mismatch replays exactly."""
        seed = ((case.seed or 0) * 1_000_003 + (case.index or 0))
        return ResilienceConfig(
            seed=seed,
            chaos=ChaosPlan(kind="worker-crash",
                            probability=CHAOS_PROBABILITY,
                            seed=seed))

    def _run_laws(self, case: Case, value: Bag) -> List[LawResult]:
        try:
            result_type = infer_type(case.expr, case.schema)
        except ReproError:
            return []

        def evaluate(expr: Expr) -> Any:
            return self._oracle(expr, case)

        return check_laws(case, result_type, value, evaluate)

    # -- comparison ------------------------------------------------------

    def _compare(self, case: Case,
                 outcomes: Dict[str, BackendOutcome]) -> List[Mismatch]:
        mismatches: List[Mismatch] = []
        # two comparison groups: the N-semantics backends share one
        # reference, the set-semantics tri-equivalence legs another
        reference: Optional[BackendOutcome] = None
        set_reference: Optional[BackendOutcome] = None
        for backend in self.backends:
            outcome = outcomes[backend]
            if outcome.status != "ok":
                continue
            if backend in SET_BACKENDS:
                if set_reference is None:
                    set_reference = outcome
            elif backend != "sql" and reference is None:
                reference = outcome
        for backend in self.backends:
            outcome = outcomes[backend]
            if outcome.status == "crash":
                mismatches.append(Mismatch(
                    case=case, kind="crash", backend=backend,
                    reference="-",
                    detail=f"non-ReproError escaped: "
                           f"{type(outcome.error).__name__}: "
                           f"{outcome.error}"))
            elif outcome.status == "error":
                mismatches.append(Mismatch(
                    case=case, kind="error", backend=backend,
                    reference="-",
                    detail=f"well-typed case rejected: "
                           f"{type(outcome.error).__name__}: "
                           f"{outcome.error}"))
            elif outcome.status == "ok":
                group_ref = (set_reference if backend in SET_BACKENDS
                             else reference)
                if group_ref is None or outcome is group_ref:
                    continue
                detail = self._differ(outcome, group_ref)
                if detail is not None:
                    mismatches.append(Mismatch(
                        case=case, kind="value", backend=backend,
                        reference=group_ref.backend, detail=detail))
        return mismatches

    @staticmethod
    def _differ(outcome: BackendOutcome,
                reference: BackendOutcome) -> Optional[str]:
        expected = reference.value
        actual = outcome.value
        if outcome.backend == "sql":
            # run_sql returns decoded, sorted rows with duplicates
            if not isinstance(expected, Bag):
                return None
            rows = sorted((tuple(element.items())
                           for element in expected.elements()),
                          key=repr)
            if actual != rows:
                return (f"sql rows {actual!r} != decoded oracle rows "
                        f"{rows!r}")
            return None
        if actual != expected:
            return f"{actual!r} != {expected!r}"
        return None


# ----------------------------------------------------------------------
# The δ-commutation fragment for the ``delta-bag`` backend
# ----------------------------------------------------------------------

def delta_commutes(expr: Expr,
                   database: Optional[Mapping[str, Bag]]) -> bool:
    """Whether ``deep_dedup(Q(DB)) == Q_bool(DB)`` is guaranteed.

    Dedup commutes with additive/max union, intersection, product,
    map, select, and dedup itself (Proposition 4.2's monus-free
    reasoning), but **not** with subtraction (supports differ:
    ``δ(R - S) ⊊ δ(R) - δ(S)`` when S cancels only part of R's
    multiplicity), and multiplicity-sensitive value constructors
    (powerset/powerbag subsets, bagging, nesting) build *different
    values* from a bag than from its support.  Nested database values
    are excluded too: δ deduplicates them deeply while the engine's
    top-level operators never rewrite inner counts.
    """
    from repro.core.nest import Nest, Unnest
    forbidden = (Subtraction, Powerset, Powerbag, Bagging, BagDestroy,
                 Nest, Unnest)
    for node in expr.walk():
        if isinstance(node, forbidden):
            return False
        if isinstance(node, Const) and _has_nested_bag(node.value):
            return False
    if database:
        for value in database.values():
            if isinstance(value, Bag) and _has_nested_bag(value):
                return False
    return True


def _has_nested_bag(value: Any) -> bool:
    from repro.core.bag import Tup
    if isinstance(value, Bag):
        return any(_contains_bag(element)
                   for element in value.distinct())
    return _contains_bag(value)


def _contains_bag(value: Any) -> bool:
    from repro.core.bag import Tup
    if isinstance(value, Bag):
        return True
    if isinstance(value, Tup):
        return any(_contains_bag(item) for item in value.items())
    return False


# ----------------------------------------------------------------------
# SQL expressibility: recognize SELECT-shaped expressions
# ----------------------------------------------------------------------

_SQL_OPS = {"eq": "=", "ne": "!=", "le": "<=", "lt": "<"}


def sql_view(expr: Expr, schema: Mapping[str, Type]
             ) -> Optional[Tuple[str, Catalog]]:
    """Render the expression as mini-SQL text, or ``None`` when it is
    outside the SELECT/set-op fragment the dialect can express.

    Recognized shape (each layer optional)::

        setop( block , block ) | block
        block := Dedup? ( proj-Map? ( Select* ( Var x ... x Var ) ) )

    The produced SQL must evaluate — through
    :func:`repro.sql.run_sql`'s parse/compile/execute pipeline — to the
    same bag as the original expression, which is exactly what the
    harness asserts.
    """
    setops = {AdditiveUnion: "UNION ALL", Intersection: "INTERSECT ALL",
              Subtraction: "EXCEPT ALL"}
    if type(expr) in setops:
        left = _sql_block(expr.left, schema)
        right = _sql_block(expr.right, schema)
        if left is None or right is None:
            return None
        return (f"{left} {setops[type(expr)]} {right}",
                _catalog_for(schema))
    block = _sql_block(expr, schema)
    if block is None:
        return None
    return block, _catalog_for(schema)


def _catalog_for(schema: Mapping[str, Type]) -> Catalog:
    tables = {}
    for name, typ in schema.items():
        element = getattr(typ, "element", None)
        if isinstance(element, TupleType):
            tables[name] = tuple(f"c{i}"
                                 for i in range(1, element.arity + 1))
    return Catalog(tables)


def _sql_block(expr: Expr,
               schema: Mapping[str, Type]) -> Optional[str]:
    distinct = False
    if isinstance(expr, Dedup):
        distinct = True
        expr = expr.operand
    projection: Optional[List[int]] = None
    if isinstance(expr, Map):
        projection = _projection_indices(expr)
        if projection is None:
            return None
        expr = expr.operand
    conjuncts: List[Tuple[int, str, Any]] = []
    while isinstance(expr, Select):
        comparison = _sql_comparison(expr)
        if comparison is None:
            return None
        conjuncts.append(comparison)
        expr = expr.operand
    tables = _table_factors(expr)
    if tables is None:
        return None
    arities = []
    for name in tables:
        typ = schema.get(name)
        element = getattr(typ, "element", None)
        if not isinstance(element, TupleType):
            return None
        arities.append(element.arity)
    total = sum(arities)

    def column(position: int) -> Optional[str]:
        if not 1 <= position <= total:
            return None
        offset = position
        for table_number, arity in enumerate(arities, start=1):
            if offset <= arity:
                return f"t{table_number}.c{offset}"
            offset -= arity
        return None  # pragma: no cover

    if projection is not None:
        rendered = [column(i) for i in projection]
        if any(ref is None for ref in rendered):
            return None
        select_list = ", ".join(rendered)
    else:
        select_list = "*"
    from_list = ", ".join(f"{name} t{number}"
                          for number, name in enumerate(tables, 1))
    where_parts = []
    # selections apply outside-in; attribute positions refer to the
    # operand's tuples, which the projection-free layers share
    for index, op, right in conjuncts:
        left_ref = column(index)
        if left_ref is None:
            return None
        if isinstance(right, int):  # attribute position
            right_ref = column(right)
            if right_ref is None:
                return None
        elif isinstance(right, str):
            if "'" in right:
                return None
            right_ref = f"'{right}'"
        else:  # literal int constant, wrapped
            (literal,) = right
            if literal < 0:
                return None
            right_ref = str(literal)
        where_parts.append(f"{left_ref} {_SQL_OPS[op]} {right_ref}")
    text = "SELECT "
    if distinct:
        text += "DISTINCT "
    text += f"{select_list} FROM {from_list}"
    if where_parts:
        text += " WHERE " + " AND ".join(where_parts)
    return text


def _projection_indices(expr: Map) -> Optional[List[int]]:
    body = expr.lam.body
    if not isinstance(body, Tupling) or not body.parts:
        return None
    indices = []
    for part in body.parts:
        if (isinstance(part, Attribute)
                and isinstance(part.operand, Var)
                and part.operand.name == expr.lam.param):
            indices.append(part.index)
        else:
            return None
    return indices


def _sql_comparison(expr: Select):
    """Decode ``sigma[t: alpha_i(t) op (alpha_j(t) | atom)]`` into a
    ``(i, op, right)`` conjunct; ``right`` is an int attribute
    position, a string literal, or a 1-tuple-wrapped int literal."""
    left = expr.left.body
    if not (isinstance(left, Attribute)
            and isinstance(left.operand, Var)
            and left.operand.name == expr.left.param):
        return None
    right_body = expr.right.body
    if (isinstance(right_body, Attribute)
            and isinstance(right_body.operand, Var)
            and right_body.operand.name == expr.right.param):
        return (left.index, expr.op, right_body.index)
    if isinstance(right_body, Const):
        value = right_body.value
        if isinstance(value, str):
            return (left.index, expr.op, value)
        if isinstance(value, int) and not isinstance(value, bool):
            return (left.index, expr.op, (value,))
    return None


def _table_factors(expr: Expr) -> Optional[List[str]]:
    if isinstance(expr, Var):
        return [expr.name]
    if isinstance(expr, Cartesian):
        left = _table_factors(expr.left)
        right = _table_factors(expr.right)
        if left is None or right is None:
            return None
        return left + right
    return None
