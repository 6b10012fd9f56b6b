"""Workspace-backed differential cases.

The plain fuzz loop (:func:`~repro.testkit.generate.generate_case`)
builds its databases in memory, so it can never catch a bug in the
storage layer: a loader that loses duplicates, a canonical row order
that reorders multiplicities, a catalog whose statistics steer the
planner into a plan that drops rows.  This module closes that gap by
drawing every case database from a **persisted workspace round-trip**
— relations are synthesized by :mod:`repro.storage.generate`, written
to disk, reloaded through :class:`~repro.storage.Workspace`, and only
then handed to the differential harness.  Any divergence between the
oracle and an engine backend on such a case implicates either the
planner (statistics-driven, because the harness threads the workspace
catalog through compilation) or the storage round-trip itself.

Cases stay inside BALG^1 (flat relations of atoms), reusing the
``balg1_expr`` grammar with the input variable renamed to a workspace
relation; two same-arity relations are combined with a bag set
operation so multi-relation statistics matter.  ``(seed, index)``
reproduces a case byte-for-byte given the same workspace, exactly
like the in-memory generator.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.core.bag import Bag
from repro.core.expr import (
    AdditiveUnion, Attribute, Const, Intersection, Lam, MaxUnion,
    Select, Subtraction, Var, substitute,
)
from repro.core.types import type_of
from repro.storage import RelationSpec, Workspace
from repro.testkit.generate import INPUT_NAME, Case, balg1_expr

__all__ = [
    "FUZZ_SPECS", "seeded_workspace", "workspace_case",
]

#: Relations of the default fuzz workspace: small enough that a
#: Cartesian square stays far below the fuzz limits
#: (``max_size=60k``), skewed enough that bag statistics diverge from
#: set statistics (the whole point of running against a catalog).
FUZZ_SPECS: Tuple[RelationSpec, ...] = (
    RelationSpec("R", rows=24, arity=2, distinct=8, domain=5,
                 skew="uniform"),
    RelationSpec("S", rows=24, arity=2, distinct=6, domain=5,
                 skew="zipfian", zipf_s=1.3),
    RelationSpec("T", rows=12, arity=1, distinct=5, domain=5,
                 skew="zipfian", zipf_s=1.1),
)


def seeded_workspace(root: str, seed: int,
                     specs: Tuple[RelationSpec, ...] = FUZZ_SPECS,
                     ) -> Workspace:
    """Create (or reopen) the fuzz workspace at ``root``.

    A fresh directory gets the :data:`FUZZ_SPECS` relations
    synthesized from ``seed`` and ANALYZEd, so the catalog is
    populated before the first case compiles; an existing workspace is
    simply reopened — its relations, whatever they are, become the
    case databases (that is how the CLI fuzzes user-supplied data).
    """
    try:
        workspace = Workspace.open(root)
    except Exception:
        workspace = Workspace.create(root, name=f"fuzz-{seed}")
        workspace.generate(specs, seed=seed)
        workspace.analyze()
    return workspace


def _flat_arities(database: Dict[str, Bag]) -> Dict[str, int]:
    """Relations usable by the BALG^1 grammar: non-empty, flat,
    uniform arity."""
    out: Dict[str, int] = {}
    for name, bag in database.items():
        arities = {getattr(element, "arity", 0)
                   for element in bag.distinct()}
        if len(arities) == 1 and 0 not in arities:
            out[name] = arities.pop()
    return out


def _domain_sample(bag: Bag, rng: random.Random) -> object:
    """A constant that actually occurs in the relation, so generated
    selections hit the catalog's most-common-value statistics."""
    element = rng.choice(sorted(bag.distinct(), key=repr))
    values = list(element.items())
    return rng.choice(values)


def workspace_case(workspace: Workspace, seed: int, index: int = 0,
                   max_depth: int = 4) -> Case:
    """One differential case whose database is the workspace's
    round-tripped relations.

    The expression is a BALG^1 term over one relation (via
    :func:`balg1_expr` with the input renamed), usually combined with
    a second same-arity relation through a bag set operation, and
    often wrapped in a selection comparing an attribute against a
    value drawn from the data — the shape the catalog's selectivity
    oracle estimates.
    """
    rng = random.Random(seed * 1_000_003 + index)
    database = workspace.database()
    arities = _flat_arities(database)
    if not arities:
        raise ValueError(f"workspace {workspace.name!r} has no flat "
                         f"non-empty relations to fuzz over")
    primary = rng.choice(sorted(arities))
    arity = arities[primary]
    expr = substitute(
        balg1_expr(rng, arity=arity, input_arity=arity,
                   max_depth=max_depth),
        {INPUT_NAME: Var(primary)})
    partners = [name for name in sorted(arities)
                if name != primary and arities[name] == arity]
    if partners and rng.random() < 0.6:
        partner = rng.choice(partners)
        second = substitute(
            balg1_expr(rng, arity=arity, input_arity=arity,
                       max_depth=2),
            {INPUT_NAME: Var(partner)})
        combine = rng.choice((AdditiveUnion, MaxUnion, Intersection,
                              Subtraction))
        expr = (combine(expr, second) if rng.random() < 0.5
                else combine(second, expr))
    if rng.random() < 0.5:
        attribute = rng.randint(1, arity)
        constant = _domain_sample(database[primary], rng)
        expr = Select(Lam("·w", Attribute(Var("·w"), attribute)),
                      Lam("·w", Const(constant)), expr,
                      op=rng.choice(("eq", "ne")))
    schema = {name: type_of(bag) for name, bag in database.items()}
    return Case(schema=schema, database=database, expr=expr,
                fragment="balg1", seed=seed, index=index)
