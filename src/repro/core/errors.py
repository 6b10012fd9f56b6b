"""Exception hierarchy for the bag-algebra reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching Python built-ins.
The hierarchy mirrors the phases of query processing:

* construction of values               -> :class:`ValueConstructionError`
* static typing / fragment checking    -> :class:`BagTypeError` and friends
* evaluation                           -> :class:`EvaluationError`
* resource governance                  -> :class:`GovernedError` family
* parsing of the surface syntax / SQL  -> :class:`ParseError`
* decoding a shard-codec wire blob     -> :class:`CodecError`

The governed family (:class:`BudgetExceeded`, :class:`DeadlineExceeded`,
:class:`Cancelled`, :class:`RecursionDepthExceeded`,
:class:`IfpDivergenceError`) is raised by the
:mod:`repro.guard` resource governor.  Each instance carries the
partial :class:`~repro.core.eval.EvalStats` gathered up to the failure
(``.stats``) plus structured details (``.details``), so callers can
degrade gracefully — report what was measured — instead of losing the
whole process to an OOM or an unbounded loop.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValueConstructionError(ReproError):
    """A bag, tuple, or atom could not be constructed.

    Raised, for instance, when a bag is built with non-positive
    multiplicities or from a non-hashable element.
    """


class HeterogeneousBagError(ValueConstructionError):
    """A bag was built from elements of incompatible types.

    Bags in the paper are *homogeneous* collections (Section 2); mixing
    a tuple with an atom, or tuples of different arity, is a type error
    at construction time.
    """


class BagTypeError(ReproError):
    """Static type error in an algebra expression.

    Covers arity mismatches in Cartesian products, union of bags of
    different types, projection out of range, applying bag-destroy to an
    unnested bag, and similar Section 3 typing restrictions.
    """


class FragmentViolationError(BagTypeError):
    """An expression leaves the algebra fragment it was checked against.

    Examples: a ``BALG^1`` query whose intermediate type has nested
    bags, or a ``BALG_{-P}`` query that uses the powerset.
    """


class UnboundVariableError(BagTypeError):
    """An expression refers to a variable absent from the environment
    (or from the schema, during type inference)."""


class EvaluationError(ReproError):
    """Runtime failure while evaluating an algebra expression."""


class ResourceLimitError(EvaluationError):
    """Evaluation exceeded a configured resource budget.

    The powerset and powerbag operators can blow up exponentially
    (Propositions 3.2 and Theorem 5.5); evaluators accept explicit
    budgets and abort with this error instead of exhausting memory.
    """


class GovernedError(EvaluationError):
    """Base class for failures raised by the resource governor.

    ``stats`` holds the partial :class:`~repro.core.eval.EvalStats`
    gathered before the limit fired (``None`` when the guarded
    computation is not evaluator-driven, e.g. the pebble-game search).
    Keyword details (the limit that fired, the observed value, whether
    the failure was fault-injected, ...) are kept in ``details`` and
    also exposed as attributes.
    """

    def __init__(self, message: str, stats=None, **details):
        super().__init__(message)
        self.stats = stats
        self.details = dict(details)
        for key, value in details.items():
            setattr(self, key, value)

    def __reduce__(self):
        # rebuild through __init__, so a governed error raised in a
        # process worker reaches the parent as the same subtype with
        # its message, partial stats and keyword details intact
        return (_rebuild_governed,
                (type(self), self.args[0], self.stats, self.details))


def _rebuild_governed(cls, message, stats, details):
    return cls(message, stats=stats, **details)


class BudgetExceeded(GovernedError, ResourceLimitError):
    """A step, size, powerset, or iteration budget was exhausted.

    ``details["budget"]`` names the budget that fired (``"steps"``,
    ``"size"``, ``"powerset"``, ``"powerbag"``, ``"iterations"``);
    ``details["limit"]`` is the configured bound and
    ``details["observed"]`` what the computation asked for.  Also a
    :class:`ResourceLimitError`, so pre-governor callers keep working.
    """


class DeadlineExceeded(GovernedError):
    """The wall-clock deadline passed before evaluation finished."""


class Cancelled(GovernedError):
    """A cooperative cancellation token was triggered mid-evaluation."""


class RecursionDepthExceeded(GovernedError):
    """Value or expression nesting exceeded the recursion-depth limit.

    Raised either proactively (the governor's ``max_depth``) or when a
    Python :class:`RecursionError` from a deeply nested value is
    converted at the evaluator boundary.
    """


class IfpDivergenceError(BudgetExceeded):
    """An inflationary fixpoint failed to converge within its budget.

    Carries ``iterations`` (completed before giving up) and the
    ``last_cardinality`` / ``last_distinct`` of the final iterate, so a
    diverging Turing-complete program (Theorem 6.6) degrades into a
    structured, inspectable failure.
    """


class ParseError(ReproError):
    """The surface syntax or mini-SQL text could not be parsed."""

    def __init__(self, message: str, position: int | None = None,
                 text: str | None = None):
        super().__init__(message)
        self.position = position
        self.text = text

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position is None:
            return base
        return f"{base} (at offset {self.position})"


class CodecError(ReproError, ValueError):
    """A shard-codec blob is truncated or malformed.

    Not a transient fault: a corrupt blob decodes the same way on
    every attempt, so the resilient exchange does not retry it.
    """
