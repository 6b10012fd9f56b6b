"""Semiring-generalized multiplicity arithmetic.

The paper's bag algebra annotates every element with a multiplicity
drawn from the natural numbers.  Following "Codd's Theorem for
Databases over Semirings" (arXiv 2501.16543), the algebra makes sense
over any *naturally ordered* commutative semiring: the count column
becomes an annotation from a domain ``K`` with ``(+, *, 0, 1)`` plus a
truncated difference (monus) and lattice meet/join for the
intersection/maximal-union operators.

This module is the single arithmetic seam.  Every execution layer
(tree walker, columnar and dict kernels, the step programs that call
them, the parallel shard codec, and the planner's cache tags) consumes a
:class:`Semiring` instance instead of hard-coding ``int`` arithmetic.

Conventions
-----------
* ``sr=None`` means the natural-number semiring everywhere.  The hot
  paths branch once on ``sr is None`` and then run the original int
  code unchanged — the N fast path is bit-identical to the
  pre-refactor engine (pinned by bench_e27).
* :class:`NatSemiring` and :class:`BoolSemiring` annotate with plain
  Python ints (``{0, 1}`` for Bool), so their bags remain valid count
  dicts and the parallel codec keeps its packed int count column.
* :class:`TropicalSemiring` and :class:`ProvenancePolynomial` annotate
  with frozen wrapper values (:class:`Trop`, :class:`Prov`) that
  subclass the :class:`SemiringValue` marker, which
  :mod:`repro.core.bag` accepts as multiplicities.
* Input adaptation happens at the *sources* (variable bindings at
  engine entry, constants at bind time): :meth:`Semiring.adapt_bag`
  maps int counts through the canonical homomorphism ``from_int`` —
  deep-dedup for Bool, fresh provenance variables for Prov.  Operators
  over adapted inputs stay adapted; stray int counts (inner bags of
  nested inputs) are normalised with :meth:`Semiring.coerce`.
* Adaptation is paid once per ``(bound bag, semiring, label)``:
  :meth:`Semiring.adapt_bag` is the only entry, behind a bounded
  identity-keyed memo (:mod:`repro.core.memo`) that pins the source
  bag.  A K-annotated database thus keeps its identity across queries
  (``planner.stats.stats_of`` keeps hitting); a rejected bag is never
  stored and raises again on every call.

Registry
--------
Semirings are addressed by name (``nat``, ``bool``, ``tropical``,
``provenance`` plus aliases) through :func:`resolve_semiring`, which
normalises the default N instance back to ``None`` so the fast path
stays a single identity check.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.memo import IdentityMemo

__all__ = [
    "Semiring", "SemiringValue", "Trop", "Prov",
    "NatSemiring", "BoolSemiring", "TropicalSemiring",
    "ProvenancePolynomial",
    "NAT", "BOOL", "TROPICAL", "PROVENANCE",
    "SEMIRINGS", "resolve_semiring", "semiring_name", "known_semirings",
]


# ----------------------------------------------------------------------
# Annotation value wrappers
# ----------------------------------------------------------------------

class SemiringValue:
    """Marker base class for non-integer multiplicity annotations.

    :mod:`repro.core.bag` accepts instances as bag multiplicities
    (dropping the ones whose :meth:`is_zero` holds), so annotated bags
    flow through the same containers as ordinary count dicts.
    """

    __slots__ = ()

    def is_zero(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class Trop(SemiringValue):
    """A min-plus (tropical) annotation: a cost in ``R ∪ {+inf}``.

    ``+inf`` is the additive zero (absent), ``0.0`` the multiplicative
    one.
    """

    __slots__ = ("cost",)

    def __init__(self, cost: float):
        self.cost = float(cost)

    def is_zero(self) -> bool:
        return self.cost == math.inf

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Trop) and self.cost == other.cost

    def __hash__(self) -> int:
        return hash(("Trop", self.cost))

    def __repr__(self) -> str:
        return f"Trop({self.cost!r})"

    def __reduce__(self):
        return (Trop, (self.cost,))


class Prov(SemiringValue):
    """A provenance polynomial in ``N[X]``: monomials over variable
    atoms with natural-number coefficients.

    Stored canonically as a sorted tuple of ``(monomial, coefficient)``
    pairs, where a monomial is a sorted tuple of variable names (with
    repetition for powers), so equality and hashing are structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Any = ()):
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = tuple(terms)
        clean: Dict[Tuple[str, ...], int] = {}
        for monomial, coefficient in items:
            if coefficient:
                key = tuple(sorted(monomial))
                clean[key] = clean.get(key, 0) + coefficient
        self.terms = tuple(sorted(
            (monomial, coefficient)
            for monomial, coefficient in clean.items() if coefficient))

    @classmethod
    def variable(cls, name: str, coefficient: int = 1) -> "Prov":
        return cls({(name,): coefficient})

    @classmethod
    def const(cls, value: int) -> "Prov":
        return cls({(): value}) if value else cls(())

    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self) -> Dict[Tuple[str, ...], int]:
        return dict(self.terms)

    def monomial_count(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        return max((len(m) for m, _ in self.terms), default=0)

    def variables(self) -> Tuple[str, ...]:
        seen = set()
        for monomial, _ in self.terms:
            seen.update(monomial)
        return tuple(sorted(seen))

    def eval_at_ones(self) -> int:
        """Evaluate the polynomial with every variable set to 1 — the
        homomorphism back to N that recovers bag multiplicities."""
        return sum(coefficient for _, coefficient in self.terms)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Prov) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(("Prov", self.terms))

    def __repr__(self) -> str:
        if not self.terms:
            return "Prov(0)"
        parts = []
        for monomial, coefficient in self.terms:
            body = "*".join(monomial) if monomial else "1"
            parts.append(body if coefficient == 1 and monomial
                         else f"{coefficient}*{body}" if monomial
                         else str(coefficient))
        return "Prov(" + " + ".join(parts) + ")"

    def __reduce__(self):
        return (Prov, (self.terms,))


# ----------------------------------------------------------------------
# The interface
# ----------------------------------------------------------------------

#: :meth:`Semiring.adapt_bag`'s memo: ``(id(bag), semiring, label) ->
#: (bag, adapted)``.
_ADAPTED = IdentityMemo()


class Semiring:
    """Multiplicity arithmetic over an annotation domain ``K``.

    Subclasses fix the constants and operations; the base class
    provides the derived helpers (:meth:`coerce`, :meth:`scale`,
    :meth:`adapt_bag`) and the codec hooks used by the parallel shard
    format.

    Flags
    -----
    ``idempotent_add``
        ``a + a == a`` (Bool, Tropical) — lets the planner collapse
        self-unions to the operand instead of a scale-by-2.
    ``integer_counts``
        Annotations are plain ints (N, Bool) — required by powerset /
        powerbag, and keeps the codec's count column packed ints.
    ``naturally_ordered``
        ``a <= b  iff  exists c: a + c = b`` is a partial order; all
        shipped instances are naturally ordered.
    ``cancellative``
        ``a + c == b + c  implies  a == b`` (N, provenance) — gates the
        metamorphic union-monus law ``(e (+) e) - e = e``.
    ``unsound_laws``
        Names of metamorphic laws that the instance's monus does not
        satisfy even though it is naturally ordered.
    """

    name = "abstract"
    description = ""
    idempotent_add = False
    integer_counts = False
    naturally_ordered = True
    cancellative = False
    unsound_laws: frozenset = frozenset()
    #: The concrete annotation type of this domain; anything that is
    #: neither an int (still awaiting the ``from_int`` homomorphism)
    #: nor an instance of this type is an annotation minted by a
    #: *different* semiring and must be rejected, not reinterpreted.
    value_type: type = int
    zero: Any = None
    one: Any = None

    # -- core arithmetic ------------------------------------------------

    def add(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def mul(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def monus(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def min_(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def max_(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def is_zero(self, a: Any) -> bool:
        raise NotImplementedError

    def leq(self, a: Any, b: Any) -> bool:
        """The natural order: ``a <= b`` iff some ``c`` has ``a+c=b``."""
        raise NotImplementedError

    def from_int(self, n: int) -> Any:
        """The canonical homomorphism ``N -> K``."""
        raise NotImplementedError

    # -- derived helpers ------------------------------------------------

    def coerce(self, count: Any) -> Any:
        """Normalise a multiplicity that may still be a plain int (an
        inner count of a nested input bag, a constant bound before
        adaptation).

        Annotations already in this domain pass through unchanged;
        values from a *different* semiring (a binding produced under
        another ``:semiring`` setting, say) raise a governed
        :class:`~repro.core.errors.BagTypeError` instead of being
        silently reinterpreted or crashing deep inside the arithmetic.
        """
        if isinstance(count, int):
            return self.from_int(count)
        if isinstance(count, self.value_type):
            return count
        from repro.core.errors import BagTypeError
        raise BagTypeError(
            f"multiplicity {count!r} is a {type(count).__name__} "
            f"annotation from another semiring and cannot be used "
            f"under {self.name}; re-evaluate the binding under the "
            f"current semiring")

    def scale(self, value: Any, factor: int) -> Any:
        """Multiply an annotation by an integer factor (the lowered
        ``MultiplicityScale`` operator)."""
        return self.mul(self.coerce(value), self.from_int(factor))

    def adapt_value(self, value: Any) -> Any:
        """Adapt a complex object from the N world (identity unless the
        instance rewrites nested structure, e.g. Bool's deep dedup)."""
        return value

    def adapt_bag(self, bag: Any, label: str = "const") -> Any:
        """Adapt an input bag's int counts into this semiring — once
        per ``(bag identity, semiring, label)``; after that a memo hit
        returns the *same* adapted bag.  A rejected bag (foreign-domain
        annotations) raises every time: failures are never stored.

        ``label`` names the source relation; provenance uses it to mint
        per-tuple variables, hence its place in the key.
        """
        from repro.core.bag import Bag
        if not isinstance(bag, Bag):
            return self.adapt_value(bag)
        return _ADAPTED.get(bag, (self, label),
                            lambda: self._adapt_bag(bag, label))

    def adapt_bindings(self, bindings: Mapping[str, Any],
                       referenced: frozenset) -> Dict[str, Any]:
        """Adapt only the bag bindings the expression references — a
        stale binding annotated under another semiring must not poison
        queries that never mention it."""
        from repro.core.bag import Bag
        return {name: self.adapt_bag(value, name)
                if name in referenced and isinstance(value, Bag) else value
                for name, value in bindings.items()}

    def _adapt_bag(self, bag: Any, label: str) -> Any:
        """The per-instance work; :meth:`adapt_bag` is its only caller."""
        from repro.core.bag import Bag
        return Bag.from_counts({self.adapt_value(value): self.coerce(count)
                                for value, count in bag.items()})

    # -- codec hooks ----------------------------------------------------

    def encode_count(self, count: Any) -> bytes:
        """Serialise one annotation (the shard codec itself pickles a
        shard's whole count column at once)."""
        import pickle
        return pickle.dumps(count, protocol=pickle.HIGHEST_PROTOCOL)

    def decode_count(self, blob: bytes) -> Any:
        import pickle
        return pickle.loads(blob)

    # -- introspection --------------------------------------------------

    def describe(self) -> str:
        return f"{self.name} ({self.description})"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------

class NatSemiring(Semiring):
    """The default: natural-number multiplicities (the paper's bags).

    Exists for introspection and the registry; execution layers
    normalise it to ``sr=None`` and run the original int code.
    """

    name = "nat"
    description = "natural-number multiplicities (bag semantics)"
    integer_counts = True
    cancellative = True
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def monus(self, a, b):
        remaining = a - b
        return remaining if remaining > 0 else 0

    def min_(self, a, b):
        return a if a <= b else b

    def max_(self, a, b):
        return a if a >= b else b

    def is_zero(self, a):
        return a == 0

    def leq(self, a, b):
        return a <= b

    def from_int(self, n):
        return n


class BoolSemiring(Semiring):
    """Set semantics: annotations in ``{0, 1}`` with or/and.

    Kept as plain ints so Bool-annotated bags are ordinary bags with
    all counts 1 — δ (dedup of the N result) lands in the same value
    space, which is what makes the tri-equivalence check a plain bag
    equality.
    """

    name = "bool"
    description = "boolean presence (set semantics)"
    idempotent_add = True
    integer_counts = True
    unsound_laws = frozenset({"union-monus"})
    zero = 0
    one = 1

    def add(self, a, b):
        return 1 if (a or b) else 0

    def mul(self, a, b):
        return 1 if (a and b) else 0

    def monus(self, a, b):
        return 1 if (a and not b) else 0

    def min_(self, a, b):
        return self.mul(a, b)

    def max_(self, a, b):
        return self.add(a, b)

    def is_zero(self, a):
        return not a

    def leq(self, a, b):
        return (not a) or bool(b)

    def from_int(self, n):
        return 1 if n else 0

    def adapt_value(self, value):
        return _deep_dedup(value)


class TropicalSemiring(Semiring):
    """Min-plus costs: add = min, mul = numeric +.

    The natural order is the *reverse* numeric order (smaller cost is
    natural-order larger), so ``min_``/``max_`` — the intersection and
    maximal-union annotations — are the numeric max and min
    respectively.  The monus is the residual ``a - b = zero`` when
    ``a <= b`` naturally, else ``a``; being idempotent the instance
    fails the cancellative union-monus law and the meet-via-monus
    identity, which the metamorphic gates encode.
    """

    name = "tropical"
    description = "min-plus costs (shortest-path style)"
    idempotent_add = True
    unsound_laws = frozenset({"union-monus", "inter-via-monus"})
    value_type = Trop
    zero = Trop(math.inf)
    one = Trop(0.0)

    def add(self, a, b):
        return a if a.cost <= b.cost else b

    def mul(self, a, b):
        return Trop(a.cost + b.cost)

    def monus(self, a, b):
        return self.zero if self.leq(a, b) else a

    def min_(self, a, b):
        return a if a.cost >= b.cost else b

    def max_(self, a, b):
        return a if a.cost <= b.cost else b

    def is_zero(self, a):
        return a.cost == math.inf

    def leq(self, a, b):
        return b.cost <= a.cost

    def from_int(self, n):
        return self.one if n else self.zero


class ProvenancePolynomial(Semiring):
    """Why-provenance: polynomials ``N[X]`` over variable atoms.

    :meth:`adapt_bag` mints one fresh variable per distinct source
    tuple (``R.0``, ``R.1``, ...), mapping multiplicity ``n`` to the
    polynomial ``n * x`` — evaluating every variable at 1 recovers the
    N multiplicities on the monus-free fragment.
    """

    name = "provenance"
    description = "why-provenance polynomials N[X]"
    cancellative = True
    value_type = Prov
    zero = Prov(())
    one = Prov({(): 1})

    def add(self, a, b):
        merged = dict(a.terms)
        for monomial, coefficient in b.terms:
            merged[monomial] = merged.get(monomial, 0) + coefficient
        return Prov(merged)

    def mul(self, a, b):
        product: Dict[Tuple[str, ...], int] = {}
        for mono_a, coeff_a in a.terms:
            for mono_b, coeff_b in b.terms:
                key = tuple(sorted(mono_a + mono_b))
                product[key] = product.get(key, 0) + coeff_a * coeff_b
        return Prov(product)

    def monus(self, a, b):
        other = dict(b.terms)
        remaining = {monomial: max(0, coefficient
                                   - other.get(monomial, 0))
                     for monomial, coefficient in a.terms}
        return Prov(remaining)

    def min_(self, a, b):
        other = dict(b.terms)
        return Prov({monomial: min(coefficient, other.get(monomial, 0))
                     for monomial, coefficient in a.terms})

    def max_(self, a, b):
        merged = dict(a.terms)
        for monomial, coefficient in b.terms:
            merged[monomial] = max(merged.get(monomial, 0), coefficient)
        return Prov(merged)

    def is_zero(self, a):
        return not a.terms

    def leq(self, a, b):
        other = dict(b.terms)
        return all(coefficient <= other.get(monomial, 0)
                   for monomial, coefficient in a.terms)

    def from_int(self, n):
        return Prov.const(n)

    def _adapt_bag(self, bag, label):
        from repro.core.bag import Bag, canonical_key
        counts = {}
        ordered = sorted(bag.distinct(), key=canonical_key)
        for index, value in enumerate(ordered):
            multiplicity = bag.multiplicity(value)
            if isinstance(multiplicity, int):
                multiplicity = Prov.variable(f"{label}.{index}",
                                             multiplicity)
            # a Prov count (a result re-entering as a binding) is kept:
            # idempotent, never re-labelled; a foreign one is rejected
            counts[value] = self.coerce(multiplicity)
        return Bag.from_counts(counts)


# ----------------------------------------------------------------------
# Deep dedup (set-semantics input adaptation)
# ----------------------------------------------------------------------

def _deep_dedup(value: Any) -> Any:
    """Recursively collapse every bag to its support with count 1."""
    from repro.core.bag import Bag, Tup
    if isinstance(value, Bag):
        return Bag.from_counts(
            {_deep_dedup(element): 1 for element in value.distinct()})
    if isinstance(value, Tup):
        return Tup(*(_deep_dedup(item) for item in value.items()))
    return value


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

NAT = NatSemiring()
BOOL = BoolSemiring()
TROPICAL = TropicalSemiring()
PROVENANCE = ProvenancePolynomial()

#: Canonical name -> instance (aliases included).
SEMIRINGS: Dict[str, Semiring] = {
    "nat": NAT, "n": NAT, "bag": NAT,
    "bool": BOOL, "boolean": BOOL, "set": BOOL,
    "tropical": TROPICAL, "trop": TROPICAL, "minplus": TROPICAL,
    "provenance": PROVENANCE, "prov": PROVENANCE, "why": PROVENANCE,
}


def known_semirings() -> Tuple[str, ...]:
    """The canonical (non-alias) names, for help text."""
    return ("nat", "bool", "tropical", "provenance")


def resolve_semiring(
        spec: Union[str, Semiring, None]) -> Optional[Semiring]:
    """Resolve a name or instance; the N default normalises to None.

    Every execution layer treats ``None`` as "plain int counts, run
    the original fast path", so NatSemiring never pays the generic
    dispatch.
    """
    if spec is None:
        return None
    if isinstance(spec, Semiring):
        return None if isinstance(spec, NatSemiring) else spec
    name = str(spec).strip().lower()
    instance = SEMIRINGS.get(name)
    if instance is None:
        raise ValueError(
            f"unknown semiring {spec!r}; known: "
            + ", ".join(known_semirings()))
    return None if isinstance(instance, NatSemiring) else instance


def semiring_name(sr: Optional[Semiring]) -> str:
    """Canonical name of a resolved semiring (None -> 'nat')."""
    return "nat" if sr is None else sr.name
