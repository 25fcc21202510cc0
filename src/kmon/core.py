"""The abstract monoid-with-infinite-summation contract and concrete cyclic
monoids.

A ``KappaMonoid`` carries a zero, a summation over families, and a (possibly
three-valued) equality predicate.  Families are order-free finite multisets of
``(element, cardinal multiplicity)`` pairs; re-labelling invariance of the
summation is thereby a representation invariant rather than an axiom to check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from .cardinals import (
    DEFAULT_BOUND,
    CardBoundMode,
    ExtCard,
    FIN1,
    Frozen,
    ZERO,
    card_mul,
    card_sub_least,
    card_sum,
    fin,
)
from .errors import BoundExceededError, PreconditionError, SearchExhausted
from .tribool import TriBool, from_bool, no, unknown, yes

SEARCH_BOUND = 64  # most multiples the default finite-multiple scan tries


def sort_key(x: Any):
    # namespaced by type so heterogeneous elements stay comparable
    sk = getattr(x, "sort_key", None)
    if sk is not None:
        return (type(x).__name__, sk())
    return ("~" + type(x).__name__, str(x))


def _entry_key(entry: tuple[Any, ExtCard]):
    elem, mult = entry
    return (sort_key(elem), mult._key)


def _own_entry_key(entry: tuple[Any, ExtCard]):
    elem, mult = entry
    return (elem.sort_key(), mult._key)


def _key_of(elems: Iterable[Any]):
    """The entry key that sorts a family over ``elems`` as ``_entry_key``
    does: the elements' own keys when they share one keyed class (the
    type-name prefix is then equal across entries), else ``_entry_key``."""
    it = iter(elems)
    cls = next(it).__class__
    if getattr(cls, "sort_key", None) is None:
        return _entry_key
    for e in it:
        if e.__class__ is not cls:
            return _entry_key
    return _own_entry_key


class Family(Frozen):
    """Finite multiset of (element, multiplicity) pairs, multiplicities >= 1.

    Canonical form merges equal elements by cardinal addition of their
    multiplicities and sorts entries by a stable element key.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Any, ExtCard], ...]):
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Family:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Family(entries={self.entries!r})"

    def __reduce__(self):
        return Family, (self.entries,)

    @staticmethod
    def of(pairs: Iterable[tuple[Any, ExtCard]]) -> "Family":
        if isinstance(pairs, (list, tuple)) and len(pairs) == 1:
            elem, mult = pairs[0]
            return _EMPTY if mult.is_zero else Family(((elem, mult),))
        merged: dict[Any, ExtCard] = {}
        for elem, mult in pairs:
            if mult.is_zero:
                continue
            prev = merged.get(elem)
            merged[elem] = mult if prev is None else prev + mult
        if not merged:
            return _EMPTY
        items = list(merged.items())
        if len(items) > 1:
            items.sort(key=_key_of(merged))
        return Family(tuple(items))

    @staticmethod
    def empty() -> "Family":
        return _EMPTY

    def mult_of(self, elem: Any) -> ExtCard:
        for e, m in self.entries:
            if e == elem:
                return m
        return ZERO

    def index_card(self) -> ExtCard:
        """Total index cardinality (all entries, zeros included)."""
        return card_sum((m, FIN1) for _, m in self.entries)

    def add(self, other: "Family") -> "Family":
        """Multiset union: a merge of the two sorted entry tuples."""
        a, b = self.entries, other.entries
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (e, m), (f, n) = a[i], b[j]
            ke, kf = sort_key(e), sort_key(f)
            if ke < kf:
                out.append(a[i])
                i += 1
            elif kf < ke:
                out.append(b[j])
                j += 1
            elif e == f:
                out.append((e, m + n))
                i += 1
                j += 1
            else:  # distinct elements on one key: the multiplicities order them
                return Family.of(a + b)
        return Family(tuple(out) + a[i:] + b[j:])

    def scale(self, a: ExtCard) -> "Family":
        # the elements stay distinct and card_mul is monotone: still sorted
        if a.is_zero:
            return _EMPTY
        return Family(tuple([(e, card_mul(a, m)) for e, m in self.entries]))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __str__(self):
        inner = ", ".join(f"{e}*{m}" for e, m in self.entries)
        return "{" + inner + "}"


_EMPTY = Family(())


def flatten(outer: Iterable[tuple[Family, ExtCard]]) -> Family:
    """Flatten a family of families: multiset union with multiplicities
    multiplied through (the representation-level flattening axiom).
    ``outer`` is a ``Family`` of families or any iterable of (family,
    weight) pairs: cardinal multiplication distributes over the sum that
    merging equal families takes, so both give the same family."""
    pairs: list[tuple[Any, ExtCard]] = []
    for inner, mult in outer:
        for e, m in inner.entries:
            pairs.append((e, card_mul(mult, m)))
    return Family.of(pairs)


class KappaMonoid:
    """Interface for monoids with summation over families within a bound.

    Implementations must be immutable and free of shared mutable state.
    Equality may be three-valued; laws are asserted only on decided pairs.
    """

    name: str = "monoid"

    def __init__(self, bound: Optional[CardBoundMode] = None):
        self.bound = bound if bound is not None else DEFAULT_BOUND
        # the multiplicities the law harness samples, one tuple per monoid
        self._sample_mults = (FIN1, fin(2), fin(3), *self.bound._levels)

    @property
    def zero(self) -> Any:
        raise NotImplementedError

    def raw_ksum(self, fam: Family) -> Any:
        raise NotImplementedError

    def eq(self, a: Any, b: Any) -> TriBool:
        return from_bool(a == b)

    def canon(self, e: Any) -> Any:
        """The representative of ``e``'s class; elements are canonical by default."""
        return e

    def member(self, x: Any) -> bool:
        """Is ``x`` an element of this monoid?  Every value of the element
        type is, unless the monoid says otherwise."""
        return True

    def support_card(self, fam: Family) -> ExtCard:
        z = self.zero
        return card_sum((m, FIN1) for e, m in fam if not self.eq(e, z).is_yes)

    def ksum(self, fam: Family) -> Any:
        """The sum of ``fam`` after the bound check on its index set.  The
        entries are not checked for ``member``: a library caller passes
        elements of this monoid.  Membership is checked at the boundary,
        by ``dsl.parse_family`` on the entries of a family it reads and by
        ``braiding.verify`` on the carries of a certificate, because a check
        on every sum would cost a large share of the arithmetic it guards."""
        # a finite sum of admitted cardinals is admitted (the bound is
        # infinite, and regular under below), so the support can only break
        # the bound through an over-bound multiplicity, and then only on a
        # nonzero element; admitted means a sort key at most the bound's limit
        limit = self.bound._limit
        for _, m in fam.entries:
            if m._key > limit:
                cnt = self.support_card(fam)
                if not self.bound.admits(cnt):
                    raise BoundExceededError(
                        f"family index cardinality {cnt} violates bound {self.bound}"
                    )
                break
        return self.raw_ksum(fam)

    def add(self, a: Any, b: Any) -> Any:
        # Family.of's canonical {a, b}, built directly; equal sort keys keep
        # the input order, as its stable sort does
        if a == b:
            return self.raw_ksum(Family(((a, fin(2)),)))
        cls = a.__class__
        if cls is b.__class__ and getattr(cls, "sort_key", None) is not None:
            if b.sort_key() < a.sort_key():  # one keyed class: its own keys
                a, b = b, a
        elif sort_key(b) < sort_key(a):
            a, b = b, a
        return self.raw_ksum(Family(((a, FIN1), (b, FIN1))))

    def scalar(self, a: ExtCard, x: Any) -> Any:
        if a.is_zero:
            return self.zero
        fam = Family(((x, a),))  # Family.of's canonical {x*a}
        if a._key <= self.bound._limit:
            return self.raw_ksum(fam)  # an admitted index set passes the bound check
        return self.ksum(fam)  # raises unless x is zero

    def leq(self, a: Any, b: Any) -> TriBool:
        """Does some c satisfy a + c = b?  (The algebraic preorder.)"""
        c = self.sub(b, a)
        if c is None:
            return no()
        return yes(witness=c)

    def sub(self, a: Any, b: Any) -> Optional[Any]:
        """A canonical c with b + c = a, or None when there is none (or it is
        not known how to find one)."""
        raise NotImplementedError

    def finite_multiple_leq(self, u: Any, x: Any) -> TriBool:
        """Is x <= n*u for some finite n?  Default: a scan of the first
        SEARCH_BOUND multiples, Unknown on exhaustion; the scan is exact when
        the multiples stabilize, and concrete monoids override with fully
        exact answers."""
        acc = self.zero
        for n in range(SEARCH_BOUND + 1):
            if self.leq(x, acc).is_yes:
                return yes(witness=n)
            nxt = self.add(acc, u)
            if self.eq(nxt, acc).is_yes:
                return no(note=f"multiples of u stabilize at {acc}")
            acc = nxt
        return unknown(note=f"no finite multiple found up to {SEARCH_BOUND}")

    def sample_element(self, rng: random.Random) -> Any:
        raise NotImplementedError

    def sample_mults(self) -> tuple[ExtCard, ...]:
        return self._sample_mults

    def sample_family(self, rng: random.Random, max_entries: int = 4) -> Family:
        mults = self.sample_mults()
        k = rng.randrange(max_entries + 1)
        return Family.of(
            [(self.sample_element(rng), rng.choice(mults)) for _ in range(k)]
        )

    def canonical_order_unit(self) -> Optional[Any]:
        """An order-unit to exercise order-unit laws against, if one is known."""
        return None


# -- derived operations -------------------------------------------------------


def is_reduced_witness(m: KappaMonoid, a: Any, b: Any) -> bool:
    """Precondition a + b = 0; returns whether a = 0 = b (always true in a
    lawful monoid -- the swindle)."""
    if not m.eq(m.add(a, b), m.zero).is_yes:
        raise PreconditionError("a + b = 0 does not hold")
    return m.eq(a, m.zero).is_yes and m.eq(b, m.zero).is_yes


def order_unit_check(m: KappaMonoid, u: Any, probes: Iterable[Any]) -> TriBool:
    """True iff every probe x admits x' with x + x' = kappa*u."""
    kappa = m.bound.top
    if kappa is None:
        # plain monoid: classic order-unit, bounded search over finite multiples
        for x in probes:
            r = m.finite_multiple_leq(u, x)
            if not r.is_yes:
                return r
        return yes()
    top = m.scalar(kappa, u)
    for x in probes:
        r = m.leq(x, top)
        if not r.is_yes:
            return no(witness=x) if r.is_no else r
    return yes()


def size_of(m: KappaMonoid, u: Any, x: Any) -> ExtCard:
    """0 if x <= n*u for some finite n, else the least infinite a with
    x <= a*u.  Raises SearchExhausted via Unknown when the finite search
    cannot be decided."""
    r = m.finite_multiple_leq(u, x)
    if r.is_yes:
        return ZERO
    if r.is_unknown:
        raise SearchExhausted(str(r.note))
    for a in m.bound.admissible_levels():
        if m.leq(x, m.scalar(a, u)).is_yes:
            return a
    raise PreconditionError("u is not an order-unit for x")


def absorb_big(m: KappaMonoid, u: Any, t: Any, l: Any) -> bool:
    """Precondition t = kappa*u + l; asserts t = kappa*u."""
    kappa = m.bound.top
    if kappa is None:
        raise PreconditionError("a plain monoid has no kappa*u")
    top = m.scalar(kappa, u)
    if not m.eq(t, m.add(top, l)).is_yes:
        raise PreconditionError("t = kappa*u + l does not hold")
    return m.eq(t, top).is_yes


# -- cyclic monoids ------------------------------------------------------------


@dataclass(frozen=True)
class CyclicMonoid:
    """A cyclic commutative monoid: the free one (m is None) or C_{m,n} with
    m + n elements, where classes k and l coincide iff k = l or n divides
    |k - l| and min(k, l) >= m."""

    m: Optional[int] = None  # None = free
    n: int = 1

    def __post_init__(self):
        if self.m is not None and (self.m < 0 or self.n < 1):
            raise ValueError("need m >= 0 and n >= 1")

    @property
    def is_free(self) -> bool:
        return self.m is None

    @property
    def is_reduced(self) -> bool:
        return self.m is None or self.m >= 1

    def canon(self, k: int) -> int:
        if self.m is None or k < self.m:
            return k
        return self.m + (k - self.m) % self.n

    def add(self, a: int, b: int) -> int:
        return self.canon(a + b)

    def __str__(self):
        return "N0" if self.m is None else f"cmn({self.m},{self.n})"


class CyclicExtensionMonoid(KappaMonoid):
    """The faithful extension of a reduced cyclic monoid by the chain of
    infinite cardinals up to the configured bound.

    Elements are ExtCard values; finite values are canonical class
    representatives, infinite values are the adjoined cardinals.  The free
    case is exactly the monoid of all cardinals up to the bound.
    """

    def __init__(self, cyc: CyclicMonoid, bound: Optional[CardBoundMode] = None):
        if not cyc.is_reduced:
            raise ValueError(
                "faithful extension needs a reduced cyclic monoid (m >= 1 or free)"
            )
        super().__init__(bound)
        self.cyc = cyc
        self.name = f"cyclic-ext({cyc})"

    @property
    def zero(self) -> ExtCard:
        return ZERO

    def canon(self, x: ExtCard) -> ExtCard:
        if x.is_finite:
            return fin(self.cyc.canon(x.n))
        return x

    def member(self, x: ExtCard) -> bool:
        return self.bound.admits(x)  # every finite value is a class representative

    def raw_ksum(self, fam: Family) -> ExtCard:
        # the sum of the elements as cardinals, then one canon: canon is a
        # homomorphism from N and sends only 0 to 0, and infinite content
        # collapses the class structure to cardinal size
        total = card_sum(fam.entries)
        if total.aleph_level is None and self.cyc.m is not None:
            return fin(self.cyc.canon(total.n))
        return total

    def eq(self, a: ExtCard, b: ExtCard) -> TriBool:
        if a is b:
            return yes()
        return from_bool(self.canon(a) == self.canon(b))

    def sub(self, a: ExtCard, b: ExtCard) -> Optional[ExtCard]:
        a, b = self.canon(a), self.canon(b)
        if a.is_infinite or b.is_infinite:
            return card_sub_least(a, b)  # least complement, 0 at equal alephs
        if self.cyc.is_free:
            return fin(a.n - b.n) if b.n <= a.n else None
        span = self.cyc.m + self.cyc.n
        for c in range(span):
            if self.cyc.add(b.n, c) == a.n:
                return fin(c)
        return None

    def finite_multiple_leq(self, u: ExtCard, x: ExtCard) -> TriBool:
        x = self.canon(x)
        if x.is_infinite:
            # only an infinite u helps, and then n*u = u for every n >= 1
            if self.leq(x, u).is_yes:
                return yes(witness=1)
            return no(note="infinite element exceeds every finite multiple")
        if self.cyc.is_free and not u.is_zero:
            # n*u is the integer n*u.n, or u itself for infinite u and n >= 1
            if u.is_infinite:
                return yes(witness=0 if x.is_zero else 1)
            return yes(witness=-(-x.n // u.n))
        return super().finite_multiple_leq(u, x)

    def sample_element(self, rng: random.Random) -> ExtCard:
        levels = self.bound._levels
        if levels and rng.random() < 0.25:
            return rng.choice(levels)
        span = 8 if self.cyc.is_free else self.cyc.m + self.cyc.n
        return fin(rng.randrange(span))

    def canonical_order_unit(self) -> ExtCard:
        return FIN1
