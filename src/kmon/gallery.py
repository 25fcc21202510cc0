"""Concrete monoids-with-infinite-summation drawn from module theory: the
trivial extension of a reduced monoid, the exact-rational line with its two
copies of each positive value, rank-and-class monoids over a finite abelian
group, and the membership predicate for the infinite part of the
stable-class monoid of a hereditary noetherian prime ring."""

from __future__ import annotations

import math
import random
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .cardinals import (
    ALEPH0,
    DEFAULT_BOUND,
    CardBoundMode,
    ExtCard,
    Frozen,
    ZERO,
    below,
    card_sum,
    fin,
)
from .core import CyclicExtensionMonoid, CyclicMonoid, Family, KappaMonoid
from .errors import DimensionError, PreconditionError
from .free_vectors import CardVec
from .tribool import TriBool, from_bool, no, yes

# -- trivial extension ----------------------------------------------------------


class Inf(Frozen):
    """The adjoined top element of a trivial extension.  Every instance is
    equal to every other: the class has no fields."""

    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Inf:
            return NotImplemented
        return True

    def __hash__(self) -> int:
        return hash(())  # the hash of a field-less value

    def __repr__(self) -> str:
        return "Inf()"

    def __reduce__(self):
        return Inf, ()

    def sort_key(self):
        return (2, "inf")

    def __str__(self):
        return "inf"


INF = Inf()


class TrivialExtensionMonoid(KappaMonoid):
    """A reduced base monoid plus a top element; any sum with infinite
    content is the top.  Generally different from the universal extension of
    the same base."""

    def __init__(self, base: KappaMonoid, bound: Optional[CardBoundMode] = None):
        if base.bound.top is not None:
            raise ValueError("trivial extension takes a plain (finite-sum) base")
        super().__init__(bound)
        self.base = base
        self.name = f"trivial({base.name})"

    @property
    def zero(self):
        return self.base.zero

    def raw_ksum(self, fam: Family):
        zero = self.base.zero
        ents = []
        for e, m in fam.entries:
            if e.__class__ is Inf:
                return INF
            if e == zero:
                continue
            if m.aleph_level is not None:
                # only an infinite multiple asks whether e is zero up to eq
                if not self.base.eq(e, zero).is_yes:
                    return INF
                continue
            # a zero only up to eq, finitely often, adds zero in the base sum
            ents.append((e, m))
        # a subset of canonical entries is canonical
        return self.base.raw_ksum(Family(tuple(ents)))

    def eq(self, a, b) -> TriBool:
        ia, ib = isinstance(a, Inf), isinstance(b, Inf)
        if ia or ib:
            return from_bool(ia and ib)
        return self.base.eq(a, b)

    def sub(self, a, b):
        if isinstance(a, Inf):
            return INF  # b + inf = inf for every b
        if isinstance(b, Inf):
            return None
        return self.base.sub(a, b)

    def finite_multiple_leq(self, u, x) -> TriBool:
        if isinstance(u, Inf):
            return yes(witness=0 if self.leq(x, self.zero).is_yes else 1)
        if isinstance(x, Inf):
            return no(note="the top element exceeds every finite multiple")
        return self.base.finite_multiple_leq(u, x)

    def sample_element(self, rng: random.Random):
        if rng.random() < 0.2:
            return INF
        return self.base.sample_element(rng)

    def canonical_order_unit(self):
        return self.base.canonical_order_unit()

    def canon(self, e):
        if isinstance(e, Inf):
            return e
        return self.base.canon(e)

    def member(self, x) -> bool:
        return isinstance(x, Inf) or self.base.member(x)


def plain_n0() -> CyclicExtensionMonoid:
    return CyclicExtensionMonoid(CyclicMonoid(), below(ALEPH0))


# -- the exact-rational line ----------------------------------------------------


_TAG_ORDER = {"plain": 0, "tilde": 1, "inf": 2}


class QPoint(Frozen):
    """A point of the rational-line monoid: a plain non-negative rational, a
    tilde copy of a positive rational, or the top.

    The sort key ``(tag order, numerator, denominator)`` is computed at
    construction and determines both fields, so equality compares keys; the
    hash, ``hash((q, tag))``, is cached the first time it is asked for."""

    __slots__ = ("q", "tag", "_key", "_hash")

    def __init__(self, q: Fraction, tag: str):  # tag: "plain" | "tilde" | "inf"
        if tag not in ("plain", "tilde", "inf"):
            raise ValueError(f"bad tag {tag}")
        if tag == "tilde" and q <= 0:
            raise ValueError("tilde points are positive")
        if tag == "plain" and q < 0:
            raise ValueError("plain points are non-negative")
        init = object.__setattr__
        init(self, "q", q)
        init(self, "tag", tag)
        init(self, "_key", (_TAG_ORDER[tag], q.numerator, q.denominator))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not QPoint:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.q, self.tag))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"QPoint(q={self.q!r}, tag={self.tag!r})"

    def __reduce__(self):
        return QPoint, (self.q, self.tag)

    @staticmethod
    def plain(q) -> "QPoint":
        return QPoint(Fraction(q), "plain")

    @staticmethod
    def tilde(q) -> "QPoint":
        return QPoint(Fraction(q), "tilde")

    def sort_key(self):
        return self._key

    def __str__(self):
        if self.tag == "inf":
            return "inf"
        s = str(self.q)
        return s if self.tag == "plain" else f"~{s}"


QINF = QPoint(Fraction(0), "inf")


class RationalLineMonoid(KappaMonoid):
    """Non-negative rationals, tilde copies of the positive ones, and a top;
    sums of infinite support land in the tilde copy, divergent ones at the
    top.  There is a single zero and a single top."""

    name = "qline"

    @cached_property
    def zero(self) -> QPoint:
        return QPoint.plain(0)

    def raw_ksum(self, fam: Family) -> QPoint:
        # integer arithmetic over a running common denominator, and one
        # Fraction, normalised, at the end
        num, den = 0, 1
        tag = "plain"
        for e, m in fam.entries:
            if e.tag == "inf":
                return QINF
            q = e.q
            p, d = q.numerator, q.denominator
            if p == 0:
                continue  # the plain zero: tilde points are positive
            if m.aleph_level is not None:
                return QINF  # a positive entry repeated infinitely often
            num = num * d + p * m.n * den
            den *= d
            if e.tag == "tilde":
                tag = "tilde"
        return QPoint(Fraction(num, den), tag)

    def sub(self, a: QPoint, b: QPoint) -> Optional[QPoint]:
        if a.tag == "inf":
            return QINF
        if b.tag == "inf":
            return None
        if a.tag == "plain":
            if b.tag != "plain" or b.q > a.q:
                return None
            return QPoint.plain(a.q - b.q)
        # a is a tilde point
        if b.tag == "plain":
            if b.q > a.q:
                return None
            if b.q == a.q:
                return None  # would need tilde(0)
            return QPoint.tilde(a.q - b.q)
        if b.q > a.q:
            return None
        return QPoint.plain(a.q - b.q)

    def finite_multiple_leq(self, u: QPoint, x: QPoint) -> TriBool:
        # exact by rational arithmetic
        if x == self.zero:
            return yes(witness=0)
        if u.tag == "inf":
            return yes(witness=1)
        if x.tag == "inf":
            return no(note="top exceeds every finite multiple")
        if u.q == 0:
            return no(note="u is zero")
        if x.tag == "tilde":
            if u.tag == "tilde":
                return yes(witness=max(1, math.ceil(x.q / u.q)))
            return no(note="tilde points never sit below plain multiples")
        if u.tag == "tilde":
            return yes(witness=int(x.q / u.q) + 1)  # strict domination needed
        return yes(witness=math.ceil(x.q / u.q))

    def sample_element(self, rng: random.Random) -> QPoint:
        r = rng.random()
        if r < 0.1:
            return QINF
        q = Fraction(rng.randrange(0, 8), rng.randrange(1, 5))
        if r < 0.5 or q == 0:
            return QPoint.plain(q)
        return QPoint.tilde(q)

    def canonical_order_unit(self) -> QPoint:
        return QPoint.plain(1)


# -- rank-and-class monoids over a finite abelian group --------------------------


class RankClass(Frozen):
    """Zero, a finite rank with a class in the group, or a pure infinite
    rank (the class collapses at infinite rank).

    The sort key ``(rank key, cls)`` is computed at construction and
    determines both fields, so equality compares keys; the hash,
    ``hash((rank, cls))``, is cached the first time it is asked for."""

    __slots__ = ("rank", "cls", "_key", "_hash")

    def __init__(self, rank: ExtCard, cls: tuple[int, ...]):
        init = object.__setattr__
        init(self, "rank", rank)
        init(self, "cls", cls)
        init(self, "_key", (rank._key, cls))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not RankClass:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.rank, self.cls))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"RankClass(rank={self.rank!r}, cls={self.cls!r})"

    def __reduce__(self):
        return RankClass, (self.rank, self.cls)

    def sort_key(self):
        return self._key

    def __str__(self):
        # the DSL literal: 0, (aleph1;) or (3; 1, 0)
        if self.rank.is_zero:
            return "0"
        if self.rank.is_infinite:
            return f"({self.rank};)"
        return f"({self.rank}; {', '.join(map(str, self.cls))})"


class DedekindVMonoid(KappaMonoid):
    """Projective-module style monoid over a Dedekind-like base: an element
    is a rank together with an ideal class, and any infinite rank forgets the
    class.  Elements with rank 0 have trivial class."""

    def __init__(self, factors: tuple[int, ...], bound: Optional[CardBoundMode] = None):
        if not all(f >= 1 for f in factors):
            raise ValueError("invariant factors are positive")
        super().__init__(bound)
        self.factors = tuple(factors)
        self.name = f"dedekind({','.join(map(str, factors))})"

    @cached_property
    def zero(self) -> RankClass:
        return RankClass(ZERO, tuple(0 for _ in self.factors))

    def elem(self, rank, cls=None) -> RankClass:
        """The element of rank ``rank`` and class ``cls`` (default: the
        trivial class); a class needs one entry per invariant factor."""
        if cls is not None and len(cls) != len(self.factors):
            raise DimensionError(
                f"a class of {self.name} has length {len(self.factors)}, got {len(cls)}"
            )
        rank = fin(rank) if isinstance(rank, int) else rank
        if rank.is_zero or rank.is_infinite:
            return RankClass(rank, self.zero.cls)
        cls = tuple(cls) if cls is not None else self.zero.cls
        return RankClass(rank, tuple(c % f for c, f in zip(cls, self.factors)))

    def raw_ksum(self, fam: Family) -> RankClass:
        ents = fam.entries
        total = card_sum([(e.rank, m) for e, m in ents])
        if total.aleph_level is not None or total.n == 0:
            return RankClass(total, self.zero.cls)
        # finite rank: every entry of nonzero rank has a finite rank and count
        cls = [0] * len(self.factors)
        for e, m in ents:
            if e.rank.n:
                k = m.n
                for i, c in enumerate(e.cls):
                    cls[i] += c * k
        return RankClass(total, tuple([c % f for c, f in zip(cls, self.factors)]))

    def sub(self, a: RankClass, b: RankClass) -> Optional[RankClass]:
        if b.rank.is_zero:
            return a
        if a.rank.is_infinite:
            if not b.rank <= a.rank:
                return None
            if b.rank == a.rank:
                return self.zero  # least complement
            return a
        if b.rank.is_infinite or not b.rank <= a.rank:
            return None
        if a.rank == b.rank:
            return self.zero if a.cls == b.cls else None
        diff = tuple(
            (x - y) % f for x, y, f in zip(a.cls, b.cls, self.factors)
        )
        return RankClass(fin(a.rank.n - b.rank.n), diff)

    def finite_multiple_leq(self, u: RankClass, x: RankClass) -> TriBool:
        # exact: a strictly smaller positive rank is always a summand, so the
        # scan is bounded by the rank of x plus one; n*u is u for n >= 1 when
        # u has infinite rank
        if x.rank.is_infinite:
            if u.rank.is_infinite and x.rank <= u.rank:
                return yes(witness=1)
            return no(note="infinite rank exceeds every finite multiple")
        if u.rank.is_zero:
            return yes(witness=0) if x.rank.is_zero else no(note="u is zero")
        bound = 2 if u.rank.is_infinite else x.rank.n + 2
        acc = self.zero
        for n in range(bound):
            if self.leq(x, acc).is_yes:
                return yes(witness=n)
            acc = self.add(acc, u)
        return no()

    def sample_element(self, rng: random.Random) -> RankClass:
        r = rng.random()
        if r < 0.15:
            return self.zero
        levels = self.bound._levels  # none under below(aleph0)
        if r < 0.35 and levels:
            return RankClass(rng.choice(levels), self.zero.cls)
        return self.elem(
            rng.randrange(1, 5), [rng.randrange(f) for f in self.factors]
        )

    def canonical_order_unit(self) -> RankClass:
        return self.elem(1)

    def member(self, x: RankClass) -> bool:
        """The defining predicate: the rank is a positive finite one, or the
        class is trivial and the bound admits the rank."""
        if x.rank.is_zero or x.rank.is_infinite:
            trivial = all(c % f == 0 for c, f in zip(x.cls, self.factors))
            return trivial and self.bound.admits(x.rank)
        return True


# -- hereditary noetherian prime rings: the infinite part ------------------------


class HNPPredicate:
    """Membership of the infinite part over a finite index set with
    distinguished index 0 and positive local ranks ``c``, with coordinates
    the bound admits; a CLI-addressable predicate, not a summation
    structure."""

    def __init__(self, c: tuple[Fraction, ...], bound: Optional[CardBoundMode] = None):
        self.c = tuple(c)
        self.bound = bound if bound is not None else DEFAULT_BOUND

    @property
    def name(self) -> str:
        return f"hnp(c={','.join(str(q) for q in self.c)})"

    def member(self, x: CardVec) -> bool:
        """The distinguished coordinate must be infinite and dominate the
        others, and (with positive local ranks over a finite index set)
        every coordinate must be infinite."""
        if len(x) != len(self.c):
            raise ValueError("rank vector and local ranks differ in length")
        if any(ci <= 0 for ci in self.c):
            raise ValueError("local ranks are positive")
        x0 = x[0]
        if not x0.is_infinite:
            raise PreconditionError("the distinguished coordinate must be infinite")
        # finitely many indices: a finite coordinate would sit below n*c_i for
        # large n ever after, which the defining condition forbids
        return self.bound.admits(x0) and all(c.is_infinite and c <= x0 for c in x.coords)
