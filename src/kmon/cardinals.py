"""Exact arithmetic and ordering for cardinals up to the symbolic bound aleph3.

Values are either non-negative integers or symbolic alephs ``aleph0 .. aleph3``
(``MAX_ALEPH_LEVEL``).  Sums with infinite content follow the closed form
``max(total index cardinality, sup of values)``; finite content sums as
ordinary integers.
"""

from __future__ import annotations

import functools
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Optional

from .errors import CardBoundError

MAX_ALEPH_LEVEL = 3


class Frozen:
    """Base of the immutable value classes: every field is set once, in
    ``__init__``, through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ExtCard(Frozen):
    """A cardinal: finite ``n`` (aleph_level is None) or ``aleph(level)``.

    The sort key, the hash and the three predicates are computed once, at
    construction: the fixed cardinals are interned, and the hot loops read
    them on every entry."""

    __slots__ = ("n", "aleph_level", "is_finite", "is_infinite", "is_zero", "_key", "_hash")

    def __init__(self, n: int = 0, aleph_level: Optional[int] = None):
        if aleph_level is not None:
            if aleph_level < 0 or aleph_level > MAX_ALEPH_LEVEL:
                raise CardBoundError(
                    f"aleph level {aleph_level} outside 0..{MAX_ALEPH_LEVEL}"
                )
            if n != 0:
                raise ValueError("aleph values carry no finite part")
            key = (1, aleph_level)
        elif n < 0:
            raise ValueError("finite cardinals are non-negative")
        else:
            key = (0, n)
        init = object.__setattr__
        init(self, "n", n)
        init(self, "aleph_level", aleph_level)
        init(self, "is_finite", aleph_level is None)
        init(self, "is_infinite", aleph_level is not None)
        init(self, "is_zero", aleph_level is None and n == 0)
        init(self, "_key", key)
        init(self, "_hash", hash(key))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not ExtCard:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return ExtCard, (self.n, self.aleph_level)

    def sort_key(self):
        return self._key

    def __le__(self, other: "ExtCard") -> bool:
        return self._key <= other._key

    def __lt__(self, other: "ExtCard") -> bool:
        return self._key < other._key

    def __ge__(self, other: "ExtCard") -> bool:
        return self._key >= other._key

    def __gt__(self, other: "ExtCard") -> bool:
        return self._key > other._key

    def __add__(self, other: "ExtCard") -> "ExtCard":
        # card_sum of the two, in closed form: the larger aleph absorbs
        a, b = self.aleph_level, other.aleph_level
        if a is None:
            return fin(self.n + other.n) if b is None else _ALEPHS[b]
        return _ALEPHS[a if b is None or b < a else b]

    def __mul__(self, other: "ExtCard") -> "ExtCard":
        return card_mul(self, other)

    def __str__(self) -> str:
        return render_card(self)

    def __repr__(self) -> str:
        if self.aleph_level is None:
            return f"fin({self.n})"
        return f"aleph({self.aleph_level})"


def fin(n: int) -> ExtCard:
    if 0 <= n < 256:
        return _FIN_CACHE[n]
    return ExtCard(n=n)


def aleph(level: int) -> ExtCard:
    if 0 <= level <= MAX_ALEPH_LEVEL:
        return _ALEPHS[level]
    return ExtCard(aleph_level=level)  # raises CardBoundError


_FIN_CACHE = tuple(ExtCard(n=i) for i in range(256))
_ALEPHS = tuple(ExtCard(aleph_level=k) for k in range(MAX_ALEPH_LEVEL + 1))
ZERO = fin(0)
FIN1 = fin(1)
ALEPH0 = aleph(0)


def infinite_levels(upto: ExtCard) -> list[ExtCard]:
    """All alephs aleph0 <= a <= upto, ascending."""
    if upto.is_finite:
        return []
    return list(_ALEPHS[: upto.aleph_level + 1])


def card_sum(items: Iterable[tuple[ExtCard, ExtCard]]) -> ExtCard:
    """Sum of a finite multiset of (value, count) pairs.

    Entries with value 0 or count 0 are absorbed.  If all values are finite
    and the total index count is finite, this is the ordinary integer sum;
    otherwise it is max(total index cardinality, sup of values).
    """
    total = 0   # integer sum when everything is finite
    top = -1    # largest aleph level seen in a value or an accumulated count
    for v, c in items:
        vl, cl = v.aleph_level, c.aleph_level
        if (vl is None and v.n == 0) or (cl is None and c.n == 0):
            continue
        if vl is not None and vl > top:
            top = vl
        if cl is None:
            if vl is None:
                total += v.n * c.n
        elif cl > top:
            top = cl
    if top < 0:
        return fin(total)
    return _ALEPHS[top]


def card_mul(a: ExtCard, b: ExtCard) -> ExtCard:
    """Ordinary product when both finite; 0 absorbs; otherwise max(a, b)."""
    if a.is_zero or b.is_zero:
        return ZERO
    al, bl = a.aleph_level, b.aleph_level
    if al is None:
        return fin(a.n * b.n) if bl is None else b
    return a if bl is None or bl < al else b


def card_sub_least(a: ExtCard, b: ExtCard) -> Optional[ExtCard]:
    """Least c with b + c = a, or None if b > a (no such c exists)."""
    ak, bk = a._key, b._key  # the sort keys: the search's fit test runs here
    if ak < bk:
        return None
    if a.aleph_level is None:
        return fin(a.n - b.n)
    if bk < ak:
        return a
    return ZERO  # a == b infinite; 0 is the least complement


@dataclass(frozen=True)
class CardBoundMode:
    """Summation bound: AtMost(kappa) admits index sets of cardinality <= kappa,
    Below(lam) only strictly smaller ones (lam regular; Below(aleph0) is a
    plain monoid).

    The admissible levels and the sort key of the largest admitted cardinal
    are derived once, at construction, so ``admits`` is one key compare.  A
    bound still compares, hashes, pickles and reprs by its two fields."""

    mode: str  # "at_most" | "below"
    card: ExtCard

    def __post_init__(self):
        if self.mode not in ("at_most", "below"):
            raise ValueError(f"unknown bound mode {self.mode!r}")
        if self.card.is_finite:
            raise ValueError("bound cardinal must be infinite")
        # the top admitted aleph level; -1 (below(aleph0)) admits none, and
        # (1, -1) sits above every finite key and below every aleph's
        k = self.card.aleph_level
        if self.mode == "below":
            k -= 1
        object.__setattr__(self, "_limit", (1, k))
        object.__setattr__(self, "_levels", _ALEPHS[: k + 1])

    def __reduce__(self):
        return CardBoundMode, (self.mode, self.card)

    def admits(self, count: ExtCard) -> bool:
        return count._key <= self._limit

    def admissible_levels(self) -> list[ExtCard]:
        """Infinite cardinals usable as multiplicities under this bound."""
        return list(self._levels)

    @property
    def top(self) -> Optional[ExtCard]:
        """The largest admissible multiplicity, the kappa of kappa*u; None
        for below(aleph0), the bound of a plain monoid."""
        levels = self._levels
        return levels[-1] if levels else None

    def __str__(self) -> str:
        return f"{self.mode}({self.card})"


# one shared instance per (mode, cardinal): a bound is immutable, and a
# plain monoid's below(aleph0) is asked for once per query
@functools.cache
def at_most(card: ExtCard) -> CardBoundMode:
    return CardBoundMode("at_most", card)


@functools.cache
def below(card: ExtCard) -> CardBoundMode:
    return CardBoundMode("below", card)


DEFAULT_BOUND = at_most(aleph(MAX_ALEPH_LEVEL))  # a monoid's bound unless one is given


def render_card(c: ExtCard) -> str:
    if c.aleph_level is None:
        return str(c.n)
    return f"aleph{c.aleph_level}"
