"""Free monoids on a finite basis: fixed-length vectors of cardinals with
coordinatewise summation."""

from __future__ import annotations

import random
from functools import cached_property
from typing import Any, Optional

from .cardinals import (
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
from .core import Family, KappaMonoid
from .errors import DimensionError
from .tribool import TriBool, no, yes


class CardVec(Frozen):
    """Element of the rank-n free monoid: an n-tuple of cardinals.

    The sort key and the hash are cached the first time they are asked for,
    not at construction: most vectors are sums that are never hashed."""

    __slots__ = ("coords", "_key", "_hash")

    def __init__(self, coords: tuple[ExtCard, ...]):
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not CardVec:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.coords)
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"CardVec(coords={self.coords!r})"

    def __reduce__(self):
        return CardVec, (self.coords,)

    @staticmethod
    def of(*cs: ExtCard) -> "CardVec":
        return CardVec(tuple(cs))

    @staticmethod
    def fins(*ns: int) -> "CardVec":
        return CardVec(tuple(fin(n) for n in ns))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> ExtCard:
        return self.coords[i]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    def sort_key(self):
        try:
            return self._key
        except AttributeError:
            key = tuple([c._key for c in self.coords])
            object.__setattr__(self, "_key", key)
            return key

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def vec_zero(n: int) -> CardVec:
    return CardVec((ZERO,) * n)


class VecMonoid(KappaMonoid):
    """F^n with coordinatewise cardinal summation, under an AtMost or Below
    bound (Below(aleph0) gives the plain finite-vector monoid)."""

    def __init__(self, n: int, bound: Optional[CardBoundMode] = None):
        super().__init__(bound)
        self.n = n

    @cached_property
    def name(self) -> str:
        return f"vec({self.n})@{self.bound}"

    @cached_property
    def zero(self) -> CardVec:
        return vec_zero(self.n)

    def member(self, x: CardVec) -> bool:
        # the bound admits every coordinate iff it admits the largest
        return self.bound.admits(max(x.coords, default=ZERO))

    def _check_dim(self, v: CardVec) -> None:
        if len(v) != self.n:
            raise DimensionError(f"expected length {self.n}, got {len(v)}")

    def raw_ksum(self, fam: Family) -> CardVec:
        ents = fam.entries
        n = self.n
        if len(ents) == 1:
            v, m = ents[0]
            if len(v.coords) != n:
                self._check_dim(v)
            if m is FIN1:  # an equal uninterned 1 takes the product path
                return v
            return CardVec(tuple([card_mul(m, c) for c in v.coords]))  # {v*m}
        if not ents:
            return self.zero
        for v, _ in ents:
            if len(v.coords) != n:
                self._check_dim(v)
        mults = [m for _, m in ents]
        columns = zip(*[v.coords for v, _ in ents])
        return CardVec(tuple([card_sum(zip(col, mults)) for col in columns]))

    def sub(self, a: CardVec, b: CardVec) -> Optional[CardVec]:
        out = []
        for x, y in zip(a.coords, b.coords):
            d = card_sub_least(x, y)
            if d is None:
                return None
            out.append(d)
        return CardVec(tuple(out))

    def finite_multiple_leq(self, u: CardVec, x: CardVec) -> TriBool:
        # exact: x <= n*u for some finite n iff coordinatewise x_i is zero
        # wherever u_i = 0, finite wherever u_i is finite, and at most u_i
        # wherever u_i is infinite (n*u_i = u_i for n >= 1)
        need = 0
        for i in range(self.n):
            if x[i].is_zero:
                continue
            if u[i].is_zero:
                return no(note=f"coordinate {i}: {x[i]} vs 0 forever")
            if x[i].is_infinite and not (u[i].is_infinite and x[i] <= u[i]):
                return no(note=f"coordinate {i} is infinite")
            need = max(need, 1 if u[i].is_infinite else -(-x[i].n // u[i].n))
        return yes(witness=need)

    def sample_element(self, rng: random.Random) -> CardVec:
        levels = self.bound._levels
        out = []
        for _ in range(self.n):
            if levels and rng.random() < 0.3:
                out.append(rng.choice(levels))
            else:
                out.append(fin(rng.randrange(5)))
        return CardVec(tuple(out))

    def canonical_order_unit(self) -> CardVec:
        return CardVec(tuple(FIN1 for _ in range(self.n)))


def vec_ksum(fams: Family, n: Optional[int] = None) -> CardVec:
    """Coordinatewise sum with multiplicities of a family of equal-length
    vectors."""
    if len(fams) == 0:
        if n is None:
            raise DimensionError("empty family needs an explicit length")
        return vec_zero(n)
    dim = len(fams.entries[0][0])
    return VecMonoid(dim).ksum(fams)


def free_extend_hom(images: list[Any], target: KappaMonoid, x: CardVec) -> Any:
    """The unique homomorphism out of the free monoid determined by generator
    images, evaluated at x: the target-sum of images weighted by coordinates."""
    if len(images) != len(x):
        raise DimensionError(f"{len(images)} images for length-{len(x)} vector")
    fam = Family.of(
        (img, c) for img, c in zip(images, x.coords) if not c.is_zero
    )
    return target.ksum(fam)
