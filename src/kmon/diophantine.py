"""Submonoids of cardinal-vector monoids cut out by homogeneous linear
equations, inequalities, and congruences.

Constraints on vectors with infinite coordinates evaluate by cardinal
arithmetic, which reduces each side to a max-comparison; a congruence holds
automatically at infinite values.  Extension along the cardinal chain keeps
the same system; every member splits into a finite-level part plus
aleph-patterns, one per infinite level.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .cardinals import (
    ALEPH0,
    CardBoundMode,
    ExtCard,
    FIN1,
    ZERO,
    at_most,
    card_sum,
    fin,
    infinite_levels,
)
from .core import Family, KappaMonoid, draw
from .errors import DimensionError, PreconditionError
from .free_vectors import CardVec, VecMonoid
from .tribool import TriBool, no, unknown, yes

DEFAULT_RADIUS = 32


@dataclass(frozen=True)
class ConstraintSystem:
    """Homogeneous constraints over n variables: a.x = b.x, a.x <= b.x, and
    a.x in d*F (membership in the d-multiples)."""

    n: int
    equations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    inequalities: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    congruences: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self):
        for a, b in self.equations + self.inequalities:
            if len(a) != self.n or len(b) != self.n:
                raise DimensionError("coefficient vector length mismatch")
            _check_coefficients(a + b)
        for a, d in self.congruences:
            if len(a) != self.n:
                raise DimensionError("coefficient vector length mismatch")
            _check_coefficients(a)
            if type(d) is not int:
                raise ValueError(f"congruence modulus must be an integer, got {d!r}")
            if d < 1:
                raise ValueError("congruence modulus must be >= 1")

    @staticmethod
    def make(n, equations=(), inequalities=(), congruences=()) -> "ConstraintSystem":
        return ConstraintSystem(
            n,
            tuple((tuple(a), tuple(b)) for a, b in equations),
            tuple((tuple(a), tuple(b)) for a, b in inequalities),
            tuple((tuple(a), d) for a, d in congruences),
        )

    def __str__(self) -> str:
        """The system in the DSL's `dio` syntax."""
        parts = []
        for a, b in self.equations:
            parts.append(f"eq: {render_linear(a)} = {render_linear(b)};")
        for a, b in self.inequalities:
            parts.append(f"ineq: {render_linear(a)} <= {render_linear(b)};")
        for a, d in self.congruences:
            parts.append(f"cong: {render_linear(a)} in {d}N;")
        return f"dio n={self.n} {{ " + " ".join(parts) + " }"

    # The compiled form: sparse rows, each half built on first use and kept
    # in the instance dict as plain tuples, so a used system still
    # compares, hashes, pickles and prints as a fresh one.

    @cached_property
    def _int_rows(self) -> tuple:
        """Integer rows: ((i, a_i - b_i), ...) per equation and per
        inequality, and ((i, a_i), ...) with its modulus per congruence."""

        def diff(a, b):
            return _sparse([ai - bi for ai, bi in zip(a, b)])

        return (
            tuple(diff(a, b) for a, b in self.equations),
            tuple(diff(a, b) for a, b in self.inequalities),
            tuple((_sparse(a), d) for a, d in self.congruences),
        )

    @cached_property
    def _card_rows(self) -> tuple:
        """Cardinal rows: ((i, fin(a_i)), ...) per side of each equation and
        inequality, and per congruence with its modulus."""
        return (
            tuple((_sparse(a, fin), _sparse(b, fin)) for a, b in self.equations),
            tuple((_sparse(a, fin), _sparse(b, fin)) for a, b in self.inequalities),
            tuple((_sparse(a, fin), d) for a, d in self.congruences),
        )


def _check_coefficients(coeffs: tuple) -> None:
    for c in coeffs:
        if type(c) is not int or c < 0:
            raise ValueError(f"coefficients are non-negative integers, got {c!r}")


def _sparse(coeffs, value=int) -> tuple:
    """The nonzero coefficients as (index, value(coefficient)) pairs."""
    return tuple((i, value(c)) for i, c in enumerate(coeffs) if c)


def satisfies_card(sys: ConstraintSystem, x: CardVec) -> bool:
    """Evaluate all constraints on a cardinal vector.  With an infinite
    coordinate behind a nonzero coefficient, each side collapses to the max
    of its terms, which is exactly what cardinal evaluation produces."""
    if len(x) != sys.n:
        raise DimensionError(f"vector length {len(x)} != {sys.n}")
    v = x.coords
    eqs, ineqs, congs = sys._card_rows
    for a, b in eqs:
        if card_sum((v[i], c) for i, c in a) != card_sum((v[i], c) for i, c in b):
            return False
    for a, b in ineqs:
        if not card_sum((v[i], c) for i, c in a) <= card_sum((v[i], c) for i, c in b):
            return False
    for a, d in congs:
        s = card_sum((v[i], c) for i, c in a)
        if s.is_finite and s.n % d != 0:
            return False  # infinite values lie in every d*F
    return True


def _int_test(sys: ConstraintSystem) -> Callable[[tuple[int, ...]], bool]:
    """The predicate "the integer point x satisfies sys" over the compiled
    rows: equations, then inequalities, then congruences, each in system
    order."""
    eqs, ineqs, congs = sys._int_rows

    def holds(x: tuple[int, ...]) -> bool:
        for row in eqs:
            t = 0
            for i, c in row:
                t += c * x[i]
            if t:
                return False
        for row in ineqs:
            t = 0
            for i, c in row:
                t += c * x[i]
            if t > 0:
                return False
        for row, d in congs:
            t = 0
            for i, c in row:
                t += c * x[i]
            if t % d:
                return False
        return True

    return holds


def satisfies_int(sys: ConstraintSystem, x: tuple[int, ...]) -> bool:
    return _int_test(sys)(x)


def render_linear(coeffs: tuple[int, ...]) -> str:
    terms = [
        (f"{c} x{i}" if c != 1 else f"x{i}") for i, c in enumerate(coeffs) if c
    ]
    return " + ".join(terms) if terms else "0 x0"


class DioMonoid(VecMonoid):
    """The solution set of a constraint system inside a vector monoid; closed
    under summation within the bound."""

    def __init__(self, system: ConstraintSystem, bound: Optional[CardBoundMode] = None):
        super().__init__(system.n, bound)
        self.system = system

    @cached_property
    def name(self) -> str:
        return f"{self.system}@{self.bound}"

    def member(self, x: CardVec) -> bool:
        return super().member(x) and satisfies_card(self.system, x)

    @cached_property
    def _generators(self) -> list[CardVec]:
        # small finite solutions plus admissible all-or-nothing aleph patterns
        nonzero = (s for s in solutions(self.system, [range(4)] * self.n) if any(s))
        gens = [CardVec(tuple(fin(c) for c in sol)) for sol in itertools.islice(nonzero, 12)]
        for pat in itertools.product((ZERO, ALEPH0), repeat=self.n):
            v = CardVec(pat)
            if not v.is_zero and self.member(v):
                gens.append(v)
        return gens

    def sample_element(self, rng: random.Random) -> CardVec:
        gens = self._generators
        if not gens:
            return self.zero
        mults = self.sample_mults()
        k = draw(rng, 3)
        if not k:
            return self.zero
        # a list, so that the drawn pairs take Family.of's closed forms
        g, n = len(gens), len(mults)
        fam = Family.of([(gens[draw(rng, g)], mults[draw(rng, n)]) for _ in range(k)])
        return self.raw_ksum(fam)

    @staticmethod
    def _slack(a: CardVec, b: CardVec) -> list[int]:
        """The coordinates where a - b is not unique: a_i = b_i infinite."""
        return [i for i in range(len(a)) if a[i].is_infinite and a[i] == b[i]]

    def sub(self, a: CardVec, b: CardVec) -> Optional[CardVec]:
        # the coordinatewise least difference is not always a member; try it
        # and a few aleph-slack variants before giving up
        base = super().sub(a, b)
        if base is None:
            return None
        if self.member(base):
            return base
        slack = self._slack(a, b)
        for pat in itertools.product((False, True), repeat=len(slack)):
            coords = list(base.coords)
            for flag, i in zip(pat, slack):
                coords[i] = a[i] if flag else ZERO
            v = CardVec(tuple(coords))
            if self.member(v):
                return v
        return None

    def leq(self, a: CardVec, b: CardVec) -> TriBool:
        c = self.sub(b, a)
        if c is not None:
            return yes(witness=c)
        if super().sub(b, a) is None:
            return no()  # not even coordinatewise
        if not self._slack(b, a):
            return no(note="the only complement is not a member")
        return unknown(note="no member complement found among canonical candidates")

    def finite_multiple_leq(self, u: CardVec, x: CardVec) -> TriBool:
        # the coordinatewise closed form is exact for saturated systems
        # (equations and congruences); with inequalities, x <= n*u also
        # needs a complement of x in n*u that is a member
        r = super().finite_multiple_leq(u, x)
        if r.is_no or not self.system.inequalities:
            return r
        if all(c.is_finite for c in u.coords + x.coords):
            # for members u and x, c = n*u - x >= 0 meets every equation and
            # congruence, and a.c <= b.c reads n*alpha <= beta with
            # alpha = (a-b).u <= 0 and beta = (a-b).x <= 0
            need = r.witness
            ui, xi = [c.n for c in u.coords], [c.n for c in x.coords]
            for k, row in enumerate(self.system._int_rows[1]):
                alpha = sum(c * ui[i] for i, c in row)
                beta = sum(c * xi[i] for i, c in row)
                if alpha < 0:
                    need = max(need, -(beta // -alpha))  # ceil(beta / alpha)
                elif beta < 0:
                    return no(note=f"every complement breaks inequality {k}")
            return yes(witness=need)
        r = KappaMonoid.finite_multiple_leq(self, u, x)
        return r if r.is_yes else unknown(note="no n*u with a member complement of x found")

    def canonical_order_unit(self) -> Optional[CardVec]:
        gens = self._generators
        if not gens:
            return None
        return self.raw_ksum(Family.of((g, FIN1) for g in gens))


def universal_extend(m: DioMonoid, to: ExtCard) -> DioMonoid:
    """Enlarge the bound; the defining system is unchanged."""
    if m.bound != at_most(ALEPH0):
        raise PreconditionError("universal extension starts from at_most(aleph0)")
    if to.is_finite:
        raise PreconditionError("target bound must be infinite")
    return DioMonoid(m.system, at_most(to))


def decompose(m: DioMonoid, alpha: CardVec) -> tuple[CardVec, dict[ExtCard, CardVec]]:
    """Split a member into a countable-level part plus one aleph-pattern per
    infinite level:  beta_i = min(alpha_i, aleph0); the level-lam pattern has
    aleph0 wherever alpha_i >= lam.  All parts solve the same system and the
    weighted recombination returns alpha."""
    if not m.member(alpha):
        raise PreconditionError(f"{alpha} is not a member")
    beta = CardVec(tuple(min(c, ALEPH0) for c in alpha.coords))
    gammas: dict[ExtCard, CardVec] = {}
    for lam in infinite_levels(m.bound.card):
        g = CardVec(tuple(ALEPH0 if lam <= c else ZERO for c in alpha.coords))
        gammas[lam] = g
    return beta, gammas


def recombine(beta: CardVec, gammas: dict[ExtCard, CardVec]) -> CardVec:
    n = len(beta)
    fam = Family.of([(beta, FIN1)] + [(g, lam) for lam, g in gammas.items()])
    return VecMonoid(n).raw_ksum(fam)


def solutions(sys: ConstraintSystem, box: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """The points of ``box`` that satisfy ``sys``, lazily and in
    lexicographic order.  ``box[i]`` holds the values of coordinate i: a
    ``range``, or a one-value tuple for a pinned coordinate."""
    return filter(_int_test(sys), itertools.product(*box))


def enumerate_solutions(sys: ConstraintSystem, radius: int) -> list[tuple[int, ...]]:
    """All integer solutions with coordinates in 0..radius, in lexicographic
    order (deterministic for reporting)."""
    return list(solutions(sys, [range(radius + 1)] * sys.n))


# -- integer lattices (Hermite normal form) -------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _comb(s: int, x: list[int], t: int, y: list[int]) -> list[int]:
    return [s * p + t * q for p, q in zip(x, y)]


class IntLattice:
    """The integer combinations of ``gens``, integer vectors of length
    ``dim``, as the row Hermite normal form of the matrix whose rows are the
    generators (Cohen, *A Course in Computational Algebraic Number Theory*,
    §2.4): basis rows with positive pivots in strictly increasing columns,
    each entry above a pivot reduced into 0..pivot-1, and each row's
    coefficients over ``gens``.  Built once; ``least_point`` then answers
    box questions about the cosets of the lattice."""

    def __init__(self, gens: Sequence[tuple[int, ...]], dim: int):
        rows = [list(g) for g in gens]
        coeffs = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
        self.pivots: list[int] = []
        r = 0
        for col in range(dim):
            if r == len(rows):
                break
            for i in range(r + 1, len(rows)):
                a, b = rows[r][col], rows[i][col]
                if b:
                    # the unimodular [[s, t], [-b/g, a/g]] leaves the gcd in
                    # row r and a zero in row i
                    g, s, t = _xgcd(a, b)
                    for mat in (rows, coeffs):
                        x, y = mat[r], mat[i]
                        mat[r], mat[i] = _comb(s, x, t, y), _comb(-b // g, x, a // g, y)
            piv = rows[r][col]
            if not piv:
                continue
            if piv < 0:
                for mat in (rows, coeffs):
                    mat[r] = [-v for v in mat[r]]
                piv = -piv
            for i in range(r):
                q = rows[i][col] // piv
                for mat in (rows, coeffs):
                    mat[i] = _comb(1, mat[i], -q, mat[r])
            self.pivots.append(col)
            r += 1
        self.basis, self.coeffs = rows[:r], coeffs[:r]
        self.ngens = len(rows)

    def least_point(
        self, offset: tuple[int, ...], upper: tuple[int, ...]
    ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The lexicographically least point p of offset + L with 0 <= p <=
        upper coordinatewise, and integer coefficients over the generators
        of p - offset; None when the box holds no point of the coset.

        Exact, by a search over the basis rows in order: the coordinates
        before row i's pivot no longer change once rows 0..i-1 are added, so
        they are tested there, and row i's multiple ranges over the values
        that put its pivot coordinate in the box, in increasing order, which
        visits the points in lexicographic order.  Reducing the offset modulo
        L alone is not enough: when L has lower rank than the box, the
        residue may lie outside the box while another coset point lies in
        it."""
        first = self.pivots[0] if self.pivots else len(offset)
        if not all(0 <= offset[k] <= upper[k] for k in range(first)):
            return None
        ends = self.pivots[1:] + [len(offset)]

        def search(i: int, point: list[int], ts: list[int]):
            if i == len(self.basis):
                return point, ts
            c, row = self.pivots[i], self.basis[i]
            h = row[c]
            for t in range(-(point[c] // h), (upper[c] - point[c]) // h + 1):
                nxt = _comb(1, point, t, row)
                if all(0 <= nxt[k] <= upper[k] for k in range(c + 1, ends[i])):
                    found = search(i + 1, nxt, ts + [t])
                    if found is not None:
                        return found
            return None

        found = search(0, list(offset), [])
        if found is None:
            return None
        point, ts = found
        coeffs = [0] * self.ngens
        for t, row in zip(ts, self.coeffs):
            coeffs = _comb(1, coeffs, t, row)
        return tuple(point), tuple(coeffs)


# -- exact rational feasibility (Fourier-Motzkin over Fractions) ---------------


def _fm_feasible(
    eqs: list[tuple[list[Fraction], Fraction]],
    ineqs: list[tuple[list[Fraction], Fraction]],
    nvars: int,
) -> bool:
    """Feasibility of {A z + a = 0, B z + b <= 0} over the rationals."""
    eqs = [(row[:], c) for row, c in eqs]
    ineqs = [(row[:], c) for row, c in ineqs]
    alive = list(range(nvars))

    # eliminate with equations first (Gaussian substitution)
    while eqs:
        row, const = eqs.pop()
        piv = next((j for j in alive if row[j] != 0), None)
        if piv is None:
            if const != 0:
                return False
            continue
        coef = row[piv]
        expr = ([-(v / coef) for v in row], -(const / coef))  # z_piv = expr

        def subst(target):
            trow, tconst = target
            f = trow[piv]
            if f == 0:
                return target
            nrow = [
                tv + f * ev if j != piv else Fraction(0)
                for j, (tv, ev) in enumerate(zip(trow, expr[0]))
            ]
            return (nrow, tconst + f * expr[1])

        eqs = [subst(t) for t in eqs]
        ineqs = [subst(t) for t in ineqs]
        alive.remove(piv)

    # Fourier-Motzkin on the remaining inequalities
    for j in alive:
        pos = [t for t in ineqs if t[0][j] > 0]
        neg = [t for t in ineqs if t[0][j] < 0]
        rest = [t for t in ineqs if t[0][j] == 0]
        new = rest
        for prow, pc in pos:
            for nrow, nc in neg:
                s = prow[j]
                t = -nrow[j]
                row = [t * a + s * b for a, b in zip(prow, nrow)]
                row[j] = Fraction(0)
                new.append((row, t * pc + s * nc))
        ineqs = new
    return all(c <= 0 for row, c in ineqs)


def _relaxation_rows(sys: ConstraintSystem):
    def dense(row):
        out = [Fraction(0)] * sys.n
        for i, c in row:
            out[i] = Fraction(c)
        return out, Fraction(0)

    eqs, ineqs, _ = sys._int_rows
    return [dense(row) for row in eqs], [dense(row) for row in ineqs]


def rational_feasible(
    sys: ConstraintSystem,
    fixed: dict[int, int],
    lower_one: Optional[int] = None,
) -> bool:
    """Is there a rational z >= 0 satisfying the relaxed system (congruences
    dropped), with z_i pinned for i in `fixed` and optionally z_j >= 1?

    Scaling makes this equivalent to integer-plus-congruence solvability for
    the homogeneous questions used here (any positive rational solution
    scales to an integer one meeting all congruences)."""
    n = sys.n
    eqs, ineqs = _relaxation_rows(sys)
    for i in range(n):
        row = [Fraction(0)] * n
        row[i] = Fraction(-1)
        ineqs.append((row, Fraction(0)))  # z_i >= 0
    for i, v in fixed.items():
        row = [Fraction(0)] * n
        row[i] = Fraction(1)
        eqs.append((row, Fraction(-v)))  # z_i = v
    if lower_one is not None:
        row = [Fraction(0)] * n
        row[lower_one] = Fraction(-1)
        ineqs.append((row, Fraction(1)))  # z_j >= 1
    return _fm_feasible(eqs, ineqs, n)


# -- the countable extension of a plain Diophantine monoid ---------------------


@dataclass
class Aleph0Extension:
    """Membership predicate for H + aleph0*H, the countable universal
    extension of a plain constraint-defined monoid: x = h + (h' with nonzero
    coordinates inflated to aleph0), h and h' solutions."""

    system: ConstraintSystem
    radius: int = DEFAULT_RADIUS
    _pattern_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def member(self, x: CardVec) -> TriBool:
        sys = self.system
        if len(x) != sys.n:
            raise DimensionError(f"vector length {len(x)} != {sys.n}")
        inf = tuple(i for i in range(sys.n) if x[i].is_infinite)
        if any(x[i].aleph_level not in (None, 0) for i in range(sys.n)):
            return no(note="coordinates above aleph0 are outside this extension")
        if not inf:
            ok = satisfies_int(sys, tuple(c.n for c in x.coords))
            return yes(witness=x) if ok else no(note="finite part violates system")

        # (b) a solution supported exactly on the infinite coordinates must
        # exist; exact via the rational relaxation per coordinate
        pat = self._pattern_feasible(inf)
        if not pat.is_yes:
            return pat

        # (a) a solution matching the finite coordinates exactly
        fixed = {i: x[i].n for i in range(sys.n) if i not in inf}
        for a, d in sys.congruences:
            # congruences untouched by the free coordinates evaluate directly
            if all(a[i] == 0 for i in inf):
                if sum(a[i] * v for i, v in fixed.items()) % d != 0:
                    return no(note="a congruence on the finite coordinates fails")
        if not rational_feasible(sys, fixed):
            return no(note="finite coordinates cannot be completed to a solution")
        scan = range(self.radius + 1)
        cand = next(solutions(sys, [scan if c.is_infinite else (c.n,) for c in x.coords]), None)
        if cand is not None:
            return yes(witness=(cand, inf))
        return unknown(note=f"no integer completion with entries <= {self.radius}")

    def _pattern_feasible(self, inf: tuple[int, ...]) -> TriBool:
        if inf in self._pattern_cache:
            return self._pattern_cache[inf]
        sys = self.system
        fixed_zero = {i: 0 for i in range(sys.n) if i not in inf}
        out = yes()
        for i0 in inf:
            if not rational_feasible(sys, fixed_zero, lower_one=i0):
                out = no(
                    note=f"no solution supported in {inf} with coordinate {i0} nonzero"
                )
                break
        self._pattern_cache[inf] = out
        return out

    def describe(self, radius: int = 4) -> str:
        gens = enumerate_solutions(self.system, radius)
        # "w" and 0 do not compare; sort the supports as 0 < w
        pats = sorted(
            {tuple("w" if g else 0 for g in sol) for sol in gens if any(sol)},
            key=lambda p: [g != 0 for g in p],
        )
        return (
            f"H + aleph0*H with H generated (up to radius {radius}) by "
            f"{[g for g in gens if any(g)]}; aleph0-patterns {pats}"
        )


def aleph0_extend_finite(m: DioMonoid, radius: int = DEFAULT_RADIUS) -> Aleph0Extension:
    """The countable extension H + aleph0*H of a plain (finite-sum) monoid."""
    if m.bound.top is not None:
        raise PreconditionError("source must be a plain monoid: bound below(aleph0)")
    return Aleph0Extension(m.system, radius)

