"""Independent answer checks for the benchmark.

Every check here recomputes the expected answer from closed forms or brute
force written in this file.  Cardinals are read through their public
attributes only (``is_finite``, ``n``, ``aleph_level``) and modelled as plain
tuples: ``(0, n)`` for a finite ``n`` and ``(1, k)`` for ``aleph_k``, so
tuple order is cardinal order.  No kmon arithmetic is used to decide what
the right answer is.
"""

from __future__ import annotations

import itertools
import re

ZERO = (0, 0)
W = (1, 0)


def card(c) -> tuple[int, int]:
    return (0, c.n) if c.is_finite else (1, c.aleph_level)


def card_sum(pairs) -> tuple[int, int]:
    """Sum of value*multiplicity pairs: acceptance 2's closed form."""
    pairs = [(v, c) for v, c in pairs if v != ZERO and c != ZERO]
    if not pairs:
        return ZERO
    if all(v[0] == 0 and c[0] == 0 for v, c in pairs):
        return (0, sum(v[1] * c[1] for v, c in pairs))
    return (1, max(x[1] for v, c in pairs for x in (v, c) if x[0] == 1))


# -- braiding ---------------------------------------------------------------


def family_sum(fam) -> tuple:
    """Closed-form sum of a family of cardinals or cardinal vectors, as a
    tuple of coordinates."""
    out = None
    for e, m in fam:
        coords = (e,) if not hasattr(e, "coords") else e.coords
        out = out or [[] for _ in coords]
        for i, c in enumerate(coords):
            out[i].append((card(c), card(m)))
    return tuple(card_sum(col) for col in out) if out is not None else ()


def same_sum(x, y) -> bool:
    sx, sy = family_sum(x), family_sum(y)
    width = max(len(sx), len(sy))
    pad = lambda s: s + (ZERO,) * (width - len(s))
    return pad(sx) == pad(sy)


def n0_braidable(x, y) -> bool:
    """Acceptance 6's oracle over the nonnegative integers: two families
    braid iff both are finite with equal sums, or both are infinite."""

    def describe(fam):
        total, infinite = 0, False
        for e, m in fam:
            v, c = card(e), card(m)
            if v == ZERO or c == ZERO:
                continue
            if v[0] or c[0]:
                infinite = True
            else:
                total += v[1] * c[1]
        return infinite, total

    xi, xs = describe(x)
    yi, ys = describe(y)
    return xi == yi and (xi or xs == ys)


def finite_index(fam) -> bool:
    return all(card(m)[0] == 0 for e, m in fam if card(m) != ZERO)


# -- two-generator presentations ----------------------------------------------

_TARGET_RE = re.compile(r"cyclic-ext\((?:N0|cmn\((\d+),(\d+)\))\)")


class CyclicExt:
    """A cyclic monoid C(m, n) (free when m is None) with one adjoined
    countable element, enough to evaluate a homomorphism on forms."""

    def __init__(self, name: str):
        mt = _TARGET_RE.fullmatch(name)
        if mt is None:
            raise ValueError(f"unknown homomorphism target {name!r}")
        self.m = int(mt.group(1)) if mt.group(1) else None
        self.n = int(mt.group(2)) if mt.group(2) else 1

    def canon(self, v):
        if v[0] or self.m is None or v[1] < self.m:
            return v
        return (0, self.m + (v[1] - self.m) % self.n)

    def scale(self, coeff, v):
        coeff, v = card(coeff), self.canon(card(v))
        if coeff == ZERO or v == ZERO:
            return ZERO
        if coeff[0] or v[0]:
            return W
        return self.canon((0, coeff[1] * v[1]))

    def add(self, a, b):
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        if a[0] or b[0]:
            return W
        return self.canon((0, a[1] + b[1]))

    def form(self, va, vb, f):
        return self.add(self.scale(f.a, va), self.scale(f.b, vb))


def hom_separates(relations, f, g, witness) -> bool:
    """Re-evaluate a separating homomorphism: it must respect every relation
    and send f and g to different values."""
    name, va, vb = witness
    t = CyclicExt(name)
    if any(t.form(va, vb, l) != t.form(va, vb, r) for l, r in relations):
        return False
    return t.form(va, vb, f) != t.form(va, vb, g)


def is_infinite_form(f) -> bool:
    return not (f.a.is_finite and f.b.is_finite)


def is_zero_form(f) -> bool:
    return card(f.a) == ZERO and card(f.b) == ZERO


def structural_no_holds(relations, f, g, note: str):
    """Recheck the structural reason behind a No without a witness.  Returns
    None when the note names no structural reason checked here."""
    if note.startswith("free presentation"):
        return not relations and f != g
    if note.startswith("finite forms are rigid"):
        return (
            all(is_infinite_form(l) and is_infinite_form(r) for l, r in relations)
            and not is_infinite_form(f)
            and not is_infinite_form(g)
        )
    if note.startswith("rewrites preserve"):
        return all(
            is_infinite_form(l) == is_infinite_form(r) and is_zero_form(l) == is_zero_form(r)
            for l, r in relations
        ) and is_infinite_form(f) != is_infinite_form(g)
    return None


# -- constraint systems ---------------------------------------------------------


def dot(coeffs, vec) -> tuple[int, int]:
    return card_sum((v, (0, c)) for c, v in zip(coeffs, vec))


def satisfies(system, vec) -> bool:
    """Constraint evaluation on a vector of modelled cardinals: an infinite
    value behind a nonzero coefficient makes its side the max of its terms,
    and infinite values lie in every d-multiple set."""
    if any(dot(a, vec) != dot(b, vec) for a, b in system.equations):
        return False
    if any(dot(a, vec) > dot(b, vec) for a, b in system.inequalities):
        return False
    for a, d in system.congruences:
        v = dot(a, vec)
        if v[0] == 0 and v[1] % d:
            return False
    return True


def satisfies_int(system, x) -> bool:
    ip = lambda a: sum(c * v for c, v in zip(a, x))
    return (
        all(ip(a) == ip(b) for a, b in system.equations)
        and all(ip(a) <= ip(b) for a, b in system.inequalities)
        and all(ip(a) % d == 0 for a, d in system.congruences)
    )


class ExtensionOracle:
    """Acceptance 9's brute-force oracle for membership in H + aleph0*H:
    generate from all integer solutions in the radius box.

    Only what grid queries can ask is kept: the supports of the solutions,
    and for each set of infinite coordinates the finite parts, with entries
    up to ``finite_cap``, that some solution matches exactly.
    """

    def __init__(self, system, radius: int, finite_cap: int):
        self.n = system.n
        self.supports: set[frozenset] = set()
        self.fills: set[tuple] = set()
        subsets = [frozenset(c) for k in range(self.n + 1) for c in itertools.combinations(range(self.n), k)]
        for s in itertools.product(range(radius + 1), repeat=self.n):
            if not satisfies_int(system, s):
                continue
            self.supports.add(frozenset(i for i, v in enumerate(s) if v))
            for inf in subsets:
                rest = tuple(s[i] for i in range(self.n) if i not in inf)
                if all(v <= finite_cap for v in rest):
                    self.fills.add((inf, rest))

    def member(self, vec) -> bool:
        inf = frozenset(i for i, c in enumerate(vec) if c[0])
        if any(vec[i] != W for i in inf):
            return False
        union = set()
        for s in self.supports:
            if s <= inf:
                union |= s
        rest = tuple(vec[i][1] for i in range(self.n) if i not in inf)
        return union == set(inf) and (inf, rest) in self.fills
