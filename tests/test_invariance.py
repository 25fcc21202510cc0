"""Metamorphic relations: restating a question must not change its answer.
An answer may move from Unknown to decided as a procedure improves, but never
between Yes and No, and never on one side of a restatement only.  The
restatements are swapping the two families of ``braid_find``, swapping the
coordinates of a symmetric monoid, the generators of a presentation or the
variables of a constraint system, raising the budget, and encoding one
monoid three ways."""

import functools
import itertools
import random

import pytest

from kmon.braiding import braid_find, flip, verify
from kmon.cardinals import ALEPH0, ExtCard, aleph, at_most, fin
from kmon.core import Family
from kmon.diophantine import Aleph0Extension, ConstraintSystem, DioMonoid, universal_extend
from kmon.dsl import parse_monoid
from kmon.free_vectors import CardVec
from kmon.gallery import TrivialExtensionMonoid, plain_n0
from kmon.presentations import Form, TwoGenPresentation, corollary_checks, realizable_two_gen

from populations import (
    DIO_A,
    DIO_B,
    N0,
    SPLIT_MONOID,
    VEC2,
    braid_mix,
    level_split_pairs,
    one_shot_queries,
    random_system,
)

W = ALEPH0
BUDGET, LARGE_BUDGET = 300, 40_000
MIX_PAIRS = 260


@functools.cache
def _cases(name):
    """(monoid, x, y, lambda) for a level-split population at each of its
    three lambdas, or for the first braid-mix pairs at aleph0."""
    if name == "mix":
        return [(m, x, y, W) for m, x, y in itertools.islice(braid_mix(50505), MIX_PAIRS)]
    pairs = list(level_split_pairs(int(name)))
    return [(SPLIT_MONOID, x, y, lam) for lam in (W, aleph(1), aleph(2)) for x, y in pairs]


@functools.cache
def _answers(name):
    return [braid_find(m, x, y, lam, budget=BUDGET) for m, x, y, lam in _cases(name)]


POPULATIONS = ["4141", "4242", "mix"]


@pytest.mark.parametrize("name", POPULATIONS)
def test_swapping_the_families_keeps_the_kind(name):
    for (m, x, y, lam), r in zip(_cases(name), _answers(name)):
        s = braid_find(m, y, x, lam, budget=BUDGET)
        assert r.kind == s.kind, (str(x), str(y), lam, r.note, s.note)
        for a, b, found in ((x, y, r), (y, x, s)):
            if found.is_yes:
                assert verify(m, b, a, flip(m, found.witness), lam).is_yes, (str(a), str(b), lam)


def _swap_coords(fam):
    return Family.of([(CardVec(e.coords[::-1]), mult) for e, mult in fam])


@pytest.mark.parametrize("name", POPULATIONS)
def test_swapping_the_coordinates_keeps_the_kind(name):
    # vec(2) and both braid-mix dio systems are symmetric in their two
    # coordinates; the mix's N0 pairs have no coordinates to swap
    checked = 0
    for (m, x, y, lam), r in zip(_cases(name), _answers(name)):
        if m not in (VEC2, DIO_A, DIO_B, SPLIT_MONOID):
            continue
        s = braid_find(m, _swap_coords(x), _swap_coords(y), lam, budget=BUDGET)
        assert r.kind == s.kind, (str(x), str(y), lam, r.note, s.note)
        checked += 1
    assert checked >= 195


@pytest.mark.parametrize("name", POPULATIONS)
def test_a_larger_budget_keeps_a_decided_answer(name):
    for (m, x, y, lam), r in zip(_cases(name), _answers(name)):
        if r.decided:
            big = braid_find(m, x, y, lam, budget=LARGE_BUDGET)
            assert big.kind == r.kind, (str(x), str(y), lam, r.note, big.note)


def test_a_level_part_with_one_empty_side_is_unknown_both_ways():
    # trivial(N0) sums aleph1 copies of 1 and aleph0 copies alike to its
    # top, so the pair passes the sum check, yet its aleph1 part holds
    # aleph0 copies of 1 on one side and nothing on the other
    m = TrivialExtensionMonoid(plain_n0())
    x = Family.of([(ExtCard(1), aleph(1))])
    y = Family.of([(ExtCard(1), W)])
    want = {
        W: "level aleph1 part: finite vs infinite form",
        aleph(1): "level aleph1 part: prefix block equation fails",
    }
    for lam, note in want.items():
        for a, b in ((x, y), (y, x)):
            r = braid_find(m, a, b, lam, budget=BUDGET)
            assert r.is_unknown and r.note == note, (str(a), str(b), lam, r.note)


# -- encodings --------------------------------------------------------------------


# two more encodings of each braid-mix monoid, with the maps of its elements
ENCODINGS = {
    N0: [
        (parse_monoid("vec(1)", at_most(W)), lambda e: CardVec((e,))),
        (parse_monoid("dio n=1 { }", at_most(W)), lambda e: CardVec((e,))),
    ],
    VEC2: [
        (parse_monoid("dio n=2 { }", at_most(W)), lambda e: e),
        (parse_monoid("twogen { }"), lambda e: Form(*e.coords)),
    ],
}


def test_the_encodings_of_one_monoid_agree():
    # the braid-mix pairs over N0 and vec(2), restated in vec(1) and
    # dio n=1 { }, or in dio n=2 { } and twogen { }: ksum maps to ksum, and
    # eq of the two sums and braid_find answer the same kind
    checked = 0
    for (m, x, y, lam), r in zip(_cases("mix"), _answers("mix")):
        if m not in ENCODINGS:
            continue
        sx, sy = m.ksum(x), m.ksum(y)
        want = (m.eq(sx, sy).kind, r.kind)
        for other, enc in ENCODINGS[m]:
            ex, ey = (Family.of([(enc(e), mult) for e, mult in fam]) for fam in (x, y))
            ox, oy = other.ksum(ex), other.ksum(ey)
            assert (ox, oy) == (enc(sx), enc(sy)), (other.name, str(x), str(y))
            got = (other.eq(ox, oy).kind, braid_find(other, ex, ey, lam, budget=BUDGET).kind)
            assert got == want, (other.name, str(x), str(y), got, want)
        checked += 1
    assert checked == MIX_PAIRS // 2


# -- coordinate permutations of constraint systems ----------------------------------


def _permuted(system, perm):
    """The system whose variable k is ``system``'s variable perm[k]."""
    move = lambda a: tuple(a[i] for i in perm)
    return ConstraintSystem.make(
        system.n,
        [(move(a), move(b)) for a, b in system.equations],
        [(move(a), move(b)) for a, b in system.inequalities],
        [(move(a), d) for a, d in system.congruences],
    )


def _permuted_systems(seed, count):
    """(system, permutation) over 2 or 3 variables, each permutation other
    than the identity."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 4)
        perm = list(range(n))
        while perm == sorted(perm):
            rng.shuffle(perm)
        yield random_system(rng, n), perm


def test_permuting_the_variables_keeps_the_extension_answers():
    # Aleph0Extension.member and universal_extend's member, on a system and
    # a vector against both with their variables permuted alike
    coords = [fin(0), fin(1), fin(2), W]
    kinds = set()
    for system, perm in _permuted_systems(18018, 40):
        other = _permuted(system, perm)
        ext, ext_p = Aleph0Extension(system, 6), Aleph0Extension(other, 6)
        big = universal_extend(DioMonoid(system, at_most(W)), aleph(1))
        big_p = universal_extend(DioMonoid(other, at_most(W)), aleph(1))
        for v in itertools.product(coords + [aleph(1)], repeat=system.n):
            u = CardVec(tuple(v[i] for i in perm))
            assert big.member(CardVec(v)) == big_p.member(u), (str(system), perm, v)
            if aleph(1) not in v:
                r, s = ext.member(CardVec(v)), ext_p.member(u)
                assert r.kind == s.kind, (str(system), perm, v, r.note, s.note)
                kinds.add(r.kind)
    assert {"yes", "no"} <= kinds, kinds


# -- presentations with the generators swapped --------------------------------------


def _swap(f: Form) -> Form:
    return Form(f.b, f.a)


def test_swapping_the_generators_keeps_both_reports():
    # both verdicts keep their kind, and each (i) condition of the swapped
    # presentation is the one with i and j swapped, with the same status,
    # exactness and witness; the first 16 seeded presentations keep the
    # module under 10 s
    presentations = list(dict.fromkeys(p for p, _, _ in one_shot_queries(500, 20261020)))
    checked = 0
    for p in presentations[:16]:
        q = TwoGenPresentation.of([(_swap(l), _swap(r)) for l, r in p.relations])
        a, b = corollary_checks(p, 2000), corollary_checks(q, 2000)
        assert a.verdict.kind == b.verdict.kind, str(p)
        a, b = realizable_two_gen(p, 2000), realizable_two_gen(q, 2000)
        assert a.verdict.kind == b.verdict.kind, str(p)
        for i, j in ((1, 2), (2, 1)):
            c, d = a.condition(f"(i) i={i},j={j}"), b.condition(f"(i) i={j},j={i}")
            assert (c is None) == (d is None), str(p)
            if c is not None:
                assert (c.status, c.exact, c.witness) == (d.status, d.exact, d.witness), str(p)
                checked += 1
    assert checked > 12, checked
