"""Seeded populations shared by the test modules: (monoid, x, y) braiding
instances, constraint systems and two-generator presentations."""

import random

from kmon.cardinals import ALEPH0, aleph, at_most, fin
from kmon.core import CyclicExtensionMonoid, CyclicMonoid, Family
from kmon.diophantine import ConstraintSystem, DioMonoid
from kmon.free_vectors import CardVec, VecMonoid
from kmon.presentations import Form, TwoGenPresentation

W = ALEPH0
N0 = CyclicExtensionMonoid(CyclicMonoid())
VEC2 = VecMonoid(2, at_most(W))
# both systems are symmetric under swapping the two coordinates
DIO_A = DioMonoid(ConstraintSystem.make(2, equations=[((1, 0), (0, 1))]), at_most(W))
DIO_B = DioMonoid(ConstraintSystem.make(2, congruences=[((1, 1), 2)]), at_most(W))
SPLIT_MONOID = VecMonoid(2, at_most(aleph(2)))
_VEC2_ELEMS = [CardVec.fins(1, 0), CardVec.fins(0, 1), CardVec.fins(1, 1), CardVec.fins(2, 1)]


def braid_mix(seed):
    """Acceptance 5's 520 (monoid, x, y) instances, drawn from ``seed``."""
    rng = random.Random(seed)
    setups = [
        (N0, [fin(k) for k in range(1, 5)]),
        (VEC2, _VEC2_ELEMS),
        (DIO_A, [CardVec.fins(1, 1), CardVec.fins(2, 2)]),
        (DIO_B, [CardVec.fins(1, 1), CardVec.fins(2, 0), CardVec.fins(0, 2)]),
    ]
    mults = [fin(1), fin(2), fin(3), W]

    def family(elems):
        k = rng.randrange(0, 4)
        return Family.of((rng.choice(elems), rng.choice(mults)) for _ in range(k))

    for instance in range(520):
        m, elems = setups[instance % len(setups)]
        x = family(elems)
        if rng.random() < 0.5:
            y = family(elems)
        else:
            y = x.scale(rng.choice([fin(1), fin(2), W]))  # usually braidable
        yield m, x, y


def level_split_pairs(seed):
    """200 vec(2) pairs, over ``SPLIT_MONOID``, whose x has an aleph1 entry."""
    mults = [fin(1), fin(2), fin(3), W, aleph(1)]
    rng = random.Random(seed)
    for _ in range(200):
        extra = [(rng.choice(_VEC2_ELEMS), rng.choice(mults)) for _ in range(rng.randrange(0, 3))]
        x = Family.of([(rng.choice(_VEC2_ELEMS), aleph(1))] + extra)
        if rng.random() < 0.5:
            y = Family.of([(rng.choice(_VEC2_ELEMS), rng.choice(mults)) for _ in range(rng.randrange(1, 4))])
        else:
            y = x.scale(rng.choice([fin(1), fin(2), W, aleph(1)]))
        yield x, y


def random_system(rng, n, with_ineq=True):
    """Equations, inequalities (unless ``with_ineq`` is False) and a
    congruence over n variables, coefficients below 3."""
    eqs, ineqs, congs = [], [], []
    for _ in range(rng.randrange(0, 3)):
        a = tuple(rng.randrange(0, 3) for _ in range(n))
        b = tuple(rng.randrange(0, 3) for _ in range(n))
        if with_ineq and rng.random() < 0.4:
            ineqs.append((a, b))
        else:
            eqs.append((a, b))
    if rng.random() < 0.5:
        congs.append((tuple(rng.randrange(0, 3) for _ in range(n)), rng.randrange(2, 4)))
    return ConstraintSystem.make(n, eqs, ineqs, congs)


def one_shot_queries(n, seed):
    """One-shot queries on presentations with one to three relations, every
    coefficient in {0, 1, 2, 3, aleph0}."""
    rng = random.Random(seed)
    cards = [fin(0), fin(1), fin(2), fin(3), W]

    def form():
        return Form(rng.choice(cards), rng.choice(cards))

    out = []
    for _ in range(n):
        p = TwoGenPresentation.of([(form(), form()) for _ in range(rng.choice((1, 2, 3)))])
        out.append((p, form(), form()))
    return out
