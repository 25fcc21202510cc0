import itertools
import random

import pytest

from kmon.cardinals import ALEPH0, ZERO, aleph, at_most, card_sub_least, fin
from kmon.core import CyclicExtensionMonoid, CyclicMonoid, Family
from kmon.errors import DimensionError
from kmon.free_vectors import CardVec, VecMonoid, free_extend_hom, vec_ksum


def fam(*pairs):
    return Family.of(pairs)


def test_vec_ksum_worked_examples():
    assert vec_ksum(fam((CardVec.fins(1, 0), ALEPH0))) == CardVec.of(ALEPH0, ZERO)
    assert vec_ksum(
        fam((CardVec.fins(1, 2), fin(2)), (CardVec.fins(0, 1), fin(1)))
    ) == CardVec.fins(2, 5)
    assert vec_ksum(
        fam((CardVec.of(ALEPH0, fin(1)), fin(3)), (CardVec.of(fin(1), aleph(1)), ALEPH0))
    ) == CardVec.of(ALEPH0, aleph(1))


def test_length_mismatch_rejected():
    with pytest.raises(DimensionError):
        vec_ksum(fam((CardVec.fins(1), fin(1)), (CardVec.fins(1, 2), fin(1))))


def test_free_extend_hom_worked_examples():
    n0 = CyclicExtensionMonoid(CyclicMonoid())
    assert free_extend_hom([fin(1)], n0, CardVec.fins(5)) == fin(5)
    f2 = VecMonoid(2, at_most(ALEPH0))
    assert free_extend_hom([CardVec.fins(1, 1)], f2, CardVec.of(ALEPH0)) == CardVec.of(
        ALEPH0, ALEPH0
    )
    assert free_extend_hom(
        [CardVec.fins(1, 0), CardVec.fins(0, 1)], f2, CardVec.fins(0, 0)
    ) == f2.zero


def test_hom_restricts_to_generators():
    f2 = VecMonoid(2, at_most(ALEPH0))
    images = [CardVec.fins(2, 1), CardVec.fins(0, 3)]
    basis = [CardVec.fins(1, 0), CardVec.fins(0, 1)]
    for b, img in zip(basis, images):
        assert free_extend_hom(images, f2, b) == img


def test_hom_commutes_with_ksum_randomized():
    rng = random.Random(7)
    src = VecMonoid(2, at_most(aleph(2)))
    tgt = VecMonoid(3, at_most(aleph(2)))
    images = [tgt.sample_element(rng) for _ in range(2)]
    for _ in range(200):
        family = src.sample_family(rng)
        lhs = free_extend_hom(images, tgt, src.ksum(family))
        rhs = tgt.ksum(
            Family.of((free_extend_hom(images, tgt, v), m) for v, m in family)
        )
        assert lhs == rhs


def test_sub_is_coordinatewise_least_complement():
    # every pair over a small grid, the None cases included: one coordinate
    # without a complement leaves the vector without one
    grid = [fin(0), fin(1), fin(3), ALEPH0, aleph(1)]
    vecs = [CardVec(c) for c in itertools.product(grid, repeat=2)]
    m = VecMonoid(2)
    nones = 0
    for a, b in itertools.product(vecs, vecs):
        coords = [card_sub_least(x, y) for x, y in zip(a.coords, b.coords)]
        want = None if None in coords else CardVec(tuple(coords))
        assert m.sub(a, b) == want, (a, b)
        nones += want is None
    assert 0 < nones < len(vecs) ** 2
