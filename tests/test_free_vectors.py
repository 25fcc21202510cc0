import itertools
import random

import pytest

from kmon.cardinals import ALEPH0, FIN1, ZERO, aleph, at_most, card_sub_least, card_sum, fin
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


def column_sums(n, fam):
    """The definition of a vector sum: card_sum down each column."""
    return CardVec(tuple(card_sum([(v[i], c) for v, c in fam.entries]) for i in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_pass_raw_ksum_matches_card_sum_per_column(n):
    rng = random.Random(20261023 + n)
    values = [ZERO, FIN1, fin(2), fin(7)] + [aleph(k) for k in range(4)]
    counts = [ZERO, FIN1, fin(3)] + [aleph(k) for k in range(4)]
    m = VecMonoid(n)
    fams = [
        # raw families, not canonical: repeats and zero multiplicities stay
        Family(tuple(
            (CardVec(tuple(rng.choice(values) for _ in range(n))), rng.choice(counts))
            for _ in range(rng.randrange(2, 6))
        ))
        for _ in range(400)
    ]
    zero_coord = CardVec((ZERO,) * n)
    one = CardVec((FIN1,) + (ZERO,) * (n - 1))
    big = CardVec((ALEPH0,) * n)
    fams += [
        Family(((zero_coord, aleph(2)), (one, FIN1))),  # an aleph count on zeros is absorbed
        Family(((one, aleph(1)), (zero_coord, aleph(3)))),
        Family(((big, fin(3)), (one, fin(2)))),  # an aleph value with a finite count
        Family(((one, ZERO), (one, fin(2)), (big, ZERO))),  # zero multiplicities
        Family(((one, FIN1), (one, FIN1))),
    ]
    for fam in fams:
        assert m.raw_ksum(fam) == column_sums(n, fam), fam
    assert m.raw_ksum(Family(((zero_coord, aleph(2)), (one, FIN1)))) == one
    assert m.raw_ksum(Family(((big, fin(3)), (one, fin(2))))) == big
    # a wrong-length entry raises wherever it stands, under any multiplicity
    short = CardVec((FIN1,) * (n - 1))
    for bad in (
        Family(((one, FIN1), (short, FIN1))),
        Family(((short, ALEPH0), (one, FIN1))),
        Family(((one, FIN1), (CardVec((FIN1,) * (n + 1)), ZERO))),
    ):
        with pytest.raises(DimensionError):
            m.raw_ksum(bad)
