"""Metamorphic relations of ``braid_find``: restating a question must not
change its answer.  An answer may move from Unknown to decided as the search
improves, but never between Yes and No, and never on one side of a
restatement only."""

import functools
import itertools

import pytest

from kmon.braiding import braid_find, flip, verify
from kmon.cardinals import ALEPH0, ExtCard, aleph
from kmon.core import Family
from kmon.free_vectors import CardVec
from kmon.gallery import TrivialExtensionMonoid, plain_n0

from populations import DIO_A, DIO_B, SPLIT_MONOID, VEC2, braid_mix, level_split_pairs

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
    want = {W: "level aleph1 part: finite vs infinite form", aleph(1): "level split rejected: "}
    for lam, note in want.items():
        for a, b in ((x, y), (y, x)):
            r = braid_find(m, a, b, lam, budget=BUDGET)
            assert r.is_unknown and r.note.startswith(note), (str(a), str(b), lam, r.note)
