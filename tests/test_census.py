"""Exhaustive small censuses: every pair of a small, fixed universe, with no
randomness, as the standing measure of how many pairs each procedure
decides.  A pinned count may move only from Unknown to decided.

Run ``PYTHONPATH=src:tests python tests/test_census.py`` for the full vec(2)
census, at multiplicities {1, 2, aleph0}: 105 families, 11,025 pairs.
"""

import collections
import hashlib

from kmon.braiding import braid_find, flip, verify
from kmon.cardinals import ALEPH0, fin
from kmon.core import Family
from kmon.free_vectors import CardVec

from populations import VEC2

VALUES = [CardVec.fins(1, 0), CardVec.fins(0, 1), CardVec.fins(1, 1), CardVec.fins(2, 1), CardVec.fins(1, 2)]


def vec2_families(mults):
    """Every vec(2) family of one or two distinct ``VALUES``, each at a
    multiplicity from ``mults``: the singletons first, then the pairs."""
    fams = [Family.of([(e, mult)]) for e in VALUES for mult in mults]
    for i, e in enumerate(VALUES):
        for f in VALUES[i + 1 :]:
            fams += [Family.of([(e, a), (f, b)]) for a in mults for b in mults]
    return fams


def vec2_census(mults, budget=300):
    """braid_find on every ordered pair of ``vec2_families(mults)``: the
    count per (kind, note) and the sha256 of the kinds in pair order.  Every
    Yes replays, and so does its flip for the swapped pair."""
    counts, kinds = collections.Counter(), hashlib.sha256()
    fams = vec2_families(mults)
    for x in fams:
        for y in fams:
            r = braid_find(VEC2, x, y, budget=budget)
            counts[r.kind, r.note] += 1
            kinds.update(f"{r.kind}\n".encode())
            if r.is_yes:
                assert verify(VEC2, x, y, r.witness).is_yes, (x, y)
                assert verify(VEC2, y, x, flip(VEC2, r.witness)).is_yes, (x, y)
    return counts, kinds.hexdigest()


def test_vec2_census_slice_is_pinned():
    # multiplicities {1, aleph0}: 50 families, 2,500 ordered pairs
    assert len(vec2_families([fin(1), ALEPH0])) == 50
    counts, kinds = vec2_census([fin(1), ALEPH0])
    assert counts == {
        ("yes", ""): 258,
        ("no", "finite vs infinite form"): 1050,
        ("no", "sums differ"): 780,
        ("unknown", "no certificate within budget 300"): 412,
    }
    assert kinds == "b4188442e30b217a9ec0409c579c197eadb7b09aff684258b5d311ca53a0d7db"


if __name__ == "__main__":
    counts, kinds = vec2_census([fin(1), fin(2), ALEPH0])
    for (kind, note), n in sorted(counts.items()):
        print(f"{kind:8} {n:6}  {note}")
    print("kinds sha256", kinds)
