"""``verify`` has two paths: block equations on integer vectors when every
value of a certificate has an integer view and every multiplicity is
finite, and the monoid's own arithmetic otherwise.  A monoid wrapper that
hides the views forces the generic path; both paths must give the same
(kind, note, witness) on every braid-mix Yes certificate and on single
perturbations of it."""

import collections
from dataclasses import replace

import pytest

from kmon.braiding import BraidBlock, LayeredCertificate, OmegaCertificate, _chain_views, braid_find, verify
from kmon.cardinals import ALEPH0, aleph, at_most, fin
from kmon.core import CyclicExtensionMonoid, CyclicMonoid, Family
from kmon.errors import DimensionError
from kmon.free_vectors import CardVec, VecMonoid

from populations import braid_mix


class _NoViews:
    """``m`` with no integer views, so that ``verify`` takes its generic
    path; everything else is ``m``'s own."""

    def __init__(self, m):
        self._m = m

    def __getattr__(self, name):
        return getattr(self._m, name)

    def int_vector(self, x):
        return None


def _answer(r):
    return r.kind, r.note, r.witness


def _nudged(x, d):
    """``x`` with one coordinate moved by d, for each coordinate that stays
    a finite cardinal."""
    coords = x.coords if isinstance(x, CardVec) else (x,)
    for i, c in enumerate(coords):
        if c.is_finite and c.n + d >= 0:
            moved = coords[:i] + (fin(c.n + d),) + coords[i + 1 :]
            yield CardVec(moved) if isinstance(x, CardVec) else moved[0]


def _block_variants(b):
    """``b`` with one carry coordinate moved by +-1, or with one finite
    multiplicity raised by 1."""
    for field in ("u", "v_next"):
        for d in (1, -1):
            for value in _nudged(getattr(b, field), d):
                yield replace(b, **{field: value})
    for side in ("iblock", "jblock"):
        entries = getattr(b, side).entries
        for k, (e, mult) in enumerate(entries):
            if mult.is_finite:
                raised = entries[:k] + ((e, fin(mult.n + 1)),) + entries[k + 1 :]
                yield replace(b, **{side: Family.of(raised)})


def _chain_variants(chain):
    """Single perturbations of a chain: one block varied, or the cycle's
    last block dropped."""
    blocks = chain.prefix + chain.cycle
    p = len(chain.prefix)
    for k, b in enumerate(blocks):
        for v in _block_variants(b):
            changed = blocks[:k] + (v,) + blocks[k + 1 :]
            yield OmegaCertificate(changed[:p], changed[p:])
    if chain.cycle:
        yield OmegaCertificate(chain.prefix, chain.cycle[:-1])


def _variants(cert):
    """``cert`` itself, then each single perturbation of one of its layers."""
    yield cert
    for k, (w, chain) in enumerate(cert.layers):
        for v in _chain_variants(chain):
            yield LayeredCertificate(cert.layers[:k] + ((w, v),) + cert.layers[k + 1 :])


@pytest.mark.parametrize("population", [50505, 60606])
def test_verify_paths_agree_on_braid_mix_certificates(population):
    notes = collections.Counter()
    certificates = 0
    for m, x, y in braid_mix(population):
        r = braid_find(m, x, y, budget=2500)
        if not r.is_yes:
            continue
        certificates += 1
        assert _chain_views(m, r.witness) is not None, (m.name, x, y)
        for cert in _variants(r.witness):
            got = _answer(verify(m, x, y, cert))
            assert got == _answer(verify(_NoViews(m), x, y, cert)), (m.name, x, y, cert)
            notes[got[1].split(" on ")[0].split(" of ")[0]] += 1
    assert certificates >= 180
    # the perturbations reach every check the two paths share
    assert {
        "",
        "carry element outside the monoid",
        "prefix block equation fails",
        "cycle block equation fails",
        "prefix ends with nonzero carry",
        "consumption mismatch",
        "consumption",
    } <= set(notes), notes


def test_integer_path_declines_a_collapsed_certificate():
    # above aleph0 a layer is one block of aleph0 copies, whose multiplicities
    # leave the integer path; the generic path gives the same answers
    m = VecMonoid(2, at_most(aleph(2)))
    x = Family.of([(CardVec.fins(1, 1), aleph(1)), (CardVec.fins(1, 0), fin(1))])
    y = Family.of([(CardVec.fins(1, 1), aleph(1))])
    r = braid_find(m, x, y, lam=aleph(1))
    blocks = [b for _, chain in r.witness.layers for b in chain.prefix]
    assert r.is_yes and any(mult == ALEPH0 for b in blocks for _, mult in b.iblock)
    assert _chain_views(m, r.witness) is None
    for cert in _variants(r.witness):
        assert _answer(verify(m, x, y, cert, aleph(1))) == _answer(verify(_NoViews(m), x, y, cert, aleph(1)))


def test_integer_path_declines_an_infinite_multiplicity():
    # every value has a view, but aleph0 copies of zero leave the integer
    # path: the block-size and finite-cycle rules still see them
    n0 = CyclicExtensionMonoid(CyclicMonoid())
    one = Family.of([(fin(1), fin(1))])
    zeros = Family.of([(fin(0), ALEPH0), (fin(1), fin(1))])
    plain, padded = BraidBlock(one, one, fin(1), fin(0)), BraidBlock(zeros, one, fin(1), fin(0))
    cases = [
        (OmegaCertificate((padded,)), ALEPH0, "block size aleph0 not below aleph0"),
        (OmegaCertificate((padded,)), aleph(1), ""),
        (OmegaCertificate((plain,), (padded,)), aleph(1), "cycle blocks must have finite multiplicities"),
    ]
    for chain, lam, note in cases:
        cert = LayeredCertificate.of(chain)
        assert _chain_views(n0, cert) is None
        got = _answer(verify(n0, one, one, cert, lam))
        assert got[1] == note and got == _answer(verify(_NoViews(n0), one, one, cert, lam))


def test_integer_path_declines_views_of_another_length():
    # a carry of length 3 in vec(2): the generic path raises, as it always
    # has, rather than comparing truncated vectors
    m = VecMonoid(2, at_most(ALEPH0))
    x = Family.of([(CardVec.fins(1, 1), fin(1))])
    bad = BraidBlock(x, x, CardVec.fins(1, 1, 0), CardVec.fins(0, 0))
    cert = LayeredCertificate.of(OmegaCertificate((bad,)))
    assert _chain_views(m, cert) is None
    for monoid in (m, _NoViews(m)):
        with pytest.raises(DimensionError):
            verify(monoid, x, x, cert)
