import collections
import hashlib
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import kmon.braiding as braiding
from kmon.braiding import (
    BLOCK_CAP,
    SCALE_CAP,
    BraidBlock,
    LayeredCertificate,
    OmegaCertificate,
    braid_find,
    _Chunks,
    _balance,
    _carry_omega,
    _count_scan,
    _cycle_ratio,
    _level_split,
    _Periodic,
    _prefix_balance,
    _ratio,
    _stream,
    _StreamViews,
    _uniform_omega,
    _units,
    canonical_family,
    collapsed_layer,
    compose,
    flip,
    verify,
)
from kmon.cardinals import ALEPH0, ZERO, ExtCard, aleph, at_most, below, fin
from kmon.core import CyclicExtensionMonoid, CyclicMonoid, Family
from kmon.diophantine import ConstraintSystem, DioMonoid
from kmon.errors import PreconditionError
from kmon.dsl import parse_certificate, render_certificate
from kmon.free_vectors import CardVec, VecMonoid
from kmon.gallery import INF, DedekindVMonoid, QPoint, RationalLineMonoid, TrivialExtensionMonoid, plain_n0

from populations import SPLIT_MONOID, braid_mix, level_split_pairs

W = ALEPH0
N0 = CyclicExtensionMonoid(CyclicMonoid())
F2 = VecMonoid(2, at_most(W))


def fam(*pairs):
    return Family.of([(fin(v) if isinstance(v, int) else v, fin(m) if isinstance(m, int) else m) for v, m in pairs])


def _digest(certs):
    """sha256 of the rendered certificates, blank-line separated."""
    return hashlib.sha256("\n\n".join(map(render_certificate, certs)).encode()).hexdigest()


def _aligned(comp):
    """A composite built from the alignment walk, not re-searched."""
    return comp.is_yes and comp.note == ""


def omega(prefix=(), cycle=()):
    """The certificate of one chain: a single layer of weight 1."""
    return LayeredCertificate.of(OmegaCertificate(prefix, cycle))


def collapsed(m, *blocks):
    """One one-block prefix layer per (iblock, jblock, weight)."""
    return LayeredCertificate(tuple(collapsed_layer(m, ib, jb, w) for ib, jb, w in blocks))


def chain_of(cert):
    """The chain of a single weight-1 layer."""
    ((w, chain),) = cert.layers
    assert w == fin(1)
    return chain


def blk(i, j, u, v):
    return BraidBlock(
        Family.of([(fin(e), fin(1)) for e in i]),
        Family.of([(fin(e), fin(1)) for e in j]),
        fin(u),
        fin(v),
    )


def test_verify_worked_examples():
    ones = fam((1, W))
    twos = fam((2, W))
    cert = omega((), (blk([1, 1], [2], 2, 0),))
    assert verify(N0, ones, twos, cert).is_yes

    two_ones = fam((1, 2))
    one_two = fam((2, 1))
    fcert = omega((blk([1, 1], [2], 2, 0),), ())
    assert verify(N0, two_ones, one_two, fcert).is_yes

    # wrong families: consumption cannot match
    assert verify(N0, ones, fam((3, 1)), cert).is_no
    assert verify(N0, ones, fam((3, 1)), fcert).is_no


def test_verify_rejects_bad_chains():
    ones, twos = fam((1, W)), fam((2, W))
    assert verify(N0, ones, twos, omega((), (blk([1, 1], [2], 1, 0),))).is_no
    # seam break: v_next of the only cycle block differs from the entry carry
    assert verify(N0, ones, twos, omega((), (blk([1, 1], [2], 2, 1),))).is_no
    # dangling carry in a pure prefix
    assert verify(
        N0, fam((1, 2)), fam((1, 1)), omega((blk([1, 1], [1], 1, 1),), ())
    ).is_no


DIAG = DioMonoid(ConstraintSystem.make(2, [((1, 0), (0, 1))]))
BIG = fam((1, aleph(1)))


@pytest.mark.parametrize(
    "m,x,y,cert,lam,note",
    [
        # the block equations hold (1 + 1 = 1*1 + 1, 2 = 1 + 1), but the
        # cycle leaves with carry 1 after entering with 0
        (N0, fam((1, W)), fam((2, W)), omega((), (blk([1], [2], 1, 1),)),
         W, "cycle seam mismatch"),
        (N0, fam((1, 1)), fam((2, 1)), omega((blk([1], [2], 1, 1),), ()),
         W, "prefix ends with nonzero carry"),
        (DIAG, Family.of([(CardVec.fins(1, 1), W)]), Family.of([(CardVec.fins(1, 1), W)]),
         omega((), (BraidBlock(Family.of([(CardVec.fins(1, 1), fin(1))]),
                                          Family.of([(CardVec.fins(1, 1), fin(1))]),
                                          CardVec.fins(1, 0), CardVec.fins(0, 1)),)),
         W, "carry element outside the monoid"),
        # a C line at aleph0 is a layer like any other: its block is too big
        (N0, BIG, BIG, collapsed(N0, (BIG, BIG, fin(1))),
         W, "block size aleph1 not below aleph0"),
        (N0, BIG, BIG, collapsed(N0, (BIG, BIG, ZERO)),
         aleph(2), "layer weights must be >= 1"),
        (N0, BIG, fam((2, 1)), collapsed(N0, (BIG, fam((2, 1)), fin(1))),
         aleph(2), "prefix block equation fails"),
    ],
)
def test_verify_rejection_notes(m, x, y, cert, lam, note):
    r = verify(m, x, y, cert, lam)
    assert r.is_no and r.note == note


def test_verify_totals_uses_of_one_class_named_twice():
    # in cmn(1,2) the literals 1 and 3 name one element: a block holding
    # one of each consumes it twice
    m = CyclicExtensionMonoid(CyclicMonoid(1, 2))
    x, y = fam((1, 2)), fam((2, 1))
    cert = omega((BraidBlock(fam((1, 1), (3, 1)), y, fin(2), ZERO),), ())
    assert verify(m, x, y, cert).is_yes
    assert verify(m, fam((1, 1)), y, cert).is_no


def test_verify_block_size_respects_lambda():
    ones = fam((1, W))
    # the block equations hold (0 + aleph0 = aleph0 + 0): only its size is wrong
    chain = OmegaCertificate((BraidBlock(ones, ones, W, ZERO),), ())
    r = verify(N0, ones, ones, LayeredCertificate.of(chain), ALEPH0)
    assert r.is_no and r.note == "block size aleph0 not below aleph0"
    # every layer is checked the same way, after its weight
    r = verify(N0, ones, ones, LayeredCertificate(((W, chain),)), ALEPH0)
    assert r.is_no and r.note == "block size aleph0 not below aleph0"
    r = verify(N0, ones, ones, LayeredCertificate(((ZERO, chain),)), ALEPH0)
    assert r.is_no and r.note == "layer weights must be >= 1"
    # above aleph0 the block is small enough, and an infinite prefix block
    # is a collapsed relation; a cycle block must still be finite
    assert verify(N0, ones, ones, LayeredCertificate.of(chain), aleph(1)).is_yes
    r = verify(N0, ones, ones, omega((), chain.prefix), aleph(1))
    assert r.is_no and r.note == "cycle blocks must have finite multiplicities"
    # a C line follows the same size rule and wording
    big = fam((1, aleph(1)))
    r = verify(N0, big, big, collapsed(N0, (big, big, fin(1))), aleph(1))
    assert r.is_no and r.note == "block size aleph1 not below aleph1"
    assert verify(N0, big, big, collapsed(N0, (big, big, fin(1))), aleph(2)).is_yes


def test_finite_lambda_is_rejected():
    ones, twos = fam((1, W)), fam((2, W))
    cert = omega((), (blk([1, 1], [2], 2, 0),))
    with pytest.raises(PreconditionError, match="lambda must be infinite"):
        braid_find(N0, ones, twos, fin(5))
    with pytest.raises(PreconditionError, match="lambda must be infinite"):
        verify(N0, ones, twos, cert, fin(2))
    with pytest.raises(PreconditionError, match="lambda must be infinite"):
        compose(N0, ones, twos, ones, cert, flip(N0, cert), fin(3))


def test_telescope_equal_on_valid_certs():
    ones, twos = fam((1, W)), fam((2, W))
    cert = omega((), (blk([1, 1], [2], 2, 0),))
    assert verify(N0, ones, twos, cert).is_yes
    a, b = N0.ksum(ones), N0.ksum(twos)
    assert N0.eq(a, b).is_yes


def test_flip_worked_examples():
    ones, twos = fam((1, W)), fam((2, W))
    cert = omega((), (blk([1, 1], [2], 2, 0),))
    fl = flip(N0, cert)
    assert verify(N0, twos, ones, fl).is_yes
    fl2 = flip(N0, fl)
    assert verify(N0, ones, twos, fl2).is_yes

    fcert = omega((blk([1, 1], [2], 2, 0),), ())
    assert verify(N0, fam((2, 1)), fam((1, 2)), flip(N0, fcert)).is_yes


def test_braid_find_n0_worked_examples():
    r = braid_find(N0, fam((1, W)), fam((2, W)))
    assert r.is_yes
    assert verify(N0, fam((1, W)), fam((2, W)), r.witness).is_yes

    r = braid_find(N0, fam((1, 3)), fam((3, 1)))
    assert r.is_yes and not chain_of(r.witness).cycle

    r = braid_find(F2, Family.of([(CardVec.fins(1, 0), W)]), Family.of([(CardVec.fins(0, 1), W)]))
    assert r.is_no and "sums differ" in r.note


def test_braid_find_form_clash():
    r = braid_find(N0, fam((1, W)), fam((3, 1)))
    assert r.is_no
    assert "finite vs infinite" in r.note


def _n0_oracle(xfam, yfam):
    # closed form over the positive integers: braided iff both finite support
    # with equal sums, or both infinite support
    def desc(f):
        total = 0
        infinite = False
        for e, m in f:
            if m.is_infinite:
                infinite = True
            else:
                total += e.n * m.n
        return infinite, total

    xi, xs = desc(xfam)
    yi, ys = desc(yfam)
    if xi != yi:
        return False
    return True if xi else xs == ys


def _small_n0_families():
    vals = [1, 2, 3]
    mults = [1, 2, ALEPH0]
    fams = [Family.empty()]
    pool = [(v, m) for v in vals for m in mults]
    for k in (1, 2):
        for combo in itertools.combinations(pool, k):
            f = Family.of([(fin(v), m if isinstance(m, type(ALEPH0)) else fin(m)) for v, m in combo])
            size = sum(
                v + (1 if not isinstance(m, int) else m) for v, m in combo
            )
            if size <= 6:
                fams.append(f)
    return fams


def test_braid_find_n0_completeness_small_grid():
    fams = _small_n0_families()
    for xfam in fams:
        for yfam in fams:
            want = _n0_oracle(canonical_family(N0, xfam), canonical_family(N0, yfam))
            got = braid_find(N0, xfam, yfam, budget=4000)
            assert got.decided, (xfam, yfam, got.note)
            assert got.is_yes == want, (str(xfam), str(yfam), got.note)
            if got.is_yes:
                assert verify(N0, xfam, yfam, got.witness).is_yes


def test_braid_find_vec_infinite_pairs():
    x = Family.of([(CardVec.fins(1, 0), W), (CardVec.fins(0, 1), W)])
    y = Family.of([(CardVec.fins(1, 1), W)])
    r = braid_find(F2, x, y)
    assert r.is_yes
    assert verify(F2, x, y, r.witness).is_yes


def test_braid_find_unrepresentable_pair_is_unknown():
    # equal sums but no periodic certificate exists: blocks would have to
    # grow geometrically
    x = Family.of([(CardVec.fins(2, 1), W)])
    y = Family.of([(CardVec.fins(1, 2), W)])
    r = braid_find(F2, x, y, budget=1500)
    assert r.is_unknown


def test_braid_find_depth_first_search_success():
    # the rational line has no integer view, and uniform scaling misses this
    # pair; only the depth-first search over block splits finds the
    # certificate
    half, third = QPoint.plain(Fraction(1, 2)), QPoint.plain(Fraction(1, 3))
    m = RationalLineMonoid()
    x = Family.of([(half, W), (QPoint.tilde(Fraction(1, 2)), fin(1))])
    y = Family.of([(half, W), (third, W), (QPoint.tilde(Fraction(2, 3)), fin(3))])
    r = braid_find(m, x, y, budget=2500)
    assert r.is_yes
    assert verify(m, x, y, r.witness).is_yes
    assert render_certificate(r.witness) == "\n".join(
        [
            "PREFIX",
            "B i={} j={~2/3*3} u=0 v'=~2",
            "B i={1/2*3, ~1/2*1} j={} u=0 v'=0",
            "CYCLE",
            "B i={} j={1/2*1} u=0 v'=1/2",
            "B i={1/2*1} j={} u=0 v'=0",
            "B i={} j={1/3*1} u=0 v'=1/3",
            "B i={1/2*1} j={1/2*1} u=1/6 v'=1/3",
            "B i={1/2*1} j={1/3*1} u=1/6 v'=1/6",
            "B i={1/2*1} j={1/2*1} u=1/3 v'=1/6",
            "B i={1/2*1} j={1/3*1} u=1/3 v'=0",
        ]
    )


def test_braid_find_cycle_ratio_past_the_scan_cap():
    # twenty ones per twenty: the cycle ratio is past SCALE_CAP and the
    # block cap of 8, but on integer views the ratio is read off a gcd with
    # no cap, so one uniform cycle block decides
    r = braid_find(N0, fam((1, W)), fam((20, W)))
    assert r.is_yes
    assert verify(N0, fam((1, W)), fam((20, W)), r.witness).is_yes
    assert render_certificate(r.witness) == "\n".join(["PREFIX", "CYCLE", "B i={1*20} j={20*1} u=20 v'=0"])
    # ratios far past the cap, with heads: the uniform tier's closed-form
    # prefix balance and the entry-carry tier decide these, in both orders
    v = CardVec.fins
    for m, x, y in [
        (N0, fam((1, W), (5, 1)), fam((100000, W))),
        (N0, fam((3, W), (7, 2)), fam((9973, W))),
        (F2, fam((v(200, 100), W), (v(1, 0), 2)), fam((v(2, 1), W), (v(1, 0), 4))),
    ]:
        for a, b in ((x, y), (y, x)):
            r = braid_find(m, a, b)
            assert r.is_yes and verify(m, a, b, r.witness).is_yes, (a, b)
            assert verify(m, b, a, flip(m, r.witness)).is_yes, (a, b)


def _tier_chain(m, x, y):
    """The entry-carry tier's chain for a pair the uniform tier passes on."""
    streams = _stream(x), _stream(y)
    ints = _StreamViews.of(m, *streams)
    assert _uniform_omega(m, *streams, ints) is None
    return _carry_omega(m, *streams, ints)


def test_entry_carry_tier_searches_a_lattice_of_lower_rank():
    # both cycles are (2,1), which spans only Z*(2,1).  The heads differ by
    # (2,0): no multiple of the block sum (2,1), so the uniform tier passes.
    # Reducing (2,0) modulo the lattice gives (0,-1), outside the box
    # [0, (2,1)], but c = (2,0) itself lies in it, with kS - c = (0,1)
    x = Family.of([(CardVec.fins(1, 0), fin(2)), (CardVec.fins(2, 1), W)])
    y = Family.of([(CardVec.fins(1, 0), fin(4)), (CardVec.fins(2, 1), W)])
    r = braid_find(F2, x, y)
    assert r.is_yes and chain_of(r.witness) == _tier_chain(F2, x, y)
    assert render_certificate(r.witness) == "\n".join(
        [
            "PREFIX",
            "B i={(1, 0)*2} j={(1, 0)*4} u=(2, 0) v'=(2, 0)",
            "CYCLE",
            "B i={(2, 1)*1} j={(2, 1)*1} u=(0, 1) v'=(2, 0)",
        ]
    )


def test_entry_carry_tier_needs_a_nonzero_carry():
    # heads 16 and 32 over cycles of 3: 16 and 32 differ mod 3, so no
    # zero-carry prefix exists; the least carry in 16 + 3Z within [0, 3] is
    # c = 1, reached with five extra 3s in the x prefix
    x, y = fam((3, W), (4, 4)), fam((3, W), (4, 8))
    r = braid_find(N0, x, y)
    assert r.is_yes and chain_of(r.witness) == _tier_chain(N0, x, y)
    assert render_certificate(r.witness) == "\n".join(
        [
            "PREFIX",
            "B i={3*5, 4*4} j={4*8} u=31 v'=1",
            "CYCLE",
            "B i={3*1} j={3*1} u=2 v'=1",
        ]
    )


def test_entry_carry_tier_moves_past_a_carry_outside_the_monoid():
    # in x0 <= 2 x1 the least box k = 1 puts c at (0,2), and kS - c = (2,0)
    # is not a member, so the tier goes on to k = 2: c is (0,2) again and
    # kS - c = (4,2) is a member, giving a cycle of two (2,2) a side
    m = DioMonoid(ConstraintSystem.make(2, inequalities=[((1, 0), (0, 2))]), at_most(W))
    x = Family.of([(CardVec.fins(2, 2), W)])
    y = Family.of([(CardVec.fins(1, 2), fin(2)), (CardVec.fins(2, 2), W)])
    assert not m.member(CardVec.fins(2, 0))
    r = braid_find(m, x, y)
    assert r.is_yes and chain_of(r.witness) == _tier_chain(m, x, y)
    assert verify(m, x, y, r.witness).is_yes
    assert render_certificate(r.witness) == "\n".join(
        [
            "PREFIX",
            "B i={(2, 2)*1} j={(1, 2)*2} u=(2, 2) v'=(0, 2)",
            "CYCLE",
            "B i={(2, 2)*2} j={(2, 2)*2} u=(4, 2) v'=(0, 2)",
        ]
    )


@pytest.mark.parametrize(
    "m,x,y,unit",
    [
        (N0, fam((3, W), (4, 4)), fam((3, W), (4, 8)), fin(1)),
        (
            F2,
            Family.of([(CardVec.fins(1, 0), fin(2)), (CardVec.fins(2, 1), W)]),
            Family.of([(CardVec.fins(1, 0), fin(4)), (CardVec.fins(2, 1), W)]),
            CardVec.fins(1, 0),
        ),
    ],
    ids=["n0", "vec2"],
)
def test_entry_carry_mutants_are_rejected(m, x, y, unit):
    # every mutant keeps the consumption (a prefix copy more of a cycle
    # value still totals aleph0), so only a block equation can reject it
    chain = _tier_chain(m, x, y)
    assert verify(m, x, y, LayeredCertificate.of(chain)).is_yes
    (pre,), (cyc,) = chain.prefix, chain.cycle
    e, f = cyc.iblock.entries[0][0], cyc.jblock.entries[0][0]
    less = m.sub(pre.v_next, unit)
    one_x, one_y = Family.of([(e, fin(1))]), Family.of([(f, fin(1))])
    mutants = [
        # c one less, the cycle block and its seam kept balanced
        (replace(pre, v_next=less), replace(cyc, u=m.add(cyc.u, unit), v_next=less)),
        # one more x prefix copy of a cycle value, the x equation kept
        (replace(pre, iblock=pre.iblock.add(one_x), u=m.add(pre.u, e)), cyc),
        # one more y prefix copy of a cycle value
        (replace(pre, jblock=pre.jblock.add(one_y)), cyc),
    ]
    for mutant_pre, mutant_cyc in mutants:
        cert = LayeredCertificate.of(OmegaCertificate((mutant_pre,), (mutant_cyc,)))
        r = verify(m, x, y, cert)
        assert r.is_no and "block equation fails" in r.note, render_certificate(cert)


UNDECIDED_VEC = (
    Family.of([(CardVec.fins(1, 0), fin(1)), (CardVec.fins(1, 1), W)]),
    Family.of([(CardVec.fins(1, 0), W), (CardVec.fins(1, 1), W)]),
)


def test_braid_find_sums_each_chunk_once(monkeypatch):
    # the depth-first search enters 2500 states here and decides nothing, but
    # the periodic streams have few distinct chunks: each is summed once per
    # call, not once per state (the per-state rebuild made 40,425 sums)
    calls = [0]
    raw_ksum = VecMonoid.raw_ksum

    def counted(self, fam):
        calls[0] += 1
        return raw_ksum(self, fam)

    monkeypatch.setattr(VecMonoid, "raw_ksum", counted)
    r = braid_find(F2, *UNDECIDED_VEC, budget=2500)
    assert r.is_unknown
    assert r.note == "no certificate within budget 2500"
    assert calls[0] < 1000


def test_the_dfs_runs_only_after_both_exact_tiers_pass(monkeypatch):
    # a DFS built before the exact tiers answer changes no answer, only the
    # time each decided pair takes; so count the walks directly
    walks = [0]
    walk = braiding._walk

    def counted(*args):
        walks[0] += 1
        return walk(*args)

    monkeypatch.setattr(braiding, "_walk", counted)
    v = CardVec.fins
    carry = fam((v(1, 1), W), (v(2, 2), 5)), fam((v(1, 1), W), (v(2, 2), W))
    for m, (x, y), tier, entered in [
        (N0, (fam((1, W)), fam((2, W))), _uniform_omega, 0),
        (F2, carry, _carry_omega, 0),
        (F2, UNDECIDED_VEC, None, 1),
    ]:
        walks[0] = 0
        r = braid_find(m, x, y, budget=300)
        assert walks[0] == entered, (x, y)
        if tier is not None:
            streams = _stream(x), _stream(y)
            chain = tier(m, *streams, _StreamViews.of(m, *streams))
            assert r.witness == LayeredCertificate.of(chain)
    # on acceptance 5's population the exact tiers decide every decided
    # pair, and each Unknown walks once
    for m, x, y in braid_mix(50505):
        walks[0] = 0
        r = braid_find(m, x, y, budget=2500)
        assert walks[0] == r.is_unknown, (m.name, x, y)


def test_braid_find_budget_monotone():
    # raising the budget never flips a decided answer
    dio = DioMonoid(ConstraintSystem.make(2, congruences=[((1, 1), 2)]), at_most(W))
    half, third = QPoint.plain(Fraction(1, 2)), QPoint.plain(Fraction(1, 3))
    cases = [  # (monoid, x, y, answer at the largest budget)
        (F2, *UNDECIDED_VEC, "unknown"),
        (
            dio,
            Family.of([(CardVec.fins(1, 1), W), (CardVec.fins(2, 0), fin(3))]),
            Family.of([(CardVec.fins(1, 1), W), (CardVec.fins(2, 0), W)]),
            "unknown",
        ),
        (
            RationalLineMonoid(),
            Family.of([(half, W), (QPoint.tilde(Fraction(1, 2)), fin(1))]),
            Family.of([(half, W), (third, W), (QPoint.tilde(Fraction(2, 3)), fin(3))]),
            "yes",
        ),
        (N0, fam((1, W)), fam((20, W)), "yes"),
        (
            F2,
            Family.of([(CardVec.fins(1, 0), W), (CardVec.fins(0, 1), W)]),
            Family.of([(CardVec.fins(2, 1), W)]),
            "yes",
        ),
    ]
    for m, x, y, last in cases:
        decided = None
        for budget in (50, 300, 2500, 10000):
            r = braid_find(m, x, y, budget=budget)
            if decided is not None:
                assert r.kind == decided, (x, y, budget)
            elif r.decided:
                decided = r.kind
            if r.is_yes:
                assert verify(m, x, y, r.witness).is_yes
        assert r.kind == last


def test_compose_chain_worked_example():
    a, b, c = fam((1, W)), fam((2, W)), fam((4, W))
    r1 = braid_find(N0, a, b)
    r2 = braid_find(N0, b, c)
    assert r1.is_yes and r2.is_yes
    comp = compose(N0, a, b, c, r1.witness, r2.witness)
    assert _aligned(comp)
    assert verify(N0, a, c, comp.witness).is_yes
    # the sha256s in the compose tests were computed before compose read the
    # composite's period and prefix off its alignment walk
    assert _digest([comp.witness]) == "b55b92cd047bce1d2732815d19fa62afc6d46a35a1b481a0879922003b4e65de"


def test_compose_with_reflexive_certificate():
    a = fam((1, W))
    refl = braid_find(N0, a, a)
    assert refl.is_yes
    other = braid_find(N0, a, fam((2, W)))
    comp = compose(N0, a, a, fam((2, W)), refl.witness, other.witness)
    assert _aligned(comp)
    assert verify(N0, a, fam((2, W)), comp.witness).is_yes
    assert _digest([comp.witness]) == "55dde314577aaeafed9e7c818bedc3e2358c99c7a08ed6f58995d3069a2e2f22"


def test_compose_finite_chains():
    a, b, c = fam((1, 4)), fam((2, 2)), fam((4, 1))
    r1 = braid_find(N0, a, b)
    r2 = braid_find(N0, b, c)
    comp = compose(N0, a, b, c, r1.witness, r2.witness)
    assert _aligned(comp) and not chain_of(comp.witness).cycle
    assert verify(N0, a, c, comp.witness).is_yes
    assert _digest([comp.witness]) == "9c8f7ce4cb1467e37ed15a4d03fe2094d367a3d371c0d5dc2c708ad07892ef00"


def test_compose_falls_back_to_a_fresh_search():
    # these two chains do not align on the middle family, so compose
    # searches the outer pair afresh
    x = Family.of([(CardVec.fins(0, 1), W), (CardVec.fins(1, 0), W)])
    z = Family.of([(CardVec.fins(1, 0), W), (CardVec.fins(1, 1), W)])
    r1, r2 = braid_find(F2, x, x), braid_find(F2, x, z)
    assert r1.is_yes and r2.is_yes
    comp = compose(F2, x, x, z, r1.witness, r2.witness)
    assert comp.is_yes and comp.note == "via re-search"
    assert verify(F2, x, z, comp.witness).is_yes



def test_compose_searches_afresh_past_an_infinite_block():
    # a one-block omega certificate whose blocks are the whole families:
    # verify rejects it, and the alignment walk cannot count its aleph0
    # middle block, so compose searches the outer pair instead
    x, y = fam((1, W)), fam((2, W))
    whole = omega((BraidBlock(x, y, W, ZERO),), ())
    assert verify(N0, x, y, whole).note == "block size aleph0 not below aleph0"
    r2 = braid_find(N0, y, x)
    assert r2.is_yes
    comp = compose(N0, x, y, x, whole, r2.witness)
    assert comp.is_yes and comp.note == "via re-search"
    assert verify(N0, x, x, comp.witness).is_yes

def test_certificate_algebra_seeded_chains():
    rng = random.Random(202)
    done = 0
    certs = []
    while done < 40:
        vals = [rng.randrange(1, 4) for _ in range(3)]
        x = fam((vals[0], W))
        y = fam((vals[1], W))
        z = fam((vals[2], W))
        r1, r2 = braid_find(N0, x, y), braid_find(N0, y, z)
        assert r1.is_yes and r2.is_yes
        assert verify(N0, y, x, flip(N0, r1.witness)).is_yes
        comp = compose(N0, x, y, z, r1.witness, r2.witness)
        assert _aligned(comp)
        certs.append(comp.witness)
        done += 1
    assert _digest(certs) == "2cb6142a6b7b863f146d8b4881bc84e19794feed08208bd8ce4f5d1871e8c73d"


def test_compose_pairs_layers_of_equal_weight():
    # x has an aleph1 entry, and y and z are x scaled: the three families
    # share their levels above aleph0, so both legs have layers of the same
    # weights, and each pair of layers composes by alignment
    m = VecMonoid(2, at_most(aleph(2)))
    elems = [CardVec.fins(1, 0), CardVec.fins(0, 1), CardVec.fins(1, 1), CardVec.fins(2, 1)]
    mults = [fin(1), fin(2), fin(3), W, aleph(1)]
    scales = [fin(1), fin(2), fin(3), W]
    rng = random.Random(777)
    triples = layered = 0
    for _ in range(400):
        extra = [(rng.choice(elems), rng.choice(mults)) for _ in range(rng.randrange(0, 3))]
        x = Family.of([(rng.choice(elems), aleph(1))] + extra)
        y, z = x.scale(rng.choice(scales)), x.scale(rng.choice(scales))
        r1, r2 = braid_find(m, x, y, budget=300), braid_find(m, y, z, budget=300)
        if not (r1.is_yes and r2.is_yes):
            continue
        comp = compose(m, x, y, z, r1.witness, r2.witness, budget=300)
        assert comp.is_yes and comp.note != "via re-search", (x, y, z)
        assert verify(m, x, z, comp.witness).is_yes
        triples += 1
        layered += len(comp.witness.layers) > 1
    assert (triples, layered) == (311, 92)


def test_layered_certificates():
    f2big = VecMonoid(2, at_most(aleph(2)))
    x = Family.of([(CardVec.fins(1, 0), aleph(1)), (CardVec.fins(0, 1), aleph(1))])
    y = Family.of([(CardVec.fins(1, 1), aleph(1))])
    r = braid_find(f2big, x, y)
    assert r.is_yes
    assert [w for w, _ in r.witness.layers] == [aleph(1)]
    assert verify(f2big, x, y, r.witness).is_yes
    fl = flip(f2big, r.witness)
    assert verify(f2big, y, x, fl).is_yes


def test_collapsed_certificates_lambda_above_aleph0():
    f2big = VecMonoid(2, at_most(aleph(2)))
    lam = aleph(1)
    x = Family.of([(CardVec.fins(2, 0), W), (CardVec.fins(0, 2), W)])
    y = Family.of([(CardVec.fins(1, 1), W)])
    r = braid_find(f2big, x, y, lam)
    assert r.is_yes
    assert all(not c.cycle and len(c.prefix) == 1 for _, c in r.witness.layers)
    assert render_certificate(r.witness, lam).startswith("C i=")
    assert verify(f2big, x, y, r.witness, lam).is_yes
    # flipping a one-block layer swaps the block sides
    fl = flip(f2big, r.witness)
    assert [(c.prefix[0].iblock, c.prefix[0].jblock) for _, c in fl.layers] == [
        (c.prefix[0].jblock, c.prefix[0].iblock) for _, c in r.witness.layers
    ]
    assert verify(f2big, y, x, fl, lam).is_yes


def test_collapsed_brute_force_cross_check():
    # small families over pairs: at lambda = aleph1 the relation collapses to
    # a weighted matched partition; brute force over single-level splits
    f2big = VecMonoid(2, at_most(aleph(2)))
    lam = aleph(1)
    vecs = [CardVec.fins(1, 0), CardVec.fins(0, 1), CardVec.fins(1, 1)]
    mults = [fin(1), W, aleph(1), aleph(2)]
    pool = [Family.of([(v, m)]) for v in vecs for m in mults]
    for x, y in itertools.product(pool, repeat=2):
        r = braid_find(f2big, x, y, lam)
        total_x, total_y = f2big.ksum(x), f2big.ksum(y)
        if r.is_yes:
            assert verify(f2big, x, y, r.witness, lam).is_yes
            assert total_x == total_y
        if total_x != total_y:
            assert not r.is_yes


def test_braid_find_over_dio_monoid():
    m = DioMonoid(ConstraintSystem.make(2, equations=[((1, 0), (0, 1))]), at_most(W))
    x = Family.of([(CardVec.fins(1, 1), W)])
    y = Family.of([(CardVec.fins(2, 2), W)])
    r = braid_find(m, x, y)
    assert r.is_yes
    assert verify(m, x, y, r.witness).is_yes


def test_reflexivity_on_sampled_families():
    rng = random.Random(31)
    for _ in range(30):
        fam_x = N0.sample_family(rng)
        r = braid_find(N0, fam_x, fam_x, budget=3000)
        assert r.is_yes, str(fam_x)
        assert verify(N0, fam_x, fam_x, r.witness).is_yes


def _collapsed_brute(m, xf, yf, lam, weights):
    """Independent bounded enumeration of matched weighted partitions."""
    from kmon.cardinals import card_mul, card_sum
    inner_opts = [fin(0), fin(1), ALEPH0]
    xe = list(xf.entries)
    ye = list(yf.entries)
    for nblocks in (1, 2):
        for ws in itertools.product(weights, repeat=nblocks):
            slots = len(xe) + len(ye)
            for assign in itertools.product(
                itertools.product(inner_opts, repeat=nblocks), repeat=slots
            ):
                ok = True
                for (e, mult), inner in zip(xe + ye, assign):
                    got = card_sum((card_mul(w, iv), fin(1)) for w, iv in zip(ws, inner))
                    if got != mult:
                        ok = False
                        break
                if not ok:
                    continue
                good = True
                for b in range(nblocks):
                    ib = Family.of(
                        (e, assign[k][b]) for k, (e, _night) in enumerate(xe)
                    )
                    jb = Family.of(
                        (e, assign[len(xe) + k][b]) for k, (e, _n) in enumerate(ye)
                    )
                    if not ib.index_card() < lam or not jb.index_card() < lam:
                        good = False
                        break
                    if not m.eq(m.ksum(ib), m.ksum(jb)).is_yes:
                        good = False
                        break
                if good:
                    return True
    return False


def test_collapse_cross_checked_by_brute_force():
    f2big = VecMonoid(2, at_most(aleph(2)))
    lam = aleph(1)
    weights = [fin(1), ALEPH0, aleph(1), aleph(2)]
    e1, e2, e3 = CardVec.fins(1, 0), CardVec.fins(0, 1), CardVec.fins(1, 1)
    cases = [
        (Family.of([(e1, aleph(1)), (e2, aleph(1))]), Family.of([(e3, aleph(1))])),
        (Family.of([(e1, aleph(2))]), Family.of([(e1, aleph(2))])),
        (Family.of([(e1, aleph(1))]), Family.of([(e2, aleph(1))])),
        (Family.of([(e1, W), (e2, aleph(1))]), Family.of([(e3, aleph(1))])),
        (Family.of([(e3, fin(2))]), Family.of([(e1, fin(2)), (e2, fin(2))])),
        (Family.of([(e1, aleph(1)), (e2, W)]), Family.of([(e3, W)])),
        (Family.of([(e3, aleph(2)), (e1, fin(1))]), Family.of([(e3, aleph(2)), (e1, fin(1))])),
    ]
    for xf, yf in cases:
        brute = _collapsed_brute(f2big, xf, yf, lam, weights)
        found = braid_find(f2big, xf, yf, lam, budget=2000)
        if found.is_yes:
            assert brute, (str(xf), str(yf))
            assert verify(f2big, xf, yf, found.witness, lam).is_yes
        if not brute:
            assert not found.is_yes, (str(xf), str(yf))
        if found.is_no:
            assert not brute


def test_size_of_exhaustion_raises():
    from kmon.core import size_of
    from kmon.errors import SearchExhausted
    from kmon.presentations import TwoGenMonoid, TwoGenPresentation, X1, X2

    m = TwoGenMonoid(TwoGenPresentation.of([]), budget=100)
    with pytest.raises(SearchExhausted):
        size_of(m, X1, X2)


def test_verify_unknown_propagates_from_tri_valued_equality():
    from kmon.presentations import TwoGenMonoid, TwoGenPresentation, Form, X1, X2

    # a presentation where deciding the block equation exceeds a tiny budget:
    # (0,15) = (10,0) needs two chained rewrites, and no homomorphism separates
    p = TwoGenPresentation.of([(Form.of(2, 0), Form.of(0, 3))])
    m = TwoGenMonoid(p, budget=1)
    x = Family.of([(X1, fin(10))])
    y = Family.of([(X2, fin(15))])
    blk = BraidBlock(x, y, Form.of(10, 0), Form.of(0, 0))
    cert = omega((blk,), ())
    r = verify(m, x, y, cert)
    assert r.is_unknown
    # with a workable budget the same certificate verifies
    assert verify(TwoGenMonoid(p, budget=4000), x, y, cert).is_yes


def test_compose_across_different_cycle_lengths():
    # 1-periodic against 2-periodic middle partitions
    x = fam((1, W))
    y = fam((2, W), (1, 1))
    z = fam((3, W))
    r1 = braid_find(N0, x, y, budget=4000)
    r2 = braid_find(N0, y, z, budget=4000)
    assert r1.is_yes and r2.is_yes
    c1, c2 = r1.witness, r2.witness
    comp = compose(N0, x, y, z, c1, c2, budget=4000)
    assert _aligned(comp)
    assert verify(N0, x, z, comp.witness).is_yes
    # re-pinned when the entry-carry tier took over the greedy walk's pairs
    assert _digest([comp.witness]) == "3a2acb64045ce0866d914ac349a7dfdce538cd59e1486d2774f6edc9c64f97e1"


def test_balanced_cycle_counts_beyond_uniform_scaling():
    # {(1,0), (0,1)} against {(2,1)} has no uniform scale a*(1,1) = b*(2,1),
    # but counts 2,1 vs 1 balance one block exactly
    x = Family.of([(CardVec.fins(1, 0), W), (CardVec.fins(0, 1), W)])
    y = Family.of([(CardVec.fins(2, 1), W)])
    r = braid_find(F2, x, y, budget=800)
    assert r.is_yes
    assert verify(F2, x, y, r.witness).is_yes
    # finite heads are padded into the prefix until both sides balance
    x2 = x.add(Family.of([(CardVec.fins(2, 1), fin(1))]))
    y2 = y.add(Family.of([(CardVec.fins(2, 1), fin(1))]))
    r2 = braid_find(F2, x2, y2, budget=2000)
    assert r2.is_yes
    assert verify(F2, x2, y2, r2.witness).is_yes


@pytest.mark.parametrize(
    "m,xs,ys",
    [
        (F2, [(1, 0), (0, 1), (1, 1)], [(2, 1), (1, 1)]),
        (DioMonoid(ConstraintSystem.make(2, congruences=[((1, 1), 2)]), at_most(W)), [(2, 0), (0, 2)], [(1, 1), (2, 0)]),
    ],
)
def test_cycle_counts_first_positive_solution(m, xs, ys):
    # the cycle totals are not parallel, so no uniform scaling balances them;
    # the counts are the lexicographically first all-positive balance
    sx = _stream(Family.of([(CardVec.fins(*v), W) for v in xs]))
    sy = _stream(Family.of([(CardVec.fins(*v), W) for v in ys]))
    vals = sx.cycle + sy.cycle

    def balanced(c):
        left = [sum(c[k] * e[i].n for k, e in enumerate(sx.cycle)) for i in range(2)]
        right = [sum(c[len(sx.cycle) + k] * f[i].n for k, f in enumerate(sy.cycle)) for i in range(2)]
        return left == right

    first = next(c for c in itertools.product(range(1, 9), repeat=len(vals)) if balanced(c))
    want = (dict(zip(sx.cycle, first)), dict(zip(sy.cycle, first[len(sx.cycle):])))
    assert _count_scan(sx, sy, 12) == want


class _CountingVec(VecMonoid):
    """vec(2) that counts its ``scalar`` calls per multiplied value."""

    def __init__(self):
        super().__init__(2, at_most(W))
        self.scalars = collections.Counter()

    def scalar(self, a, x):
        self.scalars[x] += 1
        return super().scalar(a, x)


def test_uniform_tier_computes_each_multiple_once():
    # cycles (3,w) vs (2,w) balance at counts 2 and 3 (block sum (6,w)); the
    # aleph0 coordinate absorbs, so the heads 0 and (6,0) first balance at
    # kx=2, ky=1.  Each k*s is computed once per call: at most SCALE_CAP + 1
    # scalar calls per value
    m = _CountingVec()
    x = Family.of([(CardVec((fin(3), W)), W)])
    y = Family.of([(CardVec.fins(6, 0), fin(1)), (CardVec((fin(2), W)), W)])
    r = braid_find(m, x, y)
    assert r.is_yes
    assert render_certificate(r.witness) == "\n".join([
        "PREFIX",
        "B i={(3, aleph0)*4} j={(2, aleph0)*3, (6, 0)*1} u=(12, aleph0) v'=(0, 0)",
        "CYCLE",
        "B i={(3, aleph0)*2} j={(2, aleph0)*3} u=(6, aleph0) v'=(0, 0)",
    ])
    assert m.scalars[CardVec((fin(6), W))] == SCALE_CAP + 1
    assert max(m.scalars.values()) <= SCALE_CAP + 1


def test_transitivity_can_exit_the_periodic_class():
    # both legs admit periodic certificates, but the composite provably has
    # none: per-cycle balance for {(1,1)} against {(1,1),(2,1)} forces a
    # zero count, so compose honestly reports Unknown
    x = Family.of([(CardVec.fins(1, 1), W)])
    y = Family.of([(CardVec.fins(1, 0), W), (CardVec.fins(0, 1), W)])
    z = Family.of([(CardVec.fins(1, 1), W), (CardVec.fins(2, 1), W)])
    r1 = braid_find(F2, x, y, budget=1500)
    r2 = braid_find(F2, y, z, budget=1500)
    assert r1.is_yes and r2.is_yes
    comp = compose(F2, x, y, z, r1.witness, r2.witness, budget=1500)
    assert comp.is_unknown


from hypothesis import given, settings, strategies as st

_vec_strat = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda t: CardVec.fins(*t)
)
_mult_strat = st.one_of(st.just(W), st.integers(1, 3).map(fin))
_fam_strat = st.lists(st.tuples(_vec_strat, _mult_strat), max_size=3).map(Family.of)


@given(_fam_strat, _fam_strat)
@settings(max_examples=120, deadline=None)
def test_braid_find_soundness_property(x, y):
    r = braid_find(F2, x, y, budget=700)
    if r.is_yes:
        assert verify(F2, x, y, r.witness).is_yes
        a, b = F2.ksum(x), F2.ksum(y)
        assert F2.eq(a, b).is_yes
        assert verify(F2, y, x, flip(F2, r.witness)).is_yes
    elif r.is_no:
        cx, cy = x.index_card(), y.index_card()
        assert cx.is_finite != cy.is_finite or F2.ksum(x) != F2.ksum(y)


def _replays(m, x, y, cert, lam):
    """A Yes certificate verifies, survives its text, and flips to (y, x)."""
    assert verify(m, x, y, cert, lam).is_yes
    assert parse_certificate(render_certificate(cert, lam), m) == cert
    assert verify(m, y, x, flip(m, cert), lam).is_yes


def test_level_split_absorbs_the_remainder():
    # the entries below aleph1 do not balance on their own; the split's
    # weight-1 part holds every entry, capped at aleph0, and that part does
    m = VecMonoid(2, at_most(aleph(1)))
    v = CardVec.fins
    x = Family.of([(v(1, 1), aleph(1)), (v(1, 0), fin(1))])
    y = Family.of([(v(1, 1), aleph(1))])
    for lam in (W, aleph(1)):
        r = braid_find(m, x, y, lam)
        assert r.is_yes
        _replays(m, x, y, r.witness, lam)
    assert render_certificate(r.witness, aleph(1)) == "\n".join([
        "C i={(1, 1)*aleph0} j={(1, 1)*aleph0} w=aleph1",
        "C i={(1, 0)*1, (1, 1)*aleph0} j={(1, 1)*aleph0} w=1",
    ])

    # certificates built by hand for the same pair verify as well
    def one(*pairs):
        return Family.of([(e, fin(k) if isinstance(k, int) else k) for e, k in pairs])

    countable = OmegaCertificate(
        (BraidBlock(one((v(1, 0), 1), (v(1, 1), 1)), one((v(1, 1), 2)), v(2, 1), v(0, 1)),),
        (BraidBlock(one((v(1, 1), 1)), one((v(1, 1), 1)), v(1, 0), v(0, 1)),),
    )
    big = OmegaCertificate((), (BraidBlock(one((v(1, 1), 1)), one((v(1, 1), 1)), v(1, 1), v(0, 0)),))
    assert verify(m, x, y, LayeredCertificate(((fin(1), countable), (aleph(1), big)))).is_yes
    split = collapsed(
        m,
        (one((v(1, 0), 1), (v(1, 1), W)), one((v(1, 1), W)), fin(1)),
        (one((v(1, 1), 1)), one((v(1, 1), 1)), aleph(1)),
    )
    assert verify(m, x, y, split, aleph(1)).is_yes


def test_level_split_parts_are_cumulative():
    # each level part holds every entry at or above its level, so the
    # aleph1 part pairs (1,0) + (1,1) against (1,0) + (0,1), and no part has
    # to balance one exact level on its own
    m = VecMonoid(2, at_most(aleph(2)))
    v = CardVec.fins
    x = Family.of([(v(1, 0), aleph(2)), (v(1, 1), aleph(1))])
    y = Family.of([(v(1, 0), aleph(2)), (v(0, 1), aleph(1))])
    weights = {W: [aleph(1), aleph(2)], aleph(1): [aleph(1), aleph(2)], aleph(2): [aleph(2), fin(1)]}
    for lam, want in weights.items():
        r = braid_find(m, x, y, lam)
        assert r.is_yes
        assert [w for w, _ in r.witness.layers] == want
        _replays(m, x, y, r.witness, lam)


def test_a_pair_without_a_level_is_its_own_weight_1_part():
    # a countable pair at aleph0, and a pair below lambda above it, is split
    # into the two families themselves, not rebuilt
    x, y = fam((1, 3), (2, W)), fam((2, W))
    for lam in (W, aleph(1)):
        [(w, xp, yp)] = _level_split(x, y, lam)
        assert w == fin(1) and xp is x and yp is y
    # the empty pair has no level either, and gets one weight-1 layer
    empty = Family.empty()
    assert _level_split(empty, empty, aleph(1)) == [(fin(1), empty, empty)]
    for lam in (W, aleph(1)):
        r = braid_find(N0, empty, empty, lam)
        assert r.is_yes and [w for w, _ in r.witness.layers] == [fin(1)]
        assert verify(N0, empty, empty, r.witness, lam).is_yes


def test_verify_checks_each_part_and_not_the_assembly(monkeypatch):
    # the level aleph1 part and the weight-1 part are each checked on their
    # own families; the assembled certificate is not checked again
    m = VecMonoid(2, at_most(aleph(1)))
    v = CardVec.fins
    x = Family.of([(v(1, 1), aleph(1)), (v(1, 0), fin(1))])
    y = Family.of([(v(1, 1), aleph(1))])
    parts = [(xp, yp) for _, xp, yp in _level_split(x, y, W)]
    calls = []
    real = braiding.verify

    def counted(m, xfam, yfam, cert, lam=W):
        r = real(m, xfam, yfam, cert, lam)
        calls.append(((xfam, yfam), r.is_yes))
        return r

    monkeypatch.setattr(braiding, "verify", counted)
    r = braid_find(m, x, y)
    assert r.is_yes and len(parts) == 2
    assert all(pair in parts for pair, _ in calls)
    assert [pair for pair, accepted in calls if accepted] == parts
    monkeypatch.undo()
    assert verify(m, x, y, r.witness).is_yes


def test_a_rejected_part_names_itself_and_the_reason():
    # trivial(N0) sums both families to its top, but above aleph0 the
    # aleph1 part holds aleph0 copies of 1 against nothing
    m = TrivialExtensionMonoid(plain_n0())
    x, y = Family.of([(ExtCard(1), aleph(1))]), Family.of([(ExtCard(1), W)])
    (w, xp, yp), _ = _level_split(x, y, aleph(1))
    why = verify(m, xp, yp, LayeredCertificate((collapsed_layer(m, xp, yp),)), aleph(1))
    assert why.is_no and why.note == "prefix block equation fails"
    r = braid_find(m, x, y, aleph(1))
    assert r.is_unknown and r.note == f"level {w} part: {why.note}"


def _answers(rows):
    """sha256 of (kind, note, rendered certificate) per (lambda, answer)."""
    text = "\n\n".join(
        f"{r.kind}|{r.note}|{render_certificate(r.witness, lam) if r.is_yes else ''}"
        for lam, r in rows
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _split_answers(seed):
    """The level-split population's answers at budget 300, by lambda; every
    Yes replays."""
    rows = {W: [], aleph(1): [], aleph(2): []}
    for x, y in level_split_pairs(seed):
        for lam, got in rows.items():
            r = braid_find(SPLIT_MONOID, x, y, lam, budget=300)
            if r.is_yes:
                _replays(SPLIT_MONOID, x, y, r.witness, lam)
            got.append(r)
    return rows


def _kinds(rows):
    return {lam: dict(collections.Counter(r.kind for r in got)) for lam, got in rows.items()}


def test_level_split_population_is_pinned():
    # 200 seeded vec(2) pairs whose x has an aleph1 entry, at three lambdas.
    # Every equal-sum pair is Yes above aleph0; at aleph0 the Unknowns are
    # parts that no aleph0 tier certifies within the budget
    rows = _split_answers(4141)
    assert _kinds(rows) == {
        W: {"yes": 84, "no": 93, "unknown": 23},
        aleph(1): {"yes": 107, "no": 93},
        aleph(2): {"yes": 107, "no": 93},
    }
    # re-pinned when the entry-carry tier took over the greedy walk's pairs
    want = "f1b13db1f033949fad1e22fc9ab92c417b21f132b0dda4910d88532656f63804"
    assert _answers((lam, r) for lam, got in rows.items() for r in got) == want


def test_held_out_level_split_population():
    assert _kinds(_split_answers(4242)) == {
        W: {"yes": 83, "no": 101, "unknown": 16},
        aleph(1): {"yes": 99, "no": 101},
        aleph(2): {"yes": 99, "no": 101},
    }


def test_periodic_view_matches_its_expansion():
    p = _Periodic([10, 11], [20, 21, 22])
    naive = [10, 11] + [20, 21, 22] * 5
    assert [p[i] for i in range(len(naive))] == naive
    for i in range(len(naive)):
        k = p.fold(i)
        assert k == i if i < 2 else 2 <= k < 5 and (k - i) % 3 == 0
        assert p[k] == p[i] and not p.done(i)
    # a head with no cycle is followed by the pad forever
    f = _Periodic((1, 2), (), pad=0)
    assert [f[i] for i in range(5)] == [1, 2, 0, 0, 0]
    assert [f.done(i) for i in range(4)] == [False, False, True, True]
    # a family stream: finite entries in the head, one copy of each
    # aleph0-entry in the cycle
    s = _stream(Family.of([(fin(2), fin(2)), (fin(1), W)]))
    assert (s.head, s.cycle) == ([fin(2), fin(2)], [fin(1)])


@pytest.mark.parametrize(
    "m,x,y",
    [
        (F2,
         fam((CardVec.fins(1, 0), 2), (CardVec.fins(0, 1), W), (CardVec.fins(2, 1), W)),
         fam((CardVec.fins(1, 1), 3), (CardVec.fins(2, 1), W))),
        (N0, fam((1, 1), (3, W)), fam((2, W), (1, W), (4, W))),
    ],
    ids=["vec2", "N0"],
)
def test_chunk_rows_match_the_stream(m, x, y):
    # every chunk of the rows, read in a shuffled order so that rows grow
    # on demand from every length, is the chunk of the stream slice itself
    chunks = _Chunks(m, x, y)
    reads = [
        (side, pos, k)
        for side, s in enumerate(chunks.streams)
        for pos in range(len(s.head) + 3 * len(s.cycle))
        for k in range(BLOCK_CAP + 1)
    ]
    random.Random(7).shuffle(reads)
    for side, pos, k in reads:
        s = chunks.streams[side]
        assert chunks.row(side, pos, k)[k] == _units(m, [s[pos + t] for t in range(k)])


# -- canonical families ------------------------------------------------------------


def _rebuilt(m, f):
    """The family rebuilt entry by entry: each element canonicalized, zeros dropped."""
    return Family.of((m.canon(e), mult) for e, mult in f if not m.eq(e, m.zero).is_yes)


def _acceptance_1_monoids():
    return [
        VecMonoid(1, at_most(W)),
        VecMonoid(2, at_most(aleph(2))),
        VecMonoid(3, at_most(aleph(3))),
        CyclicExtensionMonoid(CyclicMonoid()),
        CyclicExtensionMonoid(CyclicMonoid(1, 2)),
        CyclicExtensionMonoid(CyclicMonoid(2, 3)),
        DioMonoid(ConstraintSystem.make(2, equations=[((1, 0), (0, 1))]), at_most(aleph(1))),
        DioMonoid(ConstraintSystem.make(2, equations=[((2, 0), (1, 1))]), at_most(aleph(1))),
        DioMonoid(ConstraintSystem.make(2, congruences=[((1, 1), 2)]), at_most(W)),
        TrivialExtensionMonoid(plain_n0()),
        TrivialExtensionMonoid(VecMonoid(2, below(W))),
        RationalLineMonoid(),
        DedekindVMonoid((2,)),
        DedekindVMonoid((2, 2)),
    ]


@pytest.mark.parametrize("m", _acceptance_1_monoids(), ids=lambda m: m.name)
def test_canonical_family_equals_the_rebuild(m):
    # a family whose elements are their own representatives, none zero, is
    # returned as it is; any other is rebuilt, and both equal the rebuild
    rng = random.Random(2828)
    kept = rebuilt = 0
    for _ in range(300):
        f = m.sample_family(rng)
        out = canonical_family(m, f)
        assert out == _rebuilt(m, f), (m.name, str(f))
        if all(m.canon(e) is e and not m.eq(e, m.zero).is_yes for e, _ in f):
            assert out is f, (m.name, str(f))
            kept += 1
        else:
            rebuilt += 1
    assert kept > 0


def test_canonical_family_rebuilds_what_is_not_canonical():
    cmn12 = CyclicExtensionMonoid(CyclicMonoid(1, 2))
    f = Family.of([(fin(5), fin(1)), (fin(0), fin(2)), (fin(2), W)])
    out = canonical_family(cmn12, f)
    assert out == Family.of([(fin(1), fin(1)), (fin(2), W)]) == _rebuilt(cmn12, f)
    assert str(out) == "{1*1, 2*aleph0}"
    # an equal but uninterned cardinal is replaced by its representative
    f = Family.of([(ExtCard(3), fin(2))])
    out = canonical_family(N0, f)
    assert out == f and out is not f
    assert out.entries[0][0] is fin(3)
    # a zero entry drops out at every multiplicity, aleph0 included
    f = Family.of([(fin(0), W), (fin(1), fin(3))])
    assert canonical_family(N0, f) == Family.of([(fin(1), fin(3))])
    assert canonical_family(N0, Family.of([(fin(0), W)])) is Family.empty()
    # a canonical family comes back as it is
    f = Family.of([(fin(1), fin(3)), (fin(2), W)])
    assert canonical_family(N0, f) is f


def test_canonical_family_passes_values_past_the_shared_instances_through():
    # fin(n) shares no instance from 256 on, so a finite value there that is
    # its own class representative is canonical as it is
    f = Family.of([(fin(300), fin(1))])
    out = canonical_family(N0, f)
    assert out is f and canonical_family(N0, out) is out
    cmn = CyclicExtensionMonoid(CyclicMonoid(300, 5))
    x = fin(302)
    assert cmn.canon(x) is x
    f = Family.of([(x, fin(2)), (fin(1), W)])
    assert canonical_family(cmn, f) is f
    # a value past its class representative is still rebuilt, once
    f = Family.of([(fin(307), fin(2)), (fin(1), W)])
    out = canonical_family(cmn, f)
    assert out == Family.of([(fin(302), fin(2)), (fin(1), W)]) and out is not f
    assert canonical_family(cmn, out) is out


def _rebuild_population(seed):
    """About 200 (monoid, x, y) pairs whose families are mostly not canonical:
    values past the class structure's representatives, uninterned copies
    of representatives and zero entries, at finite and aleph0
    multiplicities; y is drawn afresh or is x with some values redrawn."""
    setups = [
        (CyclicExtensionMonoid(CyclicMonoid(1, 2)), lambda k: fin(k), range(0, 8)),
        (CyclicExtensionMonoid(CyclicMonoid(2, 3)), lambda k: fin(k), range(0, 10)),
        (TrivialExtensionMonoid(plain_n0()), lambda k: INF if k == 5 else ExtCard(k), range(0, 6)),
        (N0, lambda k: ExtCard(k) if k % 2 else fin(k), range(0, 5)),
    ]
    rng = random.Random(seed)
    mults = [fin(1), fin(2), fin(3), W]
    for i in range(200):
        m, value, span = setups[i % 4]

        def family():
            return Family.of((value(rng.choice(span)), rng.choice(mults)) for _ in range(rng.randrange(0, 4)))

        x = family()
        if rng.random() < 0.5:
            y = family()
        else:
            y = Family.of((value(rng.choice(span)) if rng.random() < 0.3 else e, mult) for e, mult in x)
        yield m, x, y


def test_rebuild_population_is_pinned():
    # kind, note and rendered certificate of braid_find plus the kind of
    # verify on the uncanonicalized pair; acceptance 5 and the held-out
    # population draw canonical families only, so this pins the rebuild
    # branch of canonical_family
    rows, rebuilt = [], 0
    for m, x, y in _rebuild_population(7070):
        rebuilt += sum(canonical_family(m, f) != f or any(m.canon(e) is not e for e, _ in f) for f in (x, y))
        r = braid_find(m, x, y, budget=300)
        cert = render_certificate(r.witness) if r.is_yes else ""
        checked = verify(m, x, y, r.witness).kind if r.is_yes else ""
        rows.append(f"{r.kind}|{r.note}|{cert}|{checked}")
    assert rebuilt >= 200
    assert collections.Counter(row.split("|")[0] for row in rows) == {"yes": 113, "no": 83, "unknown": 4}
    # re-pinned when the greedy walk was retired: the DFS took its two pairs
    want = "b8abe02f34c53ad75d5d310074901c4727f278fa5751f292edba4df241900eb1"
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == want


def _scanned_ratio(m, x, y, cap):
    """The uniform tier's a-outer, b-inner scan for a*x = b*y, as it runs on
    values without an integer view."""
    for a in range(1, cap + 1):
        for b in range(1, cap + 1):
            if m.eq(m.scalar(fin(a), x), m.scalar(fin(b), y)).is_yes:
                return a, b
    return None


def _scanned_balance(m, hx, hy, s, cap=SCALE_CAP):
    """The uniform tier's kx-outer, ky-inner scan for hx + kx*s = hy + ky*s,
    with its left-hand side."""
    for kx in range(cap + 1):
        left = m.add(hx, m.scalar(fin(kx), s))
        for ky in range(cap + 1):
            if m.eq(left, m.add(hy, m.scalar(fin(ky), s))).is_yes:
                return kx, ky, left
    return None


def _ratio_cases(rng):
    """Pairs of integer vectors, mostly multiples of one base vector, some of
    them with a coordinate nudged, plus the edge cases by hand."""
    yield (0, 0), (0, 0)
    yield (0, 2), (0, 0)
    yield (0, 0), (3, 0)
    yield (2, 0), (0, 2)
    yield (13,), (1,)  # a = 1 fits the cap, b = 13 does not
    yield (1,), (13,)
    yield (12, 0), (1, 0)
    yield (4, 6), (6, 9)
    for _ in range(400):
        base = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 4))]
        x = [rng.randrange(1, 16) * c for c in base]
        y = [rng.randrange(1, 16) * c for c in base] if rng.random() < 0.3 else [c * rng.randrange(1, 16) for c in x]
        if rng.random() < 0.2:
            y[rng.randrange(len(y))] += 1
        yield tuple(x), tuple(y)


def _balance_cases(rng):
    """Heads hx, hy and block sums s with hy - hx = d*s for d in -14..14,
    some of them with a coordinate nudged, plus the edge cases by hand."""
    yield (0, 0), (0, 0), (0, 0)
    yield (1, 0), (0, 0), (0, 0)
    yield (0, 5), (0, 5), (0, 1)
    yield (0, 0), (2, 3), (1, 2)  # d = 2 in coordinate 0, not in coordinate 1
    yield (0, 0), (1, 2), (2, 4)  # 1/2 is no integer
    yield (0, 0), (12, 24), (1, 2)
    yield (12, 24), (0, 0), (1, 2)
    yield (0, 0), (13, 26), (1, 2)
    yield (13, 26), (0, 0), (1, 2)
    for _ in range(400):
        n = rng.randrange(1, 4)
        s = [rng.randrange(0, 4) for _ in range(n)]
        d = rng.randrange(-14, 15)
        h = [rng.randrange(0, 6) for _ in range(n)]
        hx = [p + max(-d, 0) * c for p, c in zip(h, s)]
        hy = [p + max(d, 0) * c for p, c in zip(h, s)]
        if rng.random() < 0.2:
            hy[rng.randrange(n)] += rng.randrange(1, 3)
        yield tuple(hx), tuple(hy), tuple(s)


def _as_values(*views):
    """The vectors as N0 values (length 1) or vec(n) values, and the monoid."""
    if len(views[0]) == 1:
        return N0, [fin(v[0]) for v in views]
    return VecMonoid(len(views[0]), at_most(W)), [CardVec.fins(*v) for v in views]


def test_closed_forms_match_the_scans():
    # the closed forms of the uniform tier give the first hit of the scans
    # they replace on integer vectors wherever a scan hits within SCALE_CAP.
    # Past the cap they give the least solution: a*x = b*y with gcd(a, b) =
    # 1, and d*s = hy - hx with the other count 0.  They give None only where
    # a wider scan finds nothing either.  _prefix_balance, the scan that
    # values without a view take, agrees with the plain scan and its
    # left-hand side
    rng = random.Random(3131)
    hits = collections.Counter()
    for x, y in _ratio_cases(rng):
        m, (vx, vy) = _as_values(x, y)
        want, got = _scanned_ratio(m, vx, vy, SCALE_CAP), _ratio(x, y)
        assert got == _cycle_ratio(m, vx, vy, SCALE_CAP), (x, y)
        if want is not None or got is None:
            assert got == want == _scanned_ratio(m, vx, vy, 16), (x, y)
        else:
            a, b = got
            assert max(a, b) > SCALE_CAP and math.gcd(a, b) == 1, (x, y)
            assert all(a * p == b * q for p, q in zip(x, y)), (x, y)
        hits[want is not None, got is not None] += 1
    for hx, hy, s in _balance_cases(rng):
        m, vals = _as_values(hx, hy, s)
        want, got = _scanned_balance(m, *vals), _balance(hx, hy, s)
        assert _prefix_balance(m, *vals) == want, (hx, hy, s)
        if want is not None or got is None:
            wide = _scanned_balance(m, *vals, cap=16)
            assert got == (want and want[:2]) == (wide and wide[:2]), (hx, hy, s)
        else:
            kx, ky = got
            assert max(kx, ky) > SCALE_CAP and min(kx, ky) == 0, (hx, hy, s)
            assert all(q - p == (kx - ky) * c for p, q, c in zip(hx, hy, s)), (hx, hy, s)
        hits[want is not None, got is not None] += 1
    assert hits[True, True] >= 400 and hits[False, False] >= 200 and hits[False, True] >= 60, hits


def test_int_vector_only_where_the_arithmetic_is_integer():
    from kmon.presentations import Form, TwoGenMonoid, TwoGenPresentation

    assert N0.int_vector(fin(7)) == (7,)
    assert N0.int_vector(W) is None
    assert F2.int_vector(CardVec.fins(0, 3)) == (0, 3)
    assert F2.int_vector(CardVec((fin(1), W))) is None
    dio = DioMonoid(ConstraintSystem.make(2, congruences=[((1, 1), 2)]), at_most(W))
    assert dio.int_vector(CardVec.fins(2, 0)) == (2, 0)
    cmn = CyclicExtensionMonoid(CyclicMonoid(1, 2))
    assert cmn.int_vector(fin(1)) is None
    assert RationalLineMonoid().int_vector(QPoint.plain(Fraction(1, 2))) is None
    # below the top, finite sums and eq of trivial(N0) are those of N0
    trivial = TrivialExtensionMonoid(plain_n0())
    assert trivial.int_vector(fin(2)) == (2,) and trivial.int_vector(INF) is None
    twogen = TwoGenMonoid(TwoGenPresentation.of([]), budget=100)
    assert twogen.int_vector(Form.of(1, 2)) is None
    # so a cmn(1,2) pair takes the uniform tier's scans, cycle ratio and
    # prefix balance both, and braid_find answers with their chain
    x, y = fam((1, W), (2, 1)), fam((1, W))
    streams = _stream(x), _stream(y)
    assert _StreamViews.of(cmn, *streams) is None
    chain = _uniform_omega(cmn, *streams, None)
    assert chain.prefix and chain.cycle
    assert braid_find(cmn, x, y).witness == LayeredCertificate.of(chain)


def _uniform_population(seed):
    """About 300 (monoid, x, y) pairs at lambda = aleph0 whose families each
    have a finite head and one to three aleph0 cycle values, so that every
    pair with equal sums reaches the uniform tier: integer-vector monoids
    for its closed forms, cmn(1,2) and trivial(N0) for its scans.  Half the
    pairs share the cycle and differ by t copies of the cycle sum in one
    head, t in 1..14, which puts the prefix balance at kx - ky = +-t."""
    make = ConstraintSystem.make
    setups = [
        (F2, [CardVec.fins(a, b) for a in range(4) for b in range(4) if a or b]),
        (VecMonoid(3, at_most(W)), [CardVec.fins(*c) for c in itertools.product(range(3), repeat=3) if any(c)]),
        (DioMonoid(make(2, equations=[((1, 0), (0, 1))]), at_most(W)), [CardVec.fins(k, k) for k in range(1, 6)]),
        (
            DioMonoid(make(2, congruences=[((1, 1), 2)]), at_most(W)),
            [CardVec.fins(a, b) for a in range(4) for b in range(4) if (a + b) % 2 == 0 and a + b],
        ),
        (N0, [fin(k) for k in range(1, 9)]),
        (CyclicExtensionMonoid(CyclicMonoid(1, 2)), [fin(k) for k in range(1, 5)]),
        (TrivialExtensionMonoid(plain_n0()), [ExtCard(k) for k in range(1, 6)]),
    ]
    rng = random.Random(seed)

    def family(m, values, cycle):
        while True:  # leave the head at least one class
            classes = {m.canon(e) for e in cycle}
            pool = [e for e in values if m.canon(e) not in classes]
            if pool:
                break
            cycle = cycle[:-1]
        head = [(rng.choice(pool), fin(rng.randrange(1, 4))) for _ in range(rng.randrange(1, 4))]
        return Family.of(head + [(e, W) for e in cycle])

    for i in range(308):
        m, values = setups[i % len(setups)]
        x = family(m, values, rng.sample(values, rng.randrange(1, 4)))
        if rng.random() < 0.5:
            y = family(m, values, rng.sample(values, rng.randrange(1, 4)))
        else:
            total = m.ksum(Family.of([(e, fin(1)) for e, mult in x if mult == W]))
            extra = Family.of([(m.scalar(fin(rng.randrange(1, 15)), total), fin(1))])
            if rng.random() < 0.5:
                y = x.add(extra)
            else:
                x, y = x.add(extra), x
        yield m, x, y


def test_uniform_population_is_pinned():
    # kind, note and rendered certificate of braid_find plus the kind of
    # verify, on pairs that the uniform tier decides or passes on
    rows = []
    for m, x, y in _uniform_population(3030):
        r = braid_find(m, x, y, budget=300)
        cert = render_certificate(r.witness) if r.is_yes else ""
        checked = verify(m, x, y, r.witness).kind if r.is_yes else ""
        rows.append(f"{r.kind}|{r.note}|{cert}|{checked}")
    assert collections.Counter(row.split("|")[0] for row in rows) == {"yes": 247, "no": 23, "unknown": 38}
    # re-pinned when the greedy walk was retired: trivial(N0) gained an
    # integer view, ratios and balances past SCALE_CAP became uniform
    # blocks, and the DFS took the walk's cmn(1,2) pairs
    want = "1a77010761b3d6105bbdf1027949ca82644f1400d53bce58db7fd7b1bd172c19"
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == want
