import copy
import hashlib
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from kmon.cardinals import ALEPH0, FIN1, ZERO, ExtCard, aleph, at_most, below, card_mul, fin
from kmon.core import (
    CyclicExtensionMonoid,
    CyclicMonoid,
    Family,
    KappaMonoid,
    _entry_key,
    absorb_big,
    draw,
    is_reduced_witness,
    order_unit_check,
    size_of,
    sort_key,
    flatten,
)
from kmon.diophantine import ConstraintSystem, DioMonoid
from kmon.dsl import parse_monoid
from kmon.errors import BoundExceededError, PreconditionError
from kmon.free_vectors import CardVec, VecMonoid
from kmon.gallery import (
    INF,
    QINF,
    DedekindVMonoid,
    QPoint,
    RankClass,
    RationalLineMonoid,
    TrivialExtensionMonoid,
    plain_n0,
)
from kmon.laws import check_axioms
from kmon.tribool import unknown


F2 = VecMonoid(2, at_most(ALEPH0))
N0EXT = CyclicExtensionMonoid(CyclicMonoid())  # all cardinals up to the bound


def test_family_canonicalization():
    f = Family.of([(fin(1), fin(2)), (fin(1), fin(3)), (fin(2), ZERO)])
    assert f.entries == ((fin(1), fin(5)),)
    g = Family.of([(fin(1), fin(2)), (fin(1), ALEPH0)])
    assert g.entries == ((fin(1), ALEPH0),)
    assert Family.empty().index_card() == ZERO
    assert f.index_card() == fin(5)


def test_flatten_multiplies_multiplicities():
    inner = Family.of([(fin(1), fin(2))])
    outer = Family.of([(inner, ALEPH0)])
    assert flatten(outer).entries == ((fin(1), ALEPH0),)


def test_ksum_worked_examples():
    assert N0EXT.ksum(Family.of([(fin(2), fin(1)), (fin(3), fin(1))])) == fin(5)
    assert N0EXT.ksum(Family.of([(fin(1), ALEPH0)])) == ALEPH0
    assert N0EXT.ksum(Family.empty()) == ZERO


def test_ksum_bound_enforced():
    m = VecMonoid(1, below(ALEPH0))
    with pytest.raises(BoundExceededError):
        m.ksum(Family.of([(CardVec.fins(1), ALEPH0)]))
    # zero entries do not count toward the bound
    assert m.ksum(Family.of([(CardVec.fins(0), ALEPH0)])) == CardVec.fins(0)


def test_scalar_worked_examples():
    assert N0EXT.scalar(ALEPH0, ZERO) == ZERO
    assert F2.scalar(ALEPH0, CardVec.fins(1, 2)) == CardVec.of(ALEPH0, ALEPH0)
    c12 = CyclicExtensionMonoid(CyclicMonoid(1, 2))
    assert c12.scalar(fin(5), fin(1)) == fin(1)  # 5 = 1 mod 2, above the tail
    assert c12.scalar(fin(4), fin(1)) == fin(2)


def test_cyclic_class_structure():
    c = CyclicMonoid(2, 3)
    assert [c.canon(k) for k in range(9)] == [0, 1, 2, 3, 4, 2, 3, 4, 2]
    ext = CyclicExtensionMonoid(c)
    assert ext.eq(fin(5), fin(2)).is_yes
    assert ext.eq(fin(1), fin(4)).is_no
    assert ext.ksum(Family.of([(fin(1), ALEPH0)])) == ALEPH0
    assert ext.ksum(Family.of([(fin(2), fin(3)), (aleph(1), fin(1))])) == aleph(1)


def test_non_reduced_cyclic_rejected():
    with pytest.raises(ValueError):
        CyclicExtensionMonoid(CyclicMonoid(0, 2))


def test_is_reduced_witness():
    assert is_reduced_witness(F2, F2.zero, F2.zero)
    with pytest.raises(PreconditionError):
        is_reduced_witness(F2, CardVec.fins(1, 0), CardVec.fins(0, 1))


def test_order_unit_check_worked_examples():
    u = CardVec.fins(1, 1)
    assert order_unit_check(F2, u, [CardVec.of(ALEPH0, fin(3))]).is_yes
    assert order_unit_check(F2, CardVec.fins(1, 0), [CardVec.fins(0, 1)]).is_no
    assert order_unit_check(N0EXT, fin(1), [fin(5)]).is_yes


def test_size_of():
    u = CardVec.fins(1, 1)
    assert size_of(F2, u, CardVec.fins(3, 5)) == ZERO
    assert size_of(F2, u, CardVec.of(ALEPH0, fin(2))) == ALEPH0
    f2big = VecMonoid(2, at_most(aleph(2)))
    assert size_of(f2big, u, CardVec.of(aleph(1), ZERO)) == aleph(1)



@pytest.mark.parametrize("k", [1, 2, 3])
def test_derived_operations_below_an_uncountable_bound(k):
    # under below(aleph_k) the largest admissible multiple is aleph_(k-1)
    m = VecMonoid(2, below(aleph(k)))
    top = aleph(k - 1)
    assert m.bound.top == top
    u = CardVec.fins(1, 1)
    assert order_unit_check(m, u, [CardVec.of(top, fin(3)), CardVec.of(ALEPH0, top)]).is_yes
    assert order_unit_check(m, CardVec.fins(1, 0), [CardVec.fins(0, 1)]).is_no
    assert size_of(m, u, CardVec.fins(3, 5)) == ZERO
    assert size_of(m, u, CardVec.of(ALEPH0, fin(2))) == ALEPH0
    assert size_of(m, u, CardVec.of(top, ZERO)) == top
    for law_m in (m, CyclicExtensionMonoid(CyclicMonoid(), below(aleph(k)))):
        rep = check_axioms(law_m, samples=150, seed=42)
        assert rep.all_passed, rep.render()

TRIV = TrivialExtensionMonoid(plain_n0())
QLINE = RationalLineMonoid()
DED = DedekindVMonoid((2,))
F2BIG = VecMonoid(2, at_most(aleph(2)))


@pytest.mark.parametrize(
    "m,u,x",
    [
        (N0EXT, ALEPH0, ALEPH0),
        (N0EXT, aleph(1), ALEPH0),
        (F2, CardVec.of(ALEPH0, fin(1)), CardVec.of(ALEPH0, fin(3))),
        (TRIV, INF, INF),
        (QLINE, QINF, QINF),
        (DED, DED.elem(ALEPH0), DED.elem(ALEPH0)),
    ],
    ids=["N0", "N0-aleph1", "vec2", "trivial", "qline", "dedekind"],
)
def test_infinite_x_below_one_copy_of_infinite_u(m, u, x):
    # n*u = u for every n >= 1 on the infinite part, so x <= 1*u suffices
    assert m.finite_multiple_leq(u, x).is_yes
    assert size_of(m, u, x) == ZERO


@pytest.mark.parametrize(
    "m,u,x",
    [
        (N0EXT, fin(1), ALEPH0),
        (N0EXT, ALEPH0, aleph(1)),
        (F2, CardVec.fins(1, 1), CardVec.of(ALEPH0, fin(1))),
        (F2BIG, CardVec.of(ALEPH0, fin(1)), CardVec.of(aleph(1), fin(1))),
        (TRIV, fin(1), INF),
        (QLINE, QPoint.plain(1), QINF),
        (DED, DED.elem(1), DED.elem(ALEPH0)),
        (DED, DED.elem(ALEPH0), DED.elem(aleph(1))),
    ],
    ids=["N0", "N0-aleph1", "vec2", "vec2-aleph1", "trivial", "qline", "dedekind",
         "dedekind-aleph1"],
)
def test_infinite_x_above_every_finite_multiple(m, u, x):
    assert m.finite_multiple_leq(u, x).is_no


def test_free_n0_finite_multiples_are_exact():
    # x <= ceil(x/u)*u in N0, found without the bounded scan
    r = N0EXT.finite_multiple_leq(fin(1), fin(100))
    assert r.is_yes and r.witness == 100
    assert size_of(N0EXT, fin(1), fin(100)) == ZERO
    assert order_unit_check(plain_n0(), fin(1), [fin(100)]).is_yes
    assert N0EXT.finite_multiple_leq(fin(7), fin(100)).witness == 15
    # the closed form agrees with the generic scan wherever the scan decides
    values = [fin(k) for k in range(41)] + [ALEPH0]
    for u in values:
        for x in values:
            scan = KappaMonoid.finite_multiple_leq(N0EXT, u, x)
            if scan.decided:
                r = N0EXT.finite_multiple_leq(u, x)
                assert (r.kind, r.witness) == (scan.kind, scan.witness), (u, x)
                if u.is_zero and x.is_finite and not x.is_zero:
                    assert r.note == scan.note


@pytest.mark.parametrize(
    "name",
    ["qline", "dedekind(2)", "dedekind(2,3)", "trivial(N0)", "trivial(cmn(1,2))", "N0",
     "cmn(2,3)", "vec(2)"],
)
def test_finite_multiple_closed_forms_agree_with_the_scan(name):
    # wherever the generic scan of multiples decides, the monoid's own
    # closed form gives the same answer and the same least n
    rng = random.Random(sum(map(ord, name)))
    decided = 0
    for bound in (at_most(ALEPH0), at_most(aleph(1))):
        m = parse_monoid(name, bound)
        pairs = [(m.sample_element(rng), m.sample_element(rng)) for _ in range(150)]
        if name.startswith(("qline", "trivial")):
            top = QINF if name == "qline" else INF
            pairs.append((top, m.zero))  # the least n is 0, not 1
        for u, x in pairs:
            scan = KappaMonoid.finite_multiple_leq(m, u, x)
            if scan.decided:
                decided += 1
                r = m.finite_multiple_leq(u, x)
                assert (r.kind, r.witness) == (scan.kind, scan.witness), (bound, u, x)
    assert decided >= 150


def test_absorb_big():
    u = CardVec.fins(1, 1)
    t = CardVec.of(ALEPH0, ALEPH0)
    assert absorb_big(F2, u, t, CardVec.fins(2, 0))
    with pytest.raises(PreconditionError):
        absorb_big(F2, u, CardVec.fins(1, 1), CardVec.fins(0, 0))
    with pytest.raises(PreconditionError, match="a plain monoid has no kappa"):
        absorb_big(VecMonoid(2, below(ALEPH0)), u, u, u)


def test_in_add_monotone():
    x = CardVec.fins(2, 1)
    ys = [CardVec.fins(a, b) for a in range(4) for b in range(3)]
    for y in ys:
        r = KappaMonoid.finite_multiple_leq(F2, x, y)
        if r.is_yes:
            for yp in ys:
                if F2.leq(yp, y).is_yes:
                    assert KappaMonoid.finite_multiple_leq(F2, x, yp).is_yes


def test_check_axioms_pass_on_lawful_monoids():
    for m in (F2, N0EXT, CyclicExtensionMonoid(CyclicMonoid(1, 2))):
        rep = check_axioms(m, samples=150, seed=42)
        assert rep.all_passed, rep.render()


class BrokenMonoid(VecMonoid):
    """Summation deliberately violates flattening: grouped sums gain a unit."""

    name = "broken"

    def raw_ksum(self, fam):
        base = super().raw_ksum(fam)
        if len(fam) >= 2:
            bump = VecMonoid.raw_ksum(
                self, Family.of([(CardVec.fins(*([1] * self.n)), fin(1)), (base, fin(1))])
            )
            return bump
        return base


def test_check_axioms_catches_broken_monoid():
    rep = check_axioms(BrokenMonoid(1, at_most(ALEPH0)), samples=200, seed=42)
    bad = {r.law for r in rep.failures()}
    assert bad, "harness failed to flag the broken monoid"
    assert any(law.startswith("A") or "scalar" in law for law in bad)
    assert all(r.witness for r in rep.failures())


def test_law_report_render_format():
    rep = check_axioms(F2, samples=30, seed=1)
    for line in rep.render().splitlines():
        assert line.startswith("PASS") or line.startswith("FAIL")


def test_value_types_compare_by_type_and_value():
    assert fin(1) != CardVec.fins(1)
    assert CardVec.fins(1) != fin(1)
    assert CardVec.fins(1, 300) == CardVec.of(fin(1), fin(300))
    assert hash(CardVec.fins(1, 300)) == hash(CardVec.of(fin(1), fin(300)))
    assert Family.of([(fin(1), fin(2))]) == Family.of(iter([(fin(1), fin(2))]))
    assert Family.of([(fin(1), fin(2))]) != Family.of([(fin(1), fin(3))])
    assert Family.empty() is Family.of([]) is Family.of([(fin(1), ZERO)])


def test_value_types_are_immutable_and_picklable():
    v = CardVec.fins(1, 2)
    fam = Family.of([(fin(1), fin(2))])
    for obj, field in ((v, "coords"), (fam, "entries"), (Family.empty(), "entries")):
        with pytest.raises(AttributeError):
            setattr(obj, field, ())
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert v.coords == (fin(1), fin(2)) and fam.entries == ((fin(1), fin(2)),)
    for obj in (fin(300), ALEPH0, v, fam, Family.empty()):
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj


ACCEPTANCE_1_MONOIDS = [
    VecMonoid(1, at_most(ALEPH0)),
    VecMonoid(2, at_most(aleph(2))),
    VecMonoid(3, at_most(aleph(3))),
    CyclicExtensionMonoid(CyclicMonoid()),
    CyclicExtensionMonoid(CyclicMonoid(1, 2)),
    CyclicExtensionMonoid(CyclicMonoid(2, 3)),
    DioMonoid(ConstraintSystem.make(2, equations=[((1, 0), (0, 1))]), at_most(aleph(1))),
    DioMonoid(ConstraintSystem.make(2, equations=[((2, 0), (1, 1))]), at_most(aleph(1))),
    DioMonoid(ConstraintSystem.make(2, congruences=[((1, 1), 2)]), at_most(ALEPH0)),
    TrivialExtensionMonoid(plain_n0()),
    TrivialExtensionMonoid(VecMonoid(2, below(ALEPH0))),
    RationalLineMonoid(),
    DedekindVMonoid((2,)),
    DedekindVMonoid((2, 2)),
]


def merged(pairs):
    """Family.of through its general merge: a generator skips the one-pair path."""
    return Family.of(p for p in list(pairs))


@pytest.mark.parametrize("m", ACCEPTANCE_1_MONOIDS, ids=lambda m: m.name)
def test_family_fast_paths_match_the_general_merge(m):
    rng = random.Random(20260810)
    scalars = [ZERO, FIN1, fin(3), ALEPH0, aleph(2)]
    for _ in range(60):
        x = m.sample_element(rng)
        mult = rng.choice(m.sample_mults())
        assert Family.of([(x, mult)]).entries == merged([(x, mult)]).entries
        assert Family.of([(x, ZERO)]).entries == merged([(x, ZERO)]).entries == ()
        assert Family.of([(x, mult), (x, fin(2))]).entries == ((x, mult + fin(2)),)
        a, b = m.sample_family(rng), m.sample_family(rng)
        for fam in (a, b, Family.of([(x, mult)]), Family.empty()):
            assert Family.of(fam.entries).entries == fam.entries
            for s in scalars:
                want = merged((e, card_mul(s, k)) for e, k in fam)
                assert fam.scale(s).entries == want.entries
        for lhs, rhs in ((a, b), (b, a), (a, a), (a, Family.empty()), (Family.empty(), b)):
            assert lhs.add(rhs).entries == merged(lhs.entries + rhs.entries).entries
        for p, q in [(x, x)] + [pair for e, _ in a for pair in ((x, e), (e, x))]:
            assert m.add(p, q) == m.raw_ksum(merged([(p, FIN1), (q, FIN1)]))


def reference_card_sum(pairs):
    """The definition: the integer sum of finite content; with infinite
    content, the largest value or count of an entry that is not 0."""
    pairs = [(v, c) for v, c in pairs if not v.is_zero and not c.is_zero]
    if all(v.is_finite and c.is_finite for v, c in pairs):
        return fin(sum(v.n * c.n for v, c in pairs))
    return max([v for v, _ in pairs] + [c for _, c in pairs])


def reference_sum(m, fam):
    """Each zoo monoid's sum, from its definition, entry by entry."""
    ents = list(fam.entries)
    if isinstance(m, TrivialExtensionMonoid):
        nonzero = [(e, c) for e, c in ents if not m.eq(e, m.zero).is_yes]
        if any(e == INF or c.is_infinite for e, c in nonzero):
            return INF
        return reference_sum(m.base, Family(tuple(nonzero)))
    if isinstance(m, CyclicExtensionMonoid):
        total = reference_card_sum(ents)
        lo, period = m.cyc.m, m.cyc.n
        if total.is_infinite or lo is None or total.n < lo:
            return total
        return fin(lo + (total.n - lo) % period)
    if isinstance(m, VecMonoid):
        return CardVec(tuple(reference_card_sum([(v[i], c) for v, c in ents]) for i in range(m.n)))
    if isinstance(m, RationalLineMonoid):
        nonzero = [(e, c) for e, c in ents if e != m.zero]
        if any(e == QINF or c.is_infinite for e, c in nonzero):
            return QINF
        total = sum((e.q * c.n for e, c in nonzero), Fraction(0))
        return QPoint(total, "tilde" if any(e.tag == "tilde" for e, _ in nonzero) else "plain")
    assert isinstance(m, DedekindVMonoid)
    rank = reference_card_sum([(e.rank, c) for e, c in ents])
    if rank.is_infinite:
        return RankClass(rank, m.zero.cls)
    cls = tuple(
        sum(e.cls[i] * c.n for e, c in ents if not e.rank.is_zero) % f
        for i, f in enumerate(m.factors)
    )
    return RankClass(rank, cls)


@pytest.mark.parametrize("m", ACCEPTANCE_1_MONOIDS, ids=lambda m: m.name)
def test_raw_ksum_matches_a_reference_sum(m):
    rng = random.Random(20261019)
    mults = [FIN1, fin(2), fin(3), fin(7)] + [aleph(k) for k in range(4)]
    fams = []
    for _ in range(300):
        # zero elements and every multiplicity, admitted or not: raw_ksum
        # sums whatever family it is given
        pairs = [
            (m.zero if rng.random() < 0.2 else m.sample_element(rng), rng.choice(mults))
            for _ in range(rng.randrange(6))
        ]
        fams.append(Family.of(pairs))
    for x in [m.zero] + [m.sample_element(rng) for _ in range(20)]:
        fams += [Family.of([(x, c)]) for c in mults]
    assert any(len(f) >= 3 for f in fams) and any(m.zero in dict(f.entries) for f in fams)
    for fam in fams:
        got = m.raw_ksum(fam)
        want = reference_sum(m, fam)
        assert got == want and type(got) is type(want), (fam, got, want)
        assert m.canon(got) == got


# the sha256 of every LawReport.render() below, taken before the value core
# summed each family in one pass; a change to any rng draw, case count or
# verdict changes it
LAW_REPORT_DIGEST = "15fac8b0d070d017fa25dfbd8ef0ac8ca9e5ee6cf602b624030ae993a8504c8d"


def test_law_reports_are_pinned():
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        for m in ACCEPTANCE_1_MONOIDS:
            rep = check_axioms(m, samples=100, seed=seed)
            h.update(f"{rep.monoid}@{seed}\n{rep.render()}\n".encode())
    assert h.hexdigest() == LAW_REPORT_DIGEST


def key_population(seed):
    """Elements of the acceptance-1 monoids and of twogen { }, uninterned
    copies of some of them, their families, and families of families."""
    rng = random.Random(seed)
    pool, fams = [], []
    for m in ACCEPTANCE_1_MONOIDS + [parse_monoid("twogen { }")]:
        elems = [m.zero] + [m.sample_element(rng) for _ in range(25)]
        pool += elems + [pickle.loads(pickle.dumps(x)) for x in elems[:8]]
        fams += [m.sample_family(rng, max_entries=3) for _ in range(8)]
    weights = [FIN1, fin(2), ALEPH0]
    outer = [
        Family.of([(rng.choice(fams), rng.choice(weights)) for _ in range(rng.randrange(4))])
        for _ in range(40)
    ]
    return pool + fams + outer + [Family.of([(rng.choice(outer), FIN1)]) for _ in range(10)]


@pytest.mark.parametrize("seed", [1, 2])
def test_sort_key_determines_the_element(seed):
    # the element contract: equal keys exactly when the elements are equal,
    # so distinct elements never tie in a family's order
    pool = key_population(seed)
    keys = [sort_key(x) for x in pool]
    for x, kx in zip(pool, keys):
        for y, ky in zip(pool, keys):
            assert (kx == ky) == (x == y), (x, y)
    sorted(pool, key=sort_key)  # every two keys compare, across classes too


def test_bound_check_below_aleph0_counts_only_nonzero_elements():
    m = VecMonoid(2, below(ALEPH0))
    assert m.ksum(Family.of([(CardVec.fins(0, 0), ALEPH0)])) == m.zero
    with pytest.raises(BoundExceededError):
        m.ksum(Family.of([(CardVec.fins(1, 0), ALEPH0)]))


@pytest.mark.parametrize("cyc", [CyclicMonoid(), CyclicMonoid(1, 2)], ids=str)
def test_bound_check_at_most_counts_only_nonzero_elements(cyc):
    m = CyclicExtensionMonoid(cyc, at_most(ALEPH0))
    assert m.ksum(Family.of([(ZERO, aleph(1))])) == ZERO
    assert m.ksum(Family.of([(ZERO, aleph(1)), (fin(1), ALEPH0)])) == ALEPH0
    with pytest.raises(BoundExceededError):
        m.ksum(Family.of([(fin(1), aleph(1))]))
    with pytest.raises(BoundExceededError):
        m.ksum(Family.of([(ZERO, aleph(1)), (fin(1), aleph(1))]))


class NoEqMonoid(CyclicExtensionMonoid):
    def eq(self, a, b):
        raise AssertionError("the bound check compared an element with zero")


def test_bound_check_needs_no_eq_when_every_multiplicity_is_admitted():
    m = NoEqMonoid(CyclicMonoid(), at_most(aleph(1)))
    fam = Family.of([(ZERO, aleph(1)), (fin(2), ALEPH0), (aleph(1), fin(3))])
    assert m.ksum(fam) == aleph(1)


def reference_entries(pairs):
    """Family.of by its definition: merge equal elements by cardinal
    addition, drop zero multiplicities, sort every entry by _entry_key."""
    merged = {}
    for e, m in pairs:
        if not m.is_zero:
            merged[e] = merged[e] + m if e in merged else m
    return tuple(sorted(merged.items(), key=_entry_key))


@pytest.mark.parametrize(
    "m", ACCEPTANCE_1_MONOIDS + [parse_monoid("twogen { }")], ids=lambda m: m.name
)
def test_family_of_sorts_as_the_entry_key_does(m):
    rng = random.Random(20261020)
    mults = m.sample_mults() + (ZERO,)
    for _ in range(200):
        pairs = [(m.sample_element(rng), rng.choice(mults)) for _ in range(rng.randrange(7))]
        pairs += pairs[: rng.randrange(3)]  # repeated elements merge
        want = reference_entries(pairs)
        assert Family.of(pairs).entries == want
        assert Family.of(iter(pairs)).entries == want


def test_family_of_sorts_mixed_families_and_families_of_families_by_the_entry_key():
    one, two = Family.of([(fin(1), FIN1)]), Family.of([(fin(2), FIN1)])
    top = Family.of([(INF, FIN1), (fin(3), fin(2))])
    cases = [
        # trivial(N0) and trivial(vec(2)): the top among base elements
        [(INF, FIN1), (fin(3), fin(2)), (ZERO, ALEPH0), (INF, fin(2))],
        [(CardVec.fins(1, 0), FIN1), (INF, ALEPH0), (CardVec.fins(0, 1), fin(3))],
        # a family of families, equal inner families under infinite weights
        [(one, ALEPH0), (two, FIN1), (Family.empty(), fin(2)), (one, aleph(1))],
        # inner families of mixed classes, and a family of families of families
        [(top, FIN1), (one, fin(2)), (Family.of([(INF, fin(2))]), FIN1), (top, ALEPH0)],
        [(Family.of([(one, FIN1)]), FIN1), (Family.of([(two, FIN1)]), ALEPH0), (Family.empty(), FIN1)],
        # keyed, but of several classes
        [(fin(1), FIN1), (CardVec.fins(1), FIN1), (QPoint.plain(1), FIN1), (RankClass(fin(1), (0,)), FIN1)],
    ]
    for pairs in cases:
        for perm in itertools.permutations(pairs):
            assert Family.of(list(perm)).entries == reference_entries(perm), perm


@pytest.mark.parametrize("m", ACCEPTANCE_1_MONOIDS, ids=lambda m: m.name)
def test_flatten_of_the_outer_pairs_equals_flatten_of_their_family(m):
    # check_axioms's A2 draws, plus an inner family repeated under an
    # infinite weight, which Family.of merges into one outer entry
    rng = random.Random(20261021)
    mults = m.sample_mults()
    infinite = [c for c in mults if c.is_infinite]
    for _ in range(150):
        k = rng.randrange(1, 4)
        inner = [m.sample_family(rng, max_entries=2) for _ in range(k)]
        pairs = [(f, rng.choice(mults)) for f in inner]
        twin = Family.of(list(inner[0].entries))
        pairs.append((twin, rng.choice(infinite)))
        rng.shuffle(pairs)
        assert flatten(pairs) == flatten(Family.of(pairs))
        assert flatten(pairs[:k]) == flatten(Family.of(pairs[:k]))


@pytest.mark.parametrize("seed", [0, 1, 2, 20261020])
def test_draw_matches_randrange_and_choice_draw_for_draw(seed):
    # n = 1..70 crosses six powers of two, where _randbelow rejects half its
    # draws, plus larger powers; all three generators must end in one state
    ns = list(range(1, 71)) + [2**k for k in range(7, 13)]
    a, b, c = random.Random(seed), random.Random(seed), random.Random(seed)
    for _ in range(3):
        for n in ns:
            seq = list(range(n))
            assert draw(a, n) == b.randrange(n) == c.choice(seq)
            assert 1 + draw(a, n) == b.randrange(1, n + 1) == 1 + c.choice(seq)
    assert a.getstate() == b.getstate() == c.getstate()


@pytest.mark.parametrize("n", [0, -1, -5])
def test_draw_rejects_an_empty_range(n):
    with pytest.raises(ValueError):
        draw(random.Random(1), n)


def assert_pair_matches_the_merge(p, q):
    want = merged([p, q]).entries
    assert want == reference_entries([p, q])
    assert Family.of([p, q]).entries == want
    assert Family.of((p, q)).entries == want


@pytest.mark.parametrize(
    "m", ACCEPTANCE_1_MONOIDS + [parse_monoid("twogen { }")], ids=lambda m: m.name
)
def test_family_of_pairs_in_closed_form_match_the_merge(m):
    rng = random.Random(20261022)
    mults = m.sample_mults() + (ZERO,)
    for _ in range(150):
        x, y = m.sample_element(rng), m.sample_element(rng)
        p, q = rng.choice(mults), rng.choice(mults)
        for a, b in ((x, y), (y, x), (x, x)):  # equal elements merge
            for j, k in ((p, q), (q, p), (ZERO, q), (p, ZERO), (ZERO, ZERO)):
                assert_pair_matches_the_merge((a, j), (b, k))
            assert m.add(a, b) == m.raw_ksum(merged([(a, FIN1), (b, FIN1)]))


def test_family_of_pairs_of_mixed_classes_match_the_merge():
    one = Family.of([(fin(1), FIN1)])
    top = Family.of([(INF, FIN1), (fin(3), fin(2))])
    elems = [INF, ZERO, fin(3), ALEPH0, CardVec.fins(1, 0), QPoint.plain(1), one, top]
    counts = [ZERO, FIN1, fin(2), ALEPH0, aleph(1)]
    for x, y in itertools.product(elems, repeat=2):
        for j, k in itertools.product(counts, repeat=2):
            assert_pair_matches_the_merge((x, j), (y, k))
    # equal elements merge into the first, as the dict merge keeps its key
    twin = ExtCard(3)
    for x, y in ((twin, fin(3)), (fin(3), twin)):
        got, want = Family.of([(x, FIN1), (y, fin(2))]), merged([(x, FIN1), (y, fin(2))])
        assert got.entries == want.entries == ((x, fin(3)),)
        assert got.entries[0][0] is x and want.entries[0][0] is x
    n0 = TrivialExtensionMonoid(plain_n0())
    for x, y in itertools.product([INF, ZERO, fin(3)], repeat=2):
        assert n0.add(x, y) == n0.raw_ksum(merged([(x, FIN1), (y, FIN1)]))


class UndecidedZero(CyclicExtensionMonoid):
    """Free N0 whose eq cannot compare an uninterned zero, ExtCard(0), with
    anything: the sampler draws one half the time, so that x + y = 0 holds
    while x = 0 or y = 0 is undecided."""

    def __init__(self):
        super().__init__(CyclicMonoid())

    def eq(self, a, b):
        if (a.is_zero and a is not ZERO) or (b.is_zero and b is not ZERO):
            return unknown(note="an uninterned zero")
        return super().eq(a, b)

    def sample_element(self, rng):
        return ExtCard(0) if rng.random() < 0.5 else super().sample_element(rng)


class UndecidedZeroBrokenOne(UndecidedZero):
    """Also undecided at 0*x, and wrong at 1*x."""

    def scalar(self, a, x):
        if a.is_zero:
            return ExtCard(0)
        return super().scalar(a, x) + FIN1


def test_laws_skip_an_undecided_conjunct_and_fail_on_a_no():
    rep = {r.law: r for r in check_axioms(UndecidedZero(), samples=200, seed=1).results}
    assert rep["swindle-reduced"].passed and rep["scalar-zero-one"].passed
    # an Unknown 0*x beside a wrong 1*x is a failure, not a skip
    rep = {r.law: r for r in check_axioms(UndecidedZeroBrokenOne(), samples=50, seed=1).results}
    assert not rep["scalar-zero-one"].passed
