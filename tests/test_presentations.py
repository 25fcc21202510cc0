import hashlib
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from kmon import presentations
from kmon.cardinals import ALEPH0, ZERO, aleph, fin
from kmon.core import Family
from kmon.dsl import parse_presentation
from kmon.presentations import (
    Form,
    FORM_ZERO,
    TwoGenMonoid,
    TwoGenPresentation,
    X1,
    X2,
    corollary_checks,
    find_separating_hom,
    forms_equal,
    in_add,
    realizable_two_gen,
    replay_chain,
)
from kmon.tribool import no

W = ALEPH0
FREE = TwoGenPresentation.of([])
SWAP = TwoGenPresentation.of([(Form.of(1, 0), Form.of(0, 1))])
DOUBLE = TwoGenPresentation.of([(Form.of(2, 0), Form.of(0, 1))])
ABSORB = TwoGenPresentation.of([(Form.of(1, 1), Form.of(0, 1))])

# the trivial extension of the free two-generator monoid: all infinite forms
# are glued to a single point
TRIVIAL_INF = TwoGenPresentation.of(
    [
        (Form.of(W, 0), Form.of(W, W)),
        (Form.of(0, W), Form.of(W, W)),
        (Form.of(1, W), Form.of(0, W)),
        (Form.of(W, 1), Form.of(W, 0)),
    ]
)


def test_forms_equal_free():
    r = forms_equal(FREE, Form.of(1, 0), Form.of(0, 1))
    assert r.is_no
    assert forms_equal(FREE, Form.of(2, 3), Form.of(2, 3)).is_yes


def test_forms_equal_swap_relation():
    r = forms_equal(SWAP, Form.of(3, 0), Form.of(0, 3))
    assert r.is_yes
    assert replay_chain(SWAP, Form.of(3, 0), Form.of(0, 3), r.witness)


def test_forms_equal_absorb_presentation_is_not_equal():
    # With x1 + x2 = x2 alone, aleph0*x1 + x2 still differs from x2 (the
    # finiteness class separates them), and aleph0*x1 differs from aleph0*x2
    # (a separating homomorphism kills x1 but not x2).
    r = forms_equal(ABSORB, Form.of(W, 1), Form.of(0, 1), budget=4000)
    assert r.is_no
    r = forms_equal(ABSORB, Form.of(W, 0), Form.of(0, W), budget=4000)
    assert r.is_no
    assert r.witness is not None  # separating homomorphism
    # the aleph0-coefficient variants genuinely collapse
    assert forms_equal(ABSORB, Form.of(W, W), Form.of(0, W)).is_yes
    assert forms_equal(ABSORB, Form.of(3, W), Form.of(0, W)).is_yes


def test_forms_equal_trivial_extension_classes():
    for f in (Form.of(W, 0), Form.of(0, W), Form.of(4, W), Form.of(W, 2)):
        assert forms_equal(TRIVIAL_INF, f, Form.of(W, W)).is_yes
    assert forms_equal(TRIVIAL_INF, Form.of(2, 1), Form.of(1, 2)).is_no
    assert forms_equal(TRIVIAL_INF, Form.of(2, 1), Form.of(W, W)).is_no


def test_forms_equal_congruence_on_yes_pairs():
    rng = random.Random(5)
    pairs = [
        (Form.of(3, 0), Form.of(0, 3)),
        (Form.of(1, 1), Form.of(0, 2)),
        (Form.of(2, 0), Form.of(0, 2)),
    ]
    for (f, g), (f2, g2) in zip(pairs, pairs[1:]):
        if forms_equal(SWAP, f, g).is_yes and forms_equal(SWAP, f2, g2).is_yes:
            assert forms_equal(SWAP, f + f2, g + g2).is_yes


def test_budget_monotone():
    cases = [
        (SWAP, Form.of(3, 0), Form.of(0, 3)),
        (FREE, Form.of(1, 0), Form.of(0, 1)),
        (ABSORB, Form.of(W, 1), Form.of(0, 1)),
    ]
    for p, f, g in cases:
        small = forms_equal(p, f, g, budget=800)
        big = forms_equal(p, f, g, budget=8000)
        if small.decided:
            assert small.kind == big.kind


def test_in_add_worked_examples():
    assert in_add(FREE, Form.of(1, 0), Form.of(1, 1)).is_yes
    r = in_add(FREE, Form.of(0, 1), Form.of(1, 0))
    assert r.is_no
    r = in_add(DOUBLE, Form.of(0, 1), Form.of(1, 0))
    assert r.is_yes
    n, t, chain = r.witness
    assert n == 2 and t == FORM_ZERO


def test_realizable_free_is_yes():
    rep = realizable_two_gen(FREE)
    assert rep.verdict.is_yes, rep.render()


def test_realizable_trivial_extension_is_no_with_condition_ii():
    rep = realizable_two_gen(TRIVIAL_INF)
    assert rep.verdict.is_no, rep.render()
    c = rep.condition("(ii) i=1,j=2")
    assert c is not None and c.status == "violated" and c.exact
    assert c.witness == (0, 1)


def test_realizable_budget_stability():
    for p, want in ((FREE, "yes"), (TRIVIAL_INF, "no")):
        small = realizable_two_gen(p, budget=10_000)
        big = realizable_two_gen(p, budget=100_000)
        assert small.verdict.kind == want
        assert big.verdict.kind == want


def test_realizable_cyclic_presentation():
    # x2 = 2 x1 plus absorption of x1 into aleph0*x2: cyclic, realizable
    p = TwoGenPresentation.of(
        [(Form.of(1, W), Form.of(0, W)), (Form.of(2, 0), Form.of(0, 1))]
    )
    rep = realizable_two_gen(p)
    assert rep.verdict.is_yes, rep.render()
    assert any("cyclic" in n for n in rep.notes)


def test_corollary_checks_free():
    rep = corollary_checks(FREE)
    assert any("incomparable" in n for n in rep.notes)
    assert rep.verdict.is_yes, rep.render()


def test_corollary_checks_asks_each_in_add_once(monkeypatch):
    calls = []
    real = presentations.in_add

    def counted(p, target, base, budget=10_000):
        calls.append((target, base))
        return real(p, target, base, budget)

    monkeypatch.setattr(presentations, "in_add", counted)
    corollary_checks(FREE)
    assert calls == [(X1, X2), (X2, X1)]


def test_realizable_undecided_cyclicity_is_unknown_with_exact_conditions(monkeypatch):
    # X2 = 10*X1 here (X2 -> 2*X1 + 2*X2 -> 4*X1 + 3*X2 -> 8*X1 + 5*X2 ->
    # 10*X1), and the elimination normal forms find it: a cyclic,
    # class-preserving presentation, so Yes by the one-generator criterion
    p = parse_presentation(
        "twogen { rel: 2*X1 + 2*X2 = 0*X1 + 1*X2; rel: 3*X1 + 0*X2 = 1*X1 + 5*X2; }"
    )
    rep = realizable_two_gen(p, budget=200)
    assert rep.render().splitlines() == [
        "verdict: YES (cyclic with aleph0*x distinct from all n*x)",
        "FAIL non-cyclic (exact) witness=(2, 1, fin(10))",
        "OK   cyclic-criterion (exact) [rewrites preserve finiteness, so aleph0*x != n*x]",
        "note: presentation is cyclic: X2 = 10*X1; using the one-generator criterion",
    ]
    # with every completion cut off at its cap, X1 against the multiples of
    # X2 stays undecided and so does the premise of (i), which names the
    # cap; every other condition holds with exact proof, and the verdict
    # cannot be Yes
    monkeypatch.setattr(presentations, "complete", lambda *args: None)
    rep = realizable_two_gen(p, budget=200)
    assert rep.verdict.is_unknown
    assert rep.verdict.note == "(i) i=1,j=2; (i) i=2,j=1"
    assert rep.conditions
    for c in rep.conditions:
        if c.name.startswith("(i) "):
            assert (c.status, c.detail) == ("unknown", "completion cap 200 reached"), rep.render()
        else:
            assert c.status == "holds" and c.exact, rep.render()
    assert rep.notes == ["non-cyclicity unverified (X1 vs multiples of X2 undecided)"]


def test_corollary_checks_trivial_extension():
    rep = corollary_checks(TRIVIAL_INF)
    assert any("incomparable" in n for n in rep.notes)
    assert rep.verdict.is_no, rep.render()


def test_corollary_checks_equal_adds():
    p = TwoGenPresentation.of([(Form.of(2, 0), Form.of(0, 2))])
    rep = corollary_checks(p)
    assert any("add(X1) = add(X2)" in n for n in rep.notes)
    assert rep.verdict.is_yes, rep.render()


def test_agreement_with_cardinal_arithmetic_in_disguise():
    # x1 = x2 collapses forms to their total count; equality in the quotient
    # must match equality of totals in the cardinals
    p = SWAP
    coords = [fin(k) for k in range(3)] + [W]
    for a in coords:
        for b in coords:
            for c in coords:
                for d in coords:
                    f, g = Form(a, b), Form(c, d)
                    want = (a + b) == (c + d)
                    r = forms_equal(p, f, g, budget=4000)
                    assert r.decided
                    assert r.is_yes == want, (f, g)


def test_two_gen_monoid_interface():
    m = TwoGenMonoid(SWAP)
    from kmon.core import Family

    s = m.ksum(Family.of([(X1, fin(2)), (X2, fin(1))]))
    assert s == Form.of(2, 1)
    assert m.eq(s, Form.of(0, 3)).is_yes
    assert m.eq(s, Form.of(0, 2)).is_no


def test_finiteness_class_consistency_on_yes_pairs():
    # under a presentation with verified class separation, Yes-pairs share
    # their finiteness class
    for p in (SWAP, DOUBLE, TRIVIAL_INF):
        if not p.class_preserving:
            continue
        coords = [fin(k) for k in range(3)] + [W]
        for a in coords:
            for b in coords:
                f, g = Form(a, b), Form(b, a)
                if forms_equal(p, f, g, budget=2000).is_yes:
                    assert f.is_infinite == g.is_infinite


def test_two_gen_monoid_laws_and_braiding():
    # the presented monoid joins the law harness (laws asserted on decided
    # pairs) and the braid search (three-valued equality propagates)
    from kmon.braiding import braid_find, verify
    from kmon.core import Family
    from kmon.laws import check_axioms

    m = TwoGenMonoid(SWAP, budget=600)
    rep = check_axioms(m, samples=60, seed=11)
    assert rep.all_passed, rep.render()

    x = Family.of([(X1, W)])
    y = Family.of([(X2, W)])
    r = braid_find(m, x, y, budget=1500)
    assert r.is_yes
    assert verify(m, x, y, r.witness).is_yes


def test_class_exhaustion_gives_exact_no():
    # under x1 + x2 = 2 x2 the form (5,0) has no rewrites at all, so its
    # class is the singleton and distinctness is exact
    p = TwoGenPresentation.of([(Form.of(1, 1), Form.of(0, 2))])
    r = forms_equal(p, Form.of(5, 0), Form.of(4, 1), budget=4000)
    assert r.is_no and "exhausted" in r.note
    # totals are preserved by this relation, so a cross-total pair is also
    # an exhaustion No, while an in-shell trade is a Yes
    r = forms_equal(p, Form.of(3, 1), Form.of(2, 3), budget=4000)
    assert r.is_no
    assert forms_equal(p, Form.of(3, 1), Form.of(2, 2), budget=4000).is_yes


def test_lossy_branching_never_fakes_exhaustion():
    # a relation crossing an infinite coordinate into a finite one makes the
    # capped slack enumeration lossy; the answer may be Yes (goal-seeded) or
    # Unknown, but never a bare exhaustion No
    p = TwoGenPresentation.of([(Form.of(W, 1), Form.of(2, 1))])
    r = forms_equal(p, Form.of(W, 1), Form.of(9, 1), budget=4000)
    assert r.is_yes
    assert replay_chain(p, Form.of(W, 1), Form.of(9, 1), r.witness)
    r2 = forms_equal(p, Form.of(W, 1), Form.of(1, 0), budget=4000)
    assert not (r2.is_no and "exhausted" in r2.note)


def test_one_sided_add_classification():
    # x1 + x2 = 3 x2 puts x1 inside add(x2); the reverse direction is blocked
    # by the homomorphism killing x1 against an infinite x2
    p = TwoGenPresentation.of([(Form.of(1, 1), Form.of(0, 3))])
    assert in_add(p, X1, X2).is_yes
    assert in_add(p, X2, X1).is_no
    rep = corollary_checks(p, budget=8000)
    assert any("X1 in add(X2) only" in n for n in rep.notes)


def test_corollary_cross_check_runs_and_agrees():
    for p, kind in ((FREE, "yes"), (TRIVIAL_INF, "no")):
        rep = corollary_checks(p)
        assert rep.verdict.kind == kind, rep.render()
        cc = rep.condition("cross-check against the three-condition decider")
        assert cc is not None and cc.status == "holds"


def _answers(p, pairs, budget):
    """(kind, note, witness) of forms_equal over ``pairs`` within one shared
    report context, and from fresh one-shot calls."""
    s = presentations._Saturation(p, memo=True)
    shared = [forms_equal(s, f, g, budget) for f, g in pairs]
    fresh = [forms_equal(p, f, g, budget) for f, g in pairs]
    return (
        [(r.kind, r.note, repr(r.witness)) for r in shared],
        [(r.kind, r.note, repr(r.witness)) for r in fresh],
    )


ALEPH0_ABSORBS_ONE = TwoGenPresentation.of([(Form.of(W, 0), Form.of(1, 0))])


@pytest.mark.parametrize(
    "p",
    [ALEPH0_ABSORBS_ONE, TwoGenPresentation.of([(Form.of(2, 3), Form.of(3, 2))])],
    ids=["aleph0-absorbs", "trade"],
)
def test_shared_context_answers_match_fresh_calls(p):
    coeffs = [0, 1, 2, W]
    grid = [Form.of(a, b) for a in coeffs for b in coeffs] + [Form.of(9, 0), Form.of(5, 4)]
    pairs = [(f, g) for f in grid for g in grid]
    for order in (pairs, pairs[::-1]):
        shared, fresh = _answers(p, order, 300)
        assert shared == fresh


def test_shared_context_keeps_goal_aligned_slack():
    # aleph0*X1 -> 9*X1 takes the goal-aligned slack 8, beyond the cap, so
    # that expansion is lossy and must not be memoised for another goal
    f, near, far = Form.of(W, 0), Form.of(3, 0), Form.of(9, 0)
    shared, fresh = _answers(ALEPH0_ABSORBS_ONE, [(f, near), (f, far), (f, near)], 300)
    assert shared == fresh
    r = forms_equal(ALEPH0_ABSORBS_ONE, f, far, 300)
    assert r.is_yes and r.witness[0][1][2] == Form.of(8, 0)


def test_report_derives_presentation_facts_once(monkeypatch):
    # within one report, goal-free expansions are memoised and the
    # respecting homomorphisms are tested once (a fresh derivation per
    # forms_equal call made 6,182 expansions and 657 homomorphism scans)
    counts = {"succ": 0, "homs": 0}
    successors, homs = presentations._successors, presentations._respecting_homs

    def counted_successors(*args):
        counts["succ"] += 1
        return successors(*args)

    def counted_homs(*args):
        counts["homs"] += 1
        return homs(*args)

    monkeypatch.setattr(presentations, "_successors", counted_successors)
    monkeypatch.setattr(presentations, "_respecting_homs", counted_homs)
    rep = realizable_two_gen(parse_presentation("twogen { rel: aleph0*X1 = 1*X1; }"), 10_000)
    assert rep.verdict.is_no
    assert counts["succ"] < 1500
    assert counts["homs"] == 1


def test_closed_form_hom_images_match_the_monoid_sum():
    coeffs = [fin(k) for k in range(5)] + [W]
    forms = [Form(a, b) for a in coeffs for b in coeffs]
    for t in presentations._TARGETS:
        vals = presentations._hom_values(t)
        for va in vals:
            for vb in vals:
                for f in forms:
                    want = t.raw_ksum(Family.of([(va, f.a), (vb, f.b)]))
                    assert presentations._apply_hom(t, va, vb, f) == want, (t.name, va, vb, f)


def _query_stream(n=300, seed=20261018):
    """One-shot forms_equal queries drawn like the twogen benchmark's: one
    relation and two forms, every coefficient in {0, 1, 2, 3, aleph0}."""
    rng = random.Random(seed)
    cards = [fin(0), fin(1), fin(2), fin(3), W]

    def form():
        return Form(rng.choice(cards), rng.choice(cards))

    out = []
    for _ in range(n):
        p = TwoGenPresentation.of([(form(), form())])
        out.append((p, form(), form()))
    return out


def _digest(answers) -> str:
    return hashlib.sha256("\n".join(map(repr, answers)).encode()).hexdigest()


def _with_and_without_normal_forms(monkeypatch, answers):
    """``answers()`` as it is, and with the normal-form check switched off,
    which is the procedure the older digests were computed with."""
    new = answers()
    with monkeypatch.context() as m:
        m.setattr(presentations._Saturation, "normal_forms_differ", lambda *args: False)
        old = answers()
    return new, old


def _settled_unknowns(new, old) -> int:
    """How many answers moved; each may only be a budget Unknown turned No
    by differing normal forms."""
    moved = 0
    for a, b in zip(old, new, strict=True):
        if a != b:
            assert a.is_unknown and a.note.startswith("saturation budget"), (a, b)
            assert b == no(note="normal forms differ"), (a, b)
            moved += 1
    return moved


def test_query_stream_answers_are_pinned(monkeypatch):
    # the first sha256 was computed before the homomorphism check moved
    # ahead of the end of saturation, and is reproduced with the normal-form
    # check off; with it on, 10 budget Unknowns become No and every other
    # kind, note and witness stays the same
    qs = _query_stream()

    def answers():
        out = [forms_equal(p, f, g) for p, f, g in qs]
        return out + [in_add(p, a, b) for p, _, _ in qs[:10] for a, b in ((X1, X2), (X2, X1))]

    new, old = _with_and_without_normal_forms(monkeypatch, answers)
    assert _digest(old) == "01c01875cdd2d25d4b831d37b5b5bb1a84f16f1f3e7ce7d6b1a7359cfa3f981d"
    assert _digest(new) == "f27d9ceacccd03cf55d319484c0425555c774c6c6b699cf3592bc9a6c2e83024"
    assert _settled_unknowns(new, old) == 10


def _multi_query_stream(n=120, seed=20261019):
    """One-shot queries on presentations with two or three relations, so
    that the order of the rewrites across relations shows in the chains."""
    rng = random.Random(seed)
    cards = [fin(0), fin(1), fin(2), fin(3), W]

    def form():
        return Form(rng.choice(cards), rng.choice(cards))

    out = []
    for _ in range(n):
        p = TwoGenPresentation.of([(form(), form()) for _ in range(rng.choice((2, 3)))])
        out.append((p, form(), form()))
    return out


def test_multi_relation_query_stream_answers_are_pinned(monkeypatch):
    # the first sha256 was computed before the rewrite table was built in
    # closed form, and is reproduced with the normal-form check off; with it
    # on, 11 budget Unknowns become No and every other kind, note and
    # witness stays the same
    qs = _multi_query_stream()

    def answers():
        out = [forms_equal(p, f, g, 2000) for p, f, g in qs]
        return out + [in_add(p, a, b, 2000) for p, _, _ in qs[:4] for a, b in ((X1, X2), (X2, X1))]

    assert sum(len(p.relations) > 2 for p, _, _ in qs) > 100
    new, old = _with_and_without_normal_forms(monkeypatch, answers)
    assert _digest(old) == "0e9630ed41db2927de0cd8b59b932779701185ae37cd19d334883ba7fc984f89"
    assert _digest(new) == "fa676dcc4e9a825aacda0eb38e8d4653503220c407d3bcaa2acc72b22c9e6843"
    assert _settled_unknowns(new, old) == 11


def test_rewrite_table_matches_scaled_relations():
    coeffs = [fin(0), fin(1), fin(2), fin(3), fin(4), fin(255), fin(256), W]
    p = TwoGenPresentation(tuple((Form(a, b), Form(b, a)) for a in coeffs for b in coeffs))
    want = [
        (ridx, m, l.scale(m), r.scale(m))
        for ridx, (l, r) in enumerate(p.relations)
        for m in presentations._MULTIPLIERS
    ]
    got = [
        (ridx, m, Form(la, lb), Form(ra, rb))
        for ridx, m, la, lb, ra, rb in presentations._Saturation(p, False).rules()
    ]
    assert got == want


def test_separating_hom_answers_name_the_first_separating_hom():
    seen = 0
    for p, f, g in _query_stream():
        r = forms_equal(p, f, g)
        if r.note == "separating homomorphism":
            seen += 1
            assert r.witness == find_separating_hom(p, f, g)
    assert seen == 89
    # the budget runs out at one unpruned expansion: the check still runs
    p = TwoGenPresentation.of([(Form.of(1, 0), Form.of(3, W))])
    r = forms_equal(p, Form.of(1, 1), Form.of(0, 1), budget=1)
    assert r.note == "separating homomorphism"
    assert r.witness == ("cyclic-ext(N0)", W, fin(0))


def test_two_gen_monoid_sub_builds_one_context(monkeypatch):
    built = []
    init = presentations._Saturation.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(presentations._Saturation, "__init__", counted_init)
    m = TwoGenMonoid(TwoGenPresentation.of([(Form.of(2, 3), Form.of(3, 2))]))
    assert m.sub(Form.of(1, 0), Form.of(0, 1)) is None  # all 36 slacks tried
    assert len(built) == 1
    assert m.sub(Form.of(3, 2), Form.of(0, 3)) == Form.of(2, 0)  # 0*X1 + 3*X2 + t = 2*X1 + 3*X2
    assert len(built) == 2


def test_two_gen_monoid_leq_is_no_only_without_relations():
    # 6*X1 = X2 puts X1 below X2 with slack 5*X1, off the slack grid of sub:
    # with relations a missing complement is Unknown, never No
    m = TwoGenMonoid(parse_presentation("twogen { rel: 6*X1 = 1*X2; }"))
    assert forms_equal(m.p, X1 + Form.of(5, 0), X2).is_yes
    assert m.leq(X1, X2).is_unknown
    assert m.leq(X1, Form.of(2, 0)).is_yes
    free = TwoGenMonoid(FREE)
    assert free.leq(X2, X1).is_no
    assert free.leq(X1, Form.of(1, 1)).is_yes


def test_form_contract():
    with pytest.raises(ValueError):
        Form(aleph(1), ZERO)
    with pytest.raises(ValueError):
        X1.scale(aleph(1))
    f = Form.of(3, W)
    assert repr(f) == "Form(a=fin(3), b=aleph(0))"
    assert str(f) == "(3*X1 + aleph0*X2)"
    assert f == Form(fin(3), ALEPH0) and hash(f) == hash(Form(fin(3), ALEPH0))
    assert f != Form.of(W, 3) and f != (fin(3), ALEPH0)
    assert pickle.loads(pickle.dumps(f)) == f
    with pytest.raises(FrozenInstanceError):
        f.a = ZERO


# every branch of the two report layers: free, glued, cyclic with the
# criterion holding or violated, X2 = aleph0*X1, (iii) violated, both
# one-sided cases and the incomparable case
REPORT_TEXTS = [
    "twogen { }",
    "twogen { rel: aleph0*X1 = aleph0*X1 + aleph0*X2; rel: aleph0*X2 = aleph0*X1 + aleph0*X2; "
    "rel: 1*X1 + aleph0*X2 = aleph0*X2; rel: aleph0*X1 + 1*X2 = aleph0*X1; }",
    "twogen { rel: 2*X1 = 1*X2; }",
    "twogen { rel: aleph0*X1 = 1*X1; }",
    "twogen { rel: 0*X1 + 0*X2 = 3*X1 + 3*X2; }",
    "twogen { rel: aleph0*X1 + 0*X2 = 0*X1 + 1*X2; }",
    "twogen { rel: aleph0*X1 + 3*X2 = 0*X1 + 1*X2; }",
    "twogen { rel: 0*X1 + 1*X2 = 2*X1 + 1*X2; }",
    "twogen { rel: 1*X1 + 0*X2 = 1*X1 + 3*X2; }",
    "twogen { rel: 1*X1 + aleph0*X2 = 0*X1 + aleph0*X2; }",
]


def test_report_renders_are_pinned():
    # re-pinned when condition (i) and the cyclic criterion became normal-form
    # reads: nine lines of the plain reports changed (five (i) conditions
    # became exact, and X2 = aleph0*X1 turned from Unknown to Yes with an
    # exact criterion), and that corollary report gained the decider's note;
    # re-pinned again when (i)'s detail became "premise fails for every n"
    renders = []
    for text in REPORT_TEXTS:
        p = parse_presentation(text)
        renders += [realizable_two_gen(p, 2000).render(), corollary_checks(p, 2000).render()]
    digest = hashlib.sha256("\n\n".join(renders).encode()).hexdigest()
    assert digest == "3d212817b91e0c118e8e44936ce94720b37e365ed51c4c160d75d4d52898bf50"


def test_reports_name_their_undecided_branches():
    # X2 in add(X1) needs 9*X2 = 9*aleph0*X1 beyond the n <= 8 range, so
    # both reports reach their undecided branches
    p = parse_presentation("twogen { rel: 9*X1 = aleph0*X2; }")
    assert realizable_two_gen(p, 2000).render().splitlines() == [
        "verdict: NO",
        "OK   non-cyclic (exact)",
        "??   (iii) finite/infinite separation [no clash on the grid; no preservation argument]",
        "FAIL (i) i=1,j=2 (exact) witness=0 [X1 not a summand of multiples of X2]",
        "FAIL (ii) i=1,j=2 witness=(0, 1) [no finite equality matches the infinite one]",
        "??   (i) i=2,j=1 [conclusion undecided]",
        "??   (ii) i=2,j=1 [add membership undecided]",
    ]
    assert corollary_checks(p, 2000).render().splitlines() == [
        "verdict: UNKNOWN",
        "note: X1 in add(X2): NO (homomorphism obstruction); "
        "X2 in add(X1): UNKNOWN (no witness with n <= 8)",
        "note: classification undecided",
        "note: three-condition decider: NO (case analysis undecided)",
    ]
