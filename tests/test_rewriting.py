import pytest

from kmon import presentations, rewriting
from kmon.cardinals import ALEPH0, fin
from kmon.dsl import parse_presentation
from kmon.presentations import (
    Form,
    TwoGenMonoid,
    TwoGenPresentation,
    X1,
    X2,
    forms_equal,
    realizable_two_gen,
)

from populations import one_shot_queries

W = ALEPH0


def test_completion_of_a_small_binomial_system():
    # x^2 = y and y^2 = x over N^2: 4x = x, and the classes are 0, x, 2x, 3x
    rules = rewriting.complete([((2, 0), (0, 1)), ((0, 2), (1, 0))], 100)
    nf = lambda v: rewriting.normal_form(rules, v)
    assert nf((0, 1)) == nf((2, 0))
    assert nf((4, 0)) == nf((1, 0)) == nf((0, 2))
    assert len({nf((k, 0)) for k in range(1, 20)}) == 3
    assert nf((0, 0)) == (0, 0)
    for l, r in rules:
        assert rewriting.deglex(l) > rewriting.deglex(r)


CYCLIC_PAST_THE_RANGE = (
    "twogen { rel: 2*X1 + 2*X2 = 0*X1 + 1*X2; rel: 3*X1 + 0*X2 = 1*X1 + 5*X2; }"
)


def test_completion_stops_at_its_cap():
    # coprime left sides add no critical pair: x^2 = y, y^2 = x needs none
    assert rewriting.complete([((2, 0), (0, 1)), ((0, 2), (1, 0))], 0) is not None
    eqs = parse_presentation(CYCLIC_PAST_THE_RANGE).equations
    assert rewriting.complete(eqs, 0) is None
    assert rewriting.complete(eqs, 1000) is not None


def test_large_coefficients_complete_within_few_pairs():
    # taking the newest equation first instead ran past 10,000 critical
    # pairs on this presentation; smallest first needs 22
    eqs = parse_presentation(
        "twogen { rel: aleph0*X1 + 23*X2 = 4*X1 + 25*X2; rel: aleph0*X1 + aleph0*X2 = 5*X1 + 15*X2; }"
    ).equations
    assert rewriting.complete(eqs, 50) is not None


def test_two_term_orders_give_one_congruence():
    s = presentations._Saturation(parse_presentation(CYCLIC_PAST_THE_RANGE), False)
    # X1's elimination order compares (x2, w2, w1) first
    by_deglex, by_elim = s.completion((), 1000), s.completion((1, 3, 2), 1000)
    forms = [Form(fin(a), fin(b)) for a in range(12) for b in range(7)]
    forms += [Form(W, fin(b)) for b in range(4)] + [Form(fin(a), W) for a in range(4)]

    def partition(rules):
        classes = [rewriting.normal_form(rules, f.exponents) for f in forms]
        return [[a == b for b in classes] for a in classes]

    assert partition(by_deglex) == partition(by_elim)
    # X2 = 10*X1, and 10 is the least such multiple
    assert rewriting.normal_form(by_elim, X2.exponents) == (10, 0, 0, 0)


QUERIES = one_shot_queries(500, 20261020)


def _swap(f: Form) -> Form:
    return Form(f.b, f.a)


def test_normal_forms_agree_with_every_decided_answer_and_invariances():
    verdicts = {"yes": 0, "no": 0, "unknown": 0, "normal forms differ": 0}
    for p, f, g in QUERIES:
        r = forms_equal(p, f, g)
        rules = rewriting.complete(p.equations, 10_000)
        equal = rewriting.normal_form(rules, f.exponents) == rewriting.normal_form(
            rules, g.exponents
        )
        if r.note == "normal forms differ":
            verdicts[r.note] += 1
        elif r.decided:
            assert r.is_yes == equal, (p, f, g, r)
        verdicts[r.kind] += 1
        assert forms_equal(p, g, f).kind == r.kind, (p, f, g)
        q = TwoGenPresentation.of([(_swap(l), _swap(rr)) for l, rr in p.relations])
        assert forms_equal(q, _swap(f), _swap(g)).kind == r.kind, (p, f, g)
        low, high = forms_equal(p, f, g, 300), forms_equal(p, f, g, 40_000)
        assert not (low.decided and high.decided and low.kind != high.kind), (p, f, g)
    assert verdicts["yes"] > 100 and verdicts["normal forms differ"] > 10, verdicts


def _settled_by_normal_forms(qs, budget):
    for p, f, g in qs:
        r = forms_equal(p, f, g, budget)
        if r.note == "normal forms differ":
            assert r.is_no and r.witness is None
            yield p, f, g


def test_every_normal_form_no_replays():
    settled = list(_settled_by_normal_forms(QUERIES, 10_000))
    assert len(settled) > 10
    for p, f, g in settled:
        rules = rewriting.complete(p.equations, 10_000)
        assert rewriting.check(rules, p.equations, f.exponents, g.exponents), (p, f, g)


def _mutations(rules):
    """Each rule dropped, each rule flipped, each left-side exponent raised
    and each positive right-side exponent lowered.  A raised right side or a
    lowered left side may still prove the same No (a w_i too many on a
    right side is absorbed), so those are not certificates to reject."""
    for i, (l, r) in enumerate(rules):
        rest = rules[:i], rules[i + 1 :]
        yield rest[0] + rest[1]
        yield rest[0] + [(r, l)] + rest[1]
        for c in range(len(l)):
            bump = lambda v, d: v[:c] + (v[c] + d,) + v[c + 1 :]
            yield rest[0] + [(bump(l, 1), r)] + rest[1]
            if r[c]:
                yield rest[0] + [(l, bump(r, -1))] + rest[1]


def test_mutated_rule_lists_are_rejected():
    checked = 0
    for p, f, g in _settled_by_normal_forms(QUERIES[:200], 10_000):
        rules = rewriting.complete(p.equations, 10_000)
        for bad in _mutations(rules):
            assert not rewriting.check(bad, p.equations, f.exponents, g.exponents), bad
            checked += 1
    assert checked > 100


def test_check_rejects_equal_normal_forms_and_unjoined_inputs():
    p = parse_presentation("twogen { rel: 2*X1 = 1*X2; }")
    rules = rewriting.complete(p.equations, 100)
    assert rewriting.check(rules, p.equations, X1.exponents, X2.exponents)
    assert not rewriting.check(rules, p.equations, X2.exponents, Form.of(2, 0).exponents)
    # rules that are convergent but miss the relation prove nothing about p
    free = rewriting.complete(TwoGenPresentation.of([]).equations, 100)
    assert not rewriting.check(free, p.equations, X2.exponents, Form.of(2, 0).exponents)


def test_monoid_eq_settles_a_former_budget_unknown():
    p = parse_presentation(
        "twogen { rel: aleph0*X1 + 2*X2 = 1*X1 + 2*X2; rel: 3*X1 + 0*X2 = 2*X1 + 1*X2; }"
    )
    r = TwoGenMonoid(p).eq(Form(fin(2), W), Form(fin(2), fin(1)))
    assert r.is_no and r.note == "normal forms differ" and r.witness is None


def test_a_completion_at_its_cap_changes_nothing(monkeypatch):
    p, f, g = next(_settled_by_normal_forms(QUERIES, 10_000))
    monkeypatch.setattr(presentations, "complete", lambda *args: None)
    r = forms_equal(p, f, g)
    assert r.is_unknown and r.note == "saturation budget 10000 exhausted"


@pytest.mark.parametrize(
    "text, i, j, beta",
    [
        ("twogen { rel: 0*X1 + 1*X2 = 9*X1 + 0*X2; }", 2, 1, fin(9)),
        ("twogen { rel: 1*X1 + 0*X2 = 0*X1 + 12*X2; }", 1, 2, fin(12)),
        ("twogen { rel: 2*X1 = 1*X2; }", 2, 1, fin(2)),
        ("twogen { rel: aleph0*X1 + 0*X2 = 0*X1 + 1*X2; }", 2, 1, W),
    ],
)
def test_cyclicity_is_decided_past_the_beta_range(text, i, j, beta):
    rep = realizable_two_gen(parse_presentation(text), 2000)
    c = rep.condition("non-cyclic")
    assert (c.status, c.exact, c.witness) == ("violated", True, (i, j, beta)), rep.render()


def test_elimination_multiples_agree_with_the_degree_lexicographic_normal_forms():
    betas = [fin(k) for k in range(13)] + [W]
    for p, _, _ in QUERIES[:150]:
        s = presentations._Saturation(p, memo=True)
        for i, j in ((1, 2), (2, 1)):
            gi, gj = presentations.gen(i), presentations.gen(j)
            m = s.multiple_of(gi, j, 10_000)
            hits = [b for b in betas if not s.normal_forms_differ(gi, gj.scale(b), 10_000)]
            if m.is_no:
                assert not hits, (p, i, j)
            else:  # the least multiple: the first finite hit, else aleph0
                assert m.is_yes and hits and hits[0] == m.witness, (p, i, j, m)


def test_least_absorbing_and_cyclic_multiples_agree_with_the_degree_lexicographic_scan():
    # one normal form names the least n, against the first n <= 8 whose
    # degree-lexicographic normal forms agree: n*x_i + w_j against w_i + w_j
    # (the premise of condition (i), read under an order comparing (w_i, x_i)
    # first) and n*x_j against w_j (the cyclic criterion, read under X_j's
    # elimination order); an n above 8, or none, leaves the scan empty.  The
    # two texts put three least n past 8: 9 for both questions (i=1, j=2 for
    # the premise, j=1 for the criterion) and 10 for the premise
    past = ["twogen { rel: aleph0*X1 = 9*X1; }", "twogen { rel: 10*X1 + aleph0*X2 = aleph0*X1 + aleph0*X2; }"]
    found = {"premise": 0, "criterion": 0, "above the scan": 0}
    for p in dict.fromkeys([p for p, _, _ in QUERIES] + [parse_presentation(t) for t in past]):
        s = presentations._Saturation(p, memo=True)
        for i, j in ((1, 2), (2, 1)):
            gi, gj = presentations.gen(i), presentations.gen(j)
            inf_j = gj.scale(W)
            both = gi.scale(W) + inf_j
            nf = rewriting.normal_form(s.completion((i + 1, i - 1), 10_000), both.exponents)
            beta = s.multiple_of(inf_j, j, 10_000).witness
            cases = {
                "premise": (None if nf[i + 1] else nf[i - 1], lambda n: gi.scale(fin(n)) + inf_j, both),
                "criterion": (beta.n if beta.is_finite else None, lambda n: gj.scale(fin(n)), inf_j),
            }
            for name, (least, form, target) in cases.items():
                scan = next(
                    (n for n in range(9) if not s.normal_forms_differ(form(n), target, 10_000)), None
                )
                if least is None or least > 8:
                    assert scan is None, (p, i, j, name, least)
                else:
                    assert scan == least, (p, i, j, name, least, scan)
                found[name] += least is not None
                found["above the scan"] += least is not None and least > 8
    assert found["premise"] > 100 and found["criterion"] > 100 and found["above the scan"] == 3, found
