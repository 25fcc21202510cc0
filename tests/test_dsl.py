from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmon.braiding import BraidBlock, LayeredCertificate, OmegaCertificate, braid_find, collapsed_layer
from kmon.cardinals import ALEPH0, aleph, at_most, fin
from kmon.core import CyclicExtensionMonoid, CyclicMonoid, Family
from kmon.diophantine import ConstraintSystem, DioMonoid
from kmon.dsl import (
    parse_certificate,
    parse_family,
    parse_monoid,
    parse_presentation,
    parse_vec,
    render_certificate,
    render_monoid,
)
from kmon.errors import ParseError
from kmon.free_vectors import CardVec, VecMonoid
from kmon.gallery import QPoint, RationalLineMonoid
from kmon.presentations import Form, TwoGenPresentation

W = ALEPH0
N0 = CyclicExtensionMonoid(CyclicMonoid())
F2 = VecMonoid(2, at_most(W))


def test_parse_basic_literals():
    v = parse_vec("(aleph0, 3)")
    assert v == CardVec.of(W, fin(3))
    fam = parse_family("fam { (1,0)*aleph0 }", F2)
    assert fam.entries == ((CardVec.fins(1, 0), W),)
    m = parse_monoid("dio n=1 { cong: 2 x0 in 3N; }")
    assert isinstance(m, DioMonoid)
    assert m.system.congruences == (((2,), 3),)


def test_parse_dio_full():
    m = parse_monoid("dio n=2 { eq: 2 x0 = x0 + x1; ineq: x0 <= 3 x1; cong: x0 + 2 x1 in 3N; }")
    s = m.system
    assert s.equations == (((2, 0), (1, 1)),)
    assert s.inequalities == (((1, 0), (0, 3)),)
    assert s.congruences == (((1, 2), 3),)


def test_parse_twogen():
    p = parse_presentation("twogen { rel: 1*X1 + aleph0*X2 = aleph0*X2; rel: 2*X1 = 1*X2; }")
    assert (Form.of(1, W), Form.of(0, W)) in p.relations
    assert (Form.of(0, 1), Form.of(2, 0)) in p.relations  # symmetric closure


def test_empty_vector_literal():
    # the element grammar of vec(0) and dio n=0 { }: () parses and prints back
    assert parse_vec("()") == CardVec(())
    assert parse_vec(" ( ) ") == CardVec(())
    assert str(CardVec(())) == "()"
    fam = parse_family("fam { ()*aleph0 }", VecMonoid(0))
    assert fam.entries == ((CardVec(()), W),)
    for bad in ("(,)", "(1,)", "(", "())"):
        with pytest.raises(ParseError):
            parse_vec(bad)


def test_positioned_diagnostics():
    with pytest.raises(ParseError) as ei:
        parse_monoid("dio n=2 {\n eq: x0 == x1; }")
    assert ei.value.line == 2
    with pytest.raises(ParseError) as ei:
        parse_vec("(aleph9000, 1)")
    with pytest.raises(ParseError) as ei:
        parse_monoid("dio n=1 { eq: x3 = x0; }")
    assert "outside dimension" in ei.value.message


def test_case_insensitive_and_w_alias():
    assert parse_vec("(W, ALEPH1)") == CardVec.of(W, aleph(1))
    fam = parse_family("FAM { 2*w }", N0)
    assert fam.entries == ((fin(2), W),)


card_strategy = st.one_of(
    st.integers(0, 30).map(fin), st.integers(0, 3).map(aleph)
)
pos_mult = st.one_of(st.integers(1, 9).map(fin), st.integers(0, 3).map(aleph))


@given(st.lists(st.tuples(card_strategy, pos_mult), max_size=4))
@settings(max_examples=120)
def test_family_roundtrip_cards(pairs):
    fam = Family.of(pairs)
    assert parse_family(f"fam {fam}", N0) == fam


@given(st.lists(st.tuples(st.tuples(card_strategy, card_strategy), pos_mult), max_size=3))
@settings(max_examples=120)
def test_family_roundtrip_vectors(pairs):
    fam = Family.of([(CardVec(t), m) for t, m in pairs])
    assert parse_family(f"fam {fam}", VecMonoid(2)) == fam


@st.composite
def systems(draw):
    n = draw(st.integers(1, 3))
    coeff = st.tuples(*(st.integers(0, 4) for _ in range(n)))
    eqs = draw(st.lists(st.tuples(coeff, coeff), max_size=2))
    ineqs = draw(st.lists(st.tuples(coeff, coeff), max_size=2))
    congs = draw(st.lists(st.tuples(coeff, st.integers(1, 5)), max_size=2))
    return ConstraintSystem.make(n, eqs, ineqs, congs)


@given(systems())
@settings(max_examples=100)
def test_dio_roundtrip(sys):
    m = parse_monoid(str(sys))
    assert m.system == sys


form_strategy = st.tuples(
    st.one_of(st.integers(0, 9).map(fin), st.just(W)),
    st.one_of(st.integers(0, 9).map(fin), st.just(W)),
).map(lambda t: Form(*t))


@given(st.lists(st.tuples(form_strategy, form_strategy), max_size=4))
@settings(max_examples=100)
def test_presentation_roundtrip(rels):
    p = TwoGenPresentation.of(rels)
    assert parse_presentation(str(p)) == p


def test_monoid_roundtrip():
    texts = [
        "N0",
        "cmn(1,2)",
        "vec(3)",
        "qline",
        "dedekind(2,2)",
        "trivial(N0)",
        "trivial(vec(2))",
        "dio n=2 { eq: x0 = x1; }",
    ]
    for t in texts:
        m = parse_monoid(t)
        m2 = parse_monoid(render_monoid(m))
        assert render_monoid(m2) == render_monoid(m)


def test_qline_literals():
    m = RationalLineMonoid()
    fam = parse_family("fam { 1/2*2, ~2/3, inf*1 }", m)
    assert dict(fam.entries)[QPoint.plain(Fraction(1, 2))] == fin(2)
    assert dict(fam.entries)[QPoint.tilde(Fraction(2, 3))] == fin(1)
    with pytest.raises(ParseError) as ei:
        parse_family("fam { 1/0*2 }", m)
    assert (ei.value.line, ei.value.col) == (1, 9)


def test_certificate_roundtrip_omega():
    half = QPoint.plain(Fraction(1, 2))
    cases = [
        (N0, Family.of([(fin(1), W)]), Family.of([(fin(2), W)])),
        # the depth-first search pair of test_braiding: tilde and fraction elements
        (
            RationalLineMonoid(),
            Family.of([(half, W), (QPoint.tilde(Fraction(1, 2)), fin(1))]),
            Family.of([(half, W), (QPoint.plain(Fraction(1, 3)), W), (QPoint.tilde(Fraction(2, 3)), fin(3))]),
        ),
        (F2, Family.of([(CardVec.fins(1, 0), W), (CardVec.fins(0, 1), W)]), Family.of([(CardVec.fins(1, 1), W)])),
        (
            CyclicExtensionMonoid(CyclicMonoid(1, 2), at_most(W)),
            Family.of([(fin(1), W), (fin(2), fin(3))]),
            Family.of([(fin(3), W)]),
        ),
    ]
    for m, x, y in cases:
        r = braid_find(m, x, y, budget=2500)
        assert r.is_yes
        text = render_certificate(r.witness)
        back = parse_certificate(text, m)
        assert back == r.witness
        assert render_certificate(back) == text


def test_certificate_roundtrip_layered_and_collapsed():
    blk = BraidBlock(
        Family.of([(fin(1), fin(2))]), Family.of([(fin(2), fin(1))]), fin(2), fin(0)
    )
    lay = LayeredCertificate(((aleph(1), OmegaCertificate((), (blk,))),))
    assert parse_certificate(render_certificate(lay), N0) == lay
    # a chain that is not one prefix block keeps its LAYER text above aleph0
    assert render_certificate(lay, aleph(1)) == render_certificate(lay)
    ones = Family.of([(fin(1), W)])
    col = LayeredCertificate((collapsed_layer(N0, ones, ones, aleph(1)),))
    text = render_certificate(col, aleph(1))
    assert text == "C i={1*aleph0} j={1*aleph0} w=aleph1"
    assert parse_certificate(text, N0) == col
    # at aleph0 the same layer prints as a LAYER section
    assert render_certificate(col).startswith("LAYER w=aleph1\nPREFIX\nB ")
    assert parse_certificate(render_certificate(col), N0) == col


def test_certificate_sections_may_stand_alone():
    blk = BraidBlock(
        Family.of([(fin(1), fin(2))]), Family.of([(fin(2), fin(1))]), fin(2), fin(0)
    )
    line = "B i={1*2} j={2*1} u=2 v'=0"
    prefix = LayeredCertificate.of(OmegaCertificate((blk,), ()))
    cycle = LayeredCertificate.of(OmegaCertificate((), (blk,)))
    assert parse_certificate(f"PREFIX\n{line}", N0) == prefix
    assert parse_certificate(f"CYCLE\n{line}", N0) == cycle
    assert parse_certificate(f"  PREFIX\n\n  CYCLE\n  {line}\n", N0) == cycle


MALFORMED_CERTIFICATES = [
    ("PREFIX\nCYCLE\nB x={1*2} q={2*1} r=2 s'=0", 3, 3),  # wrong field names
    ("PREFIX\nCYCLE\nB i={1*1 1*1} j={2*1} u=2 v'=0", 3, 10),  # missing comma
    ("PREFIX\nCYCLE\nB i={1*2} j={2*1} u=2 v'=0 junk", 3, 28),  # trailing tokens
    ("LAYER w=aleph1)\nPREFIX\nCYCLE\nB i={1*2} j={2*1} u=2 v'=0", 1, 15),
    ("C i={1*aleph0} j={1*aleph0} w=aleph1 junk", 1, 38),
    ("PREFIX\nCYCLE\nB i={1*2}\nj={2*1} u=2 v'=0", 3, 10),  # a block split over two lines
]


@pytest.mark.parametrize("text,line,col", MALFORMED_CERTIFICATES)
def test_malformed_certificate_rejected_at_its_position(text, line, col):
    with pytest.raises(ParseError) as ei:
        parse_certificate(text, N0)
    assert (ei.value.line, ei.value.col) == (line, col)


def test_hnp_and_dedekind_cli_forms():
    from fractions import Fraction as F
    from kmon.gallery import HNPPredicate

    h = parse_monoid("hnp(c=1,1/2)")
    assert isinstance(h, HNPPredicate)
    assert h.c == (F(1), F(1, 2))
    d = parse_monoid("dedekind(G=2,2)")
    assert d.factors == (2, 2)


def test_parse_dsl_dispatcher_examples():
    from kmon.dsl import parse_dsl, render_dsl

    v = parse_dsl("(aleph0, 3)")
    assert isinstance(v, CardVec) and len(v) == 2
    fam = parse_dsl("fam { (1,0)*aleph0 }")
    assert isinstance(fam, Family) and len(fam) == 1
    sys = parse_dsl("dio n=1 { cong: 2 x0 in 3N; }")
    assert isinstance(sys, ConstraintSystem) and len(sys.congruences) == 1
    for text in ("(aleph0, 3)", "fam { (1,0)*aleph0 }", "fam { 2*aleph0, 1*2 }",
                 "dio n=1 { cong: 2 x0 in 3N; }",
                 "twogen { rel: 2*X1 = 1*X2; }", "qline", "trivial(N0)"):
        x = parse_dsl(text)
        y = parse_dsl(render_dsl(x))
        assert render_dsl(y) == render_dsl(x)


@given(st.text(max_size=60))
@settings(max_examples=250)
def test_parser_never_crashes(garbage):
    from kmon.dsl import parse_dsl
    from kmon.errors import ParseError

    try:
        parse_dsl(garbage)
    except (ParseError, ValueError):
        pass  # positioned diagnostics or literal rejection only
