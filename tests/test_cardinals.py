import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from kmon.cardinals import (
    ALEPH0,
    DEFAULT_BOUND,
    CardBoundMode,
    ExtCard,
    ZERO,
    aleph,
    at_most,
    below,
    card_mul,
    card_sub_least,
    card_sum,
    fin,
    render_card,
)
from kmon.dsl import parse_card
from kmon.errors import CardBoundError, ParseError

GRID = [fin(n) for n in range(11)] + [aleph(k) for k in range(4)]


def oracle_sum(pairs):
    # independent statement of the closed form: usual integer sum for finite
    # content, else max(total index cardinality, sup of the values)
    pairs = [(v, c) for v, c in pairs if not v.is_zero and not c.is_zero]
    if not pairs:
        return ZERO
    if all(v.is_finite for v, _ in pairs) and all(c.is_finite for _, c in pairs):
        return fin(sum(v.n * c.n for v, c in pairs))
    key = lambda c: (0, c.n) if c.is_finite else (1, c.aleph_level)
    count = max(
        (c for _, c in pairs if c.is_infinite),
        key=key,
        default=fin(sum(c.n for _, c in pairs if c.is_finite)),
    )
    sup = max((v for v, _ in pairs), key=key)
    return max(count, sup, key=key)


def test_worked_examples():
    assert card_sum([(fin(1), ALEPH0)]) == ALEPH0
    assert card_sum([(fin(5), fin(1)), (ZERO, ALEPH0)]) == fin(5)
    assert card_sum([(ALEPH0, fin(3)), (fin(2), aleph(1))]) == aleph(1)
    assert card_mul(ZERO, aleph(1)) == ZERO
    assert card_mul(fin(3), fin(4)) == fin(12)
    assert card_mul(ALEPH0, ALEPH0) == ALEPH0
    assert fin(7) <= ALEPH0
    assert not aleph(1) <= ALEPH0
    assert ALEPH0 <= ALEPH0


def test_mul_matches_sum_of_copies():
    for a, b in itertools.product(GRID, repeat=2):
        assert card_mul(a, b) == card_sum([(a, b)])


def test_two_term_add_is_card_sum():
    # the closed-form add returns the very instance card_sum interns, also
    # for operands built afresh rather than interned
    small = [fin(n) for n in range(6)] + [aleph(k) for k in range(4)]
    fresh = [ExtCard(n=n.n) if n.is_finite else ExtCard(aleph_level=n.aleph_level) for n in small]
    for a, b in itertools.product(small + fresh, repeat=2):
        assert a + b is card_sum([(a, fin(1)), (b, fin(1))])


def test_exhaustive_pairs_against_oracle():
    cases = 0
    for v1, c1 in itertools.product(GRID, repeat=2):
        assert card_sum([(v1, c1)]) == oracle_sum([(v1, c1)])
        cases += 1
    for (v1, c1), (v2, c2) in itertools.combinations_with_replacement(
        itertools.product(GRID, repeat=2), 2
    ):
        pairs = [(v1, c1), (v2, c2)]
        assert card_sum(pairs) == oracle_sum(pairs)
        cases += 1
    assert cases >= 10_000


card_strat = st.one_of(
    st.integers(min_value=0, max_value=50).map(fin),
    st.integers(min_value=0, max_value=3).map(aleph),
)
pair_strat = st.tuples(card_strat, card_strat)


@given(st.lists(pair_strat, max_size=5), st.lists(pair_strat, max_size=5))
def test_sum_commutative_associative_under_flattening(xs, ys):
    both = card_sum(xs + ys)
    assert both == card_sum(ys + xs)
    # flatten through partial sums
    assert both == card_sum([(card_sum(xs), fin(1)), (card_sum(ys), fin(1))])


@given(card_strat, st.lists(pair_strat, min_size=1, max_size=4))
def test_mul_distributes_over_sum(a, pairs):
    lhs = card_mul(a, card_sum(pairs))
    rhs = card_sum([(card_mul(a, v), c) for v, c in pairs])
    assert lhs == rhs


@given(card_strat)
def test_absorption(x):
    for k in range(4):
        big = aleph(k)
        if x <= big:
            assert card_sum([(x, fin(1)), (big, fin(1))]) == big


def test_total_order():
    chain = [fin(0), fin(1), fin(10**30), ALEPH0, aleph(1), aleph(2), aleph(3)]
    for a, b in zip(chain, chain[1:]):
        assert a < b


def test_aleph_above_bound_rejected():
    with pytest.raises(CardBoundError):
        aleph(4)


def test_overflow_guard():
    # finite parts have arbitrary precision
    assert card_mul(fin(2**80), fin(2)) == fin(2**81)


def test_parse_render_literals():
    assert parse_card("0") == ZERO
    assert parse_card("17") == fin(17)
    assert parse_card("aleph0") == ALEPH0
    assert parse_card("ALEPH2") == aleph(2)
    assert parse_card("aleph(3)") == aleph(3)
    assert parse_card("w") == ALEPH0
    for c in GRID:
        assert parse_card(render_card(c)) == c
    with pytest.raises(ParseError):
        parse_card("alephx")


def test_bound_modes():
    assert at_most(ALEPH0).admits(ALEPH0)
    assert not at_most(ALEPH0).admits(aleph(1))
    assert below(ALEPH0).admits(fin(10**6))
    assert not below(ALEPH0).admits(ALEPH0)
    assert below(aleph(2)).admissible_levels() == [ALEPH0, aleph(1)]
    assert at_most(aleph(1)).admissible_levels() == [ALEPH0, aleph(1)]
    # top is the kappa of kappa*u; below(aleph0), a plain monoid, has none
    assert at_most(aleph(1)).top == aleph(1)
    assert below(aleph(2)).top == aleph(1)
    assert below(ALEPH0).top is None
    assert DEFAULT_BOUND == at_most(aleph(3))


BOUND_COUNTS = [fin(n) for n in range(4)] + [fin(300), ExtCard(n=2)] + [aleph(k) for k in range(4)]


@pytest.mark.parametrize("mode", ["at_most", "below"])
@pytest.mark.parametrize("k", range(4))
def test_bound_agrees_with_the_cardinal_order(mode, k):
    b = CardBoundMode(mode, aleph(k))
    admitted = (lambda c: c <= aleph(k)) if mode == "at_most" else (lambda c: c < aleph(k))
    for c in BOUND_COUNTS + [ExtCard(aleph_level=j) for j in range(4)]:
        assert b.admits(c) is admitted(c), (b, c)
    levels = [aleph(j) for j in range(4) if admitted(aleph(j))]
    assert b.admissible_levels() == levels
    assert b.top == (levels[-1] if levels else None)
    # a fresh list each call: a caller may change its copy
    got = b.admissible_levels()
    assert got is not b.admissible_levels()
    got.append(fin(1))
    assert b.admissible_levels() == levels


@pytest.mark.parametrize("mode", ["at_most", "below"])
@pytest.mark.parametrize("k", range(4))
def test_bound_is_its_two_fields(mode, k):
    b = CardBoundMode(mode, aleph(k))
    twin = CardBoundMode(mode, ExtCard(aleph_level=k))
    other = CardBoundMode("below" if mode == "at_most" else "at_most", aleph(k))
    assert b == twin and hash(b) == hash(twin) == hash((mode, aleph(k)))
    assert b != other and b != CardBoundMode(mode, aleph((k + 1) % 4))
    assert repr(b) == f"CardBoundMode(mode={mode!r}, card=aleph({k}))"
    assert str(b) == f"{mode}(aleph{k})"
    assert b.__reduce__() == (CardBoundMode, (mode, aleph(k)))
    for copied in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b), copy.copy(b)):
        assert copied == b and hash(copied) == hash(b)
        assert [copied.admits(c) for c in BOUND_COUNTS] == [b.admits(c) for c in BOUND_COUNTS]
        assert copied.admissible_levels() == b.admissible_levels() and copied.top == b.top
    with pytest.raises(AttributeError):
        b.mode = "below"


@pytest.mark.parametrize("make, mode", [(at_most, "at_most"), (below, "below")])
@pytest.mark.parametrize("k", range(4))
def test_bound_constructors_share_one_bound_per_cardinal(make, mode, k):
    b = make(aleph(k))
    assert make(aleph(k)) is b and make(ExtCard(aleph_level=k)) is b
    assert b == CardBoundMode(mode, aleph(k)) and hash(b) == hash((mode, aleph(k)))
    assert repr(b) == f"CardBoundMode(mode={mode!r}, card=aleph({k}))"
    for copied in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
        assert copied == b and hash(copied) == hash(b)
    # an invalid cardinal raises on every call: the failure is not cached
    for bad in (fin(0), fin(3)):
        for _ in range(2):
            with pytest.raises(ValueError):
                make(bad)


@pytest.mark.parametrize("n", [5, 300])
def test_constructed_and_interned_cardinals_are_equal(n):
    # fin interns 0..255; 300 is built afresh on every call
    assert ExtCard(n=n) == fin(n)
    assert hash(ExtCard(n=n)) == hash(fin(n))
    assert ExtCard(aleph_level=2) == aleph(2)
    assert hash(ExtCard(aleph_level=2)) == hash(aleph(2))
    assert fin(n) != aleph(0)
    assert fin(n) != n and fin(n) != (0, n) and fin(n) != ExtCard(n=n + 1)
    assert len({ExtCard(n=n), fin(n), ExtCard(n=n)}) == 1


def test_cardinal_fields_are_immutable():
    for c in (fin(3), fin(300), ALEPH0):
        with pytest.raises(AttributeError):
            c.n = 4
        with pytest.raises(AttributeError):
            c.aleph_level = 1
        with pytest.raises(AttributeError):
            del c.n
    assert fin(3).n == 3 and ALEPH0.aleph_level == 0


def test_cardinal_constructor_errors():
    with pytest.raises(CardBoundError, match=r"^aleph level 5 outside 0\.\.3$"):
        ExtCard(aleph_level=5)
    with pytest.raises(ValueError, match="^finite cardinals are non-negative$"):
        ExtCard(n=-1)
    with pytest.raises(ValueError, match="^aleph values carry no finite part$"):
        ExtCard(n=2, aleph_level=1)


def test_cardinal_repr_and_order():
    assert repr(ExtCard(n=7)) == "fin(7)" and repr(aleph(3)) == "aleph(3)"
    assert sorted([aleph(1), fin(300), ZERO, ALEPH0, fin(2)]) == [
        ZERO, fin(2), fin(300), ALEPH0, aleph(1)
    ]
    assert fin(300) >= fin(300) > fin(299) and not fin(300) < fin(300)


SUB_GRID = (
    [fin(n) for n in range(6)] + [fin(n) for n in range(255, 258)] + [aleph(k) for k in range(4)]
)


def test_card_sub_least_is_the_least_complement():
    # the definition, "least c with b + c = a", searched over the grid and
    # every finite difference of it; card_sum is the sum being inverted
    candidates = set(SUB_GRID) | {
        fin(a.n - b.n) for a, b in itertools.product(SUB_GRID, SUB_GRID)
        if a.is_finite and b.is_finite and b.n <= a.n
    }
    for a, b in itertools.product(SUB_GRID, SUB_GRID):
        fits = [c for c in candidates if card_sum([(b, fin(1)), (c, fin(1))]) == a]
        assert card_sub_least(a, b) == (min(fits) if fits else None), (a, b)
