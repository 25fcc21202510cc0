import copy
import itertools
import pickle
import random

import pytest

from kmon.cardinals import ALEPH0, ZERO, aleph, at_most, below, fin
from kmon.diophantine import (
    Aleph0Extension,
    ConstraintSystem,
    DioMonoid,
    IntLattice,
    aleph0_extend_finite,
    decompose,
    enumerate_solutions,
    rational_feasible,
    recombine,
    satisfies_card,
    solutions,
    universal_extend,
)
from kmon.core import size_of
from kmon.errors import PreconditionError
from kmon.free_vectors import CardVec, VecMonoid
from kmon.laws import check_axioms

W = ALEPH0

EQ_XY = ConstraintSystem.make(2, equations=[((1, 0), (0, 1))])  # x0 = x1
EQ_2X = ConstraintSystem.make(2, equations=[((2, 0), (1, 1))])  # 2x0 = x0 + x1


def vec(*cs):
    return CardVec(tuple(fin(c) if isinstance(c, int) else c for c in cs))


def test_member_worked_examples():
    m_eq = DioMonoid(EQ_XY, at_most(W))
    m_2x = DioMonoid(EQ_2X, at_most(W))
    assert m_eq.member(vec(W, W))
    assert m_2x.member(vec(W, 3))
    assert not m_eq.member(vec(W, 3))


def test_member_respects_the_bound():
    free1 = ConstraintSystem.make(1)
    for bound, top in ((below(W), 5), (at_most(W), W), (at_most(aleph(1)), aleph(1))):
        m = DioMonoid(free1, bound)
        above = [c for c in (W, aleph(1), aleph(2), aleph(3)) if not bound.admits(c)]
        assert m.member(vec(top))
        assert above and not any(m.member(vec(c)) for c in above)
    assert DioMonoid(ConstraintSystem.make(0), at_most(W)).member(CardVec(()))


def test_dio_monoid_name_carries_its_system():
    # two systems over the same n and bound get different names, built on
    # first access
    parity = ConstraintSystem.make(2, congruences=[((1, 1), 2)])
    m_eq, m_par = DioMonoid(EQ_XY), DioMonoid(parity)
    assert "name" not in vars(m_eq)
    assert m_eq.name == "dio n=2 { eq: x0 = x1; }@at_most(aleph3)"
    assert m_par.name == "dio n=2 { cong: x0 + x1 in 2N; }@at_most(aleph3)"


def test_membership_tables_match_expected_sets():
    # the two systems agree on finite diagonals but differ at (aleph0, n)
    m_eq = DioMonoid(EQ_XY, at_most(W))
    m_2x = DioMonoid(EQ_2X, at_most(W))
    grid = [fin(k) for k in range(6)] + [W]
    eq_members = {(a, b) for a in grid for b in grid if m_eq.member(CardVec((a, b)))}
    tx_members = {(a, b) for a in grid for b in grid if m_2x.member(CardVec((a, b)))}
    diag = {(fin(k), fin(k)) for k in range(6)} | {(W, W)}
    assert eq_members == diag
    assert tx_members == diag | {(W, fin(n)) for n in range(6)}


def test_universal_extend():
    m = DioMonoid(EQ_XY, at_most(W))
    big = universal_extend(m, aleph(2))
    assert big.member(CardVec((aleph(1), aleph(1))))
    assert not big.member(CardVec((aleph(1), aleph(2))))
    free1 = universal_extend(DioMonoid(ConstraintSystem.make(1), at_most(W)), aleph(3))
    for c in (fin(7), W, aleph(3)):
        assert free1.member(CardVec((c,)))
    m2 = universal_extend(DioMonoid(EQ_2X, at_most(W)), aleph(2))
    assert m2.member(CardVec((aleph(1), fin(7))))
    with pytest.raises(PreconditionError):
        universal_extend(big, aleph(2))


def test_decompose_worked_examples():
    m = DioMonoid(EQ_XY, at_most(aleph(1)))
    beta, gammas = decompose(m, CardVec((aleph(1), aleph(1))))
    assert beta == vec(W, W)
    assert gammas[W] == vec(W, W)
    assert gammas[aleph(1)] == vec(W, W)
    assert recombine(beta, gammas) == CardVec((aleph(1), aleph(1)))

    free3 = DioMonoid(ConstraintSystem.make(3), at_most(aleph(1)))
    beta, gammas = decompose(free3, CardVec((aleph(1), fin(5), W)))
    assert beta == vec(W, 5, W)
    assert gammas[W] == vec(W, 0, W)
    assert gammas[aleph(1)] == vec(W, 0, 0)

    alpha = vec(3, 3)
    beta, gammas = decompose(DioMonoid(EQ_XY, at_most(aleph(1))), alpha)
    assert beta == alpha and all(g.is_zero for g in gammas.values())

    with pytest.raises(PreconditionError):
        decompose(m, CardVec((fin(1), fin(2))))


def _random_system(rng, n):
    eqs, ineqs, congs = [], [], []
    for _ in range(rng.randrange(0, 3)):
        a = tuple(rng.randrange(0, 3) for _ in range(n))
        b = tuple(rng.randrange(0, 3) for _ in range(n))
        (eqs if rng.random() < 0.6 else ineqs).append((a, b))
    if rng.random() < 0.4:
        congs.append((tuple(rng.randrange(0, 3) for _ in range(n)), rng.randrange(2, 4)))
    return ConstraintSystem.make(n, eqs, ineqs, congs)


def test_decompose_recombine_randomized():
    rng = random.Random(11)
    done = 0
    while done < 300:
        n = rng.randrange(1, 5)
        m = DioMonoid(_random_system(rng, n), at_most(aleph(2)))
        alpha = m.sample_element(rng)
        assert m.member(alpha)
        beta, gammas = decompose(m, alpha)
        small = DioMonoid(m.system, at_most(W))
        assert small.member(beta)
        for g in gammas.values():
            assert small.member(g)
        assert recombine(beta, gammas) == alpha
        done += 1


def test_aleph0_extension_of_diagonal():
    h = DioMonoid(EQ_XY, below(W))
    ext = aleph0_extend_finite(h)
    for k in range(5):
        assert ext.member(vec(k, k)).is_yes
    assert ext.member(vec(W, W)).is_yes
    for n in range(5):
        assert ext.member(vec(W, n)).is_no
        assert ext.member(vec(n, W)).is_no
    assert ext.member(vec(2, 3)).is_no

    # same underlying plain monoid presented by the non-cancellative equation
    h2 = DioMonoid(EQ_2X, below(W))
    ext2 = aleph0_extend_finite(h2)
    assert ext2.member(vec(W, 3)).is_no
    # ...while the kappa-level system accepts it: the level-aleph0 discrepancy
    assert DioMonoid(EQ_2X, at_most(W)).member(vec(W, 3))


def test_aleph0_extension_witness_is_first_completion():
    # x2 = x0 + x1 and x0 + x2 in 4*F; x1 = 2 is pinned between two infinite
    # coordinates, so the completion scan runs over (x0, x2)
    sys = ConstraintSystem.make(
        3, equations=[((0, 0, 1), (1, 1, 0))], congruences=[((1, 0, 1), 4)]
    )
    ext = aleph0_extend_finite(DioMonoid(sys, below(W)), radius=8)
    first = next(
        (a, 2, c)
        for a, c in itertools.product(range(9), repeat=2)
        if c == a + 2 and (a + c) % 4 == 0
    )
    r = ext.member(vec(W, 2, W))
    assert r.is_yes
    assert r.witness == (first, (0, 2))
    assert first == (1, 2, 3)


def test_aleph0_extension_pattern_cache_is_not_part_of_the_value():
    a = aleph0_extend_finite(DioMonoid(EQ_XY, below(W)))
    b = aleph0_extend_finite(DioMonoid(EQ_XY, below(W)))
    assert a.member(vec(W, W)).is_yes
    assert a == b
    assert repr(a) == repr(b)
    with pytest.raises(TypeError):
        Aleph0Extension(EQ_XY, 8, {})


def test_aleph0_extension_free_case():
    ext = aleph0_extend_finite(DioMonoid(ConstraintSystem.make(2), below(W)))
    grid = [fin(k) for k in range(4)] + [W]
    for a in grid:
        for b in grid:
            assert ext.member(CardVec((a, b))).is_yes



INEQ_SYSTEMS = [
    ConstraintSystem.make(2, inequalities=[((1, 0), (0, 1))]),  # x0 <= x1
    ConstraintSystem.make(2, inequalities=[((1, 0), (0, 1))], congruences=[((1, 1), 2)]),
    ConstraintSystem.make(2, inequalities=[((0, 1), (2, 0))], congruences=[((0, 1), 3)]),
    ConstraintSystem.make(3, inequalities=[((1, 1, 0), (0, 0, 1))]),  # x0 + x1 <= x2
    ConstraintSystem.make(
        3,
        equations=[((0, 0, 1), (1, 1, 0))],
        inequalities=[((1, 0, 0), (0, 1, 0))],
        congruences=[((1, 0, 1), 2)],
    ),
]


@pytest.mark.parametrize("sys", INEQ_SYSTEMS, ids=["le", "le-cong", "le2-cong", "le3", "mixed"])
def test_aleph0_extension_with_inequalities_matches_brute_force(sys):
    # H + aleph0*H generated from the solutions in 0..8: h + aleph0*h' keeps
    # h off the support of h' and reads aleph0 on it
    def holds(h):
        dot = lambda a: sum(c * v for c, v in zip(a, h))
        return (
            all(dot(a) == dot(b) for a, b in sys.equations)
            and all(dot(a) <= dot(b) for a, b in sys.inequalities)
            and all(dot(a) % d == 0 for a, d in sys.congruences)
        )

    sols = [h for h in itertools.product(range(9), repeat=sys.n) if holds(h)]
    supports = {frozenset(i for i, v in enumerate(h) if v) for h in sols}
    generated = {
        tuple(W if i in s else fin(v) for i, v in enumerate(h)) for s in supports for h in sols
    }
    ext = aleph0_extend_finite(DioMonoid(sys, below(W)), radius=8)
    for x in itertools.product([fin(k) for k in range(4)] + [W], repeat=sys.n):
        r = ext.member(CardVec(x))
        assert not r.is_unknown, x
        assert r.is_yes == (x in generated), x

def test_aleph0_extension_rejects_higher_alephs():
    ext = aleph0_extend_finite(DioMonoid(ConstraintSystem.make(1), below(W)))
    assert ext.member(CardVec((aleph(1),))).is_no


def test_rational_feasibility():
    # x0 = x1 with x1 pinned to 3: feasible; supported on {0} alone: not
    assert rational_feasible(EQ_XY, {1: 3})
    assert not rational_feasible(EQ_XY, {1: 0}, lower_one=0)
    assert rational_feasible(ConstraintSystem.make(1), {}, lower_one=0)


def test_solution_closure_under_ksum():
    rng = random.Random(3)
    for _ in range(40):
        m = DioMonoid(_random_system(rng, 3), at_most(aleph(1)))
        a, b = m.sample_element(rng), m.sample_element(rng)
        assert m.member(m.add(a, b))
        assert m.member(m.scalar(aleph(1), a))


def test_dio_monoid_passes_laws():
    for sys in (EQ_XY, EQ_2X, ConstraintSystem.make(2, congruences=[((1, 1), 2)])):
        rep = check_axioms(DioMonoid(sys, at_most(aleph(1))), samples=120, seed=5)
        assert rep.all_passed, rep.render()


def test_enumerate_solutions_deterministic():
    sols = enumerate_solutions(EQ_XY, 3)
    assert sols == [(0, 0), (1, 1), (2, 2), (3, 3)]
    # per-coordinate boxes: ranges, and one-value tuples for pinned coordinates
    assert list(solutions(EQ_XY, [range(1, 4), range(3)])) == [(1, 1), (2, 2)]
    assert list(solutions(EQ_XY, [range(4), (2,)])) == [(2, 2)]
    assert list(solutions(EQ_XY, [(5,), range(4)])) == []
    # x0 = x1 + x2 with x2 even, x1 pinned between two scanned coordinates
    sum_even = ConstraintSystem.make(3, equations=[((1, 0, 0), (0, 1, 1))], congruences=[((0, 0, 1), 2)])
    assert list(solutions(sum_even, [range(5), (2,), range(5)])) == [(2, 2, 0), (4, 2, 2)]


def _reference_solutions(sys, box):
    """The box scan written out from the raw coefficient tuples."""

    def holds(x):
        def dot(a):
            return sum(c * v for c, v in zip(a, x))

        return (
            all(dot(a) == dot(b) for a, b in sys.equations)
            and all(dot(a) <= dot(b) for a, b in sys.inequalities)
            and all(dot(a) % d == 0 for a, d in sys.congruences)
        )

    return [x for x in itertools.product(*box) if holds(x)]


def _random_box(rng, n):
    box = []
    for _ in range(n):
        lo, roll = rng.randrange(0, 4), rng.random()
        if roll < 0.2:
            box.append((rng.randrange(0, 7),))  # a pinned coordinate
        elif roll < 0.25:
            box.append(range(lo, lo))  # an empty range
        else:
            box.append(range(lo, lo + rng.randrange(1, 7)))
    return box


def test_solutions_match_a_reference_scan():
    # rows whose two sides cancel compile to empty difference rows
    zero_diff = ConstraintSystem.make(
        3,
        equations=[((1, 2, 0), (1, 2, 0)), ((1, 0, 0), (0, 1, 1))],
        inequalities=[((0, 1, 1), (0, 1, 1))],
        congruences=[((0, 0, 0), 3), ((1, 0, 1), 2)],
    )
    rng = random.Random(2222)
    systems = [zero_diff] + [_random_system(rng, rng.randrange(1, 5)) for _ in range(80)]
    for kind in ("equations", "inequalities", "congruences"):
        assert any(getattr(s, kind) for s in systems), kind
    hits = 0
    for sys in systems:
        for _ in range(5):
            box = _random_box(rng, sys.n)
            want = _reference_solutions(sys, box)
            assert list(solutions(sys, box)) == want, (sys, box)
            assert next(solutions(sys, box), None) == (want[0] if want else None)
            hits += bool(want)
    assert hits > 100  # most boxes hold a solution, so first hits are compared


def test_compiled_rows_leave_the_system_value_alone():
    def make():
        return ConstraintSystem.make(
            3,
            equations=[((1, 0, 0), (0, 2, 1))],
            inequalities=[((0, 1, 0), (1, 0, 1))],
            congruences=[((1, 1, 0), 2)],
        )

    used, fresh = make(), make()
    box = [range(6)] * 3
    sols = list(solutions(used, box))
    assert sols and satisfies_card(used, vec(W, 1, W)) and rational_feasible(used, {1: 1})
    assert used == fresh and hash(used) == hash(fresh)
    assert str(used) == str(fresh) and repr(used) == repr(fresh)
    for back in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used)):
        assert back == fresh and hash(back) == hash(fresh) and str(back) == str(fresh)
        assert list(solutions(back, box)) == sols


def test_negative_congruence_coefficient_is_rejected():
    # printed as "cong: -1 x0 in 2N", which the DSL cannot read back
    with pytest.raises(ValueError, match="^coefficients are non-negative integers, got -1$"):
        ConstraintSystem.make(1, congruences=[((-1,), 2)])
    with pytest.raises(ValueError, match="got -2$"):
        ConstraintSystem.make(2, inequalities=[((0, 1), (-2, 0))])


def test_non_integer_coefficient_is_rejected():
    with pytest.raises(ValueError, match="^coefficients are non-negative integers, got 1.5$"):
        ConstraintSystem.make(1, equations=[((1.5,), (0,))])
    with pytest.raises(ValueError, match="got True$"):
        ConstraintSystem.make(1, congruences=[((True,), 2)])
    # a modulus is not truncated to an integer
    with pytest.raises(ValueError, match="^congruence modulus must be an integer, got 2.5$"):
        ConstraintSystem.make(1, congruences=[((1,), 2.5)])


def test_aleph0_extension_description():
    ext = aleph0_extend_finite(DioMonoid(EQ_XY, below(W)))
    text = ext.describe(radius=3)
    assert "(1, 1)" in text and "aleph0" in text
    # several supports: x0 = x1 + x2
    ext = aleph0_extend_finite(DioMonoid(ConstraintSystem.make(3, equations=[((1, 0, 0), (0, 1, 1))]), below(W)))
    assert ext.describe(radius=2) == (
        "H + aleph0*H with H generated (up to radius 2) by "
        "[(1, 0, 1), (1, 1, 0), (2, 0, 2), (2, 1, 1), (2, 2, 0)]; "
        "aleph0-patterns [('w', 0, 'w'), ('w', 'w', 0), ('w', 'w', 'w')]"
    )


X0_LEQ_X1 = ConstraintSystem.make(2, inequalities=[((1, 0), (0, 1))])  # x0 <= x1
VALUES = [fin(k) for k in range(4)] + [W]


def test_inequality_preorder_needs_a_member_complement():
    # x = (0, 1) lies below n*(1, 1) coordinatewise, but its only complement
    # (n, n - 1) breaks x0 <= x1 for every n
    m = DioMonoid(X0_LEQ_X1, at_most(W))
    u, x = vec(1, 1), vec(0, 1)
    for n in (1, 2, 3):
        r = m.leq(x, vec(n, n))
        assert r.is_no and r.note == "the only complement is not a member"
    r = m.finite_multiple_leq(u, x)
    assert r.is_no and r.note == "every complement breaks inequality 0"
    assert size_of(m, u, x) == W  # (aleph0, aleph0) = x + (aleph0, aleph0)
    assert m.finite_multiple_leq(vec(1, 2), x).witness == 1  # (1, 2) = x + (1, 1)
    # infinite slack: (W, W) - (W, W) may be 0, W or anything between
    assert m.leq(vec(W, W), vec(W, W)).is_yes


def _complements(x: CardVec, t: CardVec):
    """Every c with x + c = t, slack coordinates (x_i = t_i infinite) drawn
    from 0..3 and aleph0."""
    opts = [
        [fin(ti.n - xi.n)] if ti.is_finite else [ti] if xi.is_finite else VALUES
        for ti, xi in zip(t.coords, x.coords)
    ]
    return (CardVec(c) for c in itertools.product(*opts))


def test_finite_multiple_yes_has_a_member_complement():
    rng = random.Random(314)
    f2 = VecMonoid(2, at_most(W))
    grid = [CardVec(c) for c in itertools.product(VALUES, repeat=2)]
    answers = set()
    for _ in range(300):
        kind = rng.choice(("eq", "ineq", "cong"))
        a, b = (tuple(rng.randrange(4) for _ in range(2)) for _ in range(2))
        system = ConstraintSystem.make(
            2,
            equations=[(a, b)] if kind == "eq" else (),
            inequalities=[(a, b)] if kind == "ineq" else (),
            congruences=[(a, rng.randrange(1, 4))] if kind == "cong" else (),
        )
        m = DioMonoid(system, at_most(W))
        members = [v for v in grid if m.member(v)]
        for _ in range(4):
            u, x = rng.choice(members), rng.choice(members)
            r = m.finite_multiple_leq(u, x)
            answers.add((kind, r.kind))
            if r.is_yes:
                t = f2.scalar(fin(r.witness), u)
                assert any(m.member(c) for c in _complements(x, t)), (system, u, x, r)
            if all(c.is_finite for c in u.coords + x.coords):
                # exact on finite inputs: the least n whose only complement
                # n*u - x is a member, or No when no n below 40 has one
                assert r.kind == ("no" if _least_multiple(m, u, x) is None else "yes")
                assert not r.is_yes or r.witness == _least_multiple(m, u, x)
    assert ("ineq", "yes") in answers and ("ineq", "no") in answers


def _least_multiple(m: DioMonoid, u: CardVec, x: CardVec):
    for n in range(40):
        c = [n * ui.n - xi.n for ui, xi in zip(u.coords, x.coords)]
        if min(c) >= 0 and m.member(CardVec.fins(*c)):
            return n
    return None


def test_aleph0_extension_unknown_after_the_completion_scan():
    # s = 2x + y with s + x and y even: x = 1 makes s + x odd, which the
    # rational relaxation cannot see, so the completion scan runs out
    sys = ConstraintSystem.make(
        3, equations=[((1, 0, 0), (0, 2, 1))], congruences=[((1, 1, 0), 2), ((0, 0, 1), 2)]
    )
    ext = aleph0_extend_finite(DioMonoid(sys, below(W)), radius=4)
    r = ext.member(vec(W, 1, W))
    assert r.is_unknown and r.note == "no integer completion with entries <= 4"



def _random_lattice(rng):
    """An echelon basis (positive pivots in increasing columns, of rank 1 to
    dim) and generators spanning the same lattice: the basis rows mixed by
    random unimodular row operations, plus one more integer combination."""
    dim = rng.randrange(1, 4)
    pivots = sorted(rng.sample(range(dim), rng.randrange(1, dim + 1)))
    basis = [[0] * c + [rng.randrange(1, 4)] + [rng.randrange(-3, 4) for _ in range(dim - c - 1)] for c in pivots]
    gens = [row[:] for row in basis]
    for _ in range(3):
        i, j, k = rng.randrange(len(gens)), rng.randrange(len(gens)), rng.choice((-1, 1))
        if i != j:
            gens[i] = [a + k * b for a, b in zip(gens[i], gens[j])]
        if rng.random() < 0.3:
            gens[i] = [-a for a in gens[i]]
    mix = [rng.randrange(-1, 2) for _ in basis]
    gens.append([sum(c * row[k] for c, row in zip(mix, basis)) for k in range(dim)])
    rng.shuffle(gens)
    return basis, pivots, [tuple(g) for g in gens]


def _echelon_member(basis, pivots, v):
    """Is v an integer combination of the echelon rows?  Each pivot fixes
    its row's multiple; what is left must be zero."""
    v = list(v)
    for row, c in zip(basis, pivots):
        if v[c] % row[c]:
            return False
        t = v[c] // row[c]
        v = [a - t * b for a, b in zip(v, row)]
    return not any(v)


def test_hermite_basis_is_echelon_reduced_and_spans_the_generators():
    rng = random.Random(2424)
    for _ in range(300):
        basis, pivots, gens = _random_lattice(rng)
        lat = IntLattice(gens, len(basis[0]))
        for i, (row, co) in enumerate(zip(lat.basis, lat.coeffs)):
            assert row == [sum(c * g[k] for c, g in zip(co, gens)) for k in range(len(row))]
            c = lat.pivots[i]
            assert row[c] > 0 and not any(row[:c])
            assert all(0 <= lat.basis[j][c] < row[c] for j in range(i))
        # the same lattice: each basis lies in the other's span
        assert all(_echelon_member(basis, pivots, row) for row in lat.basis)
        assert all(_echelon_member(lat.basis, lat.pivots, row) for row in basis)


def test_least_point_is_the_first_coset_point_of_the_box():
    # against a scan of the box in lexicographic order
    rng = random.Random(2525)
    hits = 0
    for _ in range(300):
        basis, pivots, gens = _random_lattice(rng)
        dim = len(basis[0])
        offset = tuple(rng.randrange(-6, 7) for _ in range(dim))
        upper = tuple(rng.randrange(0, 5) for _ in range(dim))
        box = itertools.product(*(range(u + 1) for u in upper))
        want = next((p for p in box if _echelon_member(basis, pivots, [a - b for a, b in zip(p, offset)])), None)
        got = IntLattice(gens, dim).least_point(offset, upper)
        if want is None:
            assert got is None, (gens, offset, upper)
            continue
        point, coeffs = got
        assert point == want, (gens, offset, upper)
        assert list(point) == [o + sum(c * g[k] for c, g in zip(coeffs, gens)) for k, o in enumerate(offset)]
        hits += 1
    assert 100 <= hits <= 250


def test_least_point_searches_a_lattice_of_lower_rank():
    # L = Z*(2,1) in Z^2: reducing (2,0) modulo the basis gives (0,-1),
    # outside the box, but (2,0) itself lies in it
    lat = IntLattice([(2, 1), (2, 1)], 2)
    assert lat.basis == [[2, 1]]
    assert lat.least_point((2, 0), (2, 1)) == ((2, 0), (0, 0))
    assert lat.least_point((-2, -1), (2, 1)) == ((0, 0), (0, 1))
    assert lat.least_point((1, 0), (0, 4)) is None
