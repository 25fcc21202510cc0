"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and bound is pinned here.
"""

import hashlib
import io
import itertools
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from kmon.braiding import braid_find, canonical_family, compose, flip, verify
from kmon.cardinals import ALEPH0, ZERO, aleph, at_most, below, fin
from kmon.cli import run as cli_run
from kmon.core import CyclicExtensionMonoid, CyclicMonoid, Family
from kmon.diophantine import (
    ConstraintSystem,
    DioMonoid,
    aleph0_extend_finite,
    decompose,
    enumerate_solutions,
    recombine,
    universal_extend,
)
from kmon.dsl import render_certificate
from kmon.free_vectors import CardVec, VecMonoid
from kmon.gallery import DedekindVMonoid, RationalLineMonoid, TrivialExtensionMonoid, plain_n0
from kmon.laws import check_axioms
from kmon.presentations import Form, TwoGenPresentation, realizable_two_gen

from populations import braid_mix, random_system

W = ALEPH0
N0 = CyclicExtensionMonoid(CyclicMonoid())
GOLDEN_DIR = Path(__file__).parent / "golden"


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# -- 1: axiom suite ---------------------------------------------------------


def test_acceptance_1_axiom_suite():
    monoids = [
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
    t0 = time.time()
    for m in monoids:
        rep = check_axioms(m, samples=1000, seed=20260810)
        assert rep.all_passed, f"{m.name}:\n{rep.render()}"
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"
    _ok(1, f"{len(monoids)} monoids x 1000 seeded families, zero failures, {elapsed:.1f}s")


# -- 2: cardinal arithmetic grid ---------------------------------------------


def _oracle_sum(pairs):
    pairs = [(v, c) for v, c in pairs if not v.is_zero and not c.is_zero]
    if not pairs:
        return ZERO
    if all(v.is_finite for v, _ in pairs) and all(c.is_finite for _, c in pairs):
        return fin(sum(v.n * c.n for v, c in pairs))
    lvl = -1
    for v, c in pairs:
        if v.is_infinite:
            lvl = max(lvl, v.aleph_level)
        if c.is_infinite:
            lvl = max(lvl, c.aleph_level)
    return aleph(lvl)


def test_acceptance_2_cardinal_grid():
    from kmon.cardinals import card_mul, card_sum

    grid = [fin(n) for n in range(11)] + [aleph(k) for k in range(4)]
    cases = 0
    for v, c in itertools.product(grid, repeat=2):
        assert card_sum([(v, c)]) == _oracle_sum([(v, c)])
        assert card_mul(v, c) == _oracle_sum([(v, c)])
        cases += 2
    singles = list(itertools.product(grid, repeat=2))
    for p1, p2 in itertools.combinations_with_replacement(singles, 2):
        assert card_sum([p1, p2]) == _oracle_sum([p1, p2])
        cases += 1
    assert cases >= 10_000
    _ok(2, f"{cases} grid cases bit-exact against the independent closed form")


# -- 3: the level-aleph0 discrepancy reproduced --------------------------------


def test_acceptance_3_membership_tables():
    eq_xy = DioMonoid(ConstraintSystem.make(2, equations=[((1, 0), (0, 1))]), at_most(W))
    eq_2x = DioMonoid(ConstraintSystem.make(2, equations=[((2, 0), (1, 1))]), at_most(W))
    grid = [fin(k) for k in range(6)] + [W]
    got_eq = {(a, b) for a in grid for b in grid if eq_xy.member(CardVec((a, b)))}
    got_2x = {(a, b) for a in grid for b in grid if eq_2x.member(CardVec((a, b)))}
    diag = {(fin(k), fin(k)) for k in range(6)} | {(W, W)}
    assert got_eq == diag
    assert got_2x == diag | {(W, fin(n)) for n in range(6)}

    ext = aleph0_extend_finite(DioMonoid(eq_xy.system, below(W)))
    for n in range(6):
        r = ext.member(CardVec((W, fin(n))))
        assert r.is_no, f"(aleph0,{n}) must be excluded, got {r}"
    assert ext.member(CardVec((W, W))).is_yes
    _ok(3, "membership tables match the frozen expected sets; the extension excludes (aleph0, n)")


# -- 4: decompose-recombine -----------------------------------------------------


def test_acceptance_4_decompose_recombine():
    rng = random.Random(40404)
    done = 0
    while done < 500:
        n = rng.randrange(1, 5)
        m = DioMonoid(random_system(rng, n), at_most(aleph(2)))
        alpha = m.sample_element(rng)
        assert m.member(alpha)
        beta, gammas = decompose(m, alpha)
        small = DioMonoid(m.system, at_most(W))  # the below-aleph1 level
        assert small.member(beta), (m.system, alpha, beta)
        for lam, g in gammas.items():
            assert small.member(g), (m.system, alpha, lam, g)
            assert all(c == W or c.is_zero for c in g.coords)
        assert recombine(beta, gammas) == alpha
        done += 1
    _ok(4, f"{done} random members decomposed into countable-level parts and recombined exactly")


# -- 5: braiding soundness --------------------------------------------------------


def test_acceptance_5_braiding_soundness():
    instances = yes_count = 0
    answers = hashlib.sha256()
    for m, x, y in braid_mix(50505):
        r = braid_find(m, x, y, budget=2500)
        cert = render_certificate(r.witness) if r.is_yes else ""
        answers.update(f"{r.kind}|{r.note}|{cert}\n".encode())
        if r.is_yes:
            yes_count += 1
            assert verify(m, x, y, r.witness).is_yes, (m.name, x, y)
            a, b = m.ksum(x), m.ksum(y)
            assert m.eq(a, b).is_yes
        instances += 1
    assert yes_count >= 150, f"only {yes_count} positive instances"
    # kind, note and rendered certificate of every answer, re-pinned when
    # the entry-carry tier took over the greedy walk's pairs; the kinds alone
    # are pinned apart, by test_braid_mix_kinds_are_pinned
    want = "91041c4059e28f4b94332d836f4316b7b0d7c248ff34cac65ebdff44bf88c6f5"
    assert answers.hexdigest() == want
    _ok(5, f"{instances} instances, {yes_count} certificates found, all verified with equal telescopes")


# the held-out answers at a budget that cuts the DFS short and at acceptance
# 5's, re-pinned when the entry-carry tier took over the greedy walk's pairs
HELD_OUT_DIGESTS = {
    300: "3af4e951d3292c909434d8e49defdc7bfdff6cff676f1089057cac1cdf814866",
    2500: "6e1529f5bf5781a0c7d748a7a0764cc3c991c25669c4cab7b645cd497489abce",
}


@pytest.mark.parametrize("budget", sorted(HELD_OUT_DIGESTS))
def test_braid_find_held_out_population_is_pinned(budget):
    # kind, note and rendered certificate of every answer on the held-out
    # braid-mix population
    answers = hashlib.sha256()
    for m, x, y in braid_mix(60606):
        r = braid_find(m, x, y, budget=budget)
        cert = render_certificate(r.witness) if r.is_yes else ""
        answers.update(f"{r.kind}|{r.note}|{cert}\n".encode())
    assert answers.hexdigest() == HELD_OUT_DIGESTS[budget]


def test_braid_mix_kinds_are_pinned():
    # the kind alone of every answer on four braid-mix populations, apart
    # from the certificate digests: re-pinning a certificate must never hide
    # a kind that moved.  Pinned before the entry-carry tier; a kind may only
    # move from Unknown to decided, with this digest re-pinned on purpose
    kinds = hashlib.sha256()
    for seed in (50505, 60606, 70707, 12345):
        for m, x, y in braid_mix(seed):
            kinds.update(f"{braid_find(m, x, y, budget=2500).kind}\n".encode())
    assert kinds.hexdigest() == "f66f0eeea890508e9487a83c2d401becd79c65087291fc6c0662dad8e608423e"


# -- 6: completeness over the positive integers ------------------------------------


def _n0_oracle(xfam, yfam):
    def describe(f):
        total, infinite = 0, False
        for e, m in f:
            if m.is_infinite:
                infinite = True
            else:
                total += e.n * m.n
        return infinite, total

    xi, xs = describe(xfam)
    yi, ys = describe(yfam)
    return xi == yi and (xi or xs == ys)


def test_acceptance_6_n0_completeness():
    def entry_size(v, m):
        return v + (m if isinstance(m, int) else 1)

    entries = [
        (v, m)
        for v in range(1, 6)
        for m in list(range(1, 6)) + [W]
        if entry_size(v, m) <= 6
    ]
    fams = [()]
    for k in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(entries, k):
            if sum(entry_size(v, m) for v, m in combo) <= 6:
                fams.append(combo)
    built = [
        Family.of([(fin(v), fin(m) if isinstance(m, int) else m) for v, m in combo])
        for combo in fams
    ]
    t0 = time.time()
    pairs = 0
    for x in built:
        for y in built:
            want = _n0_oracle(canonical_family(N0, x), canonical_family(N0, y))
            got = braid_find(N0, x, y, budget=4000)
            assert got.decided, (x, y, got.note)
            assert got.is_yes == want, (str(x), str(y), got.note)
            if got.is_yes:
                assert verify(N0, x, y, got.witness).is_yes
            pairs += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    _ok(6, f"{len(built)} families, {pairs} pairs, 100% oracle agreement in {elapsed:.1f}s")


# -- 7: certificate algebra ----------------------------------------------------------


def test_acceptance_7_certificate_algebra():
    rng = random.Random(70707)
    chains = 0
    renders = []
    while chains < 200:
        if chains % 3 == 0:
            total = rng.randrange(2, 7)
            vals = [rng.randrange(1, 4) for _ in range(3)]
            fams = [
                Family.of([(fin(v), fin(total // v))]) if total % v == 0 else None
                for v in vals
            ]
            if any(f is None for f in fams):
                fams = [Family.of([(fin(1), fin(total))]) for _ in range(3)]
            x, y, z = fams
        else:
            x = Family.of([(fin(rng.randrange(1, 5)), W), (fin(rng.randrange(1, 4)), fin(rng.randrange(1, 3)))])
            y = Family.of([(fin(rng.randrange(1, 5)), W)])
            z = Family.of([(fin(rng.randrange(1, 5)), W), (fin(rng.randrange(1, 4)), W)])
        r1 = braid_find(N0, x, y, budget=4000)
        r2 = braid_find(N0, y, z, budget=4000)
        if not (r1.is_yes and r2.is_yes):
            continue
        fl = flip(N0, r1.witness)
        assert verify(N0, y, x, fl).is_yes, (x, y)
        assert verify(N0, x, y, flip(N0, fl)).is_yes, (x, y)
        comp = compose(N0, x, y, z, r1.witness, r2.witness, budget=4000)
        assert comp.is_yes and comp.note == "", (x, y, z, comp.note)  # aligned, not re-searched
        assert verify(N0, x, z, comp.witness).is_yes
        renders.append(render_certificate(comp.witness))
        chains += 1
    # re-pinned when the entry-carry tier took over the greedy walk's pairs,
    # whose two-block chains change the composites
    digest = hashlib.sha256("\n\n".join(renders).encode()).hexdigest()
    assert digest == "ce25ce2787e3b5652d7214a730356d19e333818bbe6cdfa11a708f8d22f07582"
    _ok(7, f"{chains} seeded chains: flip, flip-of-flip, and compositions all verify")


# -- 8: the two-generator decider ---------------------------------------------------


def test_acceptance_8_two_generator_decider():
    free = TwoGenPresentation.of([])
    trivial_inf = TwoGenPresentation.of(
        [
            (Form.of(W, 0), Form.of(W, W)),
            (Form.of(0, W), Form.of(W, W)),
            (Form.of(1, W), Form.of(0, W)),
            (Form.of(W, 1), Form.of(W, 0)),
        ]
    )
    t0 = time.time()
    rep_free = realizable_two_gen(free, budget=10_000)
    t_free = time.time() - t0
    assert rep_free.verdict.is_yes, rep_free.render()
    assert t_free < 5.0

    t0 = time.time()
    rep_triv = realizable_two_gen(trivial_inf, budget=10_000)
    t_triv = time.time() - t0
    assert rep_triv.verdict.is_no, rep_triv.render()
    assert t_triv < 5.0
    c = rep_triv.condition("(ii) i=1,j=2")
    assert c is not None and c.status == "violated" and c.witness == (0, 1)

    assert realizable_two_gen(free, budget=100_000).verdict.is_yes
    assert realizable_two_gen(trivial_inf, budget=100_000).verdict.is_no
    _ok(8, f"free: Yes in {t_free:.2f}s; glued-infinite encoding: No via (ii) witness (0,1) in {t_triv:.2f}s; 10x budget stable")


# -- 9: universal-extension coherence --------------------------------------------------


EXT_GRID = [fin(k) for k in range(5)] + [W]


def _extension_systems(seed):
    """Acceptance 9's 20 systems, drawn from ``seed``: equations and
    congruences over 1..3 variables, each with a solution of entries <= 4."""
    rng = random.Random(seed)
    systems = []
    while len(systems) < 20:
        n = rng.randrange(1, 4)
        sys = random_system(rng, n, with_ineq=False)  # equations+congruences only
        if enumerate_solutions(sys, 4):
            systems.append(sys)
    return systems


def test_acceptance_9_extension_coherence():
    radius = 32
    checked = 0
    for sys in _extension_systems(90909):
        n = sys.n
        plain = DioMonoid(sys, below(W))
        ext = aleph0_extend_finite(plain, radius)
        at_w = universal_extend(DioMonoid(sys, at_most(W)), W)
        sols = enumerate_solutions(sys, radius)
        supports = {frozenset(i for i, v in enumerate(s) if v) for s in sols}
        for coords in itertools.product(EXT_GRID, repeat=n):
            v = CardVec(coords)
            inf = frozenset(i for i in range(n) if coords[i].is_infinite)
            r = ext.member(v)
            assert r.decided, (sys, v, r.note)
            # oracle: brute-force generation from radius-32 solutions
            union = set()
            for s in supports:
                if s <= inf:
                    union |= s
            pattern_ok = union == set(inf)
            fill_ok = any(
                all(s[i] == coords[i].n for i in range(n) if i not in inf)
                for s in sols
            )
            want = pattern_ok and fill_ok
            assert r.is_yes == want, (sys, v, r, want)
            if r.is_yes:
                assert at_w.member(v), (sys, v)
            checked += 1
    _ok(9, f"20 systems, {checked} grid vectors: extension agrees with brute-force generation and embeds in the extended system")


def _parity_probe(rng, k):
    """A system with k + 1 variables x, s, w_1..w_{k-1}: s = d*x + sum a_j w_j,
    w_j in dN and s + c*x in dN, with d prime and 0 < c < d.  With x finite
    and the rest aleph0, x not in dN has no integer completion although its
    rational relaxation has one; x = d has s = d*d, w = 0.  Returns the system
    and both vectors."""
    n = k + 1
    d = rng.choice([2, 3])
    x, s, *ws = rng.sample(range(n), n)

    def linear(*terms):
        out = [0] * n
        for i, c in terms:
            out[i] += c
        return tuple(out)

    rhs = linear((x, d), *((w, rng.randrange(1, d + 1)) for w in ws))
    congs = [(linear((w, 1)), d) for w in ws] + [(linear((s, 1), (x, rng.randrange(1, d))), d)]
    sys = ConstraintSystem.make(n, [(linear((s, 1)), rhs)], (), congs)
    vecs = []
    for v in (rng.choice([v for v in range(1, 9) if v % d]), d):
        coords = [W] * n
        coords[x] = fin(v)
        vecs.append(tuple(coords))
    return sys, vecs


def test_extension_answers_are_pinned():
    # kind, note and witness of Aleph0Extension.member over acceptance 9's
    # grid on two populations of systems and on seeded parity probes, with
    # enumerate_solutions of each system, pinned before the scan read
    # compiled rows; describe() of each system pinned at the same commit
    # with its pattern sort fixed (8 of the 40 systems raised TypeError)
    cases = []
    for seed in (90909, 91919):
        for sys in _extension_systems(seed):
            cases.append((sys, 32, list(itertools.product(EXT_GRID, repeat=sys.n))))
    rng = random.Random(22022)
    for k in (3, 3, 4, 4):
        sys, vecs = _parity_probe(rng, k)
        cases.append((sys, rng.randrange(6, 13), vecs))
    answers, described = hashlib.sha256(), hashlib.sha256()
    for sys, radius, vecs in cases:
        ext = aleph0_extend_finite(DioMonoid(sys, below(W)), radius)
        for coords in vecs:
            r = ext.member(CardVec(coords))
            answers.update(f"{r.kind}|{r.note}|{r.witness!r}\n".encode())
        answers.update(f"{enumerate_solutions(sys, 8)}\n".encode())
        described.update(f"{ext.describe()}\n".encode())
    assert answers.hexdigest() == "d916248dd929dafdb8173898f597844606d99da685f99ed2581963df56cbf800"
    assert described.hexdigest() == "008f242e3be69833ba609e95c47814695275bfa3f838e8dcfc21088c8e907503"


# -- 10: golden CLI files ----------------------------------------------------------------


GOLDEN_CASES = [
    ("01_member_eq_yes", ["member", "--monoid", "dio n=2 { eq: x0 = x1; }", "--vec", "(aleph0, aleph0)"]),
    ("02_member_eq_no", ["member", "--monoid", "dio n=2 { eq: x0 = x1; }", "--vec", "(aleph0, 3)"]),
    ("03_member_2x_yes", ["member", "--monoid", "dio n=2 { eq: 2 x0 = x0 + x1; }", "--vec", "(aleph0, 3)"]),
    ("04_member_json", ["member", "--monoid", "dio n=1 { cong: 2 x0 in 3N; }", "--vec", "(3)", "--format", "json"]),
    ("05_extend_vec", ["extend", "--monoid", "dio n=2 { eq: x0 = x1; }", "--to", "aleph2", "--vec", "(aleph1, aleph1)"]),
    ("06_extend_free", ["extend", "--monoid", "dio n=1 { }", "--to", "aleph3"]),
    ("07_decompose_diag", ["decompose", "--kappa", "aleph1", "--monoid", "dio n=2 { eq: x0 = x1; }", "--vec", "(aleph1, aleph1)"]),
    ("08_decompose_free", ["decompose", "--kappa", "aleph2", "--monoid", "dio n=3 { }", "--vec", "(aleph1, 5, aleph0)"]),
    ("09_decompose_nonmember", ["decompose", "--monoid", "dio n=2 { eq: x0 = x1; }", "--vec", "(1, 2)"]),
    ("10_braid_find_ones_twos", ["braid-find", "--monoid", "N0", "--x", "fam {1*aleph0}", "--y", "fam {2*aleph0}"]),
    ("11_braid_find_clash", ["braid-find", "--monoid", "N0", "--x", "fam {1*aleph0}", "--y", "fam {3*1}"]),
    ("12_braid_find_finite", ["braid-find", "--monoid", "N0", "--x", "fam {1*3}", "--y", "fam {3*1}"]),
    ("13_braid_find_sum_mismatch", ["braid-find", "--monoid", "vec(2)", "--x", "fam {(1,0)*aleph0}", "--y", "fam {(0,1)*aleph0}"]),
    ("14_braid_find_unknown", ["braid-find", "--monoid", "vec(2)", "--x", "fam {(2,1)*aleph0}", "--y", "fam {(1,2)*aleph0}", "--budget", "400"]),
    ("15_braid_find_layered", ["braid-find", "--kappa", "aleph2", "--monoid", "vec(2)", "--x", "fam {(1,0)*aleph1, (0,1)*aleph1}", "--y", "fam {(1,1)*aleph1}"]),
    ("16_braid_check_cycle", ["braid-check", "--monoid", "N0", "--x", "fam {1*aleph0}", "--y", "fam {2*aleph0}", "--cert", "PREFIX\nCYCLE\nB i={1*2} j={2*1} u=2 v'=0"]),
    ("17_braid_check_bad", ["braid-check", "--monoid", "N0", "--x", "fam {1*aleph0}", "--y", "fam {3*1}", "--cert", "PREFIX\nCYCLE\nB i={1*2} j={2*1} u=2 v'=0"]),
    ("18_realizable_free", ["realizable2", "--pres", "twogen { }"]),
    ("19_realizable_trivialinf", ["realizable2", "--pres", "twogen { rel: aleph0*X1 = aleph0*X1 + aleph0*X2; rel: aleph0*X2 = aleph0*X1 + aleph0*X2; rel: 1*X1 + aleph0*X2 = aleph0*X2; rel: aleph0*X1 + 1*X2 = aleph0*X1; }"]),
    ("20_realizable_corollary", ["realizable2", "--pres", "twogen { rel: 2*X1 = 1*X2; }", "--corollary"]),
    ("21_axioms_cyclic", ["axioms", "--monoid", "cmn(1,2)", "--samples", "200", "--seed", "7"]),
    ("22_axioms_dio_json", ["axioms", "--monoid", "dio n=2 { eq: x0 = x1; }", "--samples", "150", "--seed", "3", "--format", "json"]),
    ("23_gallery_trivial", ["gallery-eval", "--monoid", "trivial(N0)", "--fam", "fam {1*aleph0}"]),
    ("24_gallery_qline_dedekind", ["gallery-eval", "--monoid", "dedekind(2,2)", "--fam", "fam {(1; 1,0)*2, (1; 0,1)*1}"]),
    ("25_aleph0_extend_excluded", ["aleph0-extend", "--monoid", "dio n=2 { eq: 2 x0 = x0 + x1; }", "--vec", "(aleph0, 3)"]),
]


def _invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run(argv)
    return f"# exit {code}\n{buf.getvalue()}"


def test_acceptance_10_cli_golden():
    import os

    regen = os.environ.get("KMON_REGEN_GOLDEN") == "1"
    assert len(GOLDEN_CASES) == 25
    names = set()
    for name, argv in GOLDEN_CASES:
        assert name not in names
        names.add(name)
        got_a = _invoke(argv)
        got_b = _invoke(argv)
        assert got_a == got_b, f"{name}: nondeterministic output"
        path = GOLDEN_DIR / f"{name}.txt"
        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(got_a, encoding="utf-8")
        else:
            want = path.read_text(encoding="utf-8")
            assert got_a == want, f"{name}: output drifted from golden file"
    subcommands = {argv[0] for _, argv in GOLDEN_CASES}
    assert subcommands == {
        "member", "extend", "decompose", "braid-check", "braid-find",
        "realizable2", "axioms", "gallery-eval", "aleph0-extend",
    }
    _ok(10, "25 golden invocations byte-identical across runs, every subcommand covered")
