"""The four seeded workloads, built as lists of ops.

An op is one user-level decision call.  ``Op.call`` is the timed part;
``Op.check`` runs afterwards, untimed, and returns the verdict ("yes", "no"
or "unknown") and an error text when the answer is wrong.  Every check
compares against ``oracles``, which shares no decision code with kmon.

Populations.  Every op whose verdict or cost depends on the draw comes
from a pinned population seed (``POPULATION_SEED``): acceptance test 5's
pairs, the realizability reports, the ``forms_equal`` query stream and
every constraint-system op.  Some of them cost seconds each (the seven
Unknown braid searches, the slow reports), and a run holds only a handful,
so drawing them anew for every seed would make the metrics measure the
draw, not the code.  Pinning them also keeps the Yes/No/Unknown counts, and
so ``decided_frac``, the same for every seed: one decided answer turning
Unknown moves it by one op.  ``--seed`` draws the op order and the axiom
sample blocks (whose every verdict is Yes).  ``HELD_OUT_POPULATION`` holds
a second population per workload that no change may be tuned on; axioms
has no population.

kmon functions are always called through their module (``braiding.
braid_find``), so the tracer's rebinding reaches the calls made here.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

import oracles
from kmon import braiding, cardinals, cli, core, diophantine, dsl, free_vectors, gallery, laws
from kmon import presentations as pres

W = cardinals.ALEPH0
fin = cardinals.fin
CardVec = free_vectors.CardVec

POPULATION_SEED = {"braid-mix": 50505, "twogen": 80808, "dio-extend": 90909}
HELD_OUT_POPULATION = {"braid-mix": 60606, "twogen": 81818, "dio-extend": 91919}
BRAID_BUDGET = 2500
BRAID_INSTANCES = 520
AXIOM_BLOCKS, AXIOM_SAMPLES = 10, 100
# drawn reports cost 0.01 to 25 s each: four keep a twogen pass near 10 s, so
# a run holds two passes and the tail lands among the many budget-bound
# forms_equal queries rather than on one report
TWOGEN_DRAWS, FORMS_EQUAL_QUERIES = 4, 1000
EXT_RADIUS = 32
EXT_GRID_MAX = 4
# acceptance 9 grids per system dimension; a fixed mix keeps every seed's
# pass the same size (n = 3 grids would add seed-drawn 33^3-cell scans)
EXT_SYSTEMS = {1: 3, 2: 6}
EXIT_VERDICT = {0: "yes", 1: "no", 2: "unknown"}


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[str, Optional[str]]]


def label(m) -> str:
    """Unambiguous monoid label: two dio monoids share ``m.name``."""
    return f"{dsl.render_monoid(m)}@{m.bound}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


# -- braid-mix ------------------------------------------------------------------


def _braid_call(m, x, y):
    r = braiding.braid_find(m, x, y, budget=BRAID_BUDGET)
    return r, (braiding.verify(m, x, y, r.witness) if r.is_yes else None)


def _braid_check(is_n0: bool, x, y, out) -> tuple[str, Optional[str]]:
    r, v = out
    err = None
    equal = oracles.same_sum(x, y)
    if r.is_yes and not v.is_yes:
        err = "certificate fails verify"
    elif is_n0 and r.decided and r.is_yes != oracles.n0_braidable(x, y):
        err = "disagrees with the closed-form N0 oracle"
    elif r.is_yes and not equal:
        err = "Yes although the closed-form sums differ"
    elif r.is_no and r.note == "sums differ" and equal:
        err = "'sums differ' although the closed-form sums agree"
    elif r.is_no and r.note == "finite vs infinite form" and (
        oracles.finite_index(x) == oracles.finite_index(y)
    ):
        err = "'finite vs infinite form' although both index sets agree"
    return r.kind, err and f"{err}: x={x} y={y}"


def braid_mix(seed: int, population: int) -> list[Op]:
    """Acceptance test 5's generator, one op per (braid_find, verify)."""
    n0 = core.CyclicExtensionMonoid(core.CyclicMonoid())
    vec2 = free_vectors.VecMonoid(2, cardinals.at_most(W))
    make = diophantine.ConstraintSystem.make
    dio_a = diophantine.DioMonoid(make(2, equations=[((1, 0), (0, 1))]), cardinals.at_most(W))
    dio_b = diophantine.DioMonoid(make(2, congruences=[((1, 1), 2)]), cardinals.at_most(W))
    setups = [
        (n0, [fin(k) for k in range(1, 5)]),
        (vec2, [CardVec.fins(1, 0), CardVec.fins(0, 1), CardVec.fins(1, 1), CardVec.fins(2, 1)]),
        (dio_a, [CardVec.fins(1, 1), CardVec.fins(2, 2)]),
        (dio_b, [CardVec.fins(1, 1), CardVec.fins(2, 0), CardVec.fins(0, 2)]),
    ]
    rng = random.Random(population)
    mults = [fin(1), fin(2), fin(3), W]

    def family(elems):
        k = rng.randrange(0, 4)
        return core.Family.of((rng.choice(elems), rng.choice(mults)) for _ in range(k))

    ops = []
    for i in range(BRAID_INSTANCES):
        m, elems = setups[i % len(setups)]
        x = family(elems)
        y = family(elems) if rng.random() < 0.5 else x.scale(rng.choice([fin(1), fin(2), W]))
        ops.append(Op(label(m), partial(_braid_call, m, x, y), partial(_braid_check, m is n0, x, y)))
    random.Random(seed).shuffle(ops)
    return ops


# -- axioms ---------------------------------------------------------------------------


def _axioms_check(rep) -> tuple[str, Optional[str]]:
    if rep.all_passed:
        return "yes", None
    return "no", "law failures:\n" + rep.render()


def axioms(seed: int, population: int) -> list[Op]:
    """check_axioms over acceptance test 1's 14 monoids, in sample blocks."""
    at_most, below, aleph = cardinals.at_most, cardinals.below, cardinals.aleph
    make = diophantine.ConstraintSystem.make
    monoids = [
        free_vectors.VecMonoid(1, at_most(W)),
        free_vectors.VecMonoid(2, at_most(aleph(2))),
        free_vectors.VecMonoid(3, at_most(aleph(3))),
        core.CyclicExtensionMonoid(core.CyclicMonoid()),
        core.CyclicExtensionMonoid(core.CyclicMonoid(1, 2)),
        core.CyclicExtensionMonoid(core.CyclicMonoid(2, 3)),
        diophantine.DioMonoid(make(2, equations=[((1, 0), (0, 1))]), at_most(aleph(1))),
        diophantine.DioMonoid(make(2, equations=[((2, 0), (1, 1))]), at_most(aleph(1))),
        diophantine.DioMonoid(make(2, congruences=[((1, 1), 2)]), at_most(W)),
        gallery.TrivialExtensionMonoid(gallery.plain_n0()),
        gallery.TrivialExtensionMonoid(free_vectors.VecMonoid(2, below(W))),
        gallery.RationalLineMonoid(),
        gallery.DedekindVMonoid((2,)),
        gallery.DedekindVMonoid((2, 2)),
    ]
    rng = random.Random(seed)
    return [
        Op(label(m), partial(laws.check_axioms, m, samples=AXIOM_SAMPLES, seed=rng.randrange(2**31)), _axioms_check)
        for _ in range(AXIOM_BLOCKS)
        for m in monoids
    ]


# -- twogen ---------------------------------------------------------------------------

FREE = "twogen { }"
GLUED_INFINITE = (
    "twogen { rel: aleph0*X1 = aleph0*X1 + aleph0*X2; rel: aleph0*X2 = aleph0*X1 + aleph0*X2; "
    "rel: 1*X1 + aleph0*X2 = aleph0*X2; rel: aleph0*X1 + 1*X2 = aleph0*X1; }"
)
FIXED_PRESENTATIONS = [FREE, GLUED_INFINITE, "twogen { rel: 2*X1 = 1*X2; }", "twogen { rel: aleph0*X1 = 1*X1; }"]
# verdicts pinned by the README goldens and acceptance test 8
EXPECTED_REPORT = {(FREE, False): "yes", (GLUED_INFINITE, False): "no", ("twogen { rel: 2*X1 = 1*X2; }", True): "yes"}
COEFFS = ["0", "1", "2", "3", "aleph0"]


def _report_check(text: str, corollary: bool, seen: dict, out) -> tuple[str, Optional[str]]:
    code, stdout = out
    data = json.loads(stdout.strip().splitlines()[-1])
    verdict = data["verdict"]
    seen[text, corollary] = verdict
    other = seen.get((text, not corollary))
    if EXIT_VERDICT.get(code) != verdict:
        return verdict, f"exit {code} does not match verdict {verdict}"
    if EXPECTED_REPORT.get((text, corollary), verdict) != verdict:
        return verdict, f"verdict {verdict} differs from the pinned golden"
    if text == GLUED_INFINITE and not corollary and not any(
        c["name"] == "(ii) i=1,j=2" and c["status"] == "violated" and c["witness"] == "(0, 1)"
        for c in data["conditions"]
    ):
        return verdict, "missing the (ii) witness (0, 1)"
    if other in ("yes", "no") and verdict in ("yes", "no") and other != verdict:
        return verdict, "realizable_two_gen and corollary_checks decide opposite verdicts"
    return verdict, None


def _forms_equal_check(p, f, g, r) -> tuple[str, Optional[str]]:
    err = None
    if r.is_yes and not pres.replay_chain(p, f, g, r.witness):
        err = "Yes chain does not replay"
    elif r.is_no and r.witness is not None and not oracles.hom_separates(p.relations, f, g, r.witness):
        err = f"homomorphism {r.witness} does not separate"
    elif r.is_no and r.witness is None and oracles.structural_no_holds(p.relations, f, g, r.note) is False:
        err = f"structural reason does not hold: {r.note}"
    return r.kind, err and f"{err}: {p.relations} {f} vs {g}"


def _form(rng: random.Random, coeffs) -> "pres.Form":
    return pres.Form(rng.choice(coeffs), rng.choice(coeffs))


def twogen(seed: int, population: int) -> list[Op]:
    """Realizability reports through the CLI plus one-shot forms_equal queries."""
    draw = random.Random(population)
    texts = list(FIXED_PRESENTATIONS)
    for _ in range(TWOGEN_DRAWS):
        a, b, c, d = (draw.choice(COEFFS) for _ in range(4))
        texts.append(f"twogen {{ rel: {a}*X1 + {b}*X2 = {c}*X1 + {d}*X2; }}")
    seen: dict = {}
    reports = [
        Op(
            "realizable2" + (" --corollary" if corollary else ""),
            partial(run_cli, ["realizable2", "--pres", text, "--format", "json"] + (["--corollary"] if corollary else [])),
            partial(_report_check, text, corollary, seen),
        )
        for text in texts
        for corollary in (False, True)
    ]
    cards = [fin(0), fin(1), fin(2), fin(3), W]
    queries = []
    for _ in range(FORMS_EQUAL_QUERIES):
        p = pres.TwoGenPresentation.of([(_form(draw, cards), _form(draw, cards))])
        f, g = _form(draw, cards), _form(draw, cards)
        queries.append(Op("forms_equal", partial(pres.forms_equal, p, f, g), partial(_forms_equal_check, p, f, g)))
    random.Random(seed).shuffle(queries)
    return [op for i, rep in enumerate(reports) for op in [rep, *queries[i :: len(reports)]]]


# -- dio-extend -------------------------------------------------------------------------


def render_linear(coeffs) -> str:
    terms = [f"{c} x{i}" for i, c in enumerate(coeffs) if c]
    return " + ".join(terms) if terms else "0 x0"


def render_system(cs) -> str:
    parts = [f"eq: {render_linear(a)} = {render_linear(b)};" for a, b in cs.equations]
    parts += [f"ineq: {render_linear(a)} <= {render_linear(b)};" for a, b in cs.inequalities]
    parts += [f"cong: {render_linear(a)} in {d}N;" for a, d in cs.congruences]
    return f"dio n={cs.n} {{ {' '.join(parts)} }}"


def render_vec(vec) -> str:
    return "(" + ", ".join(cardinals.render_card(c) for c in vec) + ")"


def random_system(rng: random.Random, n: int, with_ineq: bool = True):
    """Acceptance tests 4 and 9's system generator."""
    eqs, ineqs, congs = [], [], []
    for _ in range(rng.randrange(0, 3)):
        a = tuple(rng.randrange(0, 3) for _ in range(n))
        b = tuple(rng.randrange(0, 3) for _ in range(n))
        if with_ineq and rng.random() < 0.4:
            ineqs.append((a, b))
        else:
            eqs.append((a, b))
    if rng.random() < 0.5:
        congs.append((tuple(rng.randrange(0, 3) for _ in range(n)), rng.randrange(2, 4)))
    return diophantine.ConstraintSystem.make(n, eqs, ineqs, congs)


def parity_probe(rng: random.Random, k: int):
    """A lattice-infeasible membership probe with k infinite coordinates.

    Variables x, s, w_1..w_{k-1} in a seeded order:  s = d*x + sum a_j w_j,
    w_j in dN, s + c*x in dN, with d prime, 0 < c < d and x finite, not a
    multiple of d.  Then s is in dN, so c*x must be too: no integer
    completion exists, although the rational relaxation and the
    aleph0-support pattern are both feasible.  It generalises the parity
    example s = 2x + y, s + x in 2N, y in 2N, x = 1.
    """
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
    system = diophantine.ConstraintSystem.make(n, [(linear((s, 1)), rhs)], (), congs)
    coords = [W] * n
    coords[x] = fin(rng.choice([v for v in range(1, 9) if v % d]))
    return system, tuple(coords)


def _cli_check(expect_member: Optional[bool], out) -> tuple[str, Optional[str]]:
    code, stdout = out
    verdict = EXIT_VERDICT.get(code)
    if verdict is None:
        return "unknown", f"exit {code}: {stdout.strip()[-200:]}"
    if expect_member is not None and (verdict == "yes") != expect_member:
        return verdict, f"membership {verdict}, oracle says {expect_member}"
    return verdict, None


def _probe_check(out) -> tuple[str, Optional[str]]:
    verdict, err = _cli_check(None, out)
    return verdict, err or ("lattice-infeasible probe answered Yes" if verdict == "yes" else None)


def _member_check(want: bool, got: bool) -> tuple[str, Optional[str]]:
    return ("yes" if got else "no"), (None if got == want else f"member {got}, expected {want}")


@functools.lru_cache(maxsize=None)
def extension_oracle(system) -> oracles.ExtensionOracle:
    return oracles.ExtensionOracle(system, EXT_RADIUS, EXT_GRID_MAX)


def _ext_check(system, vec, r) -> tuple[str, Optional[str]]:
    if r.decided and r.is_yes != extension_oracle(system).member(vec):
        return r.kind, f"disagrees with brute-force generation at {vec}"
    return r.kind, None


def _kind_check(want: str, r) -> tuple[str, Optional[str]]:
    return r.kind, (None if r.kind == want else f"expected {want}, got {r.kind}")


def _decompose_call(m, alpha):
    beta, gammas = diophantine.decompose(m, alpha)
    return beta, gammas, diophantine.recombine(beta, gammas)


def _decompose_check(system, alpha, out) -> tuple[str, Optional[str]]:
    beta, gammas, back = out
    model = lambda v: tuple(oracles.card(c) for c in v.coords)
    if model(back) != model(alpha):
        return "no", f"recombination {back} != {alpha}"
    parts = [model(beta)] + [model(g) for g in gammas.values()]
    if not all(oracles.satisfies(system, p) for p in parts):
        return "no", "a part is not a solution"
    if not all(c in (oracles.ZERO, oracles.W) for g in parts[1:] for c in g):
        return "no", "an aleph pattern has a finite nonzero entry"
    return "yes", None


def _ext_member(system, vec):
    plain = diophantine.DioMonoid(system, cardinals.below(W))
    return diophantine.aleph0_extend_finite(plain, EXT_RADIUS).member(vec)


def dio_extend(seed: int, population: int) -> list[Op]:
    """Constraint-system traffic: cheap membership, decomposition and
    extension ops, plus heavy lattice-infeasible aleph0-extend probes."""
    rng = random.Random(population)
    at_most, aleph = cardinals.at_most, cardinals.aleph
    make = diophantine.ConstraintSystem.make
    ops: list[Op] = []

    # acceptance 3: the frozen level-aleph0 membership tables
    eq_xy = diophantine.DioMonoid(make(2, equations=[((1, 0), (0, 1))]), at_most(W))
    eq_2x = diophantine.DioMonoid(make(2, equations=[((2, 0), (1, 1))]), at_most(W))
    grid = [fin(k) for k in range(6)] + [W]
    for a, b in itertools.product(grid, repeat=2):
        diag = a == b
        ops.append(Op("member", partial(eq_xy.member, CardVec((a, b))), partial(_member_check, diag)))
        ops.append(Op("member", partial(eq_2x.member, CardVec((a, b))), partial(_member_check, diag or a == W)))
    for b in grid:
        ops.append(Op("aleph0_extend", partial(_ext_member, eq_xy.system, CardVec((W, b))), partial(_kind_check, "yes" if b == W else "no")))

    # acceptance 4: decompose and recombine seeded members
    for _ in range(60):
        m = diophantine.DioMonoid(random_system(rng, rng.randrange(1, 5)), at_most(aleph(2)))
        alpha = m.sample_element(rng)
        ops.append(Op("decompose", partial(_decompose_call, m, alpha), partial(_decompose_check, m.system, alpha)))

    # acceptance 9: H + aleph0*H membership grids against brute force
    ext_grid = [fin(k) for k in range(EXT_GRID_MAX + 1)] + [W]
    systems = [random_system(rng, n, with_ineq=False) for n, count in EXT_SYSTEMS.items() for _ in range(count)]
    for cs in systems:
        for coords in itertools.product(ext_grid, repeat=cs.n):
            model = tuple(oracles.card(c) for c in coords)
            ops.append(Op("aleph0_extend", partial(_ext_member, cs, CardVec(coords)), partial(_ext_check, cs, model)))

    # the CLI subcommands on seeded systems and vectors
    cli_cards = [fin(k) for k in range(5)] + [W, aleph(1)]
    for _ in range(20):
        cs = random_system(rng, rng.randrange(1, 4))
        vec = tuple(rng.choice(cli_cards) for _ in range(cs.n))
        text, vtext = render_system(cs), render_vec(vec)
        want = oracles.satisfies(cs, tuple(oracles.card(c) for c in vec))
        for argv in (
            ["member", "--monoid", text, "--vec", vtext],
            ["extend", "--monoid", text, "--to", "aleph2", "--vec", vtext],
            ["decompose", "--kappa", "aleph1", "--monoid", text, "--vec", vtext],
        ):
            ops.append(Op(f"cli {argv[0]}", partial(run_cli, argv), partial(_cli_check, want)))

    # heavy: lattice-infeasible probes, Unknown today after a (radius+1)^k
    # scan.  The k=3 radii spread their costs over a 7x range, so the tail
    # percentile, which lands among them, moves with a slower or faster
    # machine instead of jumping between two near-equal probes.
    probes = [(3, r) for r in range(EXT_RADIUS - 15, EXT_RADIUS + 1)] + [(4, EXT_RADIUS)] * 2
    for k, radius in probes:
        cs, vec = parity_probe(rng, k)
        argv = ["aleph0-extend", "--monoid", render_system(cs), "--vec", render_vec(vec), "--radius", str(radius)]
        ops.append(Op(f"cli aleph0-extend k={k}", partial(run_cli, argv), _probe_check))

    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[int, int], list[Op]]] = {
    "braid-mix": braid_mix,
    "axioms": axioms,
    "twogen": twogen,
    "dio-extend": dio_extend,
}


def build(name: str, seed: int, population: Optional[int] = None) -> list[Op]:
    return WORKLOADS[name](seed, POPULATION_SEED.get(name, 0) if population is None else population)
