"""Randomized law harness run against every concrete monoid in the library.

Checks the summation axioms (unit, flattening at the multiset level), the
scalar-multiplication identities, the swindle consequences, and absorption by
a big multiple of an order-unit.  Failures are report entries carrying the
offending family verbatim, never exceptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cardinals import FIN1, ZERO, card_sum, fin
from .core import Family, KappaMonoid, flatten


@dataclass
class LawResult:
    law: str
    passed: bool = True
    cases: int = 0
    witness: str = ""

    def check(self, ok_tri, witness) -> None:
        # ok_tri: TriBool or bool; Unknowns are skipped, not failures.
        # witness is a thunk so passing cases never pay for formatting.
        if not self.passed or getattr(ok_tri, "is_unknown", False):
            return
        self.cases += 1
        if not ok_tri:
            self.passed = False
            self.witness = witness() if callable(witness) else witness

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.law} ({self.cases} cases)"
        return f"FAIL {self.law} {self.witness}"


@dataclass
class LawReport:
    monoid: str
    results: list[LawResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [r.line() for r in self.results]
        return "\n".join(lines)

    def failures(self) -> list[LawResult]:
        return [r for r in self.results if not r.passed]


def check_axioms(m: KappaMonoid, samples: int = 500, seed: int = 0) -> LawReport:
    """Randomized verification of the monoid laws on sampled families."""
    rng = random.Random(seed)
    a1 = LawResult("A1-singleton")
    a1e = LawResult("A1-empty")
    a2 = LawResult("A2-flatten")
    a4 = LawResult("A4-split-merge")
    sc0 = LawResult("scalar-zero-one")
    sc1 = LawResult("scalar-distributes-over-cardinal-sum")
    sc2 = LawResult("scalar-distributes-over-element-sum")
    absb = LawResult("infinite-absorption")
    sw1 = LawResult("swindle-reduced")
    sw2 = LawResult("swindle-split")
    big = LawResult("sum-with-big-multiple")

    zero = m.zero
    mults = m.sample_mults()
    infs = m.bound.admissible_levels()
    top = m.bound.top
    unit = m.canonical_order_unit()
    ku = m.scalar(top, unit) if unit is not None and top is not None else None

    a1e.check(m.eq(m.ksum(Family.empty()), zero), "ksum({}) != 0")

    for _ in range(samples):
        x = m.sample_element(rng)
        fam = m.sample_family(rng)
        total = m.ksum(fam)  # A4 and the element-sum scalar law both read it

        a1.check(
            m.eq(m.ksum(Family.of([(x, FIN1)])), x),
            lambda x=x: f"ksum({{{x}*1}}) != {x}",
        )

        # A2: flattening a family of subfamilies equals the multiset union
        # with multiplied-through multiplicities.
        k = rng.randrange(1, 4)
        inner = [m.sample_family(rng, max_entries=2) for _ in range(k)]
        w = [rng.choice(mults) for _ in range(k)]
        outer = Family.of(list(zip(inner, w)))
        lhs = m.ksum(Family.of([(m.ksum(f), wi) for f, wi in zip(inner, w)]))
        rhs = m.ksum(flatten(outer))
        a2.check(m.eq(lhs, rhs), lambda o=outer, l=lhs, r=rhs: f"outer={o}: {l} != {r}")

        # A4 representation form: carving a chunk off one entry's multiplicity
        # and regrouping through partial sums leaves the total fixed.
        if len(fam) > 0:
            e0, m0 = fam.entries[0]
            rest = Family(fam.entries[1:])  # a suffix of a canonical family
            if m0.is_finite and m0.n >= 2:
                cut = rng.randrange(1, m0.n)
                rem = fin(m0.n - cut)
            elif m0.is_finite:
                cut, rem = 1, ZERO
            else:
                cut, rem = 2, m0  # finite chunk absorbed by infinite remainder
            part1 = m.scalar(fin(cut), e0)
            part2 = m.ksum(rest.add(Family.of([(e0, rem)])))
            a4.check(
                m.eq(total, m.add(part1, part2)),
                lambda f=fam, c=cut, e=e0, rs=rest, rm=rem: f"{f} vs {c}*{e} + {rs}+{{{e}*{rm}}}",
            )

        sc0.check(
            m.eq(m.scalar(ZERO, x), zero) and m.eq(m.scalar(FIN1, x), x),
            lambda x=x: f"0*{x} or 1*{x} wrong",
        )

        lams = [rng.choice(mults) for _ in range(rng.randrange(1, 4))]
        tot = card_sum((l, FIN1) for l in lams)
        if m.bound.admits(tot):
            lhs = m.scalar(tot, x)
            rhs = m.ksum(Family.of([(m.scalar(l, x), FIN1) for l in lams]))
            sc1.check(m.eq(lhs, rhs), lambda ls=lams, x=x, l=lhs, r=rhs: f"lams={ls}, x={x}: {l} != {r}")

        alpha = rng.choice(mults)
        lhs = m.scalar(alpha, total)
        rhs = m.ksum(fam.scale(alpha))
        sc2.check(m.eq(lhs, rhs), lambda a=alpha, f=fam, l=lhs, r=rhs: f"alpha={a}, fam={f}: {l} != {r}")

        if infs:
            al = rng.choice(infs)
            ax = m.scalar(al, x)
            absb.check(m.eq(m.add(x, ax), ax), lambda x=x, a=al: f"{x} + {a}*{x} != {a}*{x}")

        # swindle(1): sampled zero-sum pairs must be trivial
        y = m.sample_element(rng)
        xy = m.add(x, y)
        if m.eq(xy, zero).is_yes:
            sw1.check(
                m.eq(x, zero).is_yes and m.eq(y, zero).is_yes,
                lambda x=x, y=y: f"{x} + {y} = 0 with nonzero part",
            )

        # swindle(2): t1 + t2 = kappa*t3 implies t1 + kappa*t3 = kappa*t3
        if top is not None:
            t3 = m.sample_element(rng)
            kt3 = m.scalar(top, t3)
            if m.eq(xy, kt3).is_yes:
                sw2.check(
                    m.eq(m.add(x, kt3), kt3),
                    lambda x=x, y=y, t=t3: f"t1={x}, t2={y}, t3={t}",
                )

        # big-multiple absorption needs an order-unit
        if ku is not None:
            t = m.add(ku, x)
            big.check(m.eq(t, ku), lambda x=x: f"kappa*u + {x} != kappa*u")

    laws = [a1e, a1, a2, a4, sc0, sc1, sc2, absb, sw1, sw2, big]
    return LawReport(m.name, sorted(laws, key=lambda r: r.law))
