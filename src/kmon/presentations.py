"""Two-generated monoids-with-countable-sums presented by finitely many
relations between forms.

A form counts how many copies of each generator a family holds.  Equality in
the quotient is explored by congruence saturation (relation application under
finite and countable multipliers, which subsumes the absorption rewrites);
negative answers carry a separating homomorphism into a small concrete
monoid, and structural preconditions (rigid finite forms, finiteness-class
preservation) upgrade bounded answers to exact ones where they apply.

Saturation runs until its first pruned expansion; the search for a separating
homomorphism runs then, once, since a pruned search can no longer exhaust the
class and no rewrite changes a form's image under a respecting homomorphism.
If no homomorphism separates the pair, the two forms' normal forms are read
there (or, with nothing pruned, when the budget runs out): forms encoded over
(x1, x2, w1, w2) reduce under the presentation completed by
``kmon.rewriting``, and different normal forms answer No with no witness.
Equal ones leave saturation to find the Yes chain.  A completion runs at
most once per term order and public call and stops after ``budget`` critical
pairs, apart from the expansion count; one stopped there changes no answer.

A normal form is the least form of its class, so a term order that compares
some exponents first answers "is there a form in this class without them?"
exactly.  The reports ask three such questions: whether one generator is a
multiple of the other, the cyclic criterion (is aleph0*x = n*x for some
finite n?) and the premise of condition (i) (is n*x_i + aleph0*x_j =
aleph0*x_i + aleph0*x_j for some n?).  Condition (ii), condition (iii),
``in_add`` and the corollary cases still scan a finite range.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Optional

from .cardinals import ALEPH0, ExtCard, Frozen, ZERO, at_most, card_mul, card_sub_least, card_sum, fin
from .core import CyclicExtensionMonoid, CyclicMonoid, Family, KappaMonoid, draw
from .rewriting import complete, deglex, normal_form
from .tribool import TriBool, no, unknown, yes

NCAP = 8  # range for 'finite n' quantifiers
TCAP = 4  # range for slack-form coordinates
HOM_COEFF_CAP = 8


class Form(Frozen):
    """alpha*X1 + beta*X2 with both coefficients at most aleph0.

    The hash is computed once, at construction."""

    __slots__ = ("a", "b", "_hash")

    def __init__(self, a: ExtCard, b: ExtCard):
        if a.aleph_level or b.aleph_level:  # None is finite, 0 is aleph0
            raise ValueError("form coefficients are bounded by aleph0")
        init = object.__setattr__
        init(self, "a", a)
        init(self, "b", b)
        init(self, "_hash", hash((a, b)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Form:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Form(a={self.a!r}, b={self.b!r})"

    def __reduce__(self):
        return Form, (self.a, self.b)

    @staticmethod
    def of(a, b) -> "Form":
        conv = lambda v: fin(v) if isinstance(v, int) else v
        return Form(conv(a), conv(b))

    def __add__(self, other: "Form") -> "Form":
        return Form(self.a + other.a, self.b + other.b)

    def scale(self, m: ExtCard) -> "Form":
        return Form(card_mul(m, self.a), card_mul(m, self.b))

    @property
    def is_infinite(self) -> bool:
        return self.a.is_infinite or self.b.is_infinite

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def coeff(self, i: int) -> ExtCard:
        return self.a if i == 1 else self.b

    @property
    def exponents(self) -> tuple:
        """The form over (x1, x2, w1, w2): a finite coefficient n as n
        copies of x_i, aleph0 as one w_i."""
        a, b = self.a, self.b
        return (
            a.n if a.is_finite else 0,
            b.n if b.is_finite else 0,
            int(a.is_infinite),
            int(b.is_infinite),
        )

    def sort_key(self):
        return (self.a.sort_key(), self.b.sort_key())

    def __str__(self):
        return f"({self.a}*X1 + {self.b}*X2)"


X1 = Form.of(1, 0)
X2 = Form.of(0, 1)
FORM_ZERO = Form.of(0, 0)


def gen(i: int) -> Form:
    return X1 if i == 1 else X2


_ABSORPTION = (  # x_i + w_i = w_i and 2w_i = w_i
    ((1, 0, 1, 0), (0, 0, 1, 0)),
    ((0, 1, 0, 1), (0, 0, 0, 1)),
    ((0, 0, 2, 0), (0, 0, 1, 0)),
    ((0, 0, 0, 2), (0, 0, 0, 1)),
)


@dataclass(frozen=True)
class TwoGenPresentation:
    """Finitely many form equalities; the symmetric closure is taken on load."""

    relations: tuple[tuple[Form, Form], ...]

    @staticmethod
    def of(pairs) -> "TwoGenPresentation":
        rels = []
        for l, r in pairs:
            if l == r:
                continue
            if (l, r) not in rels:
                rels.append((l, r))
            if (r, l) not in rels:
                rels.append((r, l))
        return TwoGenPresentation(tuple(rels))

    # the structural facts below are derived once per presentation: the
    # queries of one report read them thousands of times

    @cached_property
    def finite_forms_rigid(self) -> bool:
        """No relation side is a finite form, so no rewrite applies to a
        finite form and their classes are singletons."""
        return all(l.is_infinite and r.is_infinite for l, r in self.relations)

    @cached_property
    def class_preserving(self) -> bool:
        """Every rewrite preserves the finite/infinite class of a form."""
        return all(
            (l.is_infinite == r.is_infinite) and (l.is_zero == r.is_zero)
            for l, r in self.relations
        )

    def __str__(self) -> str:
        # the DSL text, each relation once, in the direction it was given
        seen = set()
        parts = []
        for l, r in self.relations:
            if (r, l) in seen:
                continue
            seen.add((l, r))
            parts.append(f"rel: {l.a}*X1 + {l.b}*X2 = {r.a}*X1 + {r.b}*X2;")
        return "twogen { " + " ".join(parts) + " }"

    @property
    def equations(self) -> list:
        """Equations over (x1, x2, w1, w2) whose congruence is this
        presentation's: the absorption rules x_i + w_i = w_i and
        2w_i = w_i, and each relation L = R with aleph0*L = aleph0*R."""
        eqs = list(_ABSORPTION)
        for l, r in self.relations:
            for side in ((l, r), (l.scale(ALEPH0), r.scale(ALEPH0))):
                u, v = (f.exponents for f in side)
                if u != v and (u, v) not in eqs and (v, u) not in eqs:
                    eqs.append((u, v))
        return eqs

    @cached_property
    def max_finite_coord(self) -> int:
        out = 0
        for l, r in self.relations:
            for c in (l.a, l.b, r.a, r.b):
                if c.is_finite:
                    out = max(out, c.n)
        return out


# -- rewriting ------------------------------------------------------------------


_MULTIPLIERS = [fin(k) for k in range(1, 5)] + [ALEPH0]
_T_COORDS = tuple(fin(k) for k in range(TCAP + 1)) + (ALEPH0,)


def _slacks(fc: ExtCard, lc: ExtCard, rc: ExtCard, gc: ExtCard):
    """The coefficients t with t + lc = fc, and whether capping them lost any.

    The branching lives at aleph0 = aleph0, where any finite slack or aleph0
    works.  A capped slack is lossless only when the replacement coefficient
    rc is infinite, making all slacks agree; otherwise the goal-aligned slack
    gc - rc is added so one-step matches beyond the cap are still found."""
    if fc.is_finite:
        return ((fin(fc.n - lc.n),) if lc.is_finite and lc.n <= fc.n else ()), False
    if lc.is_finite:
        return (ALEPH0,), False
    if rc.is_infinite:
        return _T_COORDS, False
    if gc.is_finite and gc.n - rc.n > TCAP:
        return _T_COORDS + (fin(gc.n - rc.n),), True
    return _T_COORDS, True


def _multiples(c: ExtCard) -> tuple:
    """card_mul(m, c) for each m in _MULTIPLIERS, in closed form: a form
    coefficient c is at most aleph0, so aleph0*c is aleph0 unless c is 0."""
    if c.is_infinite:
        return (c, c, c, c, c)
    n = c.n
    return (c, fin(2 * n), fin(3 * n), fin(4 * n), ALEPH0 if n else c)


def _successors(rules, f: Form, goal: Form):
    """Single-rewrite successors f = t + m*L -> t + m*R under the rewrites
    (relation index, m, m*L.a, m*L.b, m*R.a, m*R.b), and whether the capped
    slack branching lost any."""
    out = []
    lossy = False
    for ridx, m, la, lb, ra, rb in rules:
        ta_choices, lossy_a = _slacks(f.a, la, ra, goal.a)
        tb_choices, lossy_b = _slacks(f.b, lb, rb, goal.b)
        lossy = lossy or lossy_a or lossy_b
        for ta in ta_choices:
            ga = ta + ra
            for tb in tb_choices:
                g = Form(ga, tb + rb)  # t + m*R with t = (ta, tb)
                if g != f:
                    out.append((g, (ridx, m, Form(ta, tb))))
    return out, lossy


def replay_chain(p: TwoGenPresentation, f: Form, g: Form, chain) -> bool:
    """Validate a rewrite chain emitted by forms_equal."""
    cur = f
    for frm, (ridx, m, t), to in chain:
        if frm != cur:
            return False
        l, r = p.relations[ridx]
        if t + l.scale(m) != frm or t + r.scale(m) != to:
            return False
        cur = to
    return cur == g


# -- separating homomorphisms ---------------------------------------------------


def _hom_targets():
    targets = [CyclicExtensionMonoid(CyclicMonoid(), at_most(ALEPH0))]
    for mm in (1, 2):
        for nn in (1, 2):
            targets.append(
                CyclicExtensionMonoid(CyclicMonoid(mm, nn), at_most(ALEPH0))
            )
    return targets


_TARGETS = _hom_targets()


def _hom_values(t: CyclicExtensionMonoid) -> list[ExtCard]:
    if t.cyc.is_free:
        vals = [fin(k) for k in range(HOM_COEFF_CAP + 1)]
    else:
        vals = [fin(k) for k in range(t.cyc.m + t.cyc.n)]
    return vals + [ALEPH0]


def _apply_hom(t: CyclicExtensionMonoid, va, vb, f: Form) -> ExtCard:
    """The canonical image f.a*va + f.b*vb of f under X1 -> va, X2 -> vb:
    aleph0 once an infinite factor meets a nonzero one, otherwise the
    integer sum's class (all hom values and coefficients are <= aleph0)."""
    total = 0
    for v, c in ((va, f.a), (vb, f.b)):
        if v.is_zero or c.is_zero:
            continue
        if v.is_infinite or c.is_infinite:
            return ALEPH0
        total += v.n * c.n
    return fin(t.cyc.canon(total))


def _respecting_homs(p: TwoGenPresentation):
    """Every (target, va, vb) whose homomorphism X1 -> va, X2 -> vb respects
    all relations of ``p``, in a fixed order."""
    for t in _TARGETS:
        for va in _hom_values(t):
            for vb in _hom_values(t):
                if all(
                    _apply_hom(t, va, vb, l) == _apply_hom(t, va, vb, r)
                    for l, r in p.relations
                ):
                    yield t, va, vb


class _Saturation:
    """The facts of one presentation that the queries of one public call
    share, each derived once: the rewrite table of relation-side multiples,
    the relation-respecting homomorphisms, the completed rules of each term
    order asked for and, in report contexts, a memo of goal-free successor
    lists.

    Every public entry builds one from a bare presentation, and the private
    helpers pass it down in the presentation's place; it never outlives the
    call that built it."""

    __slots__ = ("p", "succ_memo", "_rules", "_homs", "_hom_gen", "_completions")

    def __init__(self, p: TwoGenPresentation, memo: bool):
        self.p = p
        # node -> sorted successors, for expansions that were not lossy:
        # _slacks reads the goal only when it reports a loss
        self.succ_memo: Optional[dict] = {} if memo else None
        self._rules = None
        self._homs: list = []
        self._hom_gen = _respecting_homs(p)  # runs only as far as it is read
        self._completions: dict = {}

    def rules(self) -> list:
        """The rewrites (relation index, m, m*L.a, m*L.b, m*R.a, m*R.b),
        relation index outer and m inner, built on first use."""
        if self._rules is None:
            self._rules = [
                (ridx, m, la, lb, ra, rb)
                for ridx, (l, r) in enumerate(self.p.relations)
                for m, la, lb, ra, rb in zip(
                    _MULTIPLIERS, _multiples(l.a), _multiples(l.b), _multiples(r.a), _multiples(r.b)
                )
            ]
        return self._rules

    def homs(self):
        """``_respecting_homs(p)`` in its order, each one tested once: the
        list is extended only as far as some caller reads it."""
        i = 0
        while True:
            if i == len(self._homs):
                h = next(self._hom_gen, None)
                if h is None:
                    return
                self._homs.append(h)
            yield self._homs[i]
            i += 1

    def completion(self, first: tuple, budget: int) -> tuple:
        """The presentation's convergent rules under the term order that
        compares the exponents at the positions ``first`` of (x1, x2, w1,
        w2) lexicographically, then the degree-lexicographic order, completed
        on first use with ``budget`` as the cap on critical pairs; empty when
        that completion hit its cap.  ``()`` is the degree-lexicographic
        order."""
        rules = self._completions.get(first)
        if rules is None:
            key = (lambda v: ([v[k] for k in first], sum(v), v)) if first else deglex
            rules = self._completions[first] = tuple(complete(self.p.equations, budget, key) or ())
        return rules

    def normal_forms_differ(self, f: Form, g: Form, budget: int) -> bool:
        """Do f and g reduce to different degree-lexicographic normal forms?
        False when the completion hit its cap."""
        rules = self.completion((), budget)
        return bool(rules) and normal_form(rules, f.exponents) != normal_form(rules, g.exponents)

    def multiple_of(self, f: Form, j: int, budget: int) -> TriBool:
        """Is f = beta*X_j for some beta?  Yes names the least such beta,
        every finite one below aleph0.

        X_j's elimination order compares (x_i, w_i, w_j) first.  A normal
        form is the least form of its class, and every form over x_j and w_j
        alone is below all others, so f's normal form is over x_j and w_j
        alone exactly when some multiple of X_j lies in its class: n copies
        of x_j (the least n), or else w_j."""
        i = 3 - j
        rules = self.completion((i - 1, i + 1, j + 1), budget)
        if not rules:
            return unknown(note=f"completion cap {budget} reached")
        nf = normal_form(rules, f.exponents)
        if nf[i - 1] or nf[i + 1]:
            return no()
        return yes(witness=ALEPH0 if nf[j + 1] else fin(nf[j - 1]))


def _saturation(p, memo: bool = True) -> _Saturation:
    """The context a public entry was handed, or a new one for a bare
    presentation."""
    return p if isinstance(p, _Saturation) else _Saturation(p, memo)


def find_separating_hom(p: TwoGenPresentation, f: Form, g: Form):
    """A homomorphism into a small cyclic-extension monoid that respects all
    relations but distinguishes f from g; a replayable negative witness."""
    for t, va, vb in _saturation(p).homs():
        if _apply_hom(t, va, vb, f) != _apply_hom(t, va, vb, g):
            return (t.name, va, vb)
    return None


def _separate(s: _Saturation, f: Form, g: Form, budget: int) -> Optional[TriBool]:
    """No by a separating homomorphism, else by differing normal forms, else
    None."""
    hom = find_separating_hom(s, f, g)
    if hom is not None:
        return no(witness=hom, note="separating homomorphism")
    if s.normal_forms_differ(f, g, budget):
        return no(note="normal forms differ")
    return None


# -- equality -------------------------------------------------------------------


def forms_equal(
    p: TwoGenPresentation, f: Form, g: Form, budget: int = 10_000
) -> TriBool:
    """Tri-valued form equality in the presented monoid.

    Yes carries a rewrite chain; No carries either a structural reason or a
    separating homomorphism; both replay.
    """
    if f == g:
        return yes(witness=[])
    s = _saturation(p, memo=False)
    p = s.p
    if not p.relations:
        return no(note="free presentation: distinct forms differ")
    if p.finite_forms_rigid and not f.is_infinite and not g.is_infinite:
        return no(note="finite forms are rigid under these relations")
    if p.class_preserving and (f.is_infinite != g.is_infinite):
        return no(note="rewrites preserve the finite/infinite class")

    # bounded congruence saturation, breadth-first, shortest chain first
    coord_cap = (
        max(
            p.max_finite_coord * 2,
            *(c.n for c in (f.a, f.b, g.a, g.b) if c.is_finite),
            4,
        )
        + 2 * TCAP
        + 8
    )
    rules = s.rules()
    memo = s.succ_memo
    seen = {f: None}
    queue = deque([f])
    expanded = 0
    pruned = False
    while queue and expanded < budget:
        cur = queue.popleft()
        expanded += 1
        was_pruned = pruned
        succs = memo.get(cur) if memo is not None else None
        if succs is None:
            succs, lossy = _successors(rules, cur, g)
            succs.sort(key=lambda e: e[0].sort_key())
            if lossy:
                pruned = True
            elif memo is not None:
                memo[cur] = succs
        for succ, step in succs:
            if any(c.is_finite and c.n > coord_cap for c in (succ.a, succ.b)):
                pruned = True
                continue
            if succ in seen:
                continue
            seen[succ] = (cur, step)
            if succ == g:
                chain = []
                node = succ
                while seen[node] is not None:
                    prev, st = seen[node]
                    chain.append((prev, st, node))
                    node = prev
                chain.reverse()
                assert replay_chain(p, f, g, chain)
                return yes(witness=chain)
            queue.append(succ)
        if pruned and not was_pruned:
            # a pruned search can no longer exhaust the class, and every
            # rewrite keeps the images under respecting homomorphisms and
            # the normal forms, so either one that separates f from g
            # settles the answer now; equal normal forms leave the search
            # to find the Yes chain
            sep = _separate(s, f, g, budget)
            if sep is not None:
                return sep
    if not pruned:
        if not queue:
            # the whole equivalence class was enumerated and g is not in it
            return no(note="equivalence class exhausted without reaching the target")
        sep = _separate(s, f, g, budget)  # not yet tried: nothing was pruned
        if sep is not None:
            return sep
    return unknown(note=f"saturation budget {budget} exhausted")


# -- divisor-closed membership --------------------------------------------------


_T_GRID = tuple(Form(a, b) for a in _T_COORDS for b in _T_COORDS)  # slack forms


def in_add(
    p: TwoGenPresentation, target: Form, base: Form, budget: int = 10_000
) -> TriBool:
    """Is target a summand of some finite multiple of base?"""
    if target.is_zero:
        return yes(witness=(0, FORM_ZERO, []))
    s = _saturation(p)
    p = s.p
    # exact closed forms first: a coordinate the multiples of base never
    # cover (zero there, or finite where target is infinite) is fatal when
    # nothing rewrites, and when n*base stays a rigid finite form
    if any(
        (base.coeff(i).is_zero and not target.coeff(i).is_zero)
        or (target.coeff(i).is_infinite and not base.coeff(i).is_infinite)
        for i in (1, 2)
    ):
        if not p.relations:
            return no(note="free presentation: a coordinate can never be covered")
        if p.finite_forms_rigid and p.class_preserving and not base.is_infinite:
            return no(note="rigid finite multiples cannot absorb the target")

    per_try = max(200, budget // (NCAP * 8))
    mult = FORM_ZERO
    for n in range(NCAP + 1):
        for t in _T_GRID:
            r = forms_equal(s, target + t, mult, per_try)
            if r.is_yes:
                return yes(witness=(n, t, r.witness))
        mult = mult + base

    # homomorphism obstruction: some respecting hom sends target outside
    # every multiple of base
    for tgt, va, vb in s.homs():
        pt = _apply_hom(tgt, va, vb, target)
        pb = _apply_hom(tgt, va, vb, base)
        if tgt.finite_multiple_leq(pb, pt).is_no:
            return no(witness=(tgt.name, va, vb), note="homomorphism obstruction")
    return unknown(note=f"no witness with n <= {NCAP}")


# -- condition reports ----------------------------------------------------------


@dataclass
class ConditionStatus:
    name: str
    status: str  # "holds" | "violated" | "unknown"
    exact: bool = False
    witness: Any = None
    detail: str = ""

    def line(self) -> str:
        tag = {"holds": "OK  ", "violated": "FAIL", "unknown": "??  "}[self.status]
        extra = " (exact)" if self.exact and self.status != "unknown" else ""
        w = f" witness={self.witness}" if self.witness is not None else ""
        d = f" [{self.detail}]" if self.detail else ""
        return f"{tag} {self.name}{extra}{w}{d}"


@dataclass
class RealizabilityReport:
    verdict: TriBool
    conditions: list[ConditionStatus] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        lines += [c.line() for c in self.conditions]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)

    def condition(self, name: str) -> Optional[ConditionStatus]:
        for c in self.conditions:
            if c.name == name:
                return c
        return None


def _cyclic_witness(s: _Saturation, cap: int) -> tuple:
    """("cyclic", i, j, beta) when X_i = beta*X_j, else ("undecided", i, j)
    for the first pair whose completion hit its cap, else ("non-cyclic",).
    The elimination normal form of X_i names the least beta, or shows that
    there is none."""
    for i, j in ((1, 2), (2, 1)):
        r = s.multiple_of(gen(i), j, cap)
        if r.is_yes:
            return ("cyclic", i, j, r.witness)
        if r.is_unknown:
            return ("undecided", i, j)
    return ("non-cyclic",)


def _shadow(s: _Saturation, c: int, f: Form, g: Form, cap: int, per: int) -> bool:
    """Do finite X_c coefficients k, l < cap, put in place of f's and g's,
    make them equal?  This is the finite equality that an infinite one
    f = g must reduce to."""
    put = lambda h, k: Form(fin(k), h.b) if c == 1 else Form(h.a, fin(k))
    return any(
        forms_equal(s, put(f, k), put(g, l), per).is_yes
        for k in range(cap)
        for l in range(cap)
    )


def _adds(s: _Saturation, budget: int) -> dict:
    """The answers to X1 in add(X2) and X2 in add(X1), keyed (i, j)."""
    return {(i, j): in_add(s, gen(i), gen(j), budget) for i, j in ((1, 2), (2, 1))}


def realizable_two_gen(
    p: TwoGenPresentation, budget: int = 10_000
) -> RealizabilityReport:
    """Decide realizability of the presented two-generator monoid by the
    three conditions (absorption forces divisor membership; equal infinite
    forms with incomparable generators reduce to finite equalities; no mixed
    finite/infinite element), for both generator orders."""
    s = _saturation(p)
    return _three_conditions(s, budget, lambda: _adds(s, budget))


def _three_conditions(
    s: _Saturation, budget: int, get_adds: Callable[[], dict]
) -> RealizabilityReport:
    """realizable_two_gen with the ``_adds`` answers taken from ``get_adds()``,
    which is called only once the presentation is not known to be cyclic."""
    rep = RealizabilityReport(verdict=unknown())
    cap = max(200, budget // 24)  # critical pairs per completion
    kind, *pair = _cyclic_witness(s, cap)
    if kind == "cyclic":
        ci, cj, cbeta = pair
        rep.notes.append(
            f"presentation is cyclic: X{ci} = {cbeta}*X{cj};"
            " using the one-generator criterion"
        )
        rep.conditions.append(
            ConditionStatus("non-cyclic", "violated", True, (ci, cj, cbeta))
        )
        # cyclic criterion: realizable iff aleph0*x != n*x for every finite
        # n.  Past the structural test, the least multiple of x in the class
        # of aleph0*x, read under the elimination order that named cbeta, is
        # the least such n if it is finite
        if s.p.class_preserving:
            least, detail = ALEPH0, "rewrites preserve finiteness, so aleph0*x != n*x"
        else:
            least, detail = s.multiple_of(gen(cj).scale(ALEPH0), cj, cap).witness, ""
        if least.is_finite:
            rep.verdict = no(witness=least.n, note=f"aleph0*x = {least.n}*x")
            rep.conditions.append(ConditionStatus("cyclic-criterion", "violated", True, least.n))
        else:
            rep.verdict = yes(note="cyclic with aleph0*x distinct from all n*x")
            rep.conditions.append(ConditionStatus("cyclic-criterion", "holds", True, detail=detail))
        return rep
    if kind == "undecided":
        rep.notes.append(
            "non-cyclicity unverified (X{} vs multiples of X{} undecided)".format(*pair)
        )
    else:
        rep.conditions.append(ConditionStatus("non-cyclic", "holds", True))

    per = max(200, budget // 64)

    # (iii) no element with both finite and infinite forms
    if s.p.class_preserving:
        rep.conditions.append(
            ConditionStatus(
                "(iii) finite/infinite separation",
                "holds",
                True,
                detail="all rewrites preserve the finiteness class",
            )
        )
    else:
        grid_fin = (Form(fin(a), fin(b)) for a in range(NCAP + 1) for b in range(NCAP + 1))
        grid_inf = [f for f in _T_GRID if f.is_infinite]
        clash = next(
            (
                (ff, gg)
                for ff in grid_fin
                for gg in grid_inf
                if forms_equal(s, ff, gg, per).is_yes
            ),
            None,
        )
        if clash:
            rep.conditions.append(
                ConditionStatus(
                    "(iii) finite/infinite separation", "violated", True, clash
                )
            )
        else:
            rep.conditions.append(
                ConditionStatus(
                    "(iii) finite/infinite separation",
                    "unknown",
                    detail="no clash on the grid; no preservation argument",
                )
            )

    adds = get_adds()

    for i, j in ((1, 2), (2, 1)):
        inf_j = gen(j).scale(ALEPH0)
        both_inf = gen(i).scale(ALEPH0) + inf_j
        at = lambda n: gen(i).scale(fin(n)) + inf_j  # n*x_i + w*x_j

        # (i): n*x_i + w*x_j = w*x_i + w*x_j for some n forces absorption
        # and membership.  The premise is upward closed in n (x_i + w_i =
        # w_i), and a form F without w_i in the class of w_i + w_j gives
        # F + w_j = a*x_i + w_j in it too, a being F's x_i exponent.  So
        # the normal form of w_i + w_j under an order comparing (w_i, x_i)
        # first is without w_i exactly when the premise holds for some n,
        # and its x_i exponent is the least such n.
        name_i = f"(i) i={i},j={j}"
        rules = s.completion((i + 1, i - 1), cap)
        if not rules:
            status = ConditionStatus(name_i, "unknown", detail=f"completion cap {cap} reached")
        elif (nf := normal_form(rules, both_inf.exponents))[i + 1]:
            status = ConditionStatus(name_i, "holds", True, detail="premise fails for every n")
        else:
            n = nf[i - 1]
            absorbs = normal_form(rules, inf_j.exponents) == nf  # w_j = w_i + w_j
            member = adds[(i, j)]
            if absorbs and member.is_yes:
                status = ConditionStatus(name_i, "holds", True, n)
            elif not absorbs or member.is_no:
                status = ConditionStatus(
                    name_i,
                    "violated",
                    True,
                    n,
                    detail=(
                        "absorption fails"
                        if not absorbs
                        else f"X{i} not a summand of multiples of X{j}"
                    ),
                )
            else:
                status = ConditionStatus(name_i, "unknown", detail="conclusion undecided")
        rep.conditions.append(status)

        # (ii): with x_i outside add(x_j), equal infinite forms reduce to a
        # finite equality
        name_ii = f"(ii) i={i},j={j}"
        if adds[(i, j)].is_yes:
            rep.conditions.append(
                ConditionStatus(
                    name_ii, "holds", True, detail="vacuous: X{} in add(X{})".format(i, j)
                )
            )
            continue
        if adds[(i, j)].is_unknown:
            rep.conditions.append(
                ConditionStatus(name_ii, "unknown", detail="add membership undecided")
            )
            continue
        unmatched = next(
            (
                (mth, nth)
                for mth in range(NCAP + 1)
                for nth in range(mth + 1, NCAP + 1)
                if forms_equal(s, at(mth), at(nth), per).is_yes
                and not _shadow(s, j, at(mth), at(nth), NCAP + 1, per)
            ),
            None,
        )
        if unmatched is not None:
            status = ConditionStatus(
                name_ii,
                "violated",
                s.p.finite_forms_rigid and s.p.class_preserving,
                unmatched,
                detail="no finite equality matches the infinite one",
            )
        else:
            # no range-independence argument is available for the premises
            # of (ii) beyond the free case
            exact = not s.p.relations
            status = ConditionStatus(
                name_ii,
                "holds",
                exact,
                detail="checked premises on the range" if not exact else "",
            )
        rep.conditions.append(status)

    violated = [c for c in rep.conditions if c.status == "violated" and c.exact]
    und = [c for c in rep.conditions if c.status == "unknown" or not c.exact]
    if violated:
        rep.verdict = no(witness=[c.name for c in violated])
    elif not und and kind == "non-cyclic":
        rep.verdict = yes()
    else:
        rep.verdict = unknown(
            note="; ".join(c.name for c in und) or "range-limited arguments"
        )
    return rep


def corollary_checks(p: TwoGenPresentation, budget: int = 10_000) -> RealizabilityReport:
    """Classify the presentation by how the generators' divisor-closed
    submonoids relate, evaluate the case-specific equivalents, and
    cross-check agreement with the main decider where both decide."""
    s = _saturation(p)
    adds = _adds(s, budget)
    rep = _corollary_cases(s, budget, adds)
    main = _three_conditions(s, budget, lambda: adds)
    if rep.verdict.decided and main.verdict.decided:
        agree = rep.verdict.kind == main.verdict.kind
        rep.conditions.append(
            ConditionStatus(
                "cross-check against the three-condition decider",
                "holds" if agree else "violated",
                True,
                None if agree else (rep.verdict.kind, main.verdict.kind),
            )
        )
        if not agree:
            rep.verdict = unknown(note="case analysis and decider disagree")
    elif main.verdict.decided and not rep.verdict.decided:
        rep.notes.append(
            f"three-condition decider: {main.verdict} (case analysis undecided)"
        )
    return rep


def _corollary_cases(s: _Saturation, budget: int, adds: dict) -> RealizabilityReport:
    rep = RealizabilityReport(verdict=unknown())
    a12, a21 = adds[(1, 2)], adds[(2, 1)]
    per = max(200, budget // 64)
    rep.notes.append(f"X1 in add(X2): {a12}; X2 in add(X1): {a21}")

    if not a12.decided or not a21.decided:
        rep.notes.append("classification undecided")
        return rep

    if a12.is_no and a21.is_no:
        rep.notes.append("case: incomparable generators")
        coeffs = [fin(k) for k in range(4)] + [ALEPH0]
        # equal forms must agree on X_i's finiteness, and an infinite
        # equality must reduce to a finite one
        witness = next(
            (
                (i, j, f1, f2)
                for i, j in ((1, 2), (2, 1))
                for f1, f2 in itertools.product(
                    [gen(i).scale(a) + gen(j).scale(b) for a in coeffs for b in coeffs],
                    repeat=2,
                )
                if forms_equal(s, f1, f2, per).is_yes
                and (
                    f1.coeff(i).is_finite != f2.coeff(i).is_finite
                    or (f1.coeff(i).is_infinite and not _shadow(s, i, f1, f2, 4, per))
                )
            ),
            None,
        )
        ok = witness is None
        exact = not s.p.relations
        rep.conditions.append(
            ConditionStatus(
                "incomparable case: coefficient classes align",
                "holds" if ok else "violated",
                exact or not ok,
                witness,
            )
        )
        rep.verdict = yes() if ok and exact else (no(witness=witness) if not ok else unknown())
    elif a12.is_yes and a21.is_yes:
        rep.notes.append("case: add(X1) = add(X2)")
        pats = [Form(ALEPH0, ZERO), Form(ZERO, ALEPH0), Form(ALEPH0, ALEPH0)]
        uniq = all(
            forms_equal(s, f1, f2, per).is_yes
            for f1, f2 in itertools.combinations(pats, 2)
        )
        rep.conditions.append(
            ConditionStatus(
                "equal-adds case: unique infinite element",
                "holds" if uniq else "unknown",
                False,
                detail="infinite patterns collapse" if uniq else "",
            )
        )
        sep = s.p.class_preserving
        rep.conditions.append(
            ConditionStatus(
                "equal-adds case: no finite/infinite clash",
                "holds" if sep else "unknown",
                sep,
            )
        )
        if uniq and sep:
            rep.verdict = yes(
                note="realizable with every non-finitely-generated projective free"
            )
    else:
        i, j = (1, 2) if a12.is_yes else (2, 1)
        rep.notes.append(f"case: X{i} in add(X{j}) only")
        big = gen(j).scale(ALEPH0)
        # aleph0 x_j absorbs every multiple of x_i
        absorb = all(
            forms_equal(s, big + gen(i).scale(b), big, per).is_yes
            for b in [fin(1), fin(2), ALEPH0]
        )
        rep.conditions.append(
            ConditionStatus(
                "one-sided case: absorption into the big multiple",
                "holds" if absorb else "unknown",
                False,
            )
        )
        # aleph0 x_i + n x_j = aleph0 x_i + beta x_j needs a finite beta and
        # a finite equality to reduce to
        at = lambda b: gen(i).scale(ALEPH0) + gen(j).scale(b)  # w*x_i + b*x_j
        witness = next(
            (
                (nn, beta)
                for nn in range(3)
                for beta in [fin(k) for k in range(3)] + [ALEPH0]
                if forms_equal(s, at(fin(nn)), at(beta), per).is_yes
                and (beta.is_infinite or not _shadow(s, i, at(beta), at(fin(nn)), 4, per))
            ),
            None,
        )
        ok = witness is None
        sep = s.p.class_preserving
        rep.conditions.append(
            ConditionStatus(
                "one-sided case: infinite equalities reduce and classes separate",
                "holds" if (ok and sep) else ("violated" if not ok else "unknown"),
                False,
                witness,
            )
        )
    return rep


# -- the presented monoid as a summation structure ------------------------------


class TwoGenMonoid(KappaMonoid):
    """The presented monoid with forms as element representatives and
    three-valued equality."""

    def __init__(self, p: TwoGenPresentation, budget: int = 2000):
        super().__init__(at_most(ALEPH0))
        self.p = p
        self.budget = budget
        self.name = f"twogen({len(p.relations)} rels)"

    @property
    def zero(self) -> Form:
        return FORM_ZERO

    def raw_ksum(self, fam: Family) -> Form:
        a = card_sum((f.a, mult) for f, mult in fam)
        b = card_sum((f.b, mult) for f, mult in fam)
        return Form(a, b)

    def eq(self, x: Form, y: Form) -> TriBool:
        return forms_equal(self.p, x, y, self.budget)

    def sub(self, x: Form, y: Form) -> Optional[Form]:
        da = card_sub_least(x.a, y.a)
        db = card_sub_least(x.b, y.b)
        if da is not None and db is not None:
            return Form(da, db)
        s = _saturation(self.p)
        for t in _T_GRID:
            if forms_equal(s, y + t, x, self.budget).is_yes:
                return t
        return None

    def leq(self, a: Form, b: Form) -> TriBool:
        """Yes with a complement from ``sub``; without one, No only for the
        free monoid, since a relation may need a slack off the grid."""
        c = self.sub(b, a)
        if c is not None:
            return yes(witness=c)
        return unknown(note="no complement on the slack grid") if self.p.relations else no()

    def sample_element(self, rng) -> Form:
        coords = [fin(k) for k in range(4)] + [ALEPH0]
        return Form(coords[draw(rng, len(coords))], coords[draw(rng, len(coords))])
