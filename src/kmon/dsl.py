"""Text formats: cardinal/vector/family literals, constraint systems,
two-generator presentations, monoid names, and certificate serialization.

One hand-rolled recursive-descent grammar (``Parser``) reads all of them,
certificates included, with line/column diagnostics; every parser has a
renderer and ``parse(render(x))`` reproduces ``x``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from .braiding import BraidBlock, LayeredCertificate, OmegaCertificate, collapsed_layer
from .cardinals import ALEPH0, FIN1, ExtCard, aleph, below, fin
from .core import CyclicExtensionMonoid, CyclicMonoid, Family, KappaMonoid
from .diophantine import ConstraintSystem, DioMonoid
from .errors import CardBoundError, DimensionError, ParseError
from .free_vectors import CardVec, VecMonoid
from .gallery import (
    INF,
    DedekindVMonoid,
    HNPPredicate,
    QPoint,
    RankClass,
    RationalLineMonoid,
    TrivialExtensionMonoid,
)
from .presentations import Form, TwoGenMonoid, TwoGenPresentation

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym><=|[(){},;:*+=/~'\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "sym" | "eof"
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise ParseError(f"unexpected character {src[i]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    out.append(Token("eof", "", line, col))
    return out


class Parser:
    """One recursive-descent grammar over one token stream.  Each rule reads
    one construct from the current token; ``whole`` requires the input to end
    after it."""

    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(f"{msg}, got {t.text!r}" if t.text else f"{msg} at end", t.line, t.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            self.fail(f"expected {text!r}")
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {kind}")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def at_ident(self, *names: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text.lower() in names

    def done(self) -> bool:
        return self.peek().kind == "eof"

    # -- shared rules ---------------------------------------------------------

    def whole(self, rule: Callable, *args):
        """``rule`` followed by the end of the input."""
        out = rule(*args)
        if not self.done():
            self.fail("trailing input")
        return out

    def word(self, name: str) -> Token:
        """The keyword ``name``, in any letter case."""
        t = self.peek()
        if t.kind != "ident" or t.text.lower() != name.lower():
            self.fail(f"expected {name!r}")
        return self.next()

    def field(self, name: str, rule: Callable, *args):
        """``name = rule``; a prime ending ``name`` (as in ``v'``) is its own token."""
        self.word(name.rstrip("'"))
        if name.endswith("'"):
            self.expect("'")
        self.expect("=")
        return rule(*args)

    def commas(self, rule: Callable, *args) -> list:
        """One or more ``rule`` separated by commas."""
        out = [rule(*args)]
        while self.at(","):
            self.next()
            out.append(rule(*args))
        return out

    def parens(self, rule: Callable, *args):
        self.expect("(")
        out = rule(*args)
        self.expect(")")
        return out

    def nat(self) -> int:
        return int(self.expect_kind("num").text)

    # -- cardinals --------------------------------------------------------

    def card(self) -> ExtCard:
        t = self.peek()
        if t.kind == "num":
            return fin(self.nat())
        if t.kind == "ident":
            low = t.text.lower()
            if low == "w":
                self.next()
                return ALEPH0
            m = re.fullmatch(r"aleph(\d+)", low)
            if m:
                self.next()
                return self._aleph(int(m.group(1)), t)
            if low == "aleph":
                self.next()
                return self._aleph(self.parens(self.nat), t)
        self.fail("expected a cardinal literal")

    def _aleph(self, level: int, tok: Token) -> ExtCard:
        try:
            return aleph(level)
        except CardBoundError as e:
            raise ParseError(str(e), tok.line, tok.col) from None

    def _fraction(self) -> Fraction:
        num = self.nat()
        if not self.at("/"):
            return Fraction(num)
        self.next()
        t = self.peek()
        den = self.nat()
        if den == 0:
            raise ParseError("zero denominator", t.line, t.col)
        return Fraction(num, den)

    # -- vectors ------------------------------------------------------------

    def vec(self) -> CardVec:
        """``(c, ...)``, or ``()`` for the length-0 vector."""
        self.expect("(")
        coords = () if self.at(")") else tuple(self.commas(self.card))
        self.expect(")")
        return CardVec(coords)

    # -- gallery elements -----------------------------------------------------

    def qpoint(self) -> QPoint:
        if self.at_ident("inf"):
            self.next()
            return QPoint(Fraction(0), "inf")
        tilde = self.at("~")
        if tilde:
            self.next()
        return QPoint(self._fraction(), "tilde" if tilde else "plain")

    def rank_class(self, d: DedekindVMonoid) -> RankClass:
        if self.at("0"):
            self.next()
            return d.zero
        t = self.expect("(")
        rank = self.card()
        cls = []
        if self.at(";"):
            self.next()
            if not self.at(")"):
                cls = self.commas(self.nat)
        self.expect(")")
        try:
            return d.elem(rank, cls or None)
        except DimensionError as e:
            raise ParseError(str(e), t.line, t.col) from None

    # -- forms ---------------------------------------------------------------

    def form(self) -> Form:
        a = b = fin(0)
        while True:
            coeff = fin(1)
            t = self.peek()
            if t.kind == "num" or self.at_ident("w") or (
                t.kind == "ident" and t.text.lower().startswith("aleph")
            ):
                coeff = self.card()
                if self.at("*"):
                    self.next()
            name = self.expect_kind("ident").text.upper()
            if name == "X1":
                a = a + coeff
            elif name == "X2":
                b = b + coeff
            else:
                self.fail("expected X1 or X2")
            if self.at("+"):
                self.next()
                continue
            break
        return Form(a, b)

    # -- families -------------------------------------------------------------

    def family(self, elem: Callable) -> Family:
        if self.at_ident("fam"):
            self.next()
        self.expect("{")
        pairs = []
        while not self.at("}"):
            e = elem()
            mult = fin(1)
            if self.at("*"):
                self.next()
                mult = self.card()
            pairs.append((e, mult))
            if self.at(","):
                self.next()
            elif not self.at("}"):
                self.fail("expected ',' or '}'")
        self.expect("}")
        return Family.of(pairs)

    # -- constraint systems -----------------------------------------------------

    def linear(self, n: int) -> tuple[int, ...]:
        coeffs = [0] * n
        while True:
            c = 1
            if self.peek().kind == "num":
                c = self.nat()
                if self.at("*"):
                    self.next()
            t = self.expect_kind("ident")
            m = re.fullmatch(r"x(\d+)", t.text.lower())
            if not m:
                raise ParseError(f"expected a variable x0..x{n-1}", t.line, t.col)
            idx = int(m.group(1))
            if idx >= n:
                raise ParseError(f"variable x{idx} outside dimension {n}", t.line, t.col)
            coeffs[idx] += c
            if self.at("+"):
                self.next()
                continue
            return tuple(coeffs)

    def dio(self) -> ConstraintSystem:
        self.word("dio")
        n = self.field("n", self.nat)
        self.expect("{")
        eqs, ineqs, congs = [], [], []
        while not self.at("}"):
            kind = self.expect_kind("ident").text.lower()
            self.expect(":")
            if kind == "eq":
                a = self.linear(n)
                self.expect("=")
                eqs.append((a, self.linear(n)))
            elif kind == "ineq":
                a = self.linear(n)
                self.expect("<=")
                ineqs.append((a, self.linear(n)))
            elif kind == "cong":
                a = self.linear(n)
                self.word("in")
                congs.append((a, self.nat()))
                self.word("N")
            else:
                self.fail("expected eq, ineq, or cong")
            self.expect(";")
        self.expect("}")
        return ConstraintSystem.make(n, eqs, ineqs, congs)

    # -- presentations -----------------------------------------------------------

    def twogen(self) -> TwoGenPresentation:
        self.word("twogen")
        self.expect("{")
        rels = []
        while not self.at("}"):
            self.word("rel")
            self.expect(":")
            l = self.form()
            self.expect("=")
            rels.append((l, self.form()))
            self.expect(";")
        self.expect("}")
        return TwoGenPresentation.of(rels)

    # -- monoids -------------------------------------------------------------------

    def monoid(self, bound=None) -> KappaMonoid:
        t = self.peek()
        if t.kind != "ident":
            self.fail("expected a monoid")
        low = t.text.lower()
        if low == "dio":
            return DioMonoid(self.dio(), bound)
        if low == "twogen":
            return TwoGenMonoid(self.twogen())
        if low not in ("n0", "cmn", "vec", "qline", "dedekind", "hnp", "trivial"):
            self.fail("expected a monoid name")
        self.next()
        if low == "n0":
            return CyclicExtensionMonoid(CyclicMonoid(), bound)
        if low == "cmn":
            self.expect("(")
            m = self.nat()
            self.expect(",")
            nn = self.nat()
            self.expect(")")
            return CyclicExtensionMonoid(CyclicMonoid(m, nn), bound)
        if low == "vec":
            return VecMonoid(self.parens(self.nat), bound)
        if low == "qline":
            return RationalLineMonoid(bound)
        if low == "dedekind":
            self.expect("(")
            if self.at_ident("g"):
                factors = self.field("g", self.commas, self.nat)
            else:
                factors = self.commas(self.nat)
            self.expect(")")
            return DedekindVMonoid(tuple(factors), bound)
        if low == "hnp":
            return HNPPredicate(self.parens(self.field, "c", self.commas, self._fraction), bound)
        return TrivialExtensionMonoid(self.parens(self.monoid, below(ALEPH0)), bound)

    # -- certificates ----------------------------------------------------------------

    def certificate(self, elem: Callable, m: KappaMonoid) -> LayeredCertificate:
        """``C`` lines, ``LAYER`` sections or one bare chain.  A ``C`` line is
        a layer whose chain is one prefix block; a bare chain is one layer of
        weight 1."""
        if self.at_ident("c"):
            blocks = partial(self.family, elem)
            records = self.records("C", ("i", blocks), ("j", blocks), ("w", self.card))
            return LayeredCertificate(tuple(collapsed_layer(m, *r) for r in records))
        if not self.at_ident("layer"):
            return LayeredCertificate.of(self.omega(elem))
        layers = []
        while self.at_ident("layer"):
            (w,) = self.record("LAYER", ("w", self.card))
            layers.append((w, self.omega(elem)))
        return LayeredCertificate(tuple(layers))

    def omega(self, elem: Callable) -> OmegaCertificate:
        """A ``PREFIX`` section, a ``CYCLE`` section or both, in that order."""
        if not self.at_ident("prefix", "cycle"):
            self.fail("expected 'PREFIX' or 'CYCLE'")
        return OmegaCertificate(self.section("PREFIX", elem), self.section("CYCLE", elem))

    def section(self, name: str, elem: Callable) -> tuple[BraidBlock, ...]:
        if not self.at_ident(name.lower()):
            return ()
        self.record(name)
        blocks = partial(self.family, elem)
        fields = (("i", blocks), ("j", blocks), ("u", elem), ("v'", elem))
        return tuple(BraidBlock(*r) for r in self.records("B", *fields))

    def records(self, word: str, *fields: tuple[str, Callable]) -> tuple[tuple, ...]:
        out = []
        while self.at_ident(word.lower()):
            out.append(self.record(word, *fields))
        return tuple(out)

    def record(self, word: str, *fields: tuple[str, Callable]) -> tuple:
        """One certificate line: ``word`` and its ``name=value`` fields, alone
        on the line.  The first token of the next line is masked by an end
        marker while the line is read, so a record cannot run past it."""
        toks, row = self.toks, self.peek().line
        stop = self.pos
        while toks[stop].kind != "eof" and toks[stop].line == row:
            stop += 1
        last = toks[stop - 1]
        saved, toks[stop] = toks[stop], Token("eof", "", row, last.col + len(last.text))
        try:
            self.word(word)
            out = tuple(self.field(name, rule) for name, rule in fields)
            if not self.done():
                self.fail("expected end of line")
        finally:
            toks[stop] = saved
        return out


# -- element parser selection -------------------------------------------------


def element_parser(p: Parser, m: KappaMonoid) -> Callable:
    if isinstance(m, TrivialExtensionMonoid):
        inner = element_parser(p, m.base)

        def elem():
            if p.at_ident("inf"):
                p.next()
                return INF
            return inner()

        return elem
    if isinstance(m, RationalLineMonoid):
        return p.qpoint
    if isinstance(m, DedekindVMonoid):
        return partial(p.rank_class, m)
    if isinstance(m, VecMonoid):  # includes DioMonoid
        return p.vec
    if isinstance(m, TwoGenMonoid):
        return partial(p.parens, p.form)
    return p.card  # cyclic extensions and anything cardinal-valued


def parse_card(src: str) -> ExtCard:
    """A cardinal literal: ``0``, ``17``, ``aleph0`` .. ``aleph3`` or
    ``aleph(K)``, any letter case; ``w`` is ``aleph0``."""
    p = Parser(src)
    return p.whole(p.card)


def parse_family(src: str, m: KappaMonoid) -> Family:
    """A family of elements of ``m``; an element that is not a member of
    ``m`` is a parse error at that element."""
    p = Parser(src)
    elem = element_parser(p, m)

    def member():
        t = p.peek()
        x = elem()
        if not m.member(x):
            raise ParseError(f"{x} is not a member of {render_monoid(m)}", t.line, t.col)
        return x

    return p.whole(p.family, member)


def parse_monoid(src: str, bound=None) -> KappaMonoid:
    p = Parser(src)
    return p.whole(p.monoid, bound)


def parse_vec(src: str) -> CardVec:
    p = Parser(src)
    return p.whole(p.vec)


def parse_presentation(src: str) -> TwoGenPresentation:
    p = Parser(src)
    return p.whole(p.twogen)


def parse_dsl(src: str):
    """Single entry point: sniff whether the text is a vector, a family (of
    cardinals or vectors), a constraint system, a presentation, or a monoid
    name, and return the corresponding value."""
    p = Parser(src)
    if p.at("("):
        return p.whole(p.vec)
    if p.at_ident("fam"):
        return p.whole(p.family, p.vec if p.peek(2).text == "(" else p.card)
    if p.at_ident("twogen"):
        return p.whole(p.twogen)
    if p.at_ident("dio"):
        return p.whole(p.dio)
    return p.whole(p.monoid)


def render_dsl(x) -> str:
    """Inverse of parse_dsl for the values it produces."""
    if isinstance(x, (KappaMonoid, HNPPredicate)):
        return render_monoid(x)
    return f"fam {x}" if isinstance(x, Family) else str(x)


# -- rendering ------------------------------------------------------------------
# Every element, cardinal, family, constraint system and presentation prints
# its own DSL text through str; a family literal adds the ``fam`` prefix.


def render_monoid(m: KappaMonoid) -> str:
    if isinstance(m, TrivialExtensionMonoid):
        return f"trivial({render_monoid(m.base)})"
    if isinstance(m, DioMonoid):
        return str(m.system)
    if isinstance(m, VecMonoid):
        return f"vec({m.n})"
    if isinstance(m, CyclicExtensionMonoid):
        return str(m.cyc)
    if isinstance(m, (RationalLineMonoid, DedekindVMonoid, HNPPredicate)):
        return m.name  # already the DSL name
    if isinstance(m, TwoGenMonoid):
        return str(m.p)
    raise TypeError(f"no renderer for {type(m).__name__}")


# -- certificates ---------------------------------------------------------------


def _render_block(b: BraidBlock) -> str:
    return f"B i={b.iblock} j={b.jblock} u={b.u} v'={b.v_next}"


def _render_chain(chain: OmegaCertificate) -> str:
    return "\n".join(
        ["PREFIX", *map(_render_block, chain.prefix), "CYCLE", *map(_render_block, chain.cycle)]
    )


def render_certificate(cert: LayeredCertificate, lam: ExtCard = ALEPH0) -> str:
    """Above aleph0 a certificate whose chains are one prefix block each
    prints as ``C`` lines; otherwise a single weight-1 layer prints as its
    bare chain, and anything else as ``LAYER`` sections."""
    layers = cert.layers
    if lam > ALEPH0 and all(len(c.prefix) == 1 and not c.cycle for _, c in layers):
        return "\n".join(f"C i={c.prefix[0].iblock} j={c.prefix[0].jblock} w={w}" for w, c in layers)
    if len(layers) == 1 and layers[0][0] == FIN1:
        return _render_chain(layers[0][1])
    return "\n".join(f"LAYER w={w}\n{_render_chain(chain)}" for w, chain in layers)


def parse_certificate(src: str, m: KappaMonoid) -> LayeredCertificate:
    """Parse the line-oriented certificate format against a monoid's element
    grammar."""
    p = Parser(src)
    return p.whole(p.certificate, element_parser(p, m), m)
