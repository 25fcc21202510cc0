"""Command-line front end.

Exit codes: 0 = yes/pass, 1 = no/fail, 2 = unknown, 3 = usage or parse error,
4 = internal error.  All output is deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .braiding import braid_find, verify
from .cardinals import ALEPH0, at_most, below
from .core import KappaMonoid
from .diophantine import (
    DEFAULT_RADIUS,
    DioMonoid,
    aleph0_extend_finite,
    decompose,
    recombine,
    universal_extend,
)
from .dsl import (
    parse_card,
    parse_certificate,
    parse_family,
    parse_monoid,
    parse_presentation,
    parse_vec,
    render_certificate,
    render_monoid,
)
from .errors import KmonError, ParseError, PreconditionError
from .gallery import HNPPredicate
from .laws import check_axioms
from .presentations import corollary_checks, realizable_two_gen
from .tribool import TriBool

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class Report:
    def __init__(self, command: str, fmt: str):
        self.command = command
        self.fmt = fmt
        self.lines: list[str] = []
        self.data: dict = {"command": command}

    def say(self, text: str, **fields):
        self.lines.append(text)
        self.data.update(fields)

    def emit(self, exit_code: int) -> int:
        self.data["exit"] = exit_code
        if self.fmt == "json":
            print(json.dumps(self.data, sort_keys=True, default=str))
        else:
            for ln in self.lines:
                print(ln)
        return exit_code


def _tri_exit(t: TriBool) -> int:
    return {"yes": EXIT_YES, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}[t.kind]


def _verdict(rep: Report, t: TriBool, **fields) -> int:
    rep.say(f"verdict: {t}", verdict=t.kind, note=t.note, **fields)
    return rep.emit(_tri_exit(t))


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str, command: Optional[str]):
        super().__init__(message)
        self.parser, self.message, self.command = parser, message, command


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting, so that ``run`` reports them
    in the requested output format."""

    def error(self, message: str):
        # a subcommand's parser is named "kmon <subcommand>"
        raise _UsageError(self, message, self.prog.partition(" ")[2] or None)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _usage_error(e: _UsageError, argv: list[str]) -> int:
    sniff = _Parser(add_help=False)
    _add_format(sniff)
    try:
        fmt = sniff.parse_known_args(argv)[0].format
    except _UsageError:
        fmt = "text"
    if fmt != "json":
        try:
            argparse.ArgumentParser.error(e.parser, e.message)
        except SystemExit:
            return EXIT_USAGE
    rep = Report(e.command, fmt)
    rep.say(f"error: {e.message}", error=e.message)
    return rep.emit(EXIT_USAGE)


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser tree of a process: argparse keeps no state between
    parses, and building the 16 parsers costs more than most commands."""
    def options(*names: str, **kw) -> argparse.ArgumentParser:
        """A parent parser holding ``names``, each added with ``kw``."""
        parent = argparse.ArgumentParser(add_help=False)
        for name in names:
            parent.add_argument(name, **kw)
        return parent

    common = argparse.ArgumentParser(add_help=False)
    _add_format(common)
    kappa = options("--kappa", default="aleph3", help="summation bound, e.g. aleph2")
    budget = options("--budget", type=_at_least(1), default=10_000, help="search steps")
    monoid = options("--monoid", required=True)
    vec = options("--vec", required=True)
    pair = options("--x", "--y", required=True)

    ap = _Parser(
        prog="kmon",
        description="decision procedures for monoids with infinite summation",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name: str, help: str, run, *parents: argparse.ArgumentParser):
        s = sub.add_parser(name, help=help, parents=[common, *parents])
        s.set_defaults(run=run)
        return s

    add("member", "constraint-system membership", _cmd_member, kappa, monoid, vec)

    s = add("extend", "universal extension of a countable system", _cmd_extend, monoid)
    s.add_argument("--to", required=True)
    s.add_argument("--vec")

    add("decompose", "split a member into level parts", _cmd_decompose, kappa, monoid, vec)

    s = add("braid-check", "verify a braiding certificate", _cmd_braid_check, kappa, monoid, pair)
    s.add_argument("--cert", required=True, help="certificate text or @file")
    s.add_argument("--lam", default="aleph0")

    s = add(
        "braid-find", "search for a braiding certificate", _cmd_braid_find,
        kappa, budget, monoid, pair,
    )
    s.add_argument("--lam", default="aleph0")

    s = add("realizable2", "two-generator realizability", _cmd_realizable2, budget)
    s.add_argument("--pres", required=True)
    s.add_argument("--corollary", action="store_true", help="case-by-case report")

    s = add("axioms", "randomized law check for a monoid", _cmd_axioms, kappa, monoid)
    s.add_argument("--samples", type=_at_least(1), default=500)
    s.add_argument("--seed", type=int, default=0)

    s = add("gallery-eval", "evaluate a family sum in a monoid", _cmd_gallery_eval, kappa, monoid)
    s.add_argument("--fam", required=True)

    s = add("aleph0-extend", "membership in H + aleph0*H", _cmd_aleph0_extend, monoid, vec)
    s.add_argument("--radius", type=_at_least(0), default=DEFAULT_RADIUS, help="enumeration cap")

    return ap


def _monoid(args, kind: type | tuple = KappaMonoid, bound=None):
    """The --monoid of a subcommand, summed at ``bound`` (default: at most
    --kappa); a precondition error unless it is a ``kind``.  An hnp(c=...)
    predicate is no monoid, and only member reads it."""
    m = parse_monoid(args.monoid, at_most(parse_card(args.kappa)) if bound is None else bound)
    if not isinstance(m, kind):
        what = {
            KappaMonoid: "a monoid; hnp(c=...) is read only by member",
            DioMonoid: "a constraint-defined monoid",
            (DioMonoid, HNPPredicate): "a constraint-defined monoid or hnp(c=...)",
        }[kind]
        raise PreconditionError(f"{args.cmd} requires {what}")
    return m


def _cmd_member(args, rep: Report) -> int:
    m = _monoid(args, (DioMonoid, HNPPredicate))
    v = parse_vec(args.vec)
    ok = m.member(v)
    rep.say(
        f"{v} is {'a member' if ok else 'not a member'} of {args.monoid.strip()}",
        member=ok,
        vec=str(v),
    )
    return rep.emit(EXIT_YES if ok else EXIT_NO)


def _cmd_extend(args, rep: Report) -> int:
    m = _monoid(args, DioMonoid, at_most(ALEPH0))
    big = universal_extend(m, parse_card(args.to))
    if args.vec:
        v = parse_vec(args.vec)
        ok = big.member(v)  # a bad vector raises here, before anything is reported
    rep.say(
        f"universal extension at {args.to}: {big.system} over bound {big.bound}",
        system=str(big.system),
        bound=str(big.bound),
    )
    if args.vec:
        rep.say(f"{v} member: {ok}", member=ok)
        return rep.emit(EXIT_YES if ok else EXIT_NO)
    return rep.emit(EXIT_YES)


def _cmd_decompose(args, rep: Report) -> int:
    m = _monoid(args, DioMonoid)
    v = parse_vec(args.vec)
    if not m.member(v):
        rep.say(f"{v} is not a member", member=False)
        return rep.emit(EXIT_NO)
    beta, gammas = decompose(m, v)
    rep.say(f"beta = {beta}", beta=str(beta))
    gout = {}
    for lam in sorted(gammas, key=lambda c: c.sort_key()):
        rep.say(f"gamma[{lam}] = {gammas[lam]}")
        gout[str(lam)] = str(gammas[lam])
    ok = recombine(beta, gammas) == v
    rep.say(f"recombination exact: {ok}", gammas=gout, recombines=ok)
    return rep.emit(EXIT_YES if ok else EXIT_INTERNAL)


def _cmd_braid_check(args, rep: Report) -> int:
    m = _monoid(args)
    x = parse_family(args.x, m)
    y = parse_family(args.y, m)
    text = args.cert
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    cert = parse_certificate(text, m)
    r = verify(m, x, y, cert, parse_card(args.lam))
    if r.is_yes:
        a, b = m.ksum(x), m.ksum(y)
        rep.say(f"telescope: {a} = {b}", telescope=str(a))
    return _verdict(rep, r)


def _cmd_braid_find(args, rep: Report) -> int:
    m = _monoid(args)
    x = parse_family(args.x, m)
    y = parse_family(args.y, m)
    lam = parse_card(args.lam)
    r = braid_find(m, x, y, lam, args.budget)
    if r.is_yes:
        text = render_certificate(r.witness, lam)
        rep.say(text, certificate=text)
    else:
        rep.say(f"reason: {r.note}", reason=r.note)
    return _verdict(rep, r)


def _cmd_realizable2(args, rep: Report) -> int:
    p = parse_presentation(args.pres)
    result = (
        corollary_checks(p, args.budget)
        if args.corollary
        else realizable_two_gen(p, args.budget)
    )
    rep.say(
        result.render(),
        conditions=[
            {"name": c.name, "status": c.status, "exact": c.exact, "witness": c.witness_text}
            for c in result.conditions
        ],
        notes=result.notes,
        verdict=result.verdict.kind,
    )
    return rep.emit(_tri_exit(result.verdict))


def _cmd_axioms(args, rep: Report) -> int:
    m = _monoid(args)
    report = check_axioms(m, samples=args.samples, seed=args.seed)
    rep.say(report.render(), monoid=m.name, all_passed=report.all_passed)
    return rep.emit(EXIT_YES if report.all_passed else EXIT_NO)


def _cmd_gallery_eval(args, rep: Report) -> int:
    m = _monoid(args)
    fam = parse_family(args.fam, m)
    val = m.ksum(fam)
    rep.say(f"{render_monoid(m)}: fam {fam} = {val}", value=str(val))
    return rep.emit(EXIT_YES)


def _cmd_aleph0_extend(args, rep: Report) -> int:
    m = _monoid(args, DioMonoid, below(ALEPH0))
    v = parse_vec(args.vec)
    ext = aleph0_extend_finite(m, args.radius)
    r = ext.member(v)
    rep.say(f"{v} in H + aleph0*H: {r}", vec=str(v))
    return _verdict(rep, r)


def run(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args, extra = ap.parse_known_args(argv)
        if extra:
            raise _UsageError(ap, f"unrecognized arguments: {' '.join(extra)}", args.cmd)
    except _UsageError as e:
        return _usage_error(e, argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_YES
    rep = Report(args.cmd, args.format)
    try:
        return args.run(args, rep)
    except ParseError as e:
        rep.say(f"parse error at {e.line}:{e.col}: {e.message}", error=str(e))
        return rep.emit(EXIT_USAGE)
    except (KmonError, ValueError) as e:
        rep.say(f"error: {e}", error=str(e))
        return rep.emit(EXIT_USAGE)
    except Exception as e:  # pragma: no cover - internal failures
        # the type too: a MemoryError, for one, has an empty message
        error = f"{type(e).__name__}: {e}"
        rep.say(f"internal error: {error}", error=error)
        return rep.emit(EXIT_INTERNAL)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
