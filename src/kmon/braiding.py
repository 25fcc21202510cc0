"""Braiding certificates: finite witnesses that two families interleave into
each other through a chain of shared blocks.

There is one certificate type, ``LayeredCertificate``: weighted layers, each
a chain repeated ``weight`` times.  A chain (``OmegaCertificate``) is a prefix
of blocks followed by a periodic cycle; each block consumes a chunk of both
families, of fewer than lambda elements, and threads carry elements ``u``
(shared by the two block equations) and ``v`` (passed to the next block).
A search answer has one layer per part of the level split.  Above aleph0
the relation collapses to block-sum equality: each block is a layer whose
chain is one prefix block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Optional

from .cardinals import ALEPH0, ExtCard, FIN1, aleph, card_mul, card_sum, fin
from .core import Family, KappaMonoid, sort_key
from .diophantine import ConstraintSystem, IntLattice, solutions
from .errors import PreconditionError
from .free_vectors import CardVec
from .tribool import TriBool, no, unknown, yes

DEFAULT_BUDGET = 5000
BLOCK_CAP = 8  # longest chunk per side of a DFS block
SCALE_CAP = 12  # largest multiplier the scans without integer views and the entry-carry k loop try


def canonical_family(m: KappaMonoid, fam: Family) -> Family:
    """Canonicalize elements through the monoid and drop zero entries.

    The result always equals the rebuild ``Family.of((m.canon(e), mult)
    for e, mult in fam if not m.eq(e, m.zero).is_yes)``.  When every element
    is its own ``m.canon``, the same object, and none is zero under ``m.eq``,
    the result is ``fam`` itself and nothing is rebuilt."""
    canon, eq, z = m.canon, m.eq, m.zero
    for e, _ in fam.entries:
        if canon(e) is not e or eq(e, z).is_yes:
            return Family.of([(canon(e), mult) for e, mult in fam.entries if not eq(e, z).is_yes])
    return fam


@dataclass(frozen=True)
class BraidBlock:
    iblock: Family  # chunk of the x-family
    jblock: Family  # chunk of the y-family
    u: Any
    v_next: Any


@dataclass(frozen=True)
class OmegaCertificate:
    """A chain: the prefix blocks once, then the cycle blocks aleph0 times."""

    prefix: tuple[BraidBlock, ...] = ()
    cycle: tuple[BraidBlock, ...] = ()


@dataclass(frozen=True)
class LayeredCertificate:
    layers: tuple[tuple[ExtCard, OmegaCertificate], ...]  # (weight, chain)

    @classmethod
    def of(cls, chain: OmegaCertificate) -> LayeredCertificate:
        """The certificate of one chain: a single layer of weight 1."""
        return cls(((FIN1, chain),))


def collapsed_layer(
    m: KappaMonoid, ib: Family, jb: Family, weight: ExtCard = FIN1
) -> tuple[ExtCard, OmegaCertificate]:
    """The layer for blocks ib and jb of equal sums, ``weight`` copies each:
    one prefix block with carries u = ksum(ib) and v' = 0."""
    return weight, OmegaCertificate((BraidBlock(ib, jb, m.ksum(ib), m.zero),))


# -- verification ---------------------------------------------------------------


def _oversized(chunks, lam: ExtCard) -> Optional[TriBool]:
    """No for the first chunk whose index cardinality is not below lambda:
    the one block-size rule of every layer."""
    for fam in chunks:
        size = fam.index_card()
        if not size < lam:
            return no(note=f"block size {size} not below {lam}")
    return None


def _chain_views(m: KappaMonoid, cert: LayeredCertificate) -> Optional[dict]:
    """The integer views of zero and of every block element and carry of
    ``cert``, each read once, for the integer path of ``verify``: None
    unless every one has a view of zero's length and every block
    multiplicity is finite."""
    zero = m.int_vector(m.zero)
    if zero is None:
        return None
    views = {m.zero: zero}
    for _, chain in cert.layers:
        for b in chain.prefix + chain.cycle:
            for e, mult in b.iblock.entries + b.jblock.entries:
                if mult.is_infinite:
                    return None
                views[e] = None
            views[b.u] = views[b.v_next] = None
    for x, w in views.items():
        if w is None:
            w = views[x] = m.int_vector(x)
            if w is None or len(w) != len(zero):
                return None
    return views


def _int_rest(fam: Family, views: dict, carry: tuple[int, ...]) -> tuple[int, ...]:
    """The sum of a family of finite multiplicities minus ``carry``, on
    integer views."""
    total = [-c for c in carry]
    for e, mult in fam.entries:
        n = mult.n
        for i, c in enumerate(views[e]):
            total[i] += n * c
    return tuple(total)


def _chain_check(m: KappaMonoid, cert: OmegaCertificate, views: Optional[dict]) -> TriBool:
    """Block equations, threading v through the chain; a finite chain must end
    at zero and a cycle must return to the carry it was entered with.  Every
    carry's membership is checked first.  With ``views`` (``_chain_views``)
    the equations are compared on integer vectors, else through the
    monoid's ``ksum``, ``add`` and ``eq``; the answers are the same."""
    blocks = cert.prefix + cert.cycle
    for b in blocks:
        if not m.member(b.u) or not m.member(b.v_next):
            return no(note="carry element outside the monoid", witness=b)
    seam = "cycle seam mismatch" if cert.cycle else "prefix ends with nonzero carry"
    if views is not None:
        v = entry = views[m.zero]
        for k, b in enumerate(blocks):
            if k == len(cert.prefix):
                entry = v
            u, vn = views[b.u], views[b.v_next]
            if _int_rest(b.iblock, views, v) != u or _int_rest(b.jblock, views, vn) != u:
                return _block_failure(cert, k, b)
            v = vn
        return yes() if v == entry else no(note=seam)
    v = entry = m.zero
    for k, b in enumerate(blocks):
        if k == len(cert.prefix):
            entry = v
        for fam, carry in ((b.iblock, v), (b.jblock, b.v_next)):
            r = m.eq(m.ksum(fam), m.add(carry, b.u))
            if not r.is_yes:
                return r if r.is_unknown else _block_failure(cert, k, b)
        v = b.v_next
    r = m.eq(v, entry)
    if not r.is_yes:
        return r if r.is_unknown else no(note=seam)
    return yes()


def _block_failure(cert: OmegaCertificate, k: int, b: BraidBlock) -> TriBool:
    part = "prefix" if k < len(cert.prefix) else "cycle"
    return no(note=f"{part} block equation fails", witness=b)


def _omega_uses(cert: OmegaCertificate, weight: ExtCard) -> list:
    """Consumption of a chain repeated ``weight`` times, as (side, element,
    count, weight) tuples: prefix blocks run once per copy, cycle blocks
    aleph0 times."""
    return [
        (side, e, mult, w)
        for blocks, w in ((cert.prefix, weight), (cert.cycle, card_mul(ALEPH0, weight)))
        for b in blocks
        for side, fam in enumerate((b.iblock, b.jblock))
        for e, mult in fam
    ]


def _counts_match(want: dict, got: dict) -> TriBool:
    """Match one side's consumption against its canonical family's entries,
    both as element -> multiplicity."""
    if got == want:
        return yes()
    missing = set(want) ^ set(got)
    if missing:
        return no(note=f"consumption mismatch on {sorted(map(str, missing))}")
    e = next(e for e, mult in want.items() if got[e] != mult)
    return no(note=f"consumption of {e}: {got[e]} != {want[e]}")


def _tally(m: KappaMonoid, xfam: Family, yfam: Family, uses) -> TriBool:
    """Total the (side, element, count, weight) uses, side 0 drawing on xfam
    and side 1 on yfam, and match each side against its canonical family.
    The uses of an element count for its class, and uses of zero elements
    are dropped, as ``canonical_family`` drops them from the families.  An
    element equal to an entry of the canonical family is in that entry's
    class and is not zero, so only the other elements are canonicalized and
    tested for zero."""
    totals: tuple[dict, dict] = ({}, {})
    for side, e, count, weight in uses:
        totals[side].setdefault(e, []).append((count, weight))
    canon, eq, z = m.canon, m.eq, m.zero
    for fam, tot in zip((xfam, yfam), totals):
        want = dict(canonical_family(m, fam).entries)
        classes: dict = {}
        for e, cw in tot.items():
            classes.setdefault(e if e in want else canon(e), []).extend(cw)
        got = {}
        for e, cw in classes.items():
            if e in want or not eq(e, z).is_yes:
                total = card_sum(cw)
                if not total.is_zero:
                    got[e] = total
        r = _counts_match(want, got)
        if not r.is_yes:
            return r
    return yes()


def verify(
    m: KappaMonoid,
    xfam: Family,
    yfam: Family,
    cert: LayeredCertificate,
    lam: ExtCard = ALEPH0,
) -> TriBool:
    """Check each (weight, chain) layer, repeated ``weight`` times: its block
    sizes against ``lam``, its block equations and seams; then the total
    consumption against the two families.  ``lam`` must be infinite.

    The block equations run on integer vectors when ``_chain_views`` gives
    every value of the certificate an integer view; every multiplicity is
    then finite, so no block is oversized or infinite."""
    if lam.is_finite:
        raise PreconditionError(f"lambda must be infinite, got {lam}")
    views = _chain_views(m, cert)
    uses: list = []
    for weight, layer in cert.layers:
        if weight.is_zero:
            return no(note="layer weights must be >= 1")
        if views is None:
            chunks = (f for b in layer.prefix + layer.cycle for f in (b.iblock, b.jblock))
            if (big := _oversized(chunks, lam)) is not None:
                return big
            cycle_chunks = (f for b in layer.cycle for f in (b.iblock, b.jblock))
            if any(mult.is_infinite for f in cycle_chunks for _, mult in f):
                return no(note="cycle blocks must have finite multiplicities")
        r = _chain_check(m, layer, views)
        if not r.is_yes:
            return r
        uses += _omega_uses(layer, weight)
    return _tally(m, xfam, yfam, uses)


# -- symmetry -------------------------------------------------------------------


class _Periodic:
    """An eventually periodic sequence: ``head``, then ``cycle`` repeated
    forever.  A head with no cycle is followed by ``pad`` forever."""

    def __init__(self, head, cycle, pad=None):
        self.head, self.cycle, self.pad = head, cycle, pad
        self.items = head + cycle

    def done(self, i: int) -> bool:
        return not self.cycle and i >= len(self.head)

    def fold(self, i: int) -> int:
        """Position i itself within the head; past it, the position in the
        first period at which the same periodic suffix starts."""
        h = len(self.head)
        return i if i < h else h + (i - h) % len(self.cycle)

    def __getitem__(self, i: int):
        return self.pad if self.done(i) else self.items[self.fold(i)]


def _chain(m: KappaMonoid, cert: OmegaCertificate) -> _Periodic:
    """An omega certificate's blocks, padded with empty zero-carry blocks."""
    pad = BraidBlock(Family.empty(), Family.empty(), m.zero, m.zero)
    return _Periodic(cert.prefix, cert.cycle, pad)


def _v_in(m: KappaMonoid, ch: _Periodic, mu: int):
    """The carry entering position ``mu`` of a chain."""
    return m.zero if mu == 0 else ch[mu - 1].v_next


def _flip_chain(m: KappaMonoid, cert: OmegaCertificate) -> OmegaCertificate:
    """The chain for the swapped pair, by the index shift: the new block at
    a position reuses the old j-chunk as its i-chunk and pulls the next old
    i-chunk over, with the limit position absorbing the extra block."""
    ch = _chain(m, cert)
    p_new = max(len(ch.head), 1)
    blocks = []
    for mu in range(p_new + len(ch.cycle)):
        b, nxt = ch[mu], ch[mu + 1]
        if mu == 0:
            jb, u = b.iblock.add(nxt.iblock), m.add(b.u, b.v_next)
        else:
            jb, u = nxt.iblock, b.v_next
        blocks.append(BraidBlock(b.jblock, jb, u, nxt.u))
    return OmegaCertificate(tuple(blocks[:p_new]), tuple(blocks[p_new:]))


def flip(m: KappaMonoid, cert: LayeredCertificate) -> LayeredCertificate:
    """Certificate for the swapped pair: each layer's chain flipped, its
    weight kept."""
    return LayeredCertificate(tuple((w, _flip_chain(m, chain)) for w, chain in cert.layers))


# -- composition ----------------------------------------------------------------


@dataclass
class _Super:
    """One aligned superblock: a consecutive run of each chain."""

    x: Family
    u1: Any  # merged u of the x/y chain over this run
    v1_in: Any
    z: Family
    g2: Any  # merged u of the y/z chain over this run
    h2_in: Any
    s_val: Any  # sum of the y-overshoot after this superblock
    t_val: Any  # sum of the y-shortfall closed by the next A-step, if any


def _merge_run(m: KappaMonoid, ch: _Periodic, start: int, end: int, side: str):
    """Merged ``side`` chunk and chain data of positions start..end-1."""
    chunk, u = Family.empty(), m.zero
    for mu in range(start, end):
        chunk = chunk.add(getattr(ch[mu], side))
        u = ch[mu].u if mu == start else m.add(u, m.add(_v_in(m, ch, mu), ch[mu].u))
    return chunk, u, _v_in(m, ch, start)


def _compose_walk(
    m: KappaMonoid,
    c1: _Periodic,
    c2: _Periodic,
    budget: int,
) -> Optional[_Periodic]:
    """Align the two chains along the shared middle family.

    Returns the superblocks, whose cycle is empty for the finite case; a
    periodic walk stops at the first repeated state, after the A-step that
    closes its last superblock.  None when alignment fails within the
    budget."""
    diff: dict[Any, int] = {}  # middle-family counts: chain1 minus chain2

    def bump(fam: Family, sign: int):
        for e, mult in fam:
            if mult.is_infinite:
                raise ValueError("omega chains have finite blocks")
            k = diff.get(e, 0) + sign * mult.n
            if k == 0:
                diff.pop(e, None)
            else:
                diff[e] = k

    def advance(ch: _Periodic, pos: int, side: str, sign: int) -> Optional[int]:
        """Take the ``side`` chunk at ``pos`` unless the chain is done, then
        more chunks until no middle count has sign ``-sign``; None when the
        chain ends first or the guard passes the budget."""
        if not ch.done(pos):
            bump(getattr(ch[pos], side), sign)
            pos += 1
        guard = 0
        while any(k * sign < 0 for k in diff.values()):
            if ch.done(pos):
                return None
            bump(getattr(ch[pos], side), sign)
            pos += 1
            guard += 1
            if guard > budget:
                return None
        return pos

    pos1 = pos2 = 0
    supers: list[_Super] = []
    seen: dict = {}  # state key -> superblocks before the first visit
    steps = 0
    drift_cap = 256  # incompatible consumption ratios buffer without bound

    while True:
        steps += 1
        if steps > budget:
            return None
        if sum(abs(k) for k in diff.values()) > drift_cap:
            return None  # aperiodic alignment; the caller falls back
        start = len(supers)
        if c1.done(pos1) and c2.done(pos2) and not diff:
            break
        if c1.cycle and c2.cycle and pos1 >= len(c1.head) and pos2 >= len(c2.head):
            key = (
                c1.fold(pos1),
                c2.fold(pos2),
                tuple(sorted((sort_key(e), k) for e, k in diff.items())),
            )
            start = seen.setdefault(key, start)

        # A-step: advance chain1 to cover chain2's overshoot
        s1 = pos1
        pos1 = advance(c1, pos1, "jblock", +1)
        if pos1 is None:
            return None
        if supers:
            shortfall = Family.of((e, fin(k)) for e, k in diff.items() if k > 0)
            supers[-1].t_val = m.ksum(shortfall)
        if start < len(supers):  # the state repeats: the cycle is closed
            break

        # B-step: advance chain2 to cover chain1
        s2 = pos2
        pos2 = advance(c2, pos2, "iblock", -1)
        if pos2 is None:
            return None
        overshoot = Family.of((e, fin(-k)) for e, k in diff.items() if k < 0)
        supers.append(
            _Super(
                *_merge_run(m, c1, s1, pos1, "iblock"),
                *_merge_run(m, c2, s2, pos2, "jblock"),
                s_val=m.ksum(overshoot),
                t_val=m.zero,
            )
        )
    z = m.zero
    pad = _Super(Family.empty(), z, z, Family.empty(), z, z, z, z)
    return _Periodic(supers[:start], supers[start:], pad)


def _assemble_composite(m: KappaMonoid, supers: _Periodic) -> OmegaCertificate:
    """Composite blocks: the limit block, then three superblocks per block;
    block l >= 1 reads superblocks 3l-2 to 3l+1.  Past the end of a finite
    walk of n superblocks every superblock is empty, so its blocks end at
    (n+1)//3.  A periodic walk with a head of length start repeats every
    pc = period/gcd(3, period) blocks from block ceil(start/3)+1 on, and the
    prefix is cut back to the first block from which they repeat."""
    start, period = len(supers.head), len(supers.cycle)

    def block(l: int) -> BraidBlock:
        s3, nxt = supers[3 * l], supers[3 * l + 1]
        v_next = m.add(s3.s_val, m.add(nxt.h2_in, nxt.v1_in))
        if l == 0:
            return BraidBlock(s3.x, s3.z, s3.u1, v_next)
        s1, s2 = supers[3 * l - 2], supers[3 * l - 1]
        ib = s1.x.add(s2.x).add(s3.x)
        jb = s1.z.add(s2.z).add(s3.z)
        return BraidBlock(ib, jb, m.add(s1.g2, m.add(s1.t_val, s3.u1)), v_next)

    if period == 0:
        count = (start + 1) // 3 + 1
        return OmegaCertificate(tuple(block(l) for l in range(count)), ())
    pc = period // math.gcd(3, period)
    head = -(-start // 3) + 1
    blocks = [block(l) for l in range(head + pc)]
    while head > 1 and blocks[head - 1] == blocks[head - 1 + pc]:
        head -= 1
    return OmegaCertificate(tuple(blocks[:head]), tuple(blocks[head : head + pc]))


def _compose_layers(
    m: KappaMonoid, c1: LayeredCertificate, c2: LayeredCertificate, budget: int
) -> Optional[LayeredCertificate]:
    """The composite of each pair of equal-weight layers, in order; None when
    the weights differ or a walk fails."""
    if [w for w, _ in c1.layers] != [w for w, _ in c2.layers]:
        return None
    layers = []
    for (w, chain1), (_, chain2) in zip(c1.layers, c2.layers):
        try:
            walk = _compose_walk(m, _chain(m, chain1), _chain(m, chain2), budget)
        except ValueError:
            return None
        if walk is None:
            return None
        layers.append((w, _assemble_composite(m, walk)))
    return LayeredCertificate(tuple(layers))


def compose(
    m: KappaMonoid,
    xfam: Family,
    yfam: Family,
    zfam: Family,
    cert_xy: LayeredCertificate,
    cert_yz: LayeredCertificate,
    lam: ExtCard = ALEPH0,
    budget: int = DEFAULT_BUDGET,
) -> TriBool:
    """Certificate for (xfam, zfam) from certificates through a shared middle
    family, layer by layer: the layers of equal weight are paired in order,
    and each pair of chains is aligned on the middle family, three aligned
    runs per composite block; the alignment walk gives the composite
    chain's period and prefix.  Falls back to a fresh search when the
    weights differ or the periodic structures refuse to align.

    The composite of two periodically certified braidings need not admit a
    periodic certificate at all (the two chains may consume the middle
    family in incompatible ratios); Unknown is then the honest outcome."""
    cert = _compose_layers(m, cert_xy, cert_yz, budget)
    if cert is not None and verify(m, xfam, zfam, cert, lam).is_yes:
        return yes(witness=cert)
    found = braid_find(m, xfam, zfam, lam, budget)
    if found.is_yes:
        return yes(witness=found.witness, note="via re-search")
    return unknown(note="composition alignment failed and re-search exhausted")


# -- search ---------------------------------------------------------------------


def _stream(fam: Family) -> _Periodic:
    """Eventually-periodic enumeration of a family: finite-multiplicity
    entries first (canonical order), then one copy of each aleph0-entry per
    period."""
    head, cycle = [], []
    for e, mult in fam:
        if mult.is_finite:
            head += [e] * mult.n
        else:
            cycle.append(e)
    return _Periodic(head, cycle)


def _units(m: KappaMonoid, elems: list) -> tuple[Family, Any]:
    """A chunk of single copies of ``elems`` and its sum."""
    if not elems:
        return Family.empty(), m.zero
    chunk = Family.of([(e, FIN1) for e in elems])
    return chunk, m.raw_ksum(chunk)


class _Chunks:
    """The two streams of one braid_find call and the chunks the depth-first
    search cuts from them, each built and summed once.  Both streams have a
    cycle, so a chunk is fixed by its side, its folded start and its length:
    one row of chunks per (side, folded start), indexed by length and grown
    on demand."""

    def __init__(self, m: KappaMonoid, xfam: Family, yfam: Family):
        self.m = m
        self.streams = (_stream(xfam), _stream(yfam))
        self.rows: dict = {}  # (side, folded start) -> [(chunk, sum) by length]

    def row(self, side: int, pos: int, k: int) -> list:
        """The chunks of stream ``side`` from ``pos`` and their sums, indexed
        by length, lengths 0..k at least."""
        s = self.streams[side]
        start = s.fold(pos)
        row = self.rows.get((side, start))
        if row is None:
            row = self.rows[side, start] = [_units(self.m, [])]
        while len(row) <= k:
            row.append(_units(self.m, [s[start + t] for t in range(len(row))]))
        return row

    def dfs(self, i: int, j: int, v):
        """Every block from state (i, j, v), at most BLOCK_CAP elements a
        side, in (kx, ky) order: smallest blocks first."""
        sub = self.m.sub
        irow = self.row(0, i, BLOCK_CAP)
        jrow = self.row(1, j, BLOCK_CAP)
        for kx in range(BLOCK_CAP + 1):
            ichunk, isum = irow[kx]
            u = sub(isum, v)  # need u with isum = v + u
            if u is None:
                continue
            for ky in range(kx == 0, BLOCK_CAP + 1):
                jchunk, jsum = jrow[ky]
                vn = sub(jsum, u)
                if vn is not None:
                    yield BraidBlock(ichunk, jchunk, u, vn), i + kx, j + ky, vn


def _ratio(x: tuple[int, ...], y: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """The least (a, b), a, b >= 1, with a*x = b*y, for integer vectors, or
    None.  Every solution is a multiple of the least one, which one nonzero
    coordinate of x and a gcd give, so no cap bounds it."""
    i = next((i for i, c in enumerate(x) if c), None)
    if i is None:
        return None if any(y) else (1, 1)
    if not y[i]:
        return None
    g = math.gcd(x[i], y[i])
    a, b = y[i] // g, x[i] // g
    if any(a * p != b * q for p, q in zip(x, y)):
        return None
    return a, b


def _balance(hx: tuple[int, ...], hy: tuple[int, ...], s: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """The least (kx, ky), kx first, with hx + kx*s = hy + ky*s, for integer
    vectors, or None: kx - ky is the one integer d with d*s = hy - hx, read
    off one nonzero coordinate of s (a quotient that is not exact fails that
    coordinate's check), and the least pair has a zero."""
    i = next((i for i, c in enumerate(s) if c), None)
    if i is None:
        return (0, 0) if hx == hy else None
    d = (hy[i] - hx[i]) // s[i]
    if any(p + d * c != q for p, q, c in zip(hx, hy, s)):
        return None
    return max(d, 0), max(-d, 0)


def _cycle_ratio(m: KappaMonoid, xtot: Any, ytot: Any, cap: int) -> Optional[tuple[int, int]]:
    """The least (a, b), a first, with a, b >= 1 and a*xtot = b*ytot: in
    closed form on integer vectors, else by a scan over the multiples up to
    ``cap``."""
    x, y = m.int_vector(xtot), m.int_vector(ytot)
    if x is not None and y is not None:
        return _ratio(x, y)
    ymult = functools.cache(lambda b: m.scalar(fin(b), ytot))
    for a in range(1, cap + 1):
        asum = m.scalar(fin(a), xtot)
        for b in range(1, cap + 1):
            if m.eq(asum, ymult(b)).is_yes:
                return a, b
    return None


def _prefix_balance(m: KappaMonoid, hx: Any, hy: Any, s: Any) -> Optional[tuple[int, int, Any]]:
    """The least (kx, ky), kx first, with 0 <= kx, ky <= SCALE_CAP and
    hx + kx*s = hy + ky*s, and that left-hand side, by a scan that computes
    each multiple k*s and each right-hand side once, on first use.  On
    integer views the uniform tier solves this with ``_balance`` instead."""
    mult = functools.cache(lambda k: m.scalar(fin(k), s))
    right = functools.cache(lambda ky: m.add(hy, mult(ky)))
    for kx in range(SCALE_CAP + 1):
        left = m.add(hx, mult(kx))
        for ky in range(SCALE_CAP + 1):
            if m.eq(left, right(ky)).is_yes:
                return kx, ky, left
    return None


def _count_scan(sx: _Periodic, sy: _Periodic, cap: int):
    """Positive per-value counts making one x-block sum equal one y-block
    sum, for finite vector values: the balance condition is a homogeneous
    linear system over the counts, solved by a small box scan whose first
    point is the answer."""
    vals = sx.cycle + sy.cycle
    if (
        all(isinstance(e, CardVec) for e in vals)
        and all(c.is_finite for e in vals for c in e.coords)
        and len(vals) <= 6
    ):
        dim = len(vals[0])
        kx = len(sx.cycle)
        eqs = []
        for i in range(dim):
            left = tuple(e[i].n for e in sx.cycle) + tuple(0 for _ in sy.cycle)
            right = tuple(0 for _ in sx.cycle) + tuple(f[i].n for f in sy.cycle)
            eqs.append((left, right))
        sys = ConstraintSystem.make(len(vals), equations=eqs)
        sol = next(solutions(sys, [range(1, min(cap, 8) + 1)] * len(vals)), None)
        if sol is not None:
            return (
                {e: sol[k] for k, e in enumerate(sx.cycle)},
                {f: sol[kx + k] for k, f in enumerate(sy.cycle)},
            )
    return None


class _StreamViews:
    """One read of two streams for both exact tiers: every value's integer
    view, the head totals hx and hy, the x-cycle total X, and the least
    cycle ratio (a, b) with a*X = b*Y, or None.  ``of`` gives
    None unless every value has a view, all of one length."""

    def __init__(self, view: dict, dim: int, sx: _Periodic, sy: _Periodic):
        self.view, self.dim = view, dim
        self.hx, self.hy = self.total(sx.head), self.total(sy.head)
        self.xtot = self.total(sx.cycle)
        self.ratio = _ratio(self.xtot, self.total(sy.cycle))

    @classmethod
    def of(cls, m: KappaMonoid, sx: _Periodic, sy: _Periodic) -> Optional[_StreamViews]:
        view = {e: m.int_vector(e) for e in {*sx.items, *sy.items}}
        dims = {None if w is None else len(w) for w in view.values()}
        if len(dims) != 1 or None in dims:
            return None
        return cls(view, dims.pop(), sx, sy)

    def total(self, values, counts: Optional[dict] = None) -> tuple[int, ...]:
        """The sum of ``values``, each taken ``counts[e]`` times, or once
        without ``counts``."""
        view, out = self.view, [0] * self.dim
        for e in values:
            n = 1 if counts is None else counts[e]
            for i, c in enumerate(view[e]):
                out[i] += n * c
        return tuple(out)


def _uniform_omega(
    m: KappaMonoid, sx: _Periodic, sy: _Periodic, ints: Optional[_StreamViews]
) -> Optional[OmegaCertificate]:
    """Periodic certificate from balanced whole blocks: one cycle block with
    per-value counts chosen so its two sums agree, plus one prefix block
    padding the finite heads with extra cycle copies until they balance.

    The counts are a uniform whole-cycle scaling by the cycle ratio when
    there is one, else ``_count_scan``'s.  With ``ints`` the ratio is its
    own, and ``_balance`` settles the prefix on its head totals before any
    family is built, both in closed form with no cap; without, the scans
    ``_cycle_ratio`` and ``_prefix_balance`` try multipliers up to
    SCALE_CAP on the values."""
    if ints is None:
        _, xtot = _units(m, sx.cycle)
        _, ytot = _units(m, sy.cycle)
        ab = _cycle_ratio(m, xtot, ytot, SCALE_CAP)
    else:
        ab = ints.ratio
    if ab is not None:  # uniform whole-cycle scaling
        cx, cy = {e: ab[0] for e in sx.cycle}, {f: ab[1] for f in sy.cycle}
    elif (counts := _count_scan(sx, sy, SCALE_CAP)) is not None:
        cx, cy = counts
    else:
        return None
    heads = sx.head or sy.head
    if ints is not None and heads:
        balanced = _balance(ints.hx, ints.hy, ints.total(cx, cx))
        if balanced is None:
            return None
    iblk = Family.of((e, fin(c)) for e, c in cx.items())
    jblk = Family.of((f, fin(c)) for f, c in cy.items())
    block_sum = m.raw_ksum(iblk)
    cycle_block = BraidBlock(iblk, jblk, block_sum, m.zero)
    if not heads:
        return OmegaCertificate((), (cycle_block,))
    if ints is None:
        _, hx = _units(m, sx.head)
        _, hy = _units(m, sy.head)
        balanced = _prefix_balance(m, hx, hy, block_sum)
        if balanced is None:
            return None
    kx, ky = balanced[:2]
    prefix_i = Family.of([(e, FIN1) for e in sx.head] + [(e, fin(kx * c)) for e, c in cx.items()])
    prefix_j = Family.of([(f, FIN1) for f in sy.head] + [(f, fin(ky * c)) for f, c in cy.items()])
    u = m.raw_ksum(prefix_i) if ints is not None else balanced[2]
    return OmegaCertificate((BraidBlock(prefix_i, prefix_j, u, m.zero),), (cycle_block,))


def _carry_omega(
    m: KappaMonoid, sx: _Periodic, sy: _Periodic, ints: Optional[_StreamViews]
) -> Optional[OmegaCertificate]:
    """Periodic certificate of two blocks with an entry carry c, for streams
    whose values all have integer views (``ints``) and whose cycle totals X
    and Y have a least ratio (a, b), a*X = b*Y = S.

    The cycle block takes k*a copies of each x-cycle value and k*b of each
    y-cycle value, with u = kS - c and v' = c.  The prefix block takes both
    heads plus p_e more copies of each x-cycle value e and q_f of each
    y-cycle value f, with u its x sum and v' = c; its y equation reads
    c = (hy - hx) + sum q_f*f - sum p_e*e.  Shifting every p_e by a and
    every q_f by b leaves c alone, so c ranges over the whole coset
    (hy - hx) + L of the lattice L the cycle values span.  The rule: for k
    = 1..SCALE_CAP in turn, the lexicographically least c in the box [0,
    kS] (``IntLattice.least_point``), its coefficients shifted by the least
    multiple of (a, b) that leaves no count negative; the first k whose c
    and kS - c are members (``m.sub`` finds the member differences) gives
    the chain.  None without views, without a ratio, or when no k gives
    one."""
    if ints is None or ints.ratio is None:
        return None
    a, b = ints.ratio
    s = tuple(a * c for c in ints.xtot)
    offset = tuple(q - p for p, q in zip(ints.hx, ints.hy))
    lattice = IntLattice([ints.view[e] for e in sx.cycle + sy.cycle], ints.dim)
    for k in range(1, SCALE_CAP + 1):
        found = lattice.least_point(offset, tuple(k * c for c in s))
        if found is None:
            continue
        coeffs = found[1]
        p, q = [-n for n in coeffs[: len(sx.cycle)]], coeffs[len(sx.cycle) :]
        t = max([0] + [-(n // a) for n in p] + [-(n // b) for n in q])
        prefix_i = Family.of(
            [(e, FIN1) for e in sx.head] + [(e, fin(n + t * a)) for e, n in zip(sx.cycle, p)]
        )
        prefix_j = Family.of(
            [(f, FIN1) for f in sy.head] + [(f, fin(n + t * b)) for f, n in zip(sy.cycle, q)]
        )
        iblk = Family.of((e, fin(k * a)) for e in sx.cycle)
        jblk = Family.of((f, fin(k * b)) for f in sy.cycle)
        u = m.raw_ksum(prefix_i)
        carry = m.sub(m.raw_ksum(prefix_j), u)
        rest = None if carry is None else m.sub(m.raw_ksum(iblk), carry)
        if rest is not None:
            prefix = BraidBlock(prefix_i, prefix_j, u, carry)
            return OmegaCertificate((prefix,), (BraidBlock(iblk, jblk, rest, carry),))
    return None


def _walk(chunks: _Chunks, budget: int) -> Optional[OmegaCertificate]:
    """Depth-first walk over consecutive block splits of the two streams,
    taking the blocks leaving state (i, j, v) in ``chunks.dfs`` order, one
    budget unit per state entered.  The cycle closes at the first state past
    both heads whose key repeats one on the branch."""
    sx, sy = chunks.streams
    hx, hy = len(sx.head), len(sy.head)
    # one [state key, i, j, children, block taken] per state on the branch
    stack: list[list] = []
    i, j, v = 0, 0, chunks.m.zero
    while budget > 0:
        budget -= 1
        k = (sx.fold(i), sy.fold(j), sort_key(v))
        if i >= hx and j >= hy:
            # equal folds past the heads: i - pi and j - pj are whole periods
            for cut, (pk, pi, pj, _, _) in enumerate(stack):
                if pk == k and i > pi and j > pj:
                    blocks = tuple(f[4] for f in stack)
                    return OmegaCertificate(blocks[:cut], blocks[cut:])
        stack.append([k, i, j, chunks.dfs(i, j, v), None])
        while (step := next(stack[-1][3], None)) is None:
            stack.pop()
            if not stack:
                return None
        stack[-1][4], i, j, v = step
    return None


def _finite_index(fam: Family) -> bool:
    """Is the index set of ``fam`` finite: every multiplicity finite?"""
    return all(mult.is_finite for _, mult in fam.entries)


def _aleph0_chains(m: KappaMonoid, xp: Family, yp: Family, budget: int):
    """The candidate chains of a part at aleph0, each built only once the one
    before it is rejected: the uniform and entry-carry tiers, which share
    one ``_StreamViews`` read of the streams, then the DFS."""
    chunks = _Chunks(m, xp, yp)
    ints = _StreamViews.of(m, *chunks.streams)
    yield _uniform_omega(m, *chunks.streams, ints)
    yield _carry_omega(m, *chunks.streams, ints)
    yield _walk(chunks, budget)


def _part_chain(m: KappaMonoid, xp: Family, yp: Family, lam: ExtCard, budget: int) -> TriBool:
    """One part of the level split: Yes with the first chain that ``verify``
    accepts for (xp, yp) at ``lam`` as witness.  A part above aleph0, and a
    finite part at aleph0, has one candidate, the block of
    ``collapsed_layer``; a part at aleph0 with one finite side is Unknown;
    any other part tries the candidates of ``_aleph0_chains`` in turn.
    When verify accepts none, Unknown, with verify's reason above aleph0."""
    if lam != ALEPH0 or _finite_index(xp) and _finite_index(yp):
        chains: Any = [collapsed_layer(m, xp, yp)[1]]
    elif _finite_index(xp) or _finite_index(yp):
        # a monoid that collapses infinite sums may balance such a pair
        return unknown(note="finite vs infinite form")
    else:
        chains = _aleph0_chains(m, xp, yp, budget)
    for chain in (c for c in chains if c is not None):
        r = verify(m, xp, yp, LayeredCertificate.of(chain), lam)
        if r.is_yes:
            return yes(witness=chain)
    # above aleph0 the one candidate is rejected, and verify says why
    return unknown(note=r.note if lam != ALEPH0 else f"no certificate within budget {budget}")


def _level_split(xf: Family, yf: Family, lam: ExtCard) -> list[tuple[ExtCard, Family, Family]]:
    """The one level split of a pair, as (weight, x part, y part), shaped like
    ``diophantine.decompose``'s beta + sum of lvl * gamma_lvl.  Let big be
    aleph1 at lam = aleph0 and lam above it, and cap the cardinal just below
    big.  For each multiplicity level lvl >= big, ascending, a part of weight
    lvl holds, on each side, every entry of multiplicity at least lvl, aleph0
    copies each; then, when some entry lies below big, a weight-1 part holds
    both families with every multiplicity capped at cap.  A pair with no
    level, the empty pair too, is its own weight-1 part: the two families
    themselves, which the cap leaves as they are.

    Tally: an entry of multiplicity mu is used lvl * aleph0 = lvl times by
    each level lvl <= mu, and min(mu, cap) times by the weight-1 part when
    there is one; these add up to mu, since the largest term absorbs the
    others, and an entry below big is held by the weight-1 part alone, mu
    times.  In vec(d), N0 and the dio monoids, on entries whose coordinates
    lie below big, every part has equal sums whenever the whole pair has:
    per coordinate the capped sum is min(sum, cap), and the at-least-lvl
    part records whether that coordinate reaches lvl.  So a part there can
    fail only when an aleph0 search runs out of budget."""
    big = aleph(1) if lam == ALEPH0 else lam
    both = (xf, yf)
    levels = sorted({mult for f in both for _, mult in f if big <= mult})
    if not levels:
        return [(FIN1, xf, yf)]
    cap = aleph(big.aleph_level - 1)
    parts = [
        (lvl, *(Family.of([(e, ALEPH0) for e, mult in f if lvl <= mult]) for f in both))
        for lvl in levels
    ]
    if any(mult < big for f in both for _, mult in f):
        capped = (Family.of([(e, min(mult, cap)) for e, mult in f]) for f in both)
        parts.append((FIN1, *capped))
    return parts


def braid_find(
    m: KappaMonoid,
    xfam: Family,
    yfam: Family,
    lam: ExtCard = ALEPH0,
    budget: int = DEFAULT_BUDGET,
) -> TriBool:
    """Search for a certificate.  No is returned only with a checkable
    obstruction (decided sum mismatch, or a finite form against an infinite
    one); otherwise the search is honest about exhaustion.  ``lam`` must be
    infinite.

    Every pair takes the level split, and each part gets its chain from
    ``_part_chain``, checked by ``verify`` on that part; a countable pair at
    lam = aleph0 is its own single part.  The assembled certificate is not
    checked again: by the tally identity of ``_level_split`` the parts'
    consumptions, each repeated as often as its weight, add up to the
    families.  The whole sums are equal here, and another split may succeed
    where this one fails, so a failing part gives Unknown, never No."""
    if lam.is_finite:
        raise PreconditionError(f"lambda must be infinite, got {lam}")
    xf = canonical_family(m, xfam)
    yf = canonical_family(m, yfam)
    finite = _finite_index(xf)
    if lam == ALEPH0 and finite != _finite_index(yf):
        return no(note="finite vs infinite form")
    e = m.eq(m.ksum(xf), m.ksum(yf))
    if e.is_no:
        return no(note="sums differ")
    if finite and not e.is_yes:
        return unknown(note="sum equality undecided")
    parts = _level_split(xf, yf, lam)
    layers = []
    for weight, xp, yp in parts:
        r = _part_chain(m, xp, yp, lam, budget)
        if not r.is_yes:
            if len(parts) == 1 and weight.is_finite:
                # the pair is its own part, and the note names no part
                return r
            part = f"level {weight}" if weight.is_infinite else "weight-1"
            return unknown(note=f"{part} part: {r.note}")
        layers.append((weight, r.witness))
    return yes(witness=LayeredCertificate(tuple(layers)))
