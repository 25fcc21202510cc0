"""Completion of finitely many equations between exponent vectors in N^k.

A rule ``(l, r)`` rewrites a vector ``v`` with ``l <= v`` componentwise to
``v - l + r``, and ``r`` comes before ``l`` in a term order: a well-order on
N^k that addition preserves, given by a sort key, degree-lexicographic
(``deglex``) unless the caller names another.  The rules ``complete``
returns are convergent: each vector has one normal form, the least vector
of its class, and two vectors are equal in the commutative monoid that the
equations present exactly when their normal forms agree.  Completion
terminates by Dickson's lemma; a cap on the critical pairs it adds bounds
it all the same.

``check`` replays such a negative answer without any search: the rules
decrease, every critical pair joins, every input equation joins, and the
two vectors reduce to different normal forms.  Then the rules' congruence
contains the input's, and distinct normal forms separate the two vectors in
it, whatever completion or other procedure produced the rules.
"""

from __future__ import annotations

import heapq
from operator import le
from typing import Callable, Optional

Vec = tuple  # a vector of non-negative ints
Rule = tuple  # (lhs, rhs), rhs before lhs in the term order


def deglex(v: Vec) -> tuple:
    """The sort key of the degree-lexicographic order."""
    return (sum(v), v)


def normal_form(rules, v: Vec) -> Vec:
    """The vector left once no rule applies, each rule applied as many
    times at once as its left side fits into ``v``."""
    v = tuple(v)
    reduced = True
    while reduced:
        reduced = False
        for l, r in rules:
            if all(map(le, l, v)):
                k = min(a // b for a, b in zip(v, l) if b)
                v = tuple(a + k * (c - b) for a, b, c in zip(v, l, r))
                reduced = True
    return v


def _overlap(rule1: Rule, rule2: Rule) -> tuple:
    """The two one-step rewrites of the least common multiple of the two
    left sides: their critical pair."""
    m = tuple(map(max, rule1[0], rule2[0]))
    return tuple(tuple(a - b + c for a, b, c in zip(m, l, r)) for l, r in (rule1, rule2))


def _critical_pairs(rules) -> list:
    return [_overlap(rule, other) for i, rule in enumerate(rules) for other in rules[i + 1 :]]


def _unjoined(rules, pairs) -> list:
    return [(u, v) for u, v in pairs if normal_form(rules, u) != normal_form(rules, v)]


def complete(equations, cap: int, key: Callable = deglex) -> Optional[list]:
    """A convergent rule list whose congruence is that of ``equations``, or
    None once more than ``cap`` critical pairs were added.

    Equations are taken up smallest first, by the larger side (Buchberger's
    normal strategy); each is reduced by the rules so far and, unless its
    sides meet, oriented into a new rule.  The new rule retires the rules
    whose left side it divides, whose equations are taken up again, and adds
    its critical pairs with the rest, except those with coprime left sides,
    which always join (Buchberger's first criterion).  This is fair ground
    completion under a total order, so the rules left when no equation is
    pending are convergent; right sides are normalised at the end."""
    todo: list = []

    def push(u: Vec, v: Vec) -> None:
        heapq.heappush(todo, (max(key(u), key(v)), u, v))

    for u, v in equations:
        push(u, v)
    rules: list = []
    added = 0
    while todo:
        _, u, v = heapq.heappop(todo)
        u, v = normal_form(rules, u), normal_form(rules, v)
        if u == v:
            continue
        new = (u, v) if key(u) > key(v) else (v, u)
        kept = []
        for rule in rules:
            if all(map(le, new[0], rule[0])):
                push(*rule)
            else:
                kept.append(rule)
                if any(map(min, new[0], rule[0])):
                    added += 1
                    if added > cap:
                        return None
                    push(*_overlap(new, rule))
        rules = kept + [new]
    return [(l, normal_form(rules, r)) for l, r in rules]


def check(rules, equations, u: Vec, v: Vec) -> bool:
    """Do degree-lexicographic ``rules`` prove u != v in the monoid that
    ``equations`` present?"""
    k = len(u)
    if len(v) != k or not all(
        len(l) == len(r) == k and min(l + r) >= 0 and deglex(l) > deglex(r)
        for l, r in rules
    ):
        return False
    return (
        not _unjoined(rules, _critical_pairs(rules))
        and not _unjoined(rules, equations)
        and normal_form(rules, u) != normal_form(rules, v)
    )
