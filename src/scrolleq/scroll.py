"""Construction of the polynomial families attached to a rational normal scroll.

A scroll profile is a tuple of block degrees (n_1, ..., n_d).  The scroll
lives in projective space of dimension N = sum(n_i) + d - 1 and is cut out by
the 2 x 2 minors of a 2 x sum(n_i) matrix whose block i has columns
(x[i][j], x[i][j+1]) for j = 0, ..., n_i - 1.

This module builds, over the integers:

* the minors themselves (generators of the scroll's prime ideal);
* the per-block curve equations that cut out each rational normal curve
  set-theoretically, n_i - 1 per block;
* the bridge polynomials coupling two blocks of degrees a and b: with
  m = lcm(a, b) = a*p = b*q, the bridge is the signed sum over alpha of
  C(m, alpha) times the alpha-th monomial of the descending degree-p list in
  the first block times the alpha-th monomial of the ascending degree-q list
  in the second block;
* the weight groups: the bridge on blocks (i, j) has weight i + j, and the
  bridges of one weight are combined into a single generator by raising each
  to the lcm-balancing power and summing.  One pass over the pairs lays out
  every group, with one ``bridge_meta`` per distinct degree pair per call;
* the assembled defining system: all curve equations followed by all weight
  generators, N - 2 polynomials in total (for d >= 2).  A weight generator is
  kept as its group and expanded only when it is read.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple

from .polyring import (
    NS_SCROLL,
    ZZ,
    Polynomial,
    VarId,
    _raw_poly,
    binomial_row,
)


class ScrollProfile(NamedTuple):
    """Block degrees (n_1, ..., n_d) plus the derived ambient dimension."""

    n: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.n)

    @property
    def N(self) -> int:
        return sum(self.n) + self.d - 1

    def variables(self) -> tuple[VarId, ...]:
        """All scroll variables in canonical (block-major) order."""
        return tuple(
            VarId(NS_SCROLL, i, j) for i, ni in enumerate(self.n, start=1) for j in range(ni + 1)
        )

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.n)) + ")"


def build_profile(n) -> ScrollProfile:
    """Validate block degrees and derive the ambient dimension."""
    try:
        ns = tuple(map(operator.index, n))
    except TypeError as err:
        raise ValueError(f"block degrees must be integers: {err}") from None
    if not ns:
        raise ValueError("a scroll profile needs at least one block")
    if any(v < 1 for v in ns):
        raise ValueError(f"block degrees must be positive, got {ns}")
    return ScrollProfile(ns)


# ---------------------------------------------------------------------------
# Minors
# ---------------------------------------------------------------------------


def minors_2x2(profile: ScrollProfile) -> list[Polynomial]:
    """All 2 x 2 minors of the matrix whose columns are (x[i][j], x[i][j+1]),
    block by block: for columns c1 < c2, top-left*bottom-right -
    bottom-left*top-right.

    Distinct column pairs carry distinct variable entries, so the list is
    duplicate-free, and the two monomials of a minor always differ.  The
    term without the smallest variable, top-left, prints first.  Each
    monomial is built sorted from shared ``(variable, 1)`` pairs: top-left
    < bottom-right, and bottom-left <= top-right, with equality exactly for
    adjacent columns of one block, where the product is a square.
    """
    columns = []
    for i, ni in enumerate(profile.n, start=1):
        x = [(VarId(NS_SCROLL, i, j), 1) for j in range(ni + 1)]
        columns += [(x[j], x[j + 1], ((x[j + 1][0], 2),)) for j in range(ni)]
    return [
        _raw_poly(ZZ, {(bottom1, top2) if bottom1 is not top2 else square1: -1,
                       (top1, bottom2): 1})
        for (top1, bottom1, square1), (top2, bottom2, _) in itertools.combinations(columns, 2)
    ]


# ---------------------------------------------------------------------------
# Curve equations
# ---------------------------------------------------------------------------


def curve_equation(n: int, i: int, block: int = 1) -> Polynomial:
    """The i-th curve equation of a degree-n rational normal curve block.

    The polynomial is homogeneous of degree i + 1 in x[block][0..i+1]:
    the signed binomial sum over alpha of C(i, alpha) *
    x[i+1]^(i-alpha) * x[alpha] * x[i]^alpha.  Valid for 1 <= i <= n - 1.
    The terms are built in print order, alpha = i down to 0.
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"curve equation index {i} out of range for block degree {n}")
    if block < 1:
        raise ValueError(f"block index must be positive, got {block}")
    x = [VarId(NS_SCROLL, block, j) for j in range(i + 2)]
    monos = [((x[i], i + 1),)]
    monos += [((x[k], 1), (x[i], k), (x[i + 1], i - k)) for k in range(i - 1, 0, -1)]
    monos.append(((x[0], 1), (x[i + 1], i)))
    return _raw_poly(ZZ, dict(zip(monos, binomial_row(i)[::-1])))


# ---------------------------------------------------------------------------
# Bridges
# ---------------------------------------------------------------------------


class BridgeMeta(NamedTuple):
    """Arithmetic data of a bridge: m = lcm(a, b) = a*p = b*q; degree p + q."""

    a: int
    b: int
    m: int
    p: int
    q: int

    @property
    def degree(self) -> int:
        return self.p + self.q


def bridge_meta(a: int, b: int) -> BridgeMeta:
    if a < 1 or b < 1:
        raise ValueError(f"bridge block degrees must be positive, got ({a}, {b})")
    m = math.lcm(a, b)
    return BridgeMeta(a, b, m, m // a, m // b)


def bridge(a: int, b: int, x_block: int = 1, y_block: int = 2) -> Polynomial:
    """The bridge polynomial coupling a degree-a block and a degree-b block;
    ``bridge_meta(a, b)`` gives its arithmetic.

    Term alpha (0 <= alpha <= m) is (-1)^alpha * C(m, alpha) *
    x[a-c-1]^r * x[a-c]^(p-r) * y[e]^(q-f) * y[e+1]^f with
    (c, r) = divmod(alpha, p) and (e, f) = divmod(alpha, q), x the first
    block and y the second; zero-exponent factors are left out.  The terms
    are built sorted, lower block first, with the coefficients of
    ``binomial_row(m)``, in print order: alpha ascending when the first block
    is the lower, descending when it is the higher.  The result is
    homogeneous of degree p + q, with first-block degree exactly p and
    second-block degree exactly q in every term.
    """
    meta = bridge_meta(a, b)
    if x_block == y_block or min(x_block, y_block) < 1:
        raise ValueError(f"a bridge needs distinct positive blocks, not {x_block} and {y_block}")
    p, q, m = meta.p, meta.q, meta.m
    x = [VarId(NS_SCROLL, x_block, c) for c in range(a + 1)]
    y = [VarId(NS_SCROLL, y_block, e) for e in range(b + 1)]
    xs = [((x[v - 1], r), (x[v], p - r)) if r else ((x[v], p),)
          for v in range(a, 0, -1) for r in range(p)] + [((x[0], p),)]
    ys = [((y[e], q - f), (y[e + 1], f)) if f else ((y[e], q),)
          for e in range(b) for f in range(q)] + [((y[b], q),)]
    row = binomial_row(m)
    if y_block < x_block:
        xs, ys, row = ys[::-1], xs[::-1], row[::-1]
    return _raw_poly(ZZ, {u + w: c for u, w, c in zip(xs, ys, row)})


# ---------------------------------------------------------------------------
# Weight groups and the assembled system
# ---------------------------------------------------------------------------


class WeightGroup(NamedTuple):
    """Bridges of one weight k = i + j, with the lcm-balancing powers.

    ``degree`` is the lcm of the member bridge degrees; member (i, j) is
    raised to ``powers[idx] = degree // bridge_degree`` so that all summands
    are homogeneous of the same degree.
    """

    k: int
    pairs: tuple[tuple[int, int], ...]
    metas: tuple[BridgeMeta, ...]
    degree: int
    powers: tuple[int, ...]


def weight_groups(profile: ScrollProfile) -> list[WeightGroup]:
    """Weight groups for k = 3, ..., 2d - 1, each with its pairs i < j = k - i
    in ascending i; empty for a single block.  One pass over the pairs makes
    one ``bridge_meta`` per distinct degree pair (n_i, n_j) per call."""
    n = profile.n
    known = {}
    buckets = [([], [], []) for _ in range(2 * len(n))]
    for i, a in enumerate(n, start=1):
        for j, b in enumerate(n[i:], start=i + 1):
            member = known.get((a, b))
            if member is None:
                meta = bridge_meta(a, b)
                member = known[a, b] = (meta, meta.degree)
            pairs, metas, degrees = buckets[i + j]
            pairs.append((i, j))
            metas.append(member[0])
            degrees.append(member[1])
    groups = []
    for k, (pairs, metas, degrees) in enumerate(buckets[3:], start=3):
        degree = math.lcm(*degrees)
        powers = tuple([degree // e for e in degrees])
        groups.append(WeightGroup(k, tuple(pairs), tuple(metas), degree, powers))
    return groups


def g_polynomial(bridges: dict[tuple[int, int], Polynomial], group: WeightGroup) -> Polynomial:
    """Sum of the group's bridges, looked up in ``bridges`` by pair, each
    raised to its balancing power.  The pairs are nested, i < i' < j' < j,
    so the powers share no monomial, have one degree, and print the later
    first block first: the sum concatenates their terms in that order."""
    terms = {}
    for pair, power in sorted(zip(group.pairs, group.powers), reverse=True):
        terms.update((bridges[pair] ** power).terms)
    return _raw_poly(ZZ, terms)


def term_bound(group: WeightGroup) -> int:
    """An upper bound on the terms of the group's generator, from its
    structure alone.

    A bridge has m + 1 terms, so its c-th power has at most C(m + c, c), one
    per multiset of c terms.  Each term of that power is also a monomial of
    degree p*c in the a + 1 variables of one block times one of degree q*c in
    the b + 1 variables of the other.  The generator has at most the sum over
    its bridges of the smaller count.
    """
    return sum(
        min(
            math.comb(meta.m + c, c),
            math.comb(meta.p * c + meta.a, meta.a) * math.comb(meta.q * c + meta.b, meta.b),
        )
        for meta, c in zip(group.metas, group.powers)
    )


class EquationSet(NamedTuple):
    """The assembled defining system plus the minors it is measured against.

    ``curve_gens`` holds (block, index, polynomial), ``groups`` the weight
    groups, one per weight generator, and ``bridges`` the bridge (i, j) of
    each pair i < j, in group order.  The system is curve generators in
    block-then-index order followed by weight generators in weight order; for
    d >= 2 it has exactly N - 2 members.  A weight generator is expanded from
    ``bridges`` at each read of ``weight_gens`` (or ``system()``).
    """

    profile: ScrollProfile
    curve_gens: tuple[tuple[int, int, Polynomial], ...]
    groups: tuple[WeightGroup, ...]
    bridges: dict[tuple[int, int], Polynomial]
    minor_gens: tuple[Polynomial, ...]

    @property
    def system_size(self) -> int:
        return len(self.curve_gens) + len(self.groups)

    @property
    def weight_gens(self) -> tuple[tuple[int, Polynomial], ...]:
        """(weight, expanded generator) per group, from ``bridges``."""
        return tuple((g.k, g_polynomial(self.bridges, g)) for g in self.groups)

    @property
    def claimed_arithmetic_rank(self) -> int:
        """N - 2 for d >= 2; the curve case needs n - 1 equations."""
        if self.profile.d >= 2:
            return self.profile.N - 2
        return self.profile.n[0] - 1

    def system(self) -> list[tuple[str, Polynomial]]:
        """Labeled defining system, in canonical order."""
        return [(f"curve[{i}][{j}]", p) for i, j, p in self.curve_gens] + [
            (f"weight[{k}]", p) for k, p in self.weight_gens]


def equation_set(profile: ScrollProfile) -> EquationSet:
    """Build the full defining system for a profile: its curve equations,
    weight groups, bridges and minors, with no weight generator expanded.

    For d >= 2 this emits sum(n_i) - d curve equations and 2d - 3 weight
    generators, N - 2 in total.  A single-block profile degenerates to the
    rational normal curve: only its n - 1 curve equations are emitted.
    """
    curves = []
    for i, ni in enumerate(profile.n, start=1):
        for j in range(1, ni):
            curves.append((i, j, curve_equation(ni, j, block=i)))
    groups = tuple(weight_groups(profile))
    n = profile.n
    bridges = {(i, j): bridge(n[i - 1], n[j - 1], i, j) for g in groups for i, j in g.pairs}
    return EquationSet(profile, tuple(curves), groups, bridges, tuple(minors_2x2(profile)))
