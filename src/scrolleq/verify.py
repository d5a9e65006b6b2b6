"""Verification engine: symbolic identities and finite-field variety comparison.

Two independent routes establish that the constructed defining system cuts
out exactly the scroll:

* symbolically, over the integers: every generator (and every minor) reduces
  to the zero polynomial under the scroll parametrization
  ``x[i][j] -> u[i] * s^(n_i - j) * t^j``, a weight generator through each of
  its bridges; each bridge vanishes under the same substitution and collapses
  to a power of a 2 x 2 determinant when the block scales are dropped; and the
  three-term relation among the minors of a generic 2 x d matrix holds
  identically;
* exhaustively, over a small prime field: every projective point satisfying
  the defining system also satisfies all minors, checked on canonical
  representatives (first nonzero coordinate normalized to 1) of every point
  whose blocks each lie on the cone cut out by the block's own equations.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence, TypeAlias

from .polyring import (
    GF,
    VAR_S,
    VAR_T,
    VAR_V,
    VAR_W,
    VAR_Z,
    ZZ,
    Polynomial,
    Substitution,
    VarId,
    _Packing,
    _raw_poly,
    binomial_row,
    monomial,
    t_var,
    u_var,
    x_var,
)
from .scroll import (
    EquationSet,
    ScrollProfile,
    bridge,
    equation_set,
    term_bound,
)

DEFAULT_BUDGET = 10**8

# A generator as the walk evaluates it: the sum of each polynomial over GF(q)
# raised to its power.  A weight generator is its group's bridges with their
# balancing powers, so it is never expanded; any other is one polynomial.  The
# alias is a string: subscripting typing.Sequence caches its arguments for the
# life of the process, which would keep every imported copy of Polynomial.
Summands: TypeAlias = "Sequence[tuple[Polynomial, int]]"


class BudgetExceededError(RuntimeError):
    """Enumeration or construction would exceed the budget."""

    def __init__(
        self, estimate: int, budget: int, work: str = "enumeration",
        unit: str = "generator evaluations",
    ):
        super().__init__(f"{work} needs an estimated {estimate} {unit}, budget is {budget}")
        self.estimate = estimate
        self.budget = budget


def check_construction_budget(eqset: EquationSet, budget: int) -> None:
    """Refuse, before any weight generator is expanded, an equation set whose
    weight generators may together have more terms than the budget."""
    estimate = sum(term_bound(g) for g in eqset.groups)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget, "construction", "weight-generator terms")


# ---------------------------------------------------------------------------
# Symbolic checks
# ---------------------------------------------------------------------------


def _curve_images(
    block: int, n: int, s: VarId, t: VarId, scale: VarId | None = None
) -> dict[VarId, Polynomial]:
    """The images x[block][j] -> [scale *] s^(n - j) * t^j for j = 0..n, which
    put the block on the cone over the rational normal curve of degree n.
    Each is one monomial, built sorted and without zero exponents."""
    lead = () if scale is None else ((scale, 1),)
    return {
        x_var(block, j): _raw_poly(ZZ, {
            tuple(sorted(lead + tuple((v, e) for v, e in ((s, n - j), (t, j)) if e))): 1
        })
        for j in range(n + 1)
    }


def scroll_param_map(profile: ScrollProfile) -> dict[VarId, Polynomial]:
    """The scroll parametrization: x[i][j] -> u[i] * s^(n_i - j) * t^j."""
    images: dict[VarId, Polynomial] = {}
    for i, ni in enumerate(profile.n, start=1):
        images.update(_curve_images(i, ni, VAR_S, VAR_T, u_var(i)))
    return images


@dataclass(frozen=True)
class GeneratorCheck:
    label: str
    ok: bool
    residual: str = ""


@dataclass(frozen=True)
class ParamReport:
    profile: tuple[int, ...]
    checks: tuple[GeneratorCheck, ...]
    bridges: Mapping[tuple[int, int], bool]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[GeneratorCheck]:
        return [c for c in self.checks if not c.ok]


def check_parametrization(
    profile: ScrollProfile, eqset: EquationSet | None = None
) -> ParamReport:
    """Verify that every system generator and every minor vanishes identically
    under the scroll parametrization, by exact substitution over Z.

    A weight generator is a sum of powers of its bridges, so it vanishes when
    every one of its bridges does; the report keeps each bridge's verdict by
    pair, and the generator is never expanded.  The parametrization is
    prepared once, for the degree bound of each kind: i + 1 for the i-th
    curve equation, the group degree for a bridge and 2 for a minor.  Its
    images are single terms, so ``Substitution.vanishes`` checks each
    polynomial by packed keys; only one that fails is mapped, for its residual.
    """
    eqset = eqset if eqset is not None else equation_set(profile)
    degree = max([2] + [j + 1 for _, j, _ in eqset.curve_gens] + [g.degree for g in eqset.groups])
    param = Substitution(scroll_param_map(profile), ZZ, degree)
    vanished = {pair: param.vanishes(br) for pair, br in eqset.bridges.items()}
    entries = (
        [(label, [(p, param.vanishes(p))]) for label, p in eqset.labeled_curves()]
        + [(f"weight[{g.k}]", [(eqset.bridges[ij], vanished[ij]) for ij in g.pairs])
           for g in eqset.groups]
        + [(label, [(p, param.vanishes(p))]) for label, p in eqset.labeled_minors()]
    )
    checks = []
    for label, polys in entries:
        residuals = [str(param(p)) for p, ok in polys if not ok]
        checks.append(GeneratorCheck(label, not residuals, "; ".join(residuals)))
    return ParamReport(profile.n, tuple(checks), vanished)


def check_bridge_scroll_vanishing(a: int, b: int, i=1, j=2, br=None) -> tuple[bool, Polynomial]:
    """A bridge vanishes when both blocks are parametrized over one base point.

    Substitutes x[i][c] -> u[i]*s^(a-c)*t^c and x[j][h] -> v*s^(b-h)*t^h into
    the bridge ``br`` on blocks (i, j), built when not given; returns
    (vanished, residual).
    """
    br = bridge(a, b, i, j) if br is None else br
    images = {
        **_curve_images(i, a, VAR_S, VAR_T, u_var(i)),
        **_curve_images(j, b, VAR_S, VAR_T, VAR_V),
    }
    residual = br.substitute(images)
    return residual.is_zero(), residual


def check_bridge_determinant_power(a: int, b: int, i=1, j=2, br=None) -> bool:
    """On a product of two coordinate curves a bridge is a determinant power.

    Substituting x[i][c] -> s^(a-c)*t^c and x[j][h] -> z^(b-h)*w^h into the
    bridge ``br`` on blocks (i, j), built when not given, must give exactly
    (t*z - s*w)^m with m = lcm(a, b), compared as the sum over k of
    row[k] * (t*z)^(m-k) * (s*w)^k with row = ``binomial_row(m)``.  The row
    is checked first: row[0] = 1 and (k + 1) * row[k + 1] = -(m - k) * row[k]
    fix it, so a wrong row cannot agree with a bridge built from it.
    """
    br = bridge(a, b, i, j) if br is None else br
    images = {**_curve_images(i, a, VAR_S, VAR_T), **_curve_images(j, b, VAR_Z, VAR_W)}
    lhs = br.substitute(images)
    m = math.lcm(a, b)
    row = binomial_row(m)
    if len(row) != m + 1 or row[0] != 1 or any(
        (k + 1) * row[k + 1] != -(m - k) * row[k] for k in range(m)
    ):
        return False
    s, t, z, w = (Polynomial.variable(v, ZZ) for v in (VAR_S, VAR_T, VAR_Z, VAR_W))
    tz, sw = (next(iter(f.terms)) for f in (t * z, s * w))
    expansion = {monomial([(v, e * (m - k)) for v, e in tz] + [(v, e * k) for v, e in sw]): c
                 for k, c in enumerate(row)}
    return lhs.terms == expansion


def generic_minor(i: int, j: int) -> Polynomial:
    """Column-(i, j) minor t[i]*u[j] - u[i]*t[j] of the generic 2 x d matrix."""
    return Polynomial(ZZ, {((t_var(i), 1), (u_var(j), 1)): 1, ((u_var(i), 1), (t_var(j), 1)): -1})


def plucker_identity(d: int) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """Exact three-term relation among the 2 x 2 minors of a generic 2 x d matrix.

    For every quadruple a < i < j < b <= d the combination
    m(i,j)*m(a,b) - m(a,j)*m(i,b) + m(a,i)*m(j,b) must expand to zero.
    Vacuously true for d < 4, where nothing is built.  The minors are packed
    once, in one packing, and each quadruple sums three packed products.
    """
    if d < 4:
        return True, []
    m = {pair: generic_minor(*pair) for pair in itertools.combinations(range(1, d + 1), 2)}
    bound = 2 * max(f.total_degree() for f in m.values())  # any exponent of a product
    packing = _Packing({v for f in m.values() for v in f.variables()}, bound)
    packed = {pair: packing.pack(f.terms).items() for pair, f in m.items()}
    failures = []
    for a, i, j, b in itertools.combinations(range(1, d + 1), 4):
        combo: dict[int, int] = {}
        for sign, x, y in ((1, (i, j), (a, b)), (-1, (a, j), (i, b)), (1, (a, i), (j, b))):
            for (kx, cx), (ky, cy) in itertools.product(packed[x], packed[y]):
                combo[kx + ky] = combo.get(kx + ky, 0) + sign * cx * cy
        if any(combo.values()):
            failures.append((a, i, j, b))
    return not failures, failures


# ---------------------------------------------------------------------------
# Finite-field enumeration
# ---------------------------------------------------------------------------


def _flat(summands: Summands, index: Mapping[VarId, int]) -> tuple:
    """A generator as the walk evaluates it: per summand, its terms as
    (coefficient, coordinate indices, each repeated by its exponent), and
    its power."""
    return tuple(
        (tuple((int(c), tuple(index[v] for v, e in mono for _ in range(e)))
               for mono, c in poly.terms.items()), power)
        for poly, power in summands
    )


def _vanishes(gens: Sequence[tuple], x: Sequence[int], q: int) -> bool:
    """Whether every flat generator is 0 mod q at the coordinates ``x``."""
    for gen in gens:
        total = 0
        for terms, power in gen:
            acc = 0
            for c, idx in terms:
                for i in idx:
                    c *= x[i]
                acc += c
            total += acc if power == 1 else pow(acc, power, q)
        if total % q:
            return False
    return True


def _walk(
    levels: Sequence[tuple], system: Sequence[Summands], minors: Sequence[Summands],
    size: int, q: int,
) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Walk depth first over the canonical points (first nonzero coordinate
    1) of the product of the levels' cones; return (nodes, system hits,
    minor hits), the hits sorted flat coordinate tuples.

    A level is the variables it sets and its cone's leading-1
    representatives, each flagged as on the system and on the minors, or
    None for a bare coordinate, whose cone is GF(q).  A generator is
    evaluated at the first level where all its variables are set, and a
    prefix is pruned once it is off both.  The leaves plus the
    candidates under every pruned prefix must be the ``size`` candidates,
    or the walk raises AssertionError.  Its stack is a list, not the
    interpreter's, so the recursion limit does not bound its depth.
    """
    spans, level_at, index, true = [], [], {}, itertools.repeat(True)
    for depth, (vs, reps) in enumerate(levels, start=1):
        zero = ((0,) * len(vs), True, True)
        if reps is None:  # q may be as large as the budget, so GF(q) is made as it is walked
            reps, high = [((1,), True, True)], lambda: zip(zip(range(q)), true, true)
        else:
            cone = [(tuple(c * y % q for y in r), s, m) for c in range(1, q) for r, s, m in reps]
            high = sorted([zero, *cone]).__iter__
        low, cone_size = [zero, *reps].__iter__, 1 + (q - 1) * len(reps)
        spans.append((len(index), len(index) + len(vs), low, high, cone_size))
        index.update((v, len(level_at) + k) for k, v in enumerate(vs))
        level_at += [depth] * len(vs)
    at = ([[] for _ in range(len(levels) + 1)], [[] for _ in range(len(levels) + 1)])
    for depths, gens in zip(at, (system, minors)):
        for summands in gens:
            gen = _flat(summands, index)
            tops = [max(idx) for terms, _ in gen for _, idx in terms if idx]
            depths[level_at[max(tops)] if tops else 1].append(gen)
    # The candidates under a nonzero prefix of each depth; under the zero
    # prefix there are (full - 1)/(q - 1), one per line through zero.
    full = [1]
    for *_, cone_size in reversed(spans):
        full.insert(0, cone_size * full[0])
    x = [0] * len(index)
    leaves = []
    nodes = pruned = 0
    stack = [(spans[0][2](), True, True, False)]
    while stack:
        choices, on_system, on_minors, lead = stack[-1]
        depth = len(stack)
        start, stop, *_ = spans[depth - 1]
        system_at, minors_at = at[0][depth], at[1][depth]
        for values, s, m in choices:
            nodes += 1
            x[start:stop] = values
            s = s and on_system and (not system_at or _vanishes(system_at, x, q))
            m = m and on_minors and (not minors_at or _vanishes(minors_at, x, q))
            led = lead or any(values)
            if not (s or m):
                pruned += full[depth] if led else (full[depth] - 1) // (q - 1)
            elif depth < len(spans):
                stack.append((spans[depth][3 if led else 2](), s, m, led))
                break
            elif led:
                leaves.append((tuple(x), s, m))
        else:
            stack.pop()
    if len(leaves) + pruned != size:
        raise AssertionError(f"walk accounting mismatch: {len(leaves)} leaves and {pruned} "
                             f"pruned candidates, expected {size}")
    return nodes, sorted(p for p, s, _ in leaves if s), sorted(p for p, _, m in leaves if m)


def projective_size(n: int, q: int) -> int:
    """Number of points of projective (n-1)-space over GF(q), n coordinates."""
    return (q**n - 1) // (q - 1)


def _projective_scan(
    system: Sequence[Summands], minors: Sequence[Summands], variables: Sequence[VarId], q: int
) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The walk over all of projective space on ``variables``, one level per
    coordinate."""
    levels = [([v], None) for v in variables]
    return _walk(levels, system, minors, projective_size(len(variables), q), q)


def _check_budget(estimate: int, budget: int) -> None:
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)


def check_block_walk_budget(profile: ScrollProfile, q: int, budget: int) -> None:
    """Refuse a comparison over GF(q) whose block walks exceed the budget: a
    block's points times its n_i - 1 curve equations and C(n_i, 2) minors,
    and at least its points for a single block.  This needs the profile and
    q alone, so it can be checked before any other work."""
    least = 1 if profile.d == 1 else 0
    _check_budget(sum(projective_size(n + 1, q) * max(least, n - 1 + math.comb(n, 2))
                      for n in profile.n), budget)


# ---------------------------------------------------------------------------
# Variety comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarietyReport:
    """Point-set comparison of the defining system against the minors."""

    profile: tuple[int, ...]
    q: int
    count_j: int
    count_p: int
    witnesses: tuple[tuple[int, ...], ...]
    seed: int | None
    elapsed_ms: int
    visited: int

    @property
    def passed(self) -> bool:
        return not self.witnesses and self.count_j == self.count_p

    def to_json(self) -> dict:
        return {
            "profile": list(self.profile),
            "q": self.q,
            "count_J": self.count_j,
            "count_P": self.count_p,
            "witnesses": [list(w) for w in self.witnesses],
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }


def compare_varieties(
    profile: ScrollProfile,
    q: int,
    budget: int = DEFAULT_BUDGET,
    seed: int | None = None,
    eqset: EquationSet | None = None,
) -> VarietyReport:
    """Enumerate the zero sets of the defining system and of the minors and
    report counts plus any system-only points (expected none).

    Generators are built over Z and reduced mod q, so characteristics that
    divide bridge coefficients are probed faithfully; a weight generator is
    evaluated through its bridges, never expanded.  The minor locus is always
    contained in the system locus; the converse inclusion is the content of
    the check.

    A single block is walked over all of projective space.  With d >= 2
    blocks the comparison is block-factored, and exact: curve equations and
    within-block minors use only their block's coordinates, so each block of
    a point of either locus lies in the cone C_i = {0} u GF(q)* (Z_i u M_i)
    over their projective zero sets Z_i and M_i.  Each block with n_i >= 2
    is walked for Z_i and M_i; with n_i = 1 the cone is all of GF(q)^2.  One
    more walk covers the product of the cones.  Each stage is checked
    against the budget before it starts.
    """
    start = time.perf_counter()
    GF(q)  # refuses a q that is not prime
    eqset = eqset if eqset is not None else equation_set(profile)
    visited, in_system, in_minors = _loci(eqset, q, budget)
    minor_set = set(in_minors)
    system_set = set(in_system)
    stray = sorted(minor_set - system_set)
    if stray:
        # The minors generate an ideal containing every system generator, so
        # a minor-only point means the construction itself is broken.
        raise RuntimeError(
            f"minor locus escapes the system locus at {stray[:3]} (profile {profile})"
        )
    witnesses = tuple(sorted(system_set - minor_set))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VarietyReport(
        profile=profile.n,
        q=q,
        count_j=len(in_system),
        count_p=len(in_minors),
        witnesses=witnesses,
        seed=seed,
        elapsed_ms=elapsed_ms,
        visited=visited,
    )


def _loci(eqset: EquationSet, q: int, budget: int) -> tuple[int, list, list]:
    """(walk nodes, system locus, minor locus) over GF(q), as
    ``compare_varieties`` computes them."""
    profile = eqset.profile
    check_block_walk_budget(profile, q, budget)
    blocks = [[x_var(i, j) for j in range(ni + 1)] for i, ni in enumerate(profile.n, start=1)]
    curves = [[(p.reduce_mod(q), 1)] for _, _, p in eqset.curve_gens]
    minors = [[(p.reduce_mod(q), 1)] for p in eqset.minor_gens]
    if profile.d == 1:
        return _projective_scan(curves, minors, blocks[0], q)
    # The curve equations and within-block minors of each block, by block
    # index; a block with n_i = 1 has neither and is not scanned.
    scans: dict[int, tuple[list, list]] = {}
    for gen, (i, _, _) in zip(curves, eqset.curve_gens):
        scans.setdefault(i - 1, ([], []))[0].append(gen)
    cross = []
    for gen, p in zip(minors, eqset.minor_gens):
        at = {v.block for v in p.variables()}
        if len(at) == 1:
            scans.setdefault(at.pop() - 1, ([], []))[1].append(gen)
        else:
            cross.append(gen)
    # Each scanned block's cone representatives (Z_i u M_i), flagged as on
    # Z_i and on M_i.  The flags hold for every nonzero multiple, as those
    # polynomials are homogeneous.  A scan is reused for a block whose
    # polynomials are the same up to the block index.
    visited = 0
    by_shape: dict[tuple, list] = {}
    flagged = {}
    for i, groups in scans.items():
        slots = {v: v.slot for v in blocks[i]}
        shape = tuple(tuple(_flat(gen, slots) for gen in group) for group in groups)
        if shape not in by_shape:
            nodes, *hits = _projective_scan(*groups, blocks[i], q)
            visited += nodes
            on_z, on_m = map(set, hits)
            by_shape[shape] = [(r, r in on_z, r in on_m) for r in sorted(on_z | on_m)]
        flagged[i] = by_shape[shape]
    # A level per block cone, or per coordinate of an unscanned block.  The
    # flags stand in for the curve equations and within-block minors.
    levels = []
    for i, block in enumerate(blocks):
        levels += [(block, flagged[i])] if i in flagged else [([v], None) for v in block]
    # The canonical points of the product of the cones, one per line through
    # zero; a cone is zero and q - 1 multiples of each representative.
    cones = [q if reps is None else 1 + (q - 1) * len(reps) for _, reps in levels]
    size = (math.prod(cones) - 1) // (q - 1)
    _check_budget(size * (eqset.system_size + len(minors)), budget)
    weights = [
        [(eqset.bridges[pair].reduce_mod(q), c) for pair, c in zip(g.pairs, g.powers)]
        for g in eqset.groups
    ]
    nodes, in_system, in_minors = _walk(levels, weights, cross, size, q)
    return visited + nodes, in_system, in_minors
