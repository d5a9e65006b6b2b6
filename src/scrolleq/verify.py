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
from typing import Mapping, NamedTuple, Sequence, TypeAlias

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
    _raw_poly,
    binomial_row,
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
    weight_groups,
)

DEFAULT_BUDGET = 10**8

# A generator as ``_flat`` takes it: the sum of each polynomial raised to its
# power.  A weight generator is its group's bridges with their balancing
# powers, so it is never expanded; any other is one polynomial.  The alias is
# a string: subscripting typing.Sequence caches its arguments for the life of
# the process, which would keep every imported copy of Polynomial.
Summands: TypeAlias = "Sequence[tuple[Polynomial, int]]"


class BudgetExceededError(RuntimeError):
    """Enumeration or construction would exceed the budget; an estimate past
    the int-to-str digit limit is printed as "more than 10^k"."""

    def __init__(
        self, estimate: int, budget: int, work: str = "enumeration",
        unit: str = "generator evaluations",
    ):
        try:
            amount = str(estimate)
        except ValueError:
            amount = f"more than 10^{(estimate.bit_length() - 1) * 3010299956 // 10**10}"
        super().__init__(f"{work} needs an estimated {amount} {unit}, budget is {budget}")
        self.estimate = estimate
        self.budget = budget


def check_construction_budget(profile: ScrollProfile, budget: int) -> None:
    """Refuse, before any bridge is built, a profile whose weight generators
    may together have more terms than the budget."""
    estimate = sum(term_bound(g) for g in weight_groups(profile))
    if estimate > budget:
        raise BudgetExceededError(estimate, budget, "construction", "weight-generator terms")


def check_curve_minor_budget(profile: ScrollProfile, budget: int) -> None:
    """Refuse a profile whose curve equations (i + 1 terms for i < n_i) and
    2-term minors have more terms than the budget: every command builds them
    at once, before any other budget check can run."""
    n = profile.n
    eager = sum((k - 1) * (k + 2) // 2 for k in n) + 2 * math.comb(sum(n), 2)
    if eager > budget:
        raise BudgetExceededError(eager, budget, "construction", "curve-equation and minor terms")


# ---------------------------------------------------------------------------
# Symbolic checks
# ---------------------------------------------------------------------------


def _curve_images(
    block: int, n: int, s: VarId, t: VarId, scale: VarId | None = None
) -> dict[VarId, Polynomial]:
    """The images x[block][j] -> [scale *] s^(n - j) * t^j for j = 0..n, which
    put the block on the cone over the rational normal curve of degree n.
    Each is one monomial, built in the variable order with no zero exponent:
    s < t, and a scale goes before s (as u[i] does) or after t (as v does)."""
    lead = () if scale is None else ((scale, 1),)
    before, after = (lead, ()) if scale is None or scale < s else ((), lead)
    return {
        x_var(block, j): _raw_poly(ZZ, {
            before + (((s, n - j), (t, j)) if 0 < j < n else ((t, n),) if j else ((s, n),))
            + after: 1
        })
        for j in range(n + 1)
    }


def scroll_param_map(profile: ScrollProfile) -> dict[VarId, Polynomial]:
    """The scroll parametrization: x[i][j] -> u[i] * s^(n_i - j) * t^j."""
    images: dict[VarId, Polynomial] = {}
    for i, ni in enumerate(profile.n, start=1):
        images.update(_curve_images(i, ni, VAR_S, VAR_T, u_var(i)))
    return images


class GeneratorCheck(NamedTuple):
    label: str
    residual: str


class ParamReport(NamedTuple):
    profile: tuple[int, ...]
    total: int
    failures: tuple[GeneratorCheck, ...]
    bridges: Mapping[tuple[int, int], bool]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_parametrization(eqset: EquationSet) -> ParamReport:
    """Verify that every generator and minor of ``eqset`` vanishes identically
    under the scroll parametrization, by exact substitution over Z.

    A weight generator is a sum of powers of its bridges, so it vanishes when
    every one of its bridges does; the report keeps each bridge's verdict by
    pair, and the generator is never expanded.  The parametrization is
    prepared once, for the degree bound of each kind: i + 1 for the i-th
    curve equation, the group degree for a bridge and 2 for a minor.  Its
    images are single terms, so ``Substitution.vanishing`` checks the curve
    equations, the bridges and the minors by packed keys, one call each.  The
    report counts every generator, but only one that fails is labeled (a
    minor ``minor[c1][c2]`` by its columns) and mapped, for its residual.
    """
    degree = max([2] + [j + 1 for _, j, _ in eqset.curve_gens] + [g.degree for g in eqset.groups])
    param = Substitution(scroll_param_map(eqset.profile), ZZ, degree)
    vanished = dict(zip(eqset.bridges, param.vanishing(eqset.bridges.values())))
    failures = [GeneratorCheck(f"curve[{i}][{j}]", str(param(p))) for (i, j, p), ok in zip(
        eqset.curve_gens, param.vanishing([p for *_, p in eqset.curve_gens])) if not ok]
    failures += [
        GeneratorCheck(f"weight[{g.k}]", "; ".join(
            [str(param(eqset.bridges[ij])) for ij in g.pairs if not vanished[ij]]))
        for g in eqset.groups if not all(vanished[ij] for ij in g.pairs)
    ]
    columns = itertools.combinations(range(sum(eqset.profile.n)), 2)
    failures += [GeneratorCheck(f"minor[{c1}][{c2}]", str(param(p))) for (c1, c2), p, ok
                 in zip(columns, eqset.minor_gens, param.vanishing(eqset.minor_gens)) if not ok]
    return ParamReport(eqset.profile.n, eqset.system_size + len(eqset.minor_gens), tuple(failures),
                       vanished)


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
    m = math.lcm(a, b)
    row = binomial_row(m)
    if len(row) != m + 1 or row[0] != 1 or any(
        (k + 1) * row[k + 1] != -(m - k) * row[k] for k in range(m)
    ):
        return False
    images = {**_curve_images(i, a, VAR_S, VAR_T), **_curve_images(j, b, VAR_Z, VAR_W)}
    lhs = br.substitute(images)
    s, t, z, w = (Polynomial.variable(v, ZZ) for v in (VAR_S, VAR_T, VAR_Z, VAR_W))
    ((vt, _), (vz, _)), ((vs, _), (vw, _)) = (next(iter(f.terms)) for f in (t * z, s * w))
    # (t*z)^(m-k) * (s*w)^k = s^k * t^(m-k) * z^(m-k) * w^k, built in the variable order.
    expansion = {((vs, k), (vt, m - k), (vz, m - k), (vw, k)): row[k] for k in range(1, m)}
    expansion.update({((vt, m), (vz, m)): row[0], ((vs, m), (vw, m)): row[m]})
    return lhs.terms == expansion


def generic_minor(i: int, j: int) -> Polynomial:
    """Column-(i, j) minor t[i]*u[j] - u[i]*t[j] of the generic 2 x d matrix,
    each term built in the variable order, u before t, and the term without
    the smaller of u[i], u[j] first; zero for i == j."""
    ui, ti, uj, tj = u_var(i), t_var(i), u_var(j), t_var(j)
    terms = [(((uj, 1), (ti, 1)), 1), (((ui, 1), (tj, 1)), -1)]
    return _raw_poly(ZZ, {} if i == j else dict(terms if i < j else terms[::-1]))


def plucker_identity(d: int) -> tuple[bool, str]:
    """Exact three-term relation among the 2 x 2 minors of a generic 2 x d matrix.

    For a < i < j < b <= d, m(i,j)*m(a,b) - m(a,j)*m(i,b) + m(a,i)*m(j,b) is
    the image of the relation at (1, 2, 3, 4) under the ring map renaming
    columns 1, 2, 3, 4 to a, i, j, b, once m(1,2) uses columns 1 and 2 alone
    and each m(i,j) is m(1,2) with them renamed to i, j; a ring map sends
    zero to zero.  Those two facts and that relation are checked in turn,
    for (ok, the first failure or "").  Vacuous, building nothing, for d < 4.
    """
    if d < 4:
        return True, ""
    base = generic_minor(1, 2)
    column = {f(k): k for f in (t_var, u_var) for k in (1, 2)}
    if stray := [v.render() for v in base.variables() if v not in column]:
        return False, f"minor (1,2) uses {', '.join(stray)}"
    m = {}  # the terms of the minors of columns 1 to 4
    for i, j in itertools.combinations(range(1, d + 1), 2):
        # Renaming keeps the variable order, so each monomial stays sorted.
        renamed = {tuple([(VarId(v.ns, v.block, (i, j)[column[v] - 1]), e) for v, e in mono]): c
                   for mono, c in base.terms.items()}
        if generic_minor(i, j).terms != renamed:
            return False, f"minor ({i},{j}) is not minor (1,2) renamed"
        if j <= 4:
            m[i, j] = renamed.items()
    products = ((1, (2, 3), (1, 4)), (-1, (1, 3), (2, 4)), (1, (1, 2), (3, 4)))
    if not Polynomial(ZZ, [(mx + my, sign * cx * cy) for sign, x, y in products
                           for (mx, cx), (my, cy) in itertools.product(m[x], m[y])]).is_zero():
        return False, "relation fails at (1,2,3,4)"
    return True, ""


# ---------------------------------------------------------------------------
# Finite-field enumeration
# ---------------------------------------------------------------------------


def _flat(summands: Summands, index: Mapping[VarId, int], q: int) -> tuple:
    """A generator as the walk evaluates it, over GF(q): per summand, its
    terms as (coefficient mod q, coordinate indices, each repeated by its
    exponent), without the terms whose coefficient q divides, and its power.
    This is the flat form of each polynomial's ``reduce_mod(q)``."""
    return tuple([
        (tuple([(r, tuple([index[v] for v, e in mono for _ in range(e)]))
                for mono, c in poly.terms.items() if (r := c % q)]), power)
        for poly, power in summands
    ])


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
    levels: Sequence[tuple], system: Sequence[tuple], minors: Sequence[tuple], size: int, q: int,
) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Walk depth first over the canonical points (first nonzero coordinate
    1) of the product of the levels' cones; return (nodes, system hits,
    minor hits), the hits sorted flat coordinate tuples.

    A level is the variables it sets and its cone's leading-1
    representatives, each flagged as on the system and on the minors, or
    None for a bare coordinate, whose cone is GF(q).  Generators are flat
    (see ``_flat``), indexed by coordinate position in level order.  Each is
    evaluated at the first level where all its variables are set, and a
    prefix is pruned once it is off both.  The leaves plus the
    candidates under every pruned prefix must be the ``size`` candidates,
    or the walk raises AssertionError.  Its stack is a list, not the
    interpreter's, so the recursion limit does not bound its depth.
    """
    spans, level_at, true = [], [], itertools.repeat(True)
    for depth, (vs, reps) in enumerate(levels, start=1):
        zero = ((0,) * len(vs), True, True)
        if reps is None:  # q may be as large as the budget, so GF(q) is made as it is walked
            reps, high = [((1,), True, True)], lambda: zip(zip(range(q)), true, true)
        else:
            cone = [(tuple(c * y % q for y in r), s, m) for c in range(1, q) for r, s, m in reps]
            high = sorted([zero, *cone]).__iter__
        low, cone_size = [zero, *reps].__iter__, 1 + (q - 1) * len(reps)
        spans.append((len(level_at), len(level_at) + len(vs), low, high, cone_size))
        level_at += [depth] * len(vs)
    at = ([[] for _ in range(len(levels) + 1)], [[] for _ in range(len(levels) + 1)])
    for depths, gens in zip(at, (system, minors)):
        for gen in gens:
            tops = [max(idx) for terms, _ in gen for _, idx in terms if idx]
            depths[level_at[max(tops)] if tops else 1].append(gen)
    # The candidates under a nonzero prefix of each depth; under the zero
    # prefix there are (full - 1)/(q - 1), one per line through zero.
    full = [1]
    for *_, cone_size in reversed(spans):
        full.insert(0, cone_size * full[0])
    x = [0] * len(level_at)
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
    system: Sequence[tuple], minors: Sequence[tuple], variables: Sequence[VarId], q: int
) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The walk over all of projective space on ``variables``, one level per
    coordinate, of flat generators indexed by position in ``variables``."""
    levels = [([v], None) for v in variables]
    return _walk(levels, system, minors, projective_size(len(variables), q), q)


def _check_budget(estimate: int, budget: int) -> None:
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)


def check_block_walk_budget(profile: ScrollProfile, q: int, budget: int) -> None:
    """Refuse a comparison over GF(q) whose block walks exceed the budget: a
    block's points times its n_i - 1 curve equations and C(n_i, 2) minors,
    and at least its points for a single block.  This needs the profile and
    q alone, so it can be checked before any other work.  A q that is not
    prime is refused first, with ValueError."""
    GF(q)
    least = 1 if profile.d == 1 else 0
    _check_budget(sum(projective_size(n + 1, q) * max(least, n - 1 + math.comb(n, 2))
                      for n in profile.n), budget)


# ---------------------------------------------------------------------------
# Variety comparison
# ---------------------------------------------------------------------------


class VarietyReport(NamedTuple):
    """Point-set comparison of the defining system against the minors."""

    profile: tuple[int, ...]
    q: int
    count_j: int
    count_p: int
    witnesses: tuple[tuple[int, ...], ...]
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
            "seed": None,  # no seed is used; the key keeps the pinned report bytes
            "elapsed_ms": self.elapsed_ms,
        }


def compare_varieties(eqset: EquationSet, q: int, budget: int = DEFAULT_BUDGET) -> VarietyReport:
    """Enumerate the zero sets of the defining system and of the minors of
    ``eqset`` and report counts plus any system-only points (expected none).

    Generators are built over Z and reduced mod q as they are flattened, so
    characteristics that divide bridge coefficients are probed faithfully; a
    weight generator is evaluated through its bridges, never expanded.  The
    minor locus is always contained in the system locus; the converse
    inclusion is the content of the check.

    A single block is walked over all of projective space.  With d >= 2
    blocks the comparison is block-factored, and exact: curve equations and
    within-block minors use only their block's coordinates, so each block of
    a point of either locus lies in the cone C_i = {0} u GF(q)* (Z_i u M_i)
    over their projective zero sets Z_i and M_i.  Each block with n_i >= 2
    is walked for Z_i and M_i, after its polynomials are checked homogeneous
    over GF(q) (ValueError if not); with n_i = 1 the cone is GF(q)^2.  One
    more walk covers the product of the cones.  Each stage is checked
    against the budget before it starts; a caller checks the block walks
    (``check_block_walk_budget``) before it builds ``eqset``, and they are
    checked here again, which refuses a q that is not prime (ValueError).
    """
    start = time.perf_counter()
    check_block_walk_budget(eqset.profile, q, budget)
    visited, in_system, in_minors = _loci(eqset, q, budget)
    minor_set = set(in_minors)
    system_set = set(in_system)
    stray = sorted(minor_set - system_set)
    if stray:
        # The minors generate an ideal containing every system generator, so
        # a minor-only point means the construction itself is broken.
        raise RuntimeError(
            f"minor locus escapes the system locus at {stray[:3]} (profile {eqset.profile})"
        )
    return VarietyReport(eqset.profile.n, q, len(in_system), len(in_minors),
                         tuple(sorted(system_set - minor_set)),
                         int((time.perf_counter() - start) * 1000), visited)


def _loci(eqset: EquationSet, q: int, budget: int) -> tuple[int, list, list]:
    """(walk nodes, system locus, minor locus) over GF(q), as
    ``compare_varieties`` computes them."""
    profile = eqset.profile
    blocks = [[x_var(i, j) for j in range(ni + 1)] for i, ni in enumerate(profile.n, start=1)]
    # The curve equations and within-block minors of each block, by block
    # index; a block with n_i = 1 has neither and is not scanned.
    scans: dict[int, tuple[list, list]] = {}
    for i, _, p in eqset.curve_gens:
        scans.setdefault(i - 1, ([], []))[0].append(p)
    cross = []
    for p in eqset.minor_gens:
        at = {v.block for v in p.variables()}
        if len(at) == 1:
            scans.setdefault(at.pop() - 1, ([], []))[1].append(p)
        else:
            cross.append(p)
    # A single block is the whole space: the one walk takes its polynomials.
    curves, minors = scans.pop(0, ([], [])) if profile.d == 1 else ([], [])
    # Each scanned block's cone representatives (Z_i u M_i), flagged as on
    # Z_i and on M_i.  The flags hold for every nonzero multiple because those
    # polynomials are checked homogeneous over GF(q).  A block's flat
    # polynomials by slot are its scan's generators and its reuse key, so a
    # scan is reused for a block whose polynomials match up to the block index.
    visited = 0
    by_shape: dict[tuple, list] = {}
    flagged = {}
    for i, groups in scans.items():
        slots = {v: v.slot for v in blocks[i]}
        shape = tuple(tuple([_flat([(p, 1)], slots, q) for p in group]) for group in groups)
        if shape not in by_shape:
            if any(len({len(idx) for _, idx in terms}) > 1 for (terms, _), in sum(shape, ())):
                raise ValueError(f"block {i + 1}: an equation is not homogeneous over GF({q})")
            nodes, *hits = _projective_scan(*shape, blocks[i], q)
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
    _check_budget(size * (eqset.system_size + len(eqset.minor_gens)), budget)
    index = {v: k for k, v in enumerate([v for vs, _ in levels for v in vs])}
    system = [_flat([(eqset.bridges[pair], c) for pair, c in zip(g.pairs, g.powers)], index, q)
              for g in eqset.groups] + [_flat([(p, 1)], index, q) for p in curves]
    nodes, in_system, in_minors = _walk(
        levels, system, [_flat([(p, 1)], index, q) for p in cross + minors], size, q)
    return visited + nodes, in_system, in_minors


# ---------------------------------------------------------------------------
# Check suite
# ---------------------------------------------------------------------------


def check_suite(
    profile: ScrollProfile, q: int | None = None, budget: int = DEFAULT_BUDGET
) -> tuple[list[tuple[str, bool, str]], VarietyReport | None]:
    """The symbolic checks, then the variety comparison over GF(q) when q is
    given, as (name, passed, detail) lines, and the comparison's report or None.

    The block walks over GF(q) depend on the profile and q alone, so they are
    refused first; then the one equation set is built, and every check and
    the comparison take it.  Each pair of blocks reports its own bridge's
    scroll vanishing.  The determinant power depends only on the block
    degrees (a, b), so it is checked once, on the first pair of blocks with
    them, and every pair with those degrees reports that verdict."""
    if q is not None:
        check_block_walk_budget(profile, q, budget)
    eqset = equation_set(profile)
    param = check_parametrization(eqset)
    lines = []
    # Renaming u[j] to v is injective, so a pair's scroll vanishing is its
    # bridge's parametrization verdict; only a failing bridge is mapped with v.
    power = {}
    for i, j in itertools.combinations(range(1, profile.d + 1), 2):
        a, b = profile.n[i - 1], profile.n[j - 1]
        br, ok = eqset.bridges[i, j], param.bridges[i, j]
        if (a, b) not in power:
            power[a, b] = check_bridge_determinant_power(a, b, i, j, br)
        residual = "" if ok else f"residual {check_bridge_scroll_vanishing(a, b, i, j, br)[1]}"
        lines.append((f"bridge-scroll-vanishing blocks ({i},{j})", ok, residual))
        lines.append((f"bridge-determinant-power blocks ({i},{j})", power[a, b], ""))
    detail = f"{param.total - len(param.failures)}/{param.total} generators vanish"
    if param.failures:
        detail += "; failing: " + ", ".join(c.label for c in param.failures[:5])
    lines.append(("parametrization-vanishing", param.passed, detail))
    lines.append((f"plucker-identity d={profile.d}", *plucker_identity(profile.d)))
    report = None
    if q is not None:
        report = compare_varieties(eqset, q, budget)
        lines.append((f"variety-comparison q={q}", report.passed, f"count_J={report.count_j} "
                      f"count_P={report.count_p} witnesses={len(report.witnesses)}"))
    return lines, report
