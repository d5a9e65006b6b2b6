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
from typing import Iterable, Iterator, Mapping, Sequence, TypeAlias

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
    t_var,
    u_var,
    x_var,
)
from .scroll import (
    EquationSet,
    ScrollProfile,
    bridge,
    equation_set,
    group_bridges,
    term_bound,
)

DEFAULT_BUDGET = 10**8

# A generator as the scan evaluates it: the sum of each polynomial over GF(q)
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
    put the block on the cone over the rational normal curve of degree n."""
    lead = [(scale, 1)] if scale is not None else []
    return {
        x_var(block, j): Polynomial.term(1, lead + [(s, n - j), (t, j)], ZZ)
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
    every one of its bridges does: the bridges are substituted and the
    generator is never expanded.  The parametrization is prepared once.
    """
    eqset = eqset if eqset is not None else equation_set(profile)
    entries = (
        [(label, [p]) for label, p in eqset.labeled_curves()]
        + eqset.labeled_bridges()
        + [(label, [p]) for label, p in eqset.labeled_minors()]
    )
    degree = max((p.total_degree() for _, polys in entries for p in polys), default=0)
    param = Substitution(scroll_param_map(profile), ZZ, degree)
    checks = []
    for label, polys in entries:
        residuals = [str(r) for r in map(param, polys) if not r.is_zero()]
        checks.append(GeneratorCheck(label, not residuals, "; ".join(residuals)))
    return ParamReport(profile.n, tuple(checks))


def check_bridge_scroll_vanishing(a: int, b: int) -> tuple[bool, Polynomial]:
    """A bridge vanishes when both blocks are parametrized over one base point.

    Substitutes x[1][j] -> u[1]*s^(a-j)*t^j and x[2][h] -> v*s^(b-h)*t^h into
    the bridge on blocks (1, 2); returns (vanished, residual).
    """
    _, br = bridge(a, b, 1, 2)
    images = {
        **_curve_images(1, a, VAR_S, VAR_T, u_var(1)),
        **_curve_images(2, b, VAR_S, VAR_T, VAR_V),
    }
    residual = br.substitute(images)
    return residual.is_zero(), residual


def check_bridge_determinant_power(a: int, b: int) -> bool:
    """On a product of two coordinate curves a bridge is a determinant power.

    Substituting x[1][j] -> s^(a-j)*t^j and x[2][h] -> z^(b-h)*w^h must give
    exactly (t*z - s*w)^m with m = lcm(a, b).
    """
    meta, br = bridge(a, b, 1, 2)
    images = {**_curve_images(1, a, VAR_S, VAR_T), **_curve_images(2, b, VAR_Z, VAR_W)}
    lhs = br.substitute(images)
    s, t, z, w = (Polynomial.variable(v, ZZ) for v in (VAR_S, VAR_T, VAR_Z, VAR_W))
    return lhs == (t * z - s * w) ** meta.m


def generic_minor(i: int, j: int) -> Polynomial:
    """Column-(i, j) minor t[i]*u[j] - u[i]*t[j] of the generic 2 x d matrix."""
    return Polynomial.term(1, [(t_var(i), 1), (u_var(j), 1)], ZZ) - Polynomial.term(
        1, [(u_var(i), 1), (t_var(j), 1)], ZZ
    )


def plucker_identity(d: int) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """Exact three-term relation among the 2 x 2 minors of a generic 2 x d matrix.

    For every quadruple a < i < j < b <= d the combination
    m(i,j)*m(a,b) - m(a,j)*m(i,b) + m(a,i)*m(j,b) must expand to zero.
    Vacuously true for d < 4.
    """
    failures = []
    for a, i, j, b in itertools.combinations(range(1, d + 1), 4):
        combo = (
            generic_minor(i, j) * generic_minor(a, b)
            - generic_minor(a, j) * generic_minor(i, b)
            + generic_minor(a, i) * generic_minor(j, b)
        )
        if not combo.is_zero():
            failures.append((a, i, j, b))
    return not failures, failures


# ---------------------------------------------------------------------------
# Finite-field enumeration
# ---------------------------------------------------------------------------


def _generator_source(summands: Summands, names: Mapping[VarId, str], q: int) -> str:
    """Python source for a generator's value mod q at a point whose
    coordinate v reads ``names[v]``: the sum of its polynomials, each written
    out term by term and raised to its power with ``pow(., c, q)``.  The text
    is built only from integers and generated names, never from user text."""
    parts = []
    for poly, power in summands:
        terms = []
        for mono, coeff in poly.terms.items():
            try:
                factors = [names[v] + (f"**{int(e)}" if e > 1 else "") for v, e in mono]
            except KeyError as exc:
                raise ValueError(
                    f"generator variable {exc.args[0]} is outside the ambient space"
                ) from None
            if coeff != 1 or not factors:
                factors.insert(0, str(int(coeff)))
            terms.append("*".join(factors))
        source = _sum_source(terms) if terms else "0"
        parts.append(source if power == 1 else f"pow({source}, {power}, {q})")
    return f"{_sum_source(parts)} % {q}"


def _sum_source(terms: Sequence[str]) -> str:
    # A balanced tree of "+", nested log2(len(terms)) deep.  A flat chain of
    # "+" overflows the recursion limit of CPython's compiler at a few
    # thousand terms, and sum() over a tuple costs about twice as much per
    # point on the 2- and 3-term generators that dominate a scan.
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return f"({_sum_source(terms[:mid])} + {_sum_source(terms[mid:])})"


def _tuple_source(items: Sequence[str]) -> str:
    return f"({''.join(item + ', ' for item in items)})"


def _scan(
    groups: Sequence[Sequence[Summands]],
    blocks: Sequence[Sequence[VarId]],
    points: Iterable,
    size: int,
    q: int,
) -> list[list[tuple[int, ...]]]:
    """Visit each of the ``size`` points once and return, per generator
    group, the sorted points where the whole group vanishes.

    A point holds one coordinate tuple per block, or is that tuple when there
    is one block; a hit is the flat coordinate tuple.  The pass is one
    function generated and compiled per call: one loop over ``points`` that
    tests each group as one short-circuit ``and`` of its generators.
    """
    names = {v: f"x{i}" for i, v in enumerate(v for block in blocks for v in block)}
    target = ", ".join(_tuple_source([names[v] for v in block]) for block in blocks)
    lines = ["def scan(points, hits):", "    visited = 0"]
    lines += [f"    hit{gi} = hits[{gi}].append" for gi in range(len(groups))]
    lines.append(f"    for {target} in points:")
    lines.append("        visited += 1")
    for gi, group in enumerate(groups):
        test = " and ".join(f"not {_generator_source(gen, names, q)}" for gen in group)
        lines.append(f"        if {test or 'True'}:")
        lines.append(f"            hit{gi}({_tuple_source(list(names.values()))})")
    lines.append("    return visited")
    namespace: dict = {}
    exec(compile("\n".join(lines) + "\n", "<scrolleq scan>", "exec"), namespace)
    scan = namespace["scan"]
    hits: list[list[tuple[int, ...]]] = [[] for _ in groups]
    visited = scan(points, hits)
    if visited != size:
        raise AssertionError(f"point counter mismatch: visited {visited}, expected {size}")
    return [sorted(pts) for pts in hits]


def projective_size(n: int, q: int) -> int:
    """Number of points of projective (n-1)-space over GF(q), n coordinates."""
    return (q**n - 1) // (q - 1)


def _representatives(n: int, q: int) -> Iterator[tuple[int, ...]]:
    """The canonical representatives of projective (n-1)-space over GF(q): for
    each position of the leading 1, zeros before it and GF(q) after it."""
    return itertools.chain.from_iterable(
        itertools.product(*[(0,)] * k, (1,), *[range(q)] * (n - k - 1)) for k in range(n)
    )


def _projective_scan(
    groups: Sequence[Sequence[Summands]], variables: Sequence[VarId], q: int
) -> list[list[tuple[int, ...]]]:
    """Hits per group over every representative of projective space on
    ``variables``."""
    n = len(variables)
    return _scan(groups, [variables], _representatives(n, q), projective_size(n, q), q)


def _check_budget(estimate: int, budget: int) -> None:
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)


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

    A single block is scanned over all of projective space.  With d >= 2
    blocks the scan is block-factored, and exact: curve equations and
    within-block minors use only their block's coordinates, so each block of
    a point of either locus lies in the cone C_i = {0} u GF(q)* (Z_i u M_i)
    over their projective zero sets Z_i and M_i.  Each block with n_i >= 2 is
    scanned for Z_i and M_i; with n_i = 1 the cone is all of GF(q)^2.  One
    pass then evaluates the whole system and all minors on the canonical
    points of the product of the cones.  Each stage is checked against the
    budget before it starts.
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
    """(points visited, system locus, minor locus) over GF(q), as
    ``compare_varieties`` computes them."""
    profile = eqset.profile
    blocks = [[x_var(i, j) for j in range(ni + 1)] for i, ni in enumerate(profile.n, start=1)]
    curves = [[(p.reduce_mod(q), 1)] for _, _, p in eqset.curve_gens]
    minors = [[(p.reduce_mod(q), 1)] for p in eqset.minor_gens]
    if profile.d == 1:
        size = projective_size(profile.num_vars, q)
        _check_budget(size * max(1, len(curves) + len(minors)), budget)
        return (size, *_projective_scan((curves, minors), blocks[0], q))
    # The curve equations and within-block minors of each block, by block
    # index; a block with n_i = 1 has neither and is not scanned.
    scans: dict[int, tuple[list, list]] = {}
    for gen, (i, _, _) in zip(curves, eqset.curve_gens):
        scans.setdefault(i - 1, ([], []))[0].append(gen)
    for gen, p in zip(minors, eqset.minor_gens):
        at = {v.block for v in p.variables()}
        if len(at) == 1:
            scans.setdefault(at.pop() - 1, ([], []))[1].append(gen)
    block_points = {i: projective_size(len(blocks[i]), q) for i in scans}
    work = sum(block_points[i] * (len(c) + len(m)) for i, (c, m) in scans.items())
    _check_budget(work, budget)
    # Leading-1 representatives of each block's cone: Z_i u M_i, or the
    # whole projective line, q + 1 points, for a block with n_i = 1.  The
    # cone is zero and every nonzero multiple of a representative.
    scanned = {}
    for i, groups in scans.items():
        on_curves, on_minors = _projective_scan(groups, blocks[i], q)
        scanned[i] = sorted(set(on_curves) | set(on_minors))
    d = profile.d
    counts = [len(scanned[i]) if i in scanned else q + 1 for i in range(d)]
    cone_sizes = [1 + (q - 1) * count for count in counts]
    # The canonical points of the product of the cones: the blocks before the
    # leading one are zero, the leading block is a representative and the
    # blocks after it run over their cones.
    size = sum(counts[i] * math.prod(cone_sizes[i + 1:]) for i in range(d))
    _check_budget(size * (eqset.system_size + len(minors)), budget)
    reps = [scanned[i] if i in scanned else list(_representatives(2, q)) for i in range(d)]
    cones = [
        [(0,) * len(block)] + [tuple(c * x % q for x in r) for c in range(1, q) for r in rs]
        for block, rs in zip(blocks, reps)
    ]
    zeros = [[(0,) * len(block)] for block in blocks]
    weights = [
        list(zip((b.reduce_mod(q) for b in group_bridges(profile, g)), g.powers))
        for g in eqset.groups
    ]
    points = itertools.chain.from_iterable(
        itertools.product(*zeros[:i], reps[i], *cones[i + 1:]) for i in range(d)
    )
    in_system, in_minors = _scan((curves + weights, minors), blocks, points, size, q)
    return sum(block_points.values()) + size, in_system, in_minors
