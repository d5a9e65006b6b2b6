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
  the defining system also satisfies all minors, checked by enumerating
  canonical representatives (first nonzero coordinate normalized to 1).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from .polyring import (
    VAR_S,
    VAR_T,
    VAR_V,
    VAR_W,
    VAR_Z,
    ZZ,
    Polynomial,
    Substitution,
    VarId,
    is_prime,
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
    residual = br.substitute(images, strict=True)
    return residual.is_zero(), residual


def check_bridge_determinant_power(a: int, b: int) -> bool:
    """On a product of two coordinate curves a bridge is a determinant power.

    Substituting x[1][j] -> s^(a-j)*t^j and x[2][h] -> z^(b-h)*w^h must give
    exactly (t*z - s*w)^m with m = lcm(a, b).
    """
    meta, br = bridge(a, b, 1, 2)
    images = {**_curve_images(1, a, VAR_S, VAR_T), **_curve_images(2, b, VAR_Z, VAR_W)}
    lhs = br.substitute(images, strict=True)
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


def _indexed_terms(
    poly: Polynomial, var_index: Mapping[VarId, int]
) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """The terms of a polynomial over GF(q) as integers: (coefficient,
    ((variable index, exponent), ...))."""
    terms = []
    for mono, coeff in poly.terms.items():
        try:
            factors = tuple((var_index[v], int(e)) for v, e in mono.exps)
        except KeyError as exc:
            raise ValueError(
                f"generator variable {exc.args[0]} is outside the ambient space"
            ) from None
        terms.append((int(coeff), factors))
    return terms


def _residue_source(
    terms: Sequence[tuple[int, tuple[tuple[int, int], ...]]], names: Sequence[str], q: int
) -> str | None:
    """Python source for the value mod q of the polynomial with these indexed
    terms, at a point whose coordinate i reads ``names[i]``: an identifier,
    or "0" or "1" for a coordinate fixed to that value.

    Terms with a factor fixed to 0 are dropped and factors fixed to 1 are
    left out; None when no term is left.  The text is built only from
    integers and generated names, never from user text.
    """
    sources = []
    for coeff, factors in terms:
        parts = []
        for i, e in factors:
            name = names[i]
            if name == "0":
                break
            if name != "1":
                parts.append(f"{name}**{e}" if e > 1 else name)
        else:
            if coeff != 1 or not parts:
                parts.insert(0, str(coeff))
            sources.append("*".join(parts))
    return f"{_sum_source(sources)} % {q}" if sources else None


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


def _compile(source: str, name: str, **env):
    namespace = dict(env)
    exec(compile(source, f"<scrolleq {name}>", "exec"), namespace)
    return namespace[name]


def _scan(
    groups: Sequence[Sequence[Polynomial]],
    variables: Sequence[VarId],
    q: int,
    budget: int,
) -> tuple[int, list[list[tuple[int, ...]]]]:
    """Visit every representative of projective space over GF(q) once and
    collect, per generator group, the points where the whole group vanishes.

    Representatives have their first nonzero coordinate equal to 1: for each
    position k of that leading 1, the coordinates after it run over all of
    GF(q).  Refuses up front when representatives times generators exceeds
    the budget.  The pass is one function generated and compiled per call:
    one loop per k, with the coordinates before k fixed to 0 and the one at
    k fixed to 1, testing each group as one short-circuit ``and`` of its
    generators.  Returns (visited, sorted hits per group).
    """
    n = len(variables)
    reps = _scan_size(n, q, sum(len(gens) for gens in groups), budget)
    var_index = {v: i for i, v in enumerate(variables)}
    indexed = [[_indexed_terms(p, var_index) for p in gens] for gens in groups]
    lines = ["def scan(hits):", "    visited = 0"]
    lines += [f"    hit{gi} = hits[{gi}].append" for gi in range(len(groups))]
    for k in range(n):
        names = ["0"] * k + ["1"] + [f"x{i}" for i in range(k + 1, n)]
        tail = ", ".join(names[k + 1:]) + "," if k + 1 < n else "_"
        lines.append(f"    for {tail} in product(range({q}), repeat={n - k - 1}):")
        lines.append("        visited += 1")
        for gi, group in enumerate(indexed):
            sources = (_residue_source(terms, names, q) for terms in group)
            test = " and ".join(f"not {s}" for s in sources if s is not None)
            lines.append(f"        if {test or 'True'}:")
            lines.append(f"            hit{gi}({_tuple_source(names)})")
    lines.append("    return visited")
    scan = _compile("\n".join(lines) + "\n", "scan", product=itertools.product)
    hits: list[list[tuple[int, ...]]] = [[] for _ in groups]
    visited = scan(hits)
    if visited != reps:
        raise AssertionError(
            f"representative counter mismatch: visited {visited}, expected {reps}"
        )
    return visited, [sorted(pts) for pts in hits]


def projective_size(n: int, q: int) -> int:
    """Number of points of projective (n-1)-space over GF(q), n coordinates."""
    return (q**n - 1) // (q - 1)


def _scan_size(n: int, q: int, generators: int, budget: int) -> int:
    """The representatives a scan of n coordinates over GF(q) visits; refuses
    a q that is not prime, and representatives times generators beyond the
    budget."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    reps = projective_size(n, q)
    estimate = reps * max(1, generators)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    return reps


def enumerate_variety(
    gens: Sequence[Polynomial],
    variables: Sequence[VarId],
    q: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, ...]]:
    """All projective points over GF(q) where every generator vanishes.

    Representatives have their first nonzero coordinate equal to 1 and are
    returned sorted.  ``q`` is read off the generators' domain when omitted;
    an empty generator list returns the whole projective space and then
    requires an explicit ``q``.
    """
    for g in gens:
        if g.domain.kind != "Fp":
            raise ValueError("enumeration generators must live over a prime field")
        if q is None:
            q = g.domain.p
        elif q != g.domain.p:
            raise ValueError("generators live over different prime fields")
    if q is None:
        raise ValueError("q is required when no generators are given")
    _, (hits,) = _scan([gens], variables, q, budget)
    return hits


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
    """Enumerate the zero sets of the defining system and of the minors in one
    pass and report counts plus any system-only points (expected none).

    Generators are built over Z and reduced mod q, so characteristics that
    divide bridge coefficients are probed faithfully.  The minor locus is
    always contained in the system locus; the converse inclusion is the
    content of the check.  Both the scan and the expansion of the weight
    generators are checked against the budget before either starts.
    """
    start = time.perf_counter()
    eqset = eqset if eqset is not None else equation_set(profile)
    _scan_size(profile.num_vars, q, eqset.system_size + len(eqset.minor_gens), budget)
    check_construction_budget(eqset, budget)
    system_q = [p.reduce_mod(q) for p in eqset.system_polys()]
    minors_q = [p.reduce_mod(q) for p in eqset.minor_gens]
    visited, (in_system, in_minors) = _scan(
        (system_q, minors_q), profile.variables(), q, budget
    )
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
