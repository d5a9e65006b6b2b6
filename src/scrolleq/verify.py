"""Verification engine: symbolic identities and finite-field variety comparison.

Two independent routes establish that the constructed defining system cuts
out exactly the scroll:

* symbolically, over the integers: every generator (and every minor) reduces
  to the zero polynomial under the scroll parametrization
  ``x[i][j] -> u[i] * s^(n_i - j) * t^j``; each bridge vanishes under the
  same substitution and collapses to a power of a 2 x 2 determinant when the
  block scales are dropped; and the three-term relation among the minors of a
  generic 2 x d matrix holds identically;
* exhaustively, over a small prime field: every projective point satisfying
  the defining system also satisfies all minors, checked by enumerating
  canonical representatives (first nonzero coordinate normalized to 1).

A seeded sampler and a randomized identity test cover instances too large
for exact expansion or exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .polyring import (
    VAR_S,
    VAR_T,
    VAR_V,
    VAR_W,
    VAR_Z,
    ZZ,
    Polynomial,
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
    bridge_meta,
    equation_set,
)

DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the evaluation budget."""

    def __init__(self, estimate: int, budget: int):
        super().__init__(
            f"enumeration needs an estimated {estimate} generator evaluations, "
            f"budget is {budget}"
        )
        self.estimate = estimate
        self.budget = budget


# ---------------------------------------------------------------------------
# Symbolic checks
# ---------------------------------------------------------------------------


def scroll_param_map(profile: ScrollProfile) -> dict[VarId, Polynomial]:
    """The scroll parametrization: x[i][j] -> u[i] * s^(n_i - j) * t^j."""
    images: dict[VarId, Polynomial] = {}
    for i, ni in enumerate(profile.n, start=1):
        for j in range(ni + 1):
            images[x_var(i, j)] = Polynomial.term(
                1, [(u_var(i), 1), (VAR_S, ni - j), (VAR_T, j)], ZZ
            )
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
    under the scroll parametrization, by exact substitution over Z."""
    eqset = eqset if eqset is not None else equation_set(profile)
    images = scroll_param_map(profile)
    checks = []
    for label, p in eqset.system() + eqset.labeled_minors():
        residual = p.substitute(images)
        checks.append(
            GeneratorCheck(label, residual.is_zero(), "" if residual.is_zero() else str(residual))
        )
    return ParamReport(profile.n, tuple(checks))


def check_bridge_scroll_vanishing(a: int, b: int) -> tuple[bool, Polynomial]:
    """A bridge vanishes when both blocks are parametrized over one base point.

    Substitutes x[1][j] -> u[1]*s^(a-j)*t^j and x[2][h] -> v*s^(b-h)*t^h into
    the bridge on blocks (1, 2); returns (vanished, residual).
    """
    _, br = bridge(a, b, 1, 2)
    images: dict[VarId, Polynomial] = {}
    for j in range(a + 1):
        images[x_var(1, j)] = Polynomial.term(1, [(u_var(1), 1), (VAR_S, a - j), (VAR_T, j)], ZZ)
    for h in range(b + 1):
        images[x_var(2, h)] = Polynomial.term(1, [(VAR_V, 1), (VAR_S, b - h), (VAR_T, h)], ZZ)
    residual = br.substitute(images, strict=True)
    return residual.is_zero(), residual


def check_bridge_determinant_power(a: int, b: int) -> bool:
    """On a product of two coordinate curves a bridge is a determinant power.

    Substituting x[1][j] -> s^(a-j)*t^j and x[2][h] -> z^(b-h)*w^h must give
    exactly (t*z - s*w)^m with m = lcm(a, b).
    """
    meta, br = bridge(a, b, 1, 2)
    images: dict[VarId, Polynomial] = {}
    for j in range(a + 1):
        images[x_var(1, j)] = Polynomial.term(1, [(VAR_S, a - j), (VAR_T, j)], ZZ)
    for h in range(b + 1):
        images[x_var(2, h)] = Polynomial.term(1, [(VAR_Z, b - h), (VAR_W, h)], ZZ)
    lhs = br.substitute(images, strict=True)
    det = Polynomial.term(1, [(VAR_T, 1), (VAR_Z, 1)], ZZ) - Polynomial.term(
        1, [(VAR_S, 1), (VAR_W, 1)], ZZ
    )
    return lhs == det**meta.m


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

_Rows = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def _compile_polys(polys: Sequence[Polynomial], var_index: Mapping[VarId, int]) -> tuple[_Rows, ...]:
    compiled = []
    for p in polys:
        rows = []
        for mono, coeff in p.terms.items():
            try:
                facs = tuple((var_index[v], e) for v, e in mono.exps)
            except KeyError as exc:
                raise ValueError(
                    f"generator variable {exc.args[0]} is outside the ambient space"
                ) from None
            rows.append((int(coeff), facs))
        compiled.append(tuple(rows))
    return tuple(compiled)


def _eval_rows(rows: _Rows, point: Sequence[int], q: int) -> int:
    acc = 0
    for coeff, facs in rows:
        term = coeff
        for idx, e in facs:
            v = point[idx]
            if v == 0:
                term = 0
                break
            if v != 1:
                term = term * pow(v, e, q) % q
        if term:
            acc = (acc + term) % q
    return acc


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
    the budget.  Returns (visited, sorted hits per group).
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    n = len(variables)
    reps = projective_size(n, q)
    estimate = reps * max(1, sum(len(gens) for gens in groups))
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    var_index = {v: i for i, v in enumerate(variables)}
    compiled = [_compile_polys(gens, var_index) for gens in groups]
    hits: list[list[tuple[int, ...]]] = [[] for _ in groups]
    visited = 0
    for k in range(n):
        head = (0,) * k + (1,)
        for tail in itertools.product(range(q), repeat=n - k - 1):
            point = head + tail
            visited += 1
            for gi, group in enumerate(compiled):
                if all(_eval_rows(rows, point, q) == 0 for rows in group):
                    hits[gi].append(point)
    if visited != reps:
        raise AssertionError(
            f"representative counter mismatch: visited {visited}, expected {reps}"
        )
    return visited, [sorted(pts) for pts in hits]


def projective_size(n: int, q: int) -> int:
    """Number of points of projective (n-1)-space over GF(q), n coordinates."""
    return (q**n - 1) // (q - 1)


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
    content of the check.
    """
    start = time.perf_counter()
    eqset = eqset if eqset is not None else equation_set(profile)
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


# ---------------------------------------------------------------------------
# Randomized checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleReport:
    """Outcome of random scroll-point sampling."""

    profile: tuple[int, ...]
    q: int
    trials: int
    tested: int
    skipped: int
    seed: int
    failures: tuple[tuple[tuple[int, ...], str], ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures


def sample_scroll_points(
    profile: ScrollProfile,
    q: int,
    trials: int,
    seed: int = 0,
    eqset: EquationSet | None = None,
) -> SampleReport:
    """Draw random parametrized scroll points over GF(q) and evaluate the
    defining system on each; every generator must vanish.

    Draws that produce the zero tuple (for instance s = t = 0, or all block
    scales zero) are skipped as non-projective.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    eqset = eqset if eqset is not None else equation_set(profile)
    labeled = [(label, p.reduce_mod(q)) for label, p in eqset.system()]
    var_index = {v: i for i, v in enumerate(profile.variables())}
    compiled = [(label, _compile_polys([p], var_index)[0]) for label, p in labeled]
    rng = random.Random(seed)
    tested = skipped = 0
    failures = []
    for _ in range(trials):
        s = rng.randrange(q)
        t = rng.randrange(q)
        scales = [rng.randrange(q) for _ in profile.n]
        point = []
        for ui, ni in zip(scales, profile.n):
            for j in range(ni + 1):
                point.append(ui * pow(s, ni - j, q) * pow(t, j, q) % q)
        if not any(point):
            skipped += 1
            continue
        tested += 1
        pt = tuple(point)
        for label, rows in compiled:
            if _eval_rows(rows, pt, q) != 0:
                failures.append((pt, label))
    return SampleReport(
        profile=profile.n,
        q=q,
        trials=trials,
        tested=tested,
        skipped=skipped,
        seed=seed,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class IdentityTestResult:
    """Outcome of randomized polynomial-identity testing."""

    verdict: str  # "probably-equal" | "definitely-different"
    trials: int
    failure_bound: float
    witness: tuple[tuple[VarId, int], ...] | None = None

    @property
    def probably_equal(self) -> bool:
        return self.verdict == "probably-equal"


def schwartz_zippel_equal(
    p: Polynomial,
    r: Polynomial,
    q_large: int,
    trials: int = 16,
    seed: int = 0,
    safety_factor: int = 16,
) -> IdentityTestResult:
    """Randomized equality test for polynomials too large to expand or compare.

    Evaluates p and r at uniform points of GF(q_large); differing values
    prove inequality (with the point as witness), while all-equal outcomes
    are reported probably-equal with failure bound trials * degree / q_large,
    where degree is the larger total degree of the two.  The modulus must
    exceed that degree by the safety factor.  Exactly equal inputs can never
    be reported different.
    """
    if p.domain != r.domain:
        raise ValueError("operands must share a coefficient domain")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not is_prime(q_large):
        raise ValueError(f"{q_large} is not prime")
    if p == r:
        return IdentityTestResult("probably-equal", trials, 0.0)
    deg = max(p.total_degree(), r.total_degree())
    if q_large <= deg * safety_factor:
        raise ValueError(
            f"modulus {q_large} too small for degree {deg} "
            f"(needs > {deg * safety_factor})"
        )
    if p.domain.kind == "Z":
        p, r = p.reduce_mod(q_large), r.reduce_mod(q_large)
    elif p.domain.kind != "Fp" or p.domain.p != q_large:
        raise ValueError("inputs must be over Z or over GF(q_large)")
    variables = tuple(sorted(set(p.variables()) | set(r.variables())))
    rows_p, rows_r = _compile_polys(
        (p, r), {v: i for i, v in enumerate(variables)}
    )
    rng = random.Random(seed)
    bound = trials * deg / q_large
    for _ in range(trials):
        point = tuple(rng.randrange(q_large) for _ in variables)
        if _eval_rows(rows_p, point, q_large) != _eval_rows(rows_r, point, q_large):
            witness = tuple(zip(variables, point))
            return IdentityTestResult("definitely-different", trials, 0.0, witness)
    return IdentityTestResult("probably-equal", trials, bound)
