"""Tests for the symbolic checks and the finite-field enumeration engine."""

import itertools
import json
import re
from dataclasses import replace

import pytest

from reference import enumerate_variety, evaluate
from scrolleq import (
    GF,
    VAR_S,
    VAR_T,
    VAR_W,
    VAR_Z,
    ZZ,
    BudgetExceededError,
    Polynomial,
    WeightGroup,
    build_profile,
    check_bridge_determinant_power,
    check_bridge_scroll_vanishing,
    check_parametrization,
    compare_varieties,
    equation_set,
    g_polynomial,
    generic_minor,
    group_bridges,
    monomial,
    plucker_identity,
    projective_size,
    scroll_param_map,
    u_var,
    weight_groups,
    x_var,
)
from scrolleq import verify
from scrolleq.verify import DEFAULT_BUDGET
from test_acceptance import CASES_7


# -- parametrization ----------------------------------------------------------


def test_param_map_images():
    images = scroll_param_map(build_profile([1, 2]))
    assert images[x_var(2, 1)] == Polynomial.term(
        1, [(u_var(2), 1), (VAR_S, 1), (VAR_T, 1)]
    )
    assert images[x_var(1, 0)] == Polynomial.term(1, [(u_var(1), 1), (VAR_S, 1)])
    assert len(images) == 5


def test_segre_minor_vanishes_symbolically():
    profile = build_profile([1, 1])
    minor = equation_set(profile).minor_gens[0]
    residual = minor.substitute(scroll_param_map(profile))
    assert residual.is_zero()


@pytest.mark.parametrize("n", [(1, 1), (1, 2), (2, 2), (2, 3), (1, 1, 1)])
def test_parametrization_small_profiles(n):
    report = check_parametrization(build_profile(n))
    assert report.passed
    assert not report.failures()


def test_parametrization_check_counts_generators():
    profile = build_profile([2, 3])
    report = check_parametrization(profile)
    # 4 system generators plus C(5, 2) = 10 minors
    assert len(report.checks) == 14


def test_parametrization_proves_weight_generators_through_bridges(no_expansion):
    profile = build_profile([2, 3, 5, 7])
    report = check_parametrization(profile)
    labels = [c.label for c in report.checks]
    assert labels[:13] == [label for label, _ in equation_set(profile).labeled_curves()]
    assert labels[13:18] == [f"weight[{k}]" for k in range(3, 8)]
    assert len(labels) == 18 + 136 and report.passed


def test_bridge_mutant_fails_lazy_and_expanded_checks(monkeypatch):
    # One coefficient of bridge (1,4) off by one: the bridge-wise check must
    # fail weight 5, and so must substitution into the expanded generator.
    from scrolleq import scroll

    bridge = scroll.bridge

    def mutant(a, b, x_block=1, y_block=2):
        meta, br = bridge(a, b, x_block, y_block)
        if (x_block, y_block) == (1, 4):
            lead, _ = br.sorted_terms()[0]
            br = br + Polynomial(ZZ, {lead: 1})
        return meta, br

    monkeypatch.setattr(scroll, "bridge", mutant)
    profile = build_profile([2, 2, 3, 4])
    eqset = equation_set(profile)
    report = check_parametrization(profile, eqset=eqset)
    assert [c.label for c in report.failures()] == ["weight[5]"]
    assert report.failures()[0].residual
    images = scroll_param_map(profile)
    residuals = {label: p.substitute(images) for label, p in eqset.system()}
    assert [label for label, r in residuals.items() if not r.is_zero()] == ["weight[5]"]


# -- bridge identities ------------------------------------------------------------


def test_bridge_vanishing_examples():
    for a, b in [(1, 1), (2, 4), (3, 4)]:
        ok, residual = check_bridge_scroll_vanishing(a, b)
        assert ok and residual.is_zero()


def test_bridge_determinant_power_examples():
    assert check_bridge_determinant_power(1, 1)
    assert check_bridge_determinant_power(2, 4)
    assert check_bridge_determinant_power(2, 3)


def test_bridge_curve_pair_substitution_base_case():
    # By hand for degrees (1, 1): the bridge becomes t*z - s*w itself.
    from scrolleq import bridge

    _, b11 = bridge(1, 1)
    images = {
        x_var(1, 0): Polynomial.variable(VAR_S),
        x_var(1, 1): Polynomial.variable(VAR_T),
        x_var(2, 0): Polynomial.variable(VAR_Z),
        x_var(2, 1): Polynomial.variable(VAR_W),
    }
    expected = Polynomial.term(1, [(VAR_T, 1), (VAR_Z, 1)]) - Polynomial.term(
        1, [(VAR_S, 1), (VAR_W, 1)]
    )
    assert b11.substitute(images) == expected


# -- generic minors and their three-term relation --------------------------------------


def test_generic_minor_antisymmetry():
    assert generic_minor(2, 5) == -generic_minor(5, 2)
    assert generic_minor(3, 3).is_zero()


def test_plucker_identity_small_matrices():
    for d in range(1, 7):
        ok, failures = plucker_identity(d)
        assert ok and not failures


def test_plucker_single_quadruple_by_hand():
    combo = (
        generic_minor(2, 3) * generic_minor(1, 4)
        - generic_minor(1, 3) * generic_minor(2, 4)
        + generic_minor(1, 2) * generic_minor(3, 4)
    )
    assert combo.is_zero()


# -- enumeration ---------------------------------------------------------------------


def brute_force_variety(gens, variables, q):
    """Independent oracle: scan all nonzero tuples, canonicalize by scaling."""
    points = set()
    n = len(variables)
    for tup in itertools.product(range(q), repeat=n):
        if not any(tup):
            continue
        if any(evaluate(g, dict(zip(variables, tup))) != 0 for g in gens):
            continue
        lead = next(v for v in tup if v)
        inv = pow(lead, q - 2, q)
        points.add(tuple(v * inv % q for v in tup))
    return sorted(points)


def test_enumerate_matches_brute_force_segre():
    profile = build_profile([1, 1])
    gens = [p.reduce_mod(3) for p in equation_set(profile).minor_gens]
    pts = enumerate_variety(gens, profile.variables(), 3)
    assert len(pts) == 16
    assert pts == brute_force_variety(gens, profile.variables(), 3)


def test_enumerate_compiles_a_generator_past_5000_terms():
    # The scan sums a generator's terms as a balanced tree of "+"; a flat
    # chain of 5,050 terms overflows the recursion limit of the compiler.
    xs = [x_var(1, j) for j in range(3)]
    g = Polynomial(
        GF(7),
        {
            monomial({xs[0]: a, xs[1]: b, xs[2]: 99 - a - b}): a * b % 6 + 1
            for a in range(100)
            for b in range(100 - a)
        },
    )
    assert len(g.terms) == 5050
    expected = [
        tup
        for tup in itertools.product(range(7), repeat=3)
        if next((v for v in tup if v), None) == 1 and evaluate(g, dict(zip(xs, tup))) == 0
    ]
    assert 0 < len(expected) < projective_size(3, 7)
    assert enumerate_variety([g], xs, 7) == expected


def test_enumerate_matches_brute_force_surface_system():
    profile = build_profile([1, 2])
    gens = [p.reduce_mod(3) for _, p in equation_set(profile).system()]
    pts = enumerate_variety(gens, profile.variables(), 3)
    assert len(pts) == 16
    assert pts == brute_force_variety(gens, profile.variables(), 3)


def test_enumerate_empty_system_gives_whole_space():
    variables = build_profile([1, 1]).variables()
    pts = enumerate_variety([], variables, 3)
    assert len(pts) == projective_size(4, 3) == 40
    assert len(set(pts)) == 40


def test_scan_evaluates_weight_generators_through_bridges():
    # Weight 5 of (1,1,1,2) raises bridge (1,4), of degree 3, to the power 2
    # and bridge (2,3), of degree 2, to the power 3.  Written out as powers of
    # the reduced bridges, each weight generator must vanish exactly where
    # its expansion does.
    profile = build_profile([1, 1, 1, 2])
    variables = profile.variables()
    for group in weight_groups(profile):
        bridges = [b.reduce_mod(3) for b in group_bridges(profile, group)]
        summands = list(zip(bridges, group.powers))
        expanded = g_polynomial(profile, group).reduce_mod(3)
        (hits,) = verify._projective_scan([[summands]], variables, 3)
        assert hits == enumerate_variety([expanded], variables, 3), group.k


def test_enumerate_line_has_no_generators():
    # Profile (1,): the line P^1, cut out by nothing, so both generator
    # groups are empty and every representative is a hit.
    report = compare_varieties(build_profile([1]), 3)
    assert report.visited == 4
    assert report.count_j == report.count_p == 4
    assert report.passed


def test_enumerate_rejects_variable_outside_space():
    variables = build_profile([1, 1]).variables()
    stray = Polynomial.variable(x_var(3, 0)).reduce_mod(3)
    with pytest.raises(ValueError, match="outside the ambient space"):
        enumerate_variety([stray], variables, 3)


def test_enumerate_representatives_are_canonical():
    variables = build_profile([1, 1]).variables()
    for pt in enumerate_variety([], variables, 5):
        lead = next(v for v in pt if v)
        assert lead == 1


def test_enumerate_budget_refusal():
    profile = build_profile([2, 2, 3, 4])
    gens = [p.reduce_mod(3) for _, p in equation_set(profile).system()]
    with pytest.raises(BudgetExceededError) as err:
        enumerate_variety(gens, profile.variables(), 3, budget=10_000)
    assert err.value.estimate > 10_000


def test_enumerate_rejects_bad_inputs():
    profile = build_profile([1, 1])
    with pytest.raises(ValueError):
        enumerate_variety([], profile.variables(), 6)
    with pytest.raises(ValueError):
        enumerate_variety([equation_set(profile).minor_gens[0]], profile.variables(), 3)


# -- variety comparison -----------------------------------------------------------------


def factored_visits(n, q):
    """The points the block-factored comparison visits for a correct system
    with d >= 2 blocks: every block with n_i >= 2 over its own projective
    space, then the (q^(2d) - 1)/(q - 1) canonical points of the product of
    the block cones, each of which has q^2 points."""
    blocks = sum((q ** (ni + 1) - 1) // (q - 1) for ni in n if ni >= 2)
    return blocks + (q ** (2 * len(n)) - 1) // (q - 1)


def whole_space_loci(eqset, q):
    """The system locus and the minor locus from whole-space scans of the
    expanded system and of the minors: the oracle for compare_varieties."""
    variables = eqset.profile.variables()
    system = enumerate_variety([p.reduce_mod(q) for _, p in eqset.system()], variables, q)
    minors = enumerate_variety([p.reduce_mod(q) for p in eqset.minor_gens], variables, q)
    return system, minors


def test_compare_varieties_surface():
    report = compare_varieties(build_profile([2, 2]), 5)
    assert report.passed
    assert report.count_j == report.count_p == 36
    assert report.witnesses == ()
    assert report.visited == factored_visits((2, 2), 5) == 2 * 31 + 156


def test_compare_varieties_deterministic():
    a = compare_varieties(build_profile([2, 3]), 3, seed=9)
    b = compare_varieties(build_profile([2, 3]), 3, seed=9)
    assert (a.count_j, a.count_p, a.witnesses) == (b.count_j, b.count_p, b.witnesses)


# Every CASES_7 case, and every profile with d <= 3 and n_i <= 3 over GF(2)
# and GF(3).  (2,2)/GF(5) and (2,2,3,4)/GF(2) come first so that their test
# ids stay n0-5 and n1-2.
ORACLE_CASES = [((2, 2), 5), ((2, 2, 3, 4), 2)]
ORACLE_CASES += [
    case
    for case in [(n, q) for n, fields in CASES_7 for q in fields]
    + [(n, q) for d in (1, 2, 3) for n in itertools.product((1, 2, 3), repeat=d) for q in (2, 3)]
    if case not in ORACLE_CASES
]


@pytest.mark.parametrize("n, q", ORACLE_CASES)
def test_compare_varieties_counts_match_enumerate_variety(n, q):
    profile = build_profile(n)
    eqset = equation_set(profile)
    report = compare_varieties(profile, q, eqset=eqset)
    system, minors = whole_space_loci(eqset, q)
    assert report.count_j == len(system)
    assert report.count_p == len(minors)
    assert report.witnesses == tuple(sorted(set(system) - set(minors)))
    if profile.d >= 2:
        assert report.visited == factored_visits(n, q)
    else:
        assert report.visited == projective_size(profile.num_vars, q)


def drop_bridge(eqset, k):
    """The equation set with the first bridge of weight group k left out."""
    groups = tuple(
        WeightGroup(g.k, g.pairs[1:], g.metas[1:], g.degree, g.powers[1:]) if g.k == k else g
        for g in eqset.groups
    )
    return replace(eqset, groups=groups)


def bump_curve(eqset, block, index):
    """The equation set with one coefficient of curve[block][index] raised by 1."""
    curves = []
    for i, j, p in eqset.curve_gens:
        if (i, j) == (block, index):
            lead, _ = p.sorted_terms()[0]
            p = p + Polynomial(ZZ, {lead: 1})
        curves.append((i, j, p))
    return replace(eqset, curve_gens=tuple(curves))


@pytest.mark.parametrize("mutate, args, n, q", [
    (drop_bridge, (5,), (2, 2, 3, 4), 2),
    (drop_bridge, (5,), (1, 1, 1, 1), 3),
    (bump_curve, (1, 1), (2, 2), 3),
    (bump_curve, (2, 1), (2, 3), 2),
], ids=["bridge-2234-q2", "bridge-1111-q3", "curve-22-q3", "curve-23-q2"])
def test_factored_loci_match_oracle_on_mutated_systems(mutate, args, n, q):
    # A mutant system cuts out points off the scroll, so both loci must come
    # out exactly as the whole-space scans find them.  A changed curve
    # equation also misses curve points that the minors keep: the block
    # cones take the union of both block loci, so the stray check still
    # sees every minor point.
    eqset = mutate(equation_set(build_profile(n)), *args)
    system, minors = whole_space_loci(eqset, q)
    _, in_system, in_minors = verify._loci(eqset, q, DEFAULT_BUDGET)
    assert (in_system, in_minors) == (system, minors)
    witnesses = tuple(sorted(set(system) - set(minors)))
    stray = sorted(set(minors) - set(system))
    assert witnesses
    if stray:
        with pytest.raises(RuntimeError, match=re.escape(f"escapes the system locus at {stray[:3]}")):
            compare_varieties(eqset.profile, q, eqset=eqset)
    else:
        report = compare_varieties(eqset.profile, q, eqset=eqset)
        assert report.witnesses == witnesses and not report.passed


def test_compare_varieties_report_json_keys():
    report = compare_varieties(build_profile([1, 1]), 3, seed=11)
    doc = report.to_json()
    assert set(doc) == {"profile", "q", "count_J", "count_P", "witnesses", "seed", "elapsed_ms"}
    assert doc["seed"] == 11
    assert doc["count_J"] == doc["count_P"] == 16
    json.dumps(doc)  # serializable


def test_compare_varieties_minor_count_bound():
    report = compare_varieties(build_profile([1, 1, 1]), 3)
    assert report.count_p <= report.count_j


def test_compare_varieties_nonprime_field():
    with pytest.raises(ValueError):
        compare_varieties(build_profile([1, 1]), 4)

