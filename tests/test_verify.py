"""Tests for the symbolic checks and the finite-field enumeration engine."""

import itertools
import json

import pytest

from scrolleq import (
    GF,
    VAR_S,
    VAR_T,
    VAR_V,
    VAR_W,
    VAR_Z,
    ZZ,
    BudgetExceededError,
    Polynomial,
    build_profile,
    check_bridge_determinant_power,
    check_bridge_scroll_vanishing,
    check_parametrization,
    compare_varieties,
    enumerate_variety,
    equation_set,
    generic_minor,
    plucker_identity,
    projective_size,
    sample_scroll_points,
    schwartz_zippel_equal,
    scroll_param_map,
    t_var,
    u_var,
    x_var,
)


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
        if any(g.eval(dict(zip(variables, tup))) != 0 for g in gens):
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


def test_enumerate_matches_brute_force_surface_system():
    profile = build_profile([1, 2])
    gens = [p.reduce_mod(3) for p in equation_set(profile).system_polys()]
    pts = enumerate_variety(gens, profile.variables(), 3)
    assert len(pts) == 16
    assert pts == brute_force_variety(gens, profile.variables(), 3)


def test_enumerate_empty_system_gives_whole_space():
    variables = build_profile([1, 1]).variables()
    pts = enumerate_variety([], variables, 3)
    assert len(pts) == projective_size(4, 3) == 40
    assert len(set(pts)) == 40


def test_enumerate_representatives_are_canonical():
    variables = build_profile([1, 1]).variables()
    for pt in enumerate_variety([], variables, 5):
        lead = next(v for v in pt if v)
        assert lead == 1


def test_enumerate_budget_refusal():
    profile = build_profile([2, 2, 3, 4])
    gens = [p.reduce_mod(3) for p in equation_set(profile).system_polys()]
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


def test_compare_varieties_surface():
    report = compare_varieties(build_profile([2, 2]), 5)
    assert report.passed
    assert report.count_j == report.count_p == 36
    assert report.witnesses == ()
    assert report.visited == projective_size(6, 5) == 3906


def test_compare_varieties_deterministic():
    a = compare_varieties(build_profile([2, 3]), 3, seed=9)
    b = compare_varieties(build_profile([2, 3]), 3, seed=9)
    assert (a.count_j, a.count_p, a.witnesses) == (b.count_j, b.count_p, b.witnesses)


@pytest.mark.parametrize("n, q", [((2, 2), 5), ((2, 2, 3, 4), 2)])
def test_compare_varieties_counts_match_enumerate_variety(n, q):
    profile = build_profile(n)
    eqset = equation_set(profile)
    report = compare_varieties(profile, q, eqset=eqset)
    system_q = [p.reduce_mod(q) for p in eqset.system_polys()]
    minors_q = [p.reduce_mod(q) for p in eqset.minor_gens]
    assert report.count_j == len(enumerate_variety(system_q, profile.variables(), q))
    assert report.count_p == len(enumerate_variety(minors_q, profile.variables(), q))
    assert report.visited == projective_size(profile.num_vars, q)


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


# -- random sampling -----------------------------------------------------------------------


def test_sample_scroll_points_pass():
    report = sample_scroll_points(build_profile([2, 3]), 101, 200, seed=5)
    assert report.passed
    assert report.tested + report.skipped == 200


def test_sample_scroll_points_large_profile():
    report = sample_scroll_points(build_profile([2, 2, 3, 4]), 101, 1000, seed=7)
    assert report.passed
    assert report.tested + report.skipped == 1000


def test_sample_scroll_points_skips_degenerate():
    # Over GF(2) many draws hit the zero tuple; they must be skipped, not fail.
    report = sample_scroll_points(build_profile([1, 1]), 2, 64, seed=1)
    assert report.passed
    assert report.skipped > 0
    assert report.tested + report.skipped == 64


def test_sample_requires_positive_trials():
    with pytest.raises(ValueError):
        sample_scroll_points(build_profile([1, 1]), 3, 0)


# -- randomized identity testing --------------------------------------------------------------


def test_sz_equal_inputs():
    from scrolleq import bridge, bridge_via_lists

    res = schwartz_zippel_equal(bridge(2, 4)[1], bridge_via_lists(2, 4), 10007, seed=3)
    assert res.probably_equal
    assert res.witness is None


def test_sz_detects_difference():
    p = Polynomial.variable(x_var(1, 0))
    r = Polynomial.variable(x_var(1, 1))
    res = schwartz_zippel_equal(p, r, 10007, trials=8, seed=0)
    assert res.verdict == "definitely-different"
    assert res.witness is not None


def test_sz_witness_separates_inputs():
    # The reference evaluator must also see the two inputs differ there.
    p = Polynomial.term(3, [(x_var(1, 0), 2), (VAR_S, 1)]) - Polynomial.variable(VAR_T)
    r = p + Polynomial.term(1, [(x_var(1, 1), 3)])
    res = schwartz_zippel_equal(p, r, 10007, trials=8, seed=4)
    assert res.verdict == "definitely-different"
    point = dict(res.witness)
    assert set(point) == set(p.variables()) | set(r.variables())
    assert p.reduce_mod(10007).eval(point) != r.reduce_mod(10007).eval(point)


def test_sz_identical_never_differ():
    p = Polynomial.term(3, [(x_var(1, 0), 2), (VAR_S, 1)]) - Polynomial.variable(VAR_T)
    for seed in range(10):
        assert schwartz_zippel_equal(p, p, 101, trials=4, seed=seed).probably_equal


def test_sz_failure_bound():
    p = Polynomial.term(1, [(x_var(1, 0), 3)])
    r = Polynomial.term(1, [(x_var(1, 0), 2)])
    res = schwartz_zippel_equal(p, r, 10007, trials=5, seed=12)
    if res.probably_equal:  # pragma: no cover - astronomically unlikely
        pytest.fail("distinct polynomials reported equal")
    assert res.failure_bound == 0.0
    eq = schwartz_zippel_equal(p, p + Polynomial.zero(ZZ), 10007, trials=5)
    assert eq.failure_bound == 0.0


def test_sz_refuses_small_modulus():
    p = Polynomial.term(1, [(x_var(1, 0), 40)])
    with pytest.raises(ValueError):
        schwartz_zippel_equal(p, Polynomial.zero(ZZ), 101, trials=2)


def test_sz_loose_bound_formula():
    # A difference divisible by the modulus evaluates to zero everywhere, so
    # only the probabilistic guarantee applies: trials * degree / modulus.
    x = Polynomial.variable(x_var(1, 0))
    res = schwartz_zippel_equal(x.scale(10008), x, 10007, trials=7, seed=2)
    assert res.probably_equal
    assert res.failure_bound == pytest.approx(7 * 1 / 10007)
