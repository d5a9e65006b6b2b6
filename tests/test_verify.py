"""Tests for the symbolic checks and the finite-field enumeration engine."""

import itertools
import json
import math
import re
import time
from dataclasses import replace

import pytest

import reference
from reference import enumerate_variety, evaluate
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
    WeightGroup,
    bridge,
    bridge_meta,
    build_profile,
    check_bridge_determinant_power,
    check_bridge_scroll_vanishing,
    check_parametrization,
    compare_varieties,
    equation_set,
    g_polynomial,
    generic_minor,
    monomial,
    plucker_identity,
    projective_size,
    scroll_param_map,
    t_var,
    u_var,
    x_var,
)
from scrolleq import verify
from scrolleq.cli import run
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


def test_curve_images_are_canonical_as_built():
    # One monomial per image, scaled by a variable before s (u[i]), after
    # it (v) or not at all: the constructor makes the same terms of it.
    for n in range(1, 9):
        for scale in [None, u_var(3), VAR_V]:
            lead = [] if scale is None else [(scale, 1)]
            for v, img in verify._curve_images(3, n, VAR_S, VAR_T, scale).items():
                expected = Polynomial.term(1, lead + [(VAR_S, n - v.slot), (VAR_T, v.slot)])
                assert img.terms == expected.terms
                ((mono, _),) = img.terms.items()
                assert all(e > 0 for _, e in mono)
                assert all(u < w for (u, _), (w, _) in zip(mono, mono[1:]))


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


def test_bridge_mutant_fails_lazy_and_expanded_checks(monkeypatch, capsys):
    # One coefficient of bridge (1,4) off by one: the bridge-wise check must
    # fail weight 5, and so must substitution into the expanded generator.
    from scrolleq import scroll

    bridge = scroll.bridge

    def mutant(a, b, x_block=1, y_block=2):
        br = bridge(a, b, x_block, y_block)
        if (x_block, y_block) == (1, 4):
            lead, _ = list(br.terms.items())[0]
            br = br + Polynomial(ZZ, {lead: 1})
        return br

    monkeypatch.setattr(scroll, "bridge", mutant)
    profile = build_profile([2, 2, 3, 4])
    eqset = equation_set(profile)
    report = check_parametrization(profile, eqset=eqset)
    assert [c.label for c in report.failures()] == ["weight[5]"]
    assert report.failures()[0].residual
    images = scroll_param_map(profile)
    residuals = {label: p.substitute(images) for label, p in eqset.system()}
    assert [label for label, r in residuals.items() if not r.is_zero()] == ["weight[5]"]
    # Each pair of blocks checks its own bridge's scroll vanishing. The
    # determinant power is checked on the first pair of blocks with each pair
    # of degrees: (2,4) is first met at blocks (1,4), so blocks (2,4) report
    # that result too.
    assert run(["--profile", "2,2,3,4", "verify"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [re.sub(r" \(residual .+\)$", "", line) for line in failed] == [
        "FAIL bridge-scroll-vanishing blocks (1,4)",
        "FAIL bridge-determinant-power blocks (1,4)",
        "FAIL bridge-determinant-power blocks (2,4)",
        "FAIL parametrization-vanishing (66/67 generators vanish; failing: weight[5])",
        "FAIL suite for profile (2, 2, 3, 4)",
    ]


def test_verify_builds_each_bridge_once(monkeypatch, capsys):
    # One bridge per pair of blocks, shared by the parametrization check and
    # the bridge identities: C(4, 2) = 6 on four blocks.
    from scrolleq import scroll

    calls = []
    bridge = scroll.bridge

    def counting(*args):
        calls.append(args)
        return bridge(*args)

    monkeypatch.setattr(scroll, "bridge", counting)
    monkeypatch.setattr(verify, "bridge", counting)
    assert run(["--profile", "2,2,3,4", "verify"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert sorted(calls) == sorted(
        (a, b, i, j) for (i, a), (j, b) in itertools.combinations(enumerate((2, 2, 3, 4), 1), 2)
    )


# -- bridge identities ------------------------------------------------------------


def test_bridge_vanishing_examples():
    for a, b in [(1, 1), (2, 4), (3, 4)]:
        ok, residual = check_bridge_scroll_vanishing(a, b)
        assert ok and residual.is_zero()


def test_bridge_determinant_power_examples():
    assert check_bridge_determinant_power(1, 1)
    assert check_bridge_determinant_power(2, 4)
    assert check_bridge_determinant_power(2, 3)


def test_bridge_determinant_power_fails_a_coefficient_off_by_one():
    for a, b in [(1, 1), (2, 3), (4, 6)]:
        br = bridge(a, b, 1, 2)
        for mono in list(br.terms)[:: max(1, len(br.terms) // 3)]:
            assert not check_bridge_determinant_power(a, b, br=br + Polynomial(ZZ, {mono: 1}))


@pytest.mark.parametrize("i, j", [(1, 2), (3, 1)])
def test_bridge_determinant_power_matches_the_reference(i, j):
    # Each bridge, its off-by-one mutants, and its leading term moved to
    # x[i][0]^p * x[j][0]^q, a monomial of the same bidegree that no bridge has.
    for a, b in itertools.product(range(1, 7), repeat=2):
        br, meta = bridge(a, b, i, j), bridge_meta(a, b)
        moved = monomial([(x_var(i, 0), meta.p), (x_var(j, 0), meta.q)])
        (lead, c), *_ = list(br.terms.items())
        assert moved not in br.terms
        mutants = [br + Polynomial(ZZ, {mono: 1})
                   for mono in list(br.terms)[:: max(1, len(br.terms) // 3)]]
        mutants.append(br + Polynomial(ZZ, {lead: -c, moved: c}))
        for poly, expected in [(br, True)] + [(mutant, False) for mutant in mutants]:
            verdict = check_bridge_determinant_power(a, b, i, j, poly)
            assert verdict == reference.determinant_power(a, b, i, j, poly) == expected, (a, b)


@pytest.mark.parametrize("k", [0, 1, 3, 6])
@pytest.mark.parametrize("modules", [["verify"], ["verify", "scroll"]], ids=["verify", "both"])
def test_bridge_determinant_power_checks_its_row(monkeypatch, k, modules):
    # A row off by one at entry k.  In verify alone the expansion is wrong;
    # in scroll too the bridge is built from the same wrong row and agrees
    # with the expansion, so only the row's own check can fail the identity.
    row = verify.binomial_row

    def off_by_one(m):
        out = row(m)
        out[k] += 1
        return out

    assert check_bridge_determinant_power(2, 3)
    for name in modules:
        monkeypatch.setattr(f"scrolleq.{name}.binomial_row", off_by_one)
    assert not check_bridge_determinant_power(2, 3)


def test_verify_passes_a_large_lcm_profile_quickly(capsys):
    # m = lcm(97, 89) = 8633: a bridge of 8634 terms and a determinant power
    # that used to be expanded with ** (335 s); now about a second.
    start = time.perf_counter()
    assert run(["--profile", "97,89", "verify"]) == 0
    assert time.perf_counter() - start < 20
    assert capsys.readouterr().out.endswith("PASS suite for profile (97, 89)\n")


def test_bridge_curve_pair_substitution_base_case():
    # By hand for degrees (1, 1): the bridge becomes t*z - s*w itself.
    from scrolleq import bridge

    b11 = bridge(1, 1)
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
    for d in range(1, 9):
        ok, failures = plucker_identity(d)
        assert ok and not failures
        assert reference.plucker_identity(d) == (True, [])


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


def test_walk_evaluates_a_generator_past_5000_terms():
    # One generator of 5,050 terms of degree 99, each set at the last level.
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
    index = {v: k for k, v in enumerate(xs)}
    assert verify._projective_scan([verify._flat([(g, 1)], index, 7)], [], xs, 7)[1] == expected


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
    index = {v: k for k, v in enumerate(variables)}
    es = equation_set(profile)
    for group in es.groups:
        bridges = [es.bridges[pair].reduce_mod(3) for pair in group.pairs]
        summands = list(zip(bridges, group.powers))
        expanded = g_polynomial(es.bridges, group).reduce_mod(3)
        _, hits, _ = verify._projective_scan([verify._flat(summands, index, 3)], [], variables, 3)
        assert hits == enumerate_variety([expanded], variables, 3), group.k


def test_enumerate_line_has_no_generators():
    # Profile (1,): the line P^1, cut out by nothing, so both generator
    # groups are empty and every representative is a hit.
    profile = build_profile([1])
    report = compare_varieties(profile, 3)
    points = enumerate_variety([], profile.variables(), 3)
    assert report.count_j == report.count_p == len(points) == 4
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


@pytest.mark.parametrize("estimate, amount", [
    (10**4299, str(10**4299)),  # 4,300 digits, the most str() writes by default
    (10**4300, "more than 10^4299"),
    (2 * 10**5000 - 1, "more than 10^5000"),
], ids=["4300-digits", "4301-digits", "5001-digits"])
def test_budget_message_bounds_an_estimate_too_long_to_print(estimate, amount):
    err = BudgetExceededError(estimate, 10)
    assert str(err) == f"enumeration needs an estimated {amount} generator evaluations, budget is 10"
    assert err.estimate == estimate


def test_enumerate_rejects_bad_inputs():
    profile = build_profile([1, 1])
    with pytest.raises(ValueError):
        enumerate_variety([], profile.variables(), 6)
    with pytest.raises(ValueError):
        enumerate_variety([equation_set(profile).minor_gens[0]], profile.variables(), 3)


# -- variety comparison -----------------------------------------------------------------


def whole_space_loci(eqset, q):
    """The system locus and the minor locus from whole-space scans of the
    expanded system and of the minors: the oracle for compare_varieties."""
    variables = eqset.profile.variables()
    system = enumerate_variety([p.reduce_mod(q) for _, p in eqset.system()], variables, q)
    minors = enumerate_variety([p.reduce_mod(q) for p in eqset.minor_gens], variables, q)
    return system, minors


def test_compare_varieties_surface():
    eqset = equation_set(build_profile([2, 2]))
    report = compare_varieties(eqset.profile, 5, eqset=eqset)
    system, minors = whole_space_loci(eqset, 5)
    assert report.passed
    assert report.count_j == report.count_p == len(system) == len(minors) == 36
    assert report.witnesses == ()


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


def drop_bridge(eqset, k):
    """The equation set with the first bridge of weight group k left out."""
    groups = tuple(
        WeightGroup(g.k, g.pairs[1:], g.metas[1:], g.degree, g.powers[1:]) if g.k == k else g
        for g in eqset.groups
    )
    return replace(eqset, groups=groups)


def bump_curve(eqset, block, index, delta=1):
    """The equation set with one coefficient of curve[block][index] raised by ``delta``."""
    curves = []
    for i, j, p in eqset.curve_gens:
        if (i, j) == (block, index):
            lead, _ = list(p.terms.items())[0]
            p = p + Polynomial(ZZ, {lead: delta})
        curves.append((i, j, p))
    return replace(eqset, curve_gens=tuple(curves))


@pytest.mark.parametrize("mutate, args, n, q", [
    (drop_bridge, (5,), (2, 2, 3, 4), 2),
    (drop_bridge, (5,), (1, 1, 1, 1), 3),
    (bump_curve, (1, 1), (2, 2), 3),
    (bump_curve, (2, 1), (2, 3), 2),
    (bump_curve, (2, 1), (3, 3), 2),
], ids=["bridge-2234-q2", "bridge-1111-q3", "curve-22-q3", "curve-23-q2", "curve-33-q2"])
def test_factored_loci_match_oracle_on_mutated_systems(mutate, args, n, q):
    # A mutant system cuts out points off the scroll, so both loci must come
    # out exactly as the whole-space scans find them.  A changed curve
    # equation also misses curve points that the minors keep: the block
    # cones take the union of both block loci, so the stray check still
    # sees every minor point.  A changed block of two equal-degree blocks
    # must get its own block scan, not the other block's.
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


@pytest.mark.parametrize("block, index, n, q", [
    (1, 1, (2, 2), 3), (2, 1, (2, 3), 2), (2, 2, (3, 3), 5),
], ids=["curve-22-q3", "curve-23-q2", "curve-33-q5"])
def test_a_bump_that_vanishes_mod_q_leaves_the_loci(block, index, n, q):
    # A coefficient raised by q is the same coefficient over GF(q), so the
    # block's flat form, its scan and the loci are the unmutated ones.
    eqset = equation_set(build_profile(n))
    bumped = bump_curve(eqset, block, index, delta=q)
    assert bumped.curve_gens != eqset.curve_gens
    loci = verify._loci(bumped, q, DEFAULT_BUDGET)
    assert loci == verify._loci(eqset, q, DEFAULT_BUDGET)
    assert loci[1:] == whole_space_loci(bumped, q)


@pytest.mark.parametrize("n", [(2, 2), (2, 3)])
@pytest.mark.parametrize("coeff", [1, 5])
def test_an_inhomogeneous_block_equation_is_refused(n, coeff):
    # x[2][0] added to curve[2][1] makes it inhomogeneous over GF(5), and the
    # block flags would no longer hold for every multiple of a point: the
    # factored loci gave |J| = 56 on (2,2), where the whole-space scan finds
    # 36, and 43 against 31 on (2,3).  Added five times it vanishes mod 5.
    eqset = equation_set(build_profile(n))
    stray = Polynomial.term(coeff, [(x_var(2, 0), 1)])
    eqset = replace(eqset, curve_gens=tuple(
        (i, j, p + stray if (i, j) == (2, 1) else p) for i, j, p in eqset.curve_gens))
    if coeff % 5:
        with pytest.raises(ValueError, match=re.escape("block 2: an equation is not homogeneous "
                                                       "over GF(5)")):
            compare_varieties(eqset.profile, 5, eqset=eqset)
    else:
        assert compare_varieties(eqset.profile, 5, eqset=eqset).passed


def flat_reduced(summands, index, q):
    """The flat form of each summand's ``reduce_mod(q)``, read term by term."""
    return tuple(
        (tuple((c, tuple(index[v] for v, e in mono for _ in range(e)))
               for mono, c in p.reduce_mod(q).terms.items()), power)
        for p, power in summands
    )


@pytest.mark.parametrize("q", [2, 3, 5])
def test_flat_generators_are_the_reduced_polynomials(q):
    # Bridge coefficients are binomial coefficients, so some vanish mod q and
    # their terms must be gone from the flat form.
    eqset = equation_set(build_profile([2, 2, 3, 4]))
    index = {v: k for k, v in enumerate(eqset.profile.variables())}
    generators = [[(p, 1)] for *_, p in eqset.curve_gens] + [[(p, 1)] for p in eqset.minor_gens]
    generators += [[(eqset.bridges[pair], c) for pair, c in zip(g.pairs, g.powers)]
                   for g in eqset.groups]
    dropped = 0
    for summands in generators:
        flat = verify._flat(summands, index, q)
        assert flat == flat_reduced(summands, index, q)
        dropped += sum(p.num_terms() - len(terms) for (p, _), (terms, _) in zip(summands, flat))
    assert dropped > 0


def test_compare_varieties_reduces_no_polynomial(monkeypatch):
    def refuse(self, q):
        raise AssertionError("reduce_mod called")

    monkeypatch.setattr(Polynomial, "reduce_mod", refuse)
    for n, q in [((3,), 3), ((2, 2, 3, 4), 2), ((1, 1, 2), 5)]:
        assert compare_varieties(build_profile(n), q).passed


def test_block_scan_is_shared_by_equal_blocks(monkeypatch):
    # (2,2,3,3) has two blocks up to the block index, so two block scans.
    scanned = []
    scan = verify._projective_scan

    def counting(system, minors, variables, q):
        scanned.append(variables[0].block)
        return scan(system, minors, variables, q)

    monkeypatch.setattr(verify, "_projective_scan", counting)
    report = compare_varieties(build_profile([2, 2, 3, 3]), 3)
    assert report.passed
    assert scanned == [1, 3]


def test_walk_self_check_catches_a_dropped_choice():
    # Without its representative 1 the last coordinate loses every nonzero
    # value, so the walk reaches fewer candidates than it is given.
    variables = build_profile([2]).variables()
    levels = [([v], None) for v in variables]
    _, hits, _ = verify._walk(levels, [], [], projective_size(3, 3), 3)
    assert hits == enumerate_variety([], variables, 3)
    levels[-1] = (variables[-1:], [])
    with pytest.raises(AssertionError, match="walk accounting mismatch"):
        verify._walk(levels, [], [], projective_size(3, 3), 3)


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


# -- cross-checks against the full-map references ------------------------------------

PARAM_GRID = [n for d in (1, 2) for n in itertools.product(range(1, 6), repeat=d)] + [
    (1, 1, 1), (2, 3, 5), (3, 1, 4), (5, 5, 5), (1, 1, 1, 1), (2, 2, 3, 4), (5, 4, 3, 2),
    (1, 2, 3, 4, 5), (4, 4, 1, 4, 4), (1, 1, 1, 1, 1, 1), (2, 3, 2, 3, 2, 3), (5, 4, 3, 2, 1, 5),
    (5, 5, 5, 5, 5, 5),
]


def scroll_vanishing_by_pair(eqset):
    """Each bridge's verdict under the u[j] -> v parametrization."""
    n = eqset.profile.n
    return {(i, j): check_bridge_scroll_vanishing(n[i - 1], n[j - 1], i, j, br)[0]
            for (i, j), br in eqset.bridges.items()}


@pytest.mark.parametrize("n", PARAM_GRID, ids=lambda n: "-".join(map(str, n)))
def test_parametrization_matches_the_full_map_reference(n):
    eqset = equation_set(build_profile(n))
    report = check_parametrization(eqset.profile, eqset=eqset)
    assert report.checks == reference.check_parametrization(eqset)
    assert report.passed and len(report.bridges) == math.comb(len(n), 2)
    assert report.bridges == scroll_vanishing_by_pair(eqset)


def bump_bridge(eqset, pair, delta=1):
    """The equation set with the leading coefficient of bridge ``pair`` raised by ``delta``."""
    br = eqset.bridges[pair]
    lead, _ = list(br.terms.items())[0]
    mutant = replace(eqset)
    bumped = br + Polynomial(ZZ, {lead: delta})
    object.__setattr__(mutant, "bridges", {**eqset.bridges, pair: bumped})
    return mutant


def bump_minor(eqset, index):
    """The equation set with the -1 coefficient of minor ``index`` made -2."""
    minors = list(eqset.minor_gens)
    terms = minors[index].terms.items()
    minors[index] = Polynomial(ZZ, {m: 2 * c if c < 0 else c for m, c in terms})
    return replace(eqset, minor_gens=tuple(minors))


def move_minor_term(eqset, index):
    """The equation set with the -1 term of minor ``index`` moved to the square
    of the first variable of the minor whose square is neither term."""
    minors = list(eqset.minor_gens)
    (plus, _), (minus, _) = sorted(minors[index].terms.items(), key=lambda t: -t[1])
    squares = [((v, 2),) for v in minors[index].variables()]
    square = next(m for m in squares if m not in (plus, minus))
    minors[index] = Polynomial(ZZ, {plus: 1, square: -1})
    return replace(eqset, minor_gens=tuple(minors))


@pytest.mark.parametrize("mutate, args, n", [
    (bump_minor, (0,), (2, 3, 4)),
    (bump_minor, (2,), (1, 1, 1)),
    (bump_minor, (20,), (3, 3, 3)),
    (move_minor_term, (0,), (2, 3, 4)),
    (move_minor_term, (1,), (3,)),
    (move_minor_term, (7,), (1, 2, 2)),
    (bump_bridge, ((1, 3),), (2, 3, 4)),
    (bump_bridge, ((2, 4),), (2, 2, 3, 4)),
    (bump_bridge, ((1, 2),), (1, 1)),
    (bump_bridge, ((3, 4), -1), (2, 2, 3, 3)),
    (bump_curve, (1, 1, 2), (3, 2)),
    (bump_curve, (2, 2, -2), (2, 4)),
    (bump_curve, (1, 3, 2), (5,)),
    (bump_curve, (3, 1, -2), (1, 1, 5)),
], ids=lambda a: "-".join(map(str, a)) if isinstance(a, tuple) else getattr(a, "__name__", None))
def test_parametrization_matches_the_full_map_reference_on_mutants(mutate, args, n):
    eqset = mutate(equation_set(build_profile(n)), *args)
    report = check_parametrization(eqset.profile, eqset=eqset)
    checks = reference.check_parametrization(eqset)
    assert report.checks == checks
    assert not report.passed and all(c.residual for c in report.failures())
    assert report.bridges == scroll_vanishing_by_pair(eqset)
    assert all(report.bridges.values()) == (mutate is not bump_bridge)


# The first check that fails names the pair whose minor is not m(1,2)
# renamed; for a mutated m(1,2) that is (1,3), unless m(1,2) uses a column
# other than 1 and 2, which the renaming would leave fixed.
@pytest.mark.parametrize("d, pair, wrong, named", [
    (4, (1, 2), lambda: generic_minor(1, 2).scale(2), "(1,3)"),
    (5, (2, 4), lambda: generic_minor(4, 2), "(2,4)"),
    (5, (1, 5), lambda: generic_minor(1, 5) + Polynomial.term(1, [(u_var(1), 1), (u_var(5), 1)]),
     "(1,5)"),
    (6, (3, 4), lambda: generic_minor(3, 4) * Polynomial.term(1, [(u_var(6), 3)]), "(3,4)"),
    (6, (2, 6), lambda: Polynomial.zero(ZZ), "(2,6)"),
    (6, (2, 5), lambda: -generic_minor(2, 5), "(2,5)"),
    (6, (3, 6), lambda: Polynomial.term(1, [(t_var(3), 1), (u_var(6), 1)])
     - Polynomial.term(1, [(u_var(3), 1), (t_var(5), 1)]), "(3,6)"),
    (5, (1, 2), lambda: generic_minor(1, 2) + Polynomial.term(1, [(t_var(3), 1), (u_var(3), 1)]),
     "(1,2) uses u[3], t[3]"),
], ids=["doubled", "negated", "extra-term", "degree-5", "zero", "sign-flip", "index-swap",
        "other-column"])
def test_plucker_identity_matches_the_reference_with_a_wrong_minor(
    monkeypatch, d, pair, wrong, named
):
    bad = wrong()

    def minor(i, j):
        return bad if (i, j) == pair else generic_minor(i, j)

    monkeypatch.setattr(verify, "generic_minor", minor)
    ok, detail = plucker_identity(d)
    assert ok == reference.plucker_identity(d, minor)[0]
    assert not ok and named in detail
