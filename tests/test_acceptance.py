"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every criterion carries its time limit; limits are asserted.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from golden import (
    BRIDGE_2_2,
    BRIDGE_2_3,
    BRIDGE_2_4,
    BRIDGE_3_4,
    CURVE_2_1,
    CURVE_3_2,
    CURVE_4_3,
    bridge_from_table,
    curve_from_table,
)
from reference import bridge_via_lists, enumerate_variety
from scrolleq import (
    Polynomial,
    ZZ,
    bridge,
    build_profile,
    check_bridge_determinant_power,
    check_bridge_scroll_vanishing,
    check_parametrization,
    compare_varieties,
    equation_set,
    plucker_identity,
    term_bound,
    weight_groups,
    x_var,
)
from scrolleq.cli import run


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s (limit {limit_s}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {limit_s:g}s): {description}")


def test_criterion_1_bridge_golden_tables():
    with criterion(1, "bridge golden values, coefficient for coefficient", 1.0):
        coeff_column = [c for c, _, _ in BRIDGE_3_4]
        assert coeff_column == [
            1, -12, 66, -220, 495, -792, 924, -792, 495, -220, 66, -12, 1,
        ]
        for table, (a, b) in [
            (BRIDGE_2_4, (2, 4)),
            (BRIDGE_2_3, (2, 3)),
            (BRIDGE_3_4, (3, 4)),
        ]:
            expected = bridge_from_table(table, 1, 2)
            assert bridge(a, b) == expected
            assert bridge_via_lists(a, b) == expected
        for a in range(1, 7):
            expected = Polynomial(ZZ, [
                ([(x_var(1, a - j), 1), (x_var(2, j), 1)], (-1) ** j * math.comb(a, j))
                for j in range(a + 1)
            ])
            assert bridge(a, a) == expected


def test_criterion_2_full_system_golden():
    with criterion(2, "the (2,2,3,4) system matches its twelve frozen generators", 5.0):
        profile = build_profile([2, 2, 3, 4])
        groups = {g.k: g for g in weight_groups(profile)}
        assert groups[5].degree == math.lcm(3, 5) == 15
        assert groups[5].powers == (5, 3)

        expected = [
            ("curve[1][1]", curve_from_table(CURVE_2_1, 1)),
            ("curve[2][1]", curve_from_table(CURVE_2_1, 2)),
            ("curve[3][1]", curve_from_table(CURVE_2_1, 3)),
            ("curve[3][2]", curve_from_table(CURVE_3_2, 3)),
            ("curve[4][1]", curve_from_table(CURVE_2_1, 4)),
            ("curve[4][2]", curve_from_table(CURVE_3_2, 4)),
            ("curve[4][3]", curve_from_table(CURVE_4_3, 4)),
            ("weight[3]", bridge_from_table(BRIDGE_2_2, 1, 2)),
            ("weight[4]", bridge_from_table(BRIDGE_2_3, 1, 3)),
            (
                "weight[5]",
                bridge_from_table(BRIDGE_2_4, 1, 4) ** 5
                + bridge_from_table(BRIDGE_2_3, 2, 3) ** 3,
            ),
            ("weight[6]", bridge_from_table(BRIDGE_2_4, 2, 4)),
            ("weight[7]", bridge_from_table(BRIDGE_3_4, 3, 4)),
        ]
        system = equation_set(profile).system()
        assert len(system) == 12
        for (label, got), (want_label, want) in zip(system, expected):
            assert label == want_label
            # a generator may differ from the frozen reference by a global sign
            assert got == want or got == -want, label


def test_criterion_3_count_law_on_random_profiles():
    with criterion(3, "fifty random profiles emit exactly N-2 generators", 10.0):
        rng = random.Random(20260810)
        expanded = 0
        for _ in range(50):
            d = rng.randint(2, 6)
            profile = build_profile([rng.randint(1, 6) for _ in range(d)])
            target = profile.N - 2
            eqset = equation_set(profile)
            assert eqset.system_size == target, profile
            # fully expand whenever the balancing powers stay tame
            if max(g.degree for g in eqset.groups) <= 24:
                assert len(eqset.system()) == target, profile
                for group, (_, generator) in zip(eqset.groups, eqset.weight_gens):
                    assert term_bound(group) >= generator.num_terms(), (profile, group.k)
                expanded += 1
        assert expanded >= 10  # the sample must exercise the full path too


def test_criterion_4_bridge_identities_full_grid():
    with criterion(4, "both bridge identities hold for all degree pairs up to 6", 30.0):
        for a in range(1, 7):
            for b in range(1, 7):
                vanished, residual = check_bridge_scroll_vanishing(a, b)
                assert vanished, (a, b, str(residual))
                assert check_bridge_determinant_power(a, b), (a, b)


def test_criterion_5_parametrization_vanishing_matrix():
    with criterion(5, "all generators vanish under the scroll parametrization", 60.0):
        for n in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 1, 1), (2, 2, 3, 4), (3, 4, 5)]:
            profile = build_profile(n)
            eqset = equation_set(profile)
            report = check_parametrization(eqset)
            assert report.total == eqset.system_size + len(eqset.minor_gens)
            assert report.passed, (n, [c.label for c in report.failures])


def test_criterion_6_plucker_relations():
    with criterion(6, "three-term minor relations for generic 2 x d matrices", 5.0):
        for d in range(1, 7):
            ok, failures = plucker_identity(d)
            assert ok, (d, failures)


CASES_7 = [
    ((1, 1), (3, 5, 7)),
    ((1, 2), (3, 5, 7)),
    ((2, 2), (3, 5)),
    ((1, 1, 1), (3, 5)),
    ((2, 3), (3,)),
    ((2, 2, 3, 4), (2,)),
]


def test_criterion_7_radical_equality_oracle():
    with criterion(7, "point sets of system and minors agree over small fields", 120.0):
        for n, fields in CASES_7:
            profile = build_profile(n)
            eqset = equation_set(profile)
            for q in fields:
                report = compare_varieties(eqset, q)
                assert report.passed, (n, q, report.witnesses[:5])
                assert report.count_p <= report.count_j
                if n in ((1, 1), (1, 2)):
                    assert report.count_p == (q + 1) ** 2, (n, q)
                if n == (2, 2, 3, 4):
                    # The whole-space oracle over all 2^15 - 1 points.
                    variables = profile.variables()
                    system = [p.reduce_mod(q) for _, p in eqset.system()]
                    minors = [p.reduce_mod(q) for p in eqset.minor_gens]
                    on_j = enumerate_variety(system, variables, q)
                    on_p = enumerate_variety(minors, variables, q)
                    witnesses = tuple(sorted(set(on_j) - set(on_p)))
                    assert (report.count_j, report.count_p, report.witnesses) == (
                        len(on_j), len(on_p), witnesses)


def test_criterion_8_small_characteristic_robustness():
    with criterion(8, "equality persists where coefficients vanish mod 2 and 3", 120.0):
        # Characteristic 2 really degrades the bridges: the five-term bridge
        # of blocks (2, 4) keeps only its two extreme terms, and the
        # thirteen-term bridge of blocks (3, 4) keeps four.
        assert bridge(2, 4).reduce_mod(2).num_terms() == 2
        assert bridge(2, 2).reduce_mod(2).num_terms() == 2
        assert bridge(3, 4).reduce_mod(2).num_terms() == 4

        for n, q in [((2, 2, 3, 4), 2), ((2, 2), 3)]:
            report = compare_varieties(equation_set(build_profile(n)), q)
            if not report.passed:
                pytest.fail(
                    f"FINDING: over GF({q}) the system for {n} cuts out extra "
                    f"points; witnesses {list(report.witnesses[:5])}"
                )


def test_criterion_9_lower_bound_is_cited_not_verified(capsys):
    # The minimality of N-2 equations rests on theory outside desk reach;
    # the artifact must claim it as cited, never as verified.
    with criterion(9, "rank minimality is reported as cited theory", 5.0):
        assert run(["--profile", "2,2,3,4", "equations"]) == 0
        out = capsys.readouterr().out
        assert "upper bound constructive; lower bound cited" in out
        assert "verified" not in out
        eqset = equation_set(build_profile([2, 2, 3, 4]))
        assert eqset.claimed_arithmetic_rank == eqset.profile.N - 2 == 12
    print(
        "ACCEPTANCE 9 NOTE: constructive upper bound exercised by criteria 1-8; "
        "the matching lower bound is cited from the literature."
    )


def test_criterion_10_large_profiles_verify_through_bridges(capsys):
    # Expanded, the weight-5 generator of (2,3,5,7) has 369,469 terms and
    # that of (3,5,7,8) more than fit the default budget; verify proves each
    # weight generator through its bridges and expands neither.
    with criterion(10, "verify passes on (2,3,5,7) and (3,5,7,8)", 5.0):
        for n, k in (("2,3,5,7", 154), ("3,5,7,8", 277)):
            assert run(["--profile", n, "verify"]) == 0
            out = capsys.readouterr().out
            assert "FAIL" not in out
            assert f"PASS parametrization-vanishing ({k}/{k} generators vanish)" in out
            assert out.endswith(f"PASS suite for profile ({n.replace(',', ', ')})\n")


def test_criterion_11_block_factored_comparison_expands_nothing(no_expansion):
    # Whole-space scans of these would visit 2.1e6 to 7.6e9 points; the
    # block-factored comparison evaluates each weight generator through its
    # bridges and expands none.
    with criterion(11, "point sets agree on (2,2,3,4) over GF(3), GF(5) and "
                       "on (2,3,5,7), (3,5,7,8) over GF(2)", 10.0):
        for n, q in [((2, 2, 3, 4), 3), ((2, 2, 3, 4), 5), ((2, 3, 5, 7), 2), ((3, 5, 7, 8), 2)]:
            report = compare_varieties(equation_set(build_profile(n)), q)
            d = len(n)
            assert report.count_j == report.count_p == (q + 1) * (q**d - 1) // (q - 1), (n, q)
            assert report.witnesses == (), (n, q)
