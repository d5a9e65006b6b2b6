"""Tests for profiles, matrices, curve equations, bridges and equation sets."""

import itertools
import json
import math
import random
from pathlib import Path

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
import reference
from reference import binomial, bridge_via_lists, is_homogeneous, num_vars, schoolbook_pow
from scrolleq import (
    ZZ,
    Polynomial,
    bridge,
    bridge_meta,
    build_profile,
    curve_equation,
    equation_set,
    g_polynomial,
    minors_2x2,
    monomial,
    term_bound,
    weight_groups,
    x_var,
)
from scrolleq import scroll

# -- profiles -----------------------------------------------------------------


def test_profile_dimensions():
    p = build_profile([2, 2, 3, 4])
    assert (p.d, p.N, num_vars(p)) == (4, 14, 15)
    assert build_profile([1, 1]).N == 3
    assert build_profile([6]).N == 6


def test_profile_variable_order():
    p = build_profile([1, 2])
    assert p.variables() == (
        x_var(1, 0), x_var(1, 1), x_var(2, 0), x_var(2, 1), x_var(2, 2),
    )


def test_profile_validation():
    with pytest.raises(ValueError):
        build_profile([])
    with pytest.raises(ValueError):
        build_profile([2, 0])
    with pytest.raises(ValueError):
        build_profile([-1])


@pytest.mark.parametrize("n", [[2.5, 3.9], [2.0, 3], ["2", 3], [None]], ids=repr)
def test_profile_refuses_non_integer_degrees(n):
    # A fractional degree is refused, not truncated: [2.5, 3.9] is not (2, 3).
    with pytest.raises(ValueError, match="block degrees must be integers"):
        build_profile(n)


# -- minors ----------------------------------------------------------------------


def test_single_minor_for_two_lines():
    minors = minors_2x2(build_profile([1, 1]))
    expected = Polynomial(ZZ, [([(x_var(1, 0), 1), (x_var(2, 1), 1)], 1),
                               ([(x_var(1, 1), 1), (x_var(2, 0), 1)], -1)])
    assert minors == [expected]


def test_minor_of_one_conic_block():
    minors = minors_2x2(build_profile([2]))
    assert minors == [curve_from_table(CURVE_2_1, 1)]


def test_minor_count_and_dedup():
    minors = minors_2x2(build_profile([2, 2, 3, 4]))
    assert len(minors) == math.comb(11, 2) == 55
    assert len({tuple(p.terms.items()) for p in minors}) == 55
    assert all(is_homogeneous(p) and p.total_degree() == 2 for p in minors)


def test_minors_match_products_of_variables():
    # Every profile with d <= 4 and block degrees 1-3 (orders included), so
    # n_i = 1 blocks and adjacent columns, whose product is a square.
    for d in range(1, 5):
        for n in itertools.product((1, 2, 3), repeat=d):
            # Row 1 of the matrix, and row 2: row 1 shifted by one slot.
            top = [x_var(i, j) for i, ni in enumerate(n, start=1) for j in range(ni)]
            bottom = [x_var(v.block, v.slot + 1) for v in top]
            pairs = list(itertools.combinations(range(len(top)), 2))
            products = [
                Polynomial.variable(top[c1]) * Polynomial.variable(bottom[c2])
                - Polynomial.variable(bottom[c1]) * Polynomial.variable(top[c2])
                for c1, c2 in pairs
            ]
            # The determinant definition through the constructor, which sorts
            # each monomial, merges a square and orders the terms itself.
            determinants = [
                Polynomial(ZZ, [([(top[c1], 1), (bottom[c2], 1)], 1),
                                ([(bottom[c1], 1), (top[c2], 1)], -1)])
                for c1, c2 in pairs
            ]
            minors = minors_2x2(build_profile(n))
            assert minors == products == determinants, n
            # Equal dicts may differ in order; the print order must not.
            orders = [[list(p.terms.items()) for p in family]
                      for family in (minors, products, determinants)]
            assert orders[0] == orders[1] == orders[2], n


# -- curve equations ---------------------------------------------------------------


def test_curve_equation_golden():
    assert curve_equation(2, 1) == curve_from_table(CURVE_2_1, 1)
    assert curve_equation(3, 2) == curve_from_table(CURVE_3_2, 1)
    assert curve_equation(4, 3) == curve_from_table(CURVE_4_3, 1)


def test_curve_equation_blocks_and_degrees():
    for n in range(2, 7):
        for i in range(1, n):
            p = curve_equation(n, i, block=3)
            assert is_homogeneous(p)
            assert p.total_degree() == i + 1
            assert p.num_terms() == i + 1
            assert all(v.block == 3 for v in p.variables())


def test_curve_equation_range_errors():
    with pytest.raises(ValueError):
        curve_equation(3, 0)
    with pytest.raises(ValueError):
        curve_equation(3, 3)
    with pytest.raises(ValueError, match="block index"):
        curve_equation(3, 1, block=0)


# -- bridges -------------------------------------------------------------------------


def test_bridge_meta():
    meta = bridge_meta(2, 4)
    assert (meta.m, meta.p, meta.q, meta.degree) == (4, 2, 1, 3)
    meta = bridge_meta(3, 4)
    assert (meta.m, meta.p, meta.q, meta.degree) == (12, 4, 3, 7)
    with pytest.raises(ValueError):
        bridge_meta(0, 3)


def test_bridge_golden_tables():
    assert bridge(2, 4) == bridge_from_table(BRIDGE_2_4, 1, 2)
    assert bridge(2, 3) == bridge_from_table(BRIDGE_2_3, 1, 2)
    assert bridge(2, 2) == bridge_from_table(BRIDGE_2_2, 1, 2)
    assert bridge(3, 4) == bridge_from_table(BRIDGE_3_4, 1, 2)


def test_bridge_equal_blocks_formula():
    # For equal blocks the bridge is the pure signed pairing of slots.
    for a in range(1, 7):
        expected = Polynomial(ZZ, [
            ([(x_var(1, a - j), 1), (x_var(2, j), 1)], (-1) ** j * math.comb(a, j))
            for j in range(a + 1)
        ])
        assert bridge(a, a) == expected


def test_bridge_trivial_case():
    assert bridge_via_lists(1, 1) == Polynomial(ZZ, [([(x_var(1, 1), 1), (x_var(2, 0), 1)], 1),
                                                     ([(x_var(1, 0), 1), (x_var(2, 1), 1)], -1)])


def test_bridge_constructions_agree():
    for a in range(1, 9):
        for b in range(1, 9):
            meta, direct = bridge_meta(a, b), bridge(a, b)
            listed = bridge_via_lists(a, b)
            assert direct == listed, (a, b)
            assert direct.num_terms() == meta.m + 1


def test_bridge_homogeneity_and_block_degrees():
    for a in range(1, 7):
        for b in range(1, 7):
            meta, p = bridge_meta(a, b), bridge(a, b, 3, 5)
            assert is_homogeneous(p)
            assert p.total_degree() == meta.degree
            for mono in p.terms:
                block_degree = {3: 0, 5: 0}
                for v, e in mono:
                    block_degree[v.block] += e
                assert block_degree == {3: meta.p, 5: meta.q}


def test_bridge_swap_symmetry():
    # Swapping the roles of the two blocks flips the sign exactly when the
    # least common multiple is odd.
    for a in range(1, 7):
        for b in range(1, 7):
            meta, forward = bridge_meta(a, b), bridge(a, b, 1, 2)
            backward = bridge(b, a, 2, 1)
            expected = forward if meta.m % 2 == 0 else -forward
            assert backward == expected, (a, b)


def assert_canonical_as_built(poly):
    # Strictly sorted monomials with positive exponents, and the very terms
    # the canonicalizing constructor makes of the same pairs.
    for mono in poly.terms:
        assert all(e > 0 for _, e in mono), mono
        assert all(u < w for (u, _), (w, _) in zip(mono, mono[1:])), mono
    assert poly.terms == Polynomial(ZZ, poly.terms.items()).terms


def test_bridge_is_canonical_as_built():
    for a in range(1, 9):
        for b in range(1, 9):
            for blocks in [(1, 2), (2, 1), (3, 5), (5, 3)]:
                assert_canonical_as_built(bridge(a, b, *blocks))


def test_curve_equation_is_canonical_as_built():
    for n in range(2, 13):
        for i in range(1, n):
            assert_canonical_as_built(curve_equation(n, i, block=2))


def test_bridge_rejects_same_block():
    with pytest.raises(ValueError):
        bridge(2, 3, 1, 1)


@pytest.mark.parametrize("blocks", [(0, 2), (1, 0), (-1, 2)])
def test_bridge_rejects_a_block_below_one(blocks):
    with pytest.raises(ValueError, match="distinct positive blocks"):
        bridge(1, 2, *blocks)


def test_signed_binomials_sum_to_zero():
    for m in range(1, 13):
        assert sum((-1) ** k * binomial(m, k) for k in range(m + 1)) == 0


# -- weight groups ----------------------------------------------------------------------


def test_weight_groups_2234():
    groups = {g.k: g for g in weight_groups(build_profile([2, 2, 3, 4]))}
    assert sorted(groups) == [3, 4, 5, 6, 7]
    g5 = groups[5]
    assert g5.pairs == ((1, 4), (2, 3))
    assert [m.degree for m in g5.metas] == [3, 5]
    assert g5.degree == 15
    assert g5.powers == (5, 3)


def test_weight_groups_two_blocks():
    groups = weight_groups(build_profile([3, 5]))
    assert len(groups) == 1
    assert groups[0].k == 3
    assert groups[0].pairs == ((1, 2),)
    assert groups[0].powers == (1,)


def test_weight_groups_single_block_empty():
    assert weight_groups(build_profile([4])) == []


def test_weight_groups_partition_all_pairs():
    rng = random.Random(7)
    for _ in range(20):
        d = rng.randint(2, 6)
        profile = build_profile([rng.randint(1, 6) for _ in range(d)])
        groups = weight_groups(profile)
        seen = [pair for g in groups for pair in g.pairs]
        assert len(seen) == len(set(seen)) == math.comb(d, 2)
        assert set(seen) == {(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)}
        for g in groups:
            assert all(i + j == g.k and i < j for i, j in g.pairs)
            for meta, power in zip(g.metas, g.powers):
                assert power * meta.degree == g.degree


@pytest.mark.parametrize("d", range(1, 9))
def test_weight_groups_match_the_reference_on_small_profiles(d):
    # Every profile with d blocks of degree at most 4, in every order.
    for n in itertools.product(range(1, 5), repeat=d):
        profile = build_profile(n)
        assert weight_groups(profile) == reference.weight_groups(profile), n


@pytest.mark.parametrize("n", [(1,) * 40, (1,) * 400, (2, 3, 5, 7), (97, 89)],
                         ids=["40-lines", "400-lines", "2-3-5-7", "97-89"])
def test_weight_groups_match_the_reference(n):
    # Equal groups have equal k, pairs, metas, degree and powers.
    profile = build_profile(n)
    assert weight_groups(profile) == reference.weight_groups(profile)


def test_weight_groups_make_one_bridge_meta_per_degree_pair(monkeypatch):
    calls = []
    original = scroll.bridge_meta
    monkeypatch.setattr(scroll, "bridge_meta", lambda a, b: calls.append((a, b)) or original(a, b))
    for n in [(2, 3, 5, 7), (2, 2, 3, 3, 2, 2), (4, 1, 4, 1), (1,) * 40, (5,)]:
        distinct = {(a, b) for i, a in enumerate(n) for b in n[i + 1:]}
        for _ in range(2):  # nothing is kept from one call to the next
            calls.clear()
            weight_groups(build_profile(n))
            assert sorted(calls) == sorted(distinct), n


def test_g_polynomial_degree_and_structure():
    es = equation_set(build_profile([2, 2, 3, 4]))
    groups = {g.k: g for g in es.groups}
    g5 = g_polynomial(es.bridges, groups[5])
    assert is_homogeneous(g5) and g5.total_degree() == 15
    expected = (
        bridge_from_table(BRIDGE_2_4, 1, 4) ** 5 + bridge_from_table(BRIDGE_2_3, 2, 3) ** 3
    )
    assert g5 == expected
    # single-pair weights are plain bridges
    assert g_polynomial(es.bridges, groups[3]) == bridge_from_table(BRIDGE_2_2, 1, 2)


def test_weight_group_pairs_share_no_block_and_one_degree():
    # g_polynomial concatenates a group's bridge powers instead of adding
    # them: that needs the pairs of a group to use pairwise disjoint blocks
    # (so the powers share no monomial) and the powers to have one degree.
    # The pairs depend on d alone and the degrees on the block degrees; read
    # from weight_groups, nothing expanded.
    rng = random.Random(25)
    for d in range(1, 41):
        for n in [(1,) * d, tuple(range(1, d + 1))] + [
            tuple(rng.randint(1, 12) for _ in range(d)) for _ in range(3)
        ]:
            for g in weight_groups(build_profile(n)):
                blocks = [b for pair in g.pairs for b in pair]
                assert len(set(blocks)) == len(blocks), (n, g.k)
                degrees = {meta.degree * power for meta, power in zip(g.metas, g.powers)}
                assert degrees == {g.degree}, (n, g.k)


@pytest.mark.parametrize("n", [(1, 1, 1), (3, 1, 2), (2, 2, 3, 4), (1, 2, 3, 4, 5), (4, 1, 1, 3, 2, 1)],
                         ids=lambda n: "".join(map(str, n)))
def test_g_polynomial_is_its_bridge_powers_added(n):
    es = equation_set(build_profile(n))
    for group in es.groups:
        added = Polynomial(ZZ)
        for pair, power in zip(group.pairs, group.powers):
            added = added + es.bridges[pair] ** power
        generator = g_polynomial(es.bridges, group)
        assert generator == added, (n, group.k)
        assert list(generator.terms.items()) == list(added.terms.items()), (n, group.k)


# Profiles of the benchmark's symbolic pool, with the weight-generator terms
# recorded for each; the pool keeps those with at most 3,000 terms.
SYMBOLIC_POOL = Path(__file__).resolve().parent.parent / "scrollbench" / "reference.json"


def test_weight_gens_expand_to_sum_of_bridge_powers():
    # The lazy form (groups) against the schoolbook expansion of each
    # bridge power, on every symbolic pool profile; the term bound must cover
    # every expanded generator.
    pool = json.loads(SYMBOLIC_POOL.read_text())["symbolic"]
    profiles = [tuple(map(int, key.split(","))) for key, e in pool.items() if e["terms"] <= 3000]
    assert len(profiles) == 233
    powers = {}  # (a, b, i, j, c) -> schoolbook bridge power; pools share many
    for n in profiles:
        profile = build_profile(n)
        es = equation_set(profile)
        assert [k for k, _ in es.weight_gens] == [g.k for g in es.groups]
        for group, (_, generator) in zip(es.groups, es.weight_gens):
            expected = Polynomial(ZZ)
            for (i, j), c in zip(group.pairs, group.powers):
                key = (n[i - 1], n[j - 1], i, j, c)
                if key not in powers:
                    powers[key] = schoolbook_pow(es.bridges[i, j], c)
                expected = expected + powers[key]
            assert generator == expected, (n, group.k)
            assert term_bound(group) >= generator.num_terms(), (n, group.k)


def test_equation_set_expands_only_when_read(monkeypatch):
    calls = []
    monkeypatch.setattr(scroll, "g_polynomial", lambda bridges, group: calls.append(group.k))
    es = equation_set(build_profile([3, 5, 7, 8]))
    assert es.system_size == es.profile.N - 2 == 24
    assert len(es.curve_gens) == 19 and len(es.bridges) == 6
    assert calls == []
    es.weight_gens
    assert calls == [3, 4, 5, 6, 7]  # once per group
    es.system()
    assert calls == [3, 4, 5, 6, 7] * 2  # nothing is cached


def test_equation_set_builds_each_bridge_once(monkeypatch):
    built = []
    original = scroll.bridge
    monkeypatch.setattr(scroll, "bridge", lambda *args: built.append(args) or original(*args))
    es = equation_set(build_profile([2, 2, 3, 4]))
    assert len(built) == len(set(built)) == math.comb(4, 2)
    assert list(es.bridges) == [pair for g in es.groups for pair in g.pairs]
    es.weight_gens
    es.system()
    assert len(built) == math.comb(4, 2)


def test_weight_gens_expand_from_the_shared_bridges():
    # Weight 5 of (2,2,3,4) is bridge (1,4)^5 + bridge (2,3)^3.
    es = equation_set(build_profile([2, 2, 3, 4]))
    stand_in = Polynomial.variable(x_var(2, 0))
    es = es._replace(bridges={**es.bridges, (2, 3): stand_in})
    weight5 = dict(es.weight_gens)[5]
    assert weight5 == es.bridges[1, 4] ** 5 + stand_in**3


def test_term_bound_examples():
    groups = {g.k: g for g in weight_groups(build_profile([2, 3, 5, 7]))}
    # bridge (1,4) = bridge(2, 7) has m = 14, raised to 8: C(22, 8); bridge
    # (2,3) = bridge(3, 5) has m = 15, raised to 9: C(24, 9).
    assert term_bound(groups[5]) == math.comb(22, 8) + math.comb(24, 9) == 1_627_274
    # A single bridge, unraised, has exactly m + 1 terms.
    assert term_bound(groups[3]) == math.lcm(2, 3) + 1


# -- equation sets ------------------------------------------------------------------------


def test_equation_set_two_equal_conic_blocks():
    es = equation_set(build_profile([2, 2]))
    assert es.system_size == 3
    expected = [
        curve_from_table(CURVE_2_1, 1),
        curve_from_table(CURVE_2_1, 2),
        bridge_from_table(BRIDGE_2_2, 1, 2),
    ]
    assert [p for _, p in es.system()] == expected


def test_equation_set_surface_counts():
    es = equation_set(build_profile([3, 4]))
    assert es.system_size == 3 + 4 - 1 == es.profile.N - 2
    labels = [label for label, _ in es.system()]
    assert labels == ["curve[1][1]", "curve[1][2]", "curve[2][1]", "curve[2][2]",
                      "curve[2][3]", "weight[3]"]
    assert es.system()[-1] == ("weight[3]", bridge(3, 4))


def test_equation_set_2234_labels():
    es = equation_set(build_profile([2, 2, 3, 4]))
    assert es.system_size == 12
    assert [label for label, _ in es.system()] == [
        "curve[1][1]", "curve[2][1]", "curve[3][1]", "curve[3][2]",
        "curve[4][1]", "curve[4][2]", "curve[4][3]",
        "weight[3]", "weight[4]", "weight[5]", "weight[6]", "weight[7]",
    ]
    assert len(es.minor_gens) == 55
    assert len(reference.labeled_minors(es)) == 55


def test_labeled_minors_name_their_column_pairs():
    es = equation_set(build_profile([2, 2, 3, 4]))
    labeled = reference.labeled_minors(es)
    pairs = list(itertools.combinations(range(2 + 2 + 3 + 4), 2))
    assert [label for label, _ in labeled] == [f"minor[{c1}][{c2}]" for c1, c2 in pairs]
    # Column c is (x[i][j], x[i][j+1]) for the c-th slot j < n_i, block by block.
    top = [x_var(i, j) for i, ni in enumerate((2, 2, 3, 4), start=1) for j in range(ni)]
    var = Polynomial.variable
    for (_, p), (c1, c2) in zip(labeled, pairs):
        t1, t2 = top[c1], top[c2]
        b1, b2 = x_var(t1.block, t1.slot + 1), x_var(t2.block, t2.slot + 1)
        assert p == var(t1) * var(b2) - var(b1) * var(t2)


def test_equation_set_single_block():
    es = equation_set(build_profile([4]))
    assert es.system_size == 3
    assert not es.weight_gens
    assert es.claimed_arithmetic_rank == 3
    assert [label for label, _ in es.system()] == ["curve[1][1]", "curve[1][2]", "curve[1][3]"]


def test_claimed_rank_matches_codimension_bound():
    for n in ([1, 1], [2, 3], [2, 2, 3, 4], [3, 4, 5]):
        es = equation_set(build_profile(n))
        assert es.claimed_arithmetic_rank == es.profile.N - 2
        assert es.system_size == es.profile.N - 2


def test_every_generator_homogeneous():
    es = equation_set(build_profile([2, 3, 4]))
    for label, p in es.system() + reference.labeled_minors(es):
        assert is_homogeneous(p), label
