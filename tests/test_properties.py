"""Property-based tests: ring axioms, homomorphism laws, canonical form."""

import itertools
import json
import math
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    enumerate_variety,
    evaluate,
    grevlex_cmp,
    is_homogeneous,
    merge_monomial,
    reference_parse,
    schoolbook_mul,
    schoolbook_pow,
    schoolbook_substitute,
)
from scrolleq import (
    GF,
    DomainMismatchError,
    VAR_S,
    VAR_T,
    VAR_W,
    ZZ,
    ParseContext,
    ParseError,
    Polynomial,
    Substitution,
    VarId,
    binomial_row,
    bridge,
    build_profile,
    curve_equation,
    equation_set,
    grevlex_key,
    minors_2x2,
    monomial,
    parse_poly,
    poly_from_json,
    t_var,
    u_var,
    x_var,
)
from scrolleq import verify
from scrolleq.textio import poly_to_json, polys_json_text

VARS = [x_var(1, 0), x_var(1, 1), x_var(1, 2), x_var(2, 0), x_var(2, 1), VAR_S, VAR_T, u_var(1)]

domains = st.sampled_from([ZZ, GF(2), GF(5), GF(101)])
coeffs = st.integers(min_value=-30, max_value=30)


@st.composite
def monomials(draw, max_vars=3, max_exp=3, pool=VARS, min_vars=0):
    chosen = draw(
        st.lists(st.sampled_from(pool), min_size=min_vars, max_size=max_vars, unique=True)
    )
    return monomial({v: draw(st.integers(1, max_exp)) for v in chosen})


@st.composite
def polys(draw, domain=None, max_terms=5, pool=VARS):
    dom = domain if domain is not None else draw(domains)
    terms = draw(
        st.dictionaries(monomials(pool=pool), coeffs, max_size=max_terms)
    )
    return Polynomial(dom, terms)


@st.composite
def poly_pairs(draw, max_terms=5):
    dom = draw(domains)
    return draw(polys(domain=dom, max_terms=max_terms)), draw(polys(domain=dom, max_terms=max_terms))


@st.composite
def poly_triples(draw):
    dom = draw(domains)
    return tuple(draw(polys(domain=dom)) for _ in range(3))


# -- ring axioms ---------------------------------------------------------------


@given(poly_triples())
def test_addition_associative_commutative(pqr):
    p, q, r = pqr
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p


@given(poly_triples())
def test_multiplication_associative_commutative(pqr):
    p, q, r = pqr
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p


@given(poly_triples())
def test_distributivity(pqr):
    p, q, r = pqr
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_identities_and_inverse(p):
    dom = p.domain
    assert p + Polynomial.zero(dom) == p
    assert p * Polynomial.const(1, dom) == p
    assert (p + (-p)).is_zero()
    assert (p * Polynomial.zero(dom)).is_zero()


@given(polys(), st.integers(0, 5))
def test_pow_matches_repeated_multiplication(p, e):
    expected = Polynomial.const(1, p.domain)
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


# -- canonical form ---------------------------------------------------------------


@given(poly_pairs())
def test_canonical_form_after_operations(pq):
    p, q = pq
    for result in (p + q, p * q, p - q):
        assert all(c != 0 for c in result.terms.values())
        assert all(e > 0 for m in result.terms for _, e in m)
        assert all(type(c) is int for c in result.terms.values())
        if result.domain.p is not None:
            assert all(0 < c < result.domain.p for c in result.terms.values())


@given(st.lists(monomials(), min_size=3, max_size=3, unique=True))
def test_order_is_total_and_transitive(ms):
    a, b, c = map(grevlex_key, ms)
    assert (a < b) + (b < a) + (a == b) == 1
    chain = sorted([a, b, c])
    assert chain[0] <= chain[1] <= chain[2]
    if a < b and b < c:
        assert a < c


@given(st.lists(monomials(max_vars=5, max_exp=4, pool=VARS), max_size=12))
@example([(), ((VARS[0], 1), (VARS[2], 1)), ((VARS[1], 2),), ((VARS[0], 2),)])
def test_grevlex_key_matches_comparator(ms):
    assert sorted(ms, key=grevlex_key) == sorted(ms, key=cmp_to_key(grevlex_cmp))


# -- substitution is a ring homomorphism ---------------------------------------------


def _images(domain=ZZ, **mapped):
    """Images of every variable of VARS: ``x<i>=poly`` for VARS[i], the
    variable itself for the rest."""
    images = {v: Polynomial.variable(v, domain) for v in VARS}
    images.update({VARS[int(name[1:])]: img for name, img in mapped.items()})
    return images


def map_images(dom):
    """Images a monomial map takes: zero, constants, single variables and
    single terms over several variables."""
    return st.one_of(
        st.just(Polynomial.zero(dom)),
        coeffs.map(lambda c: Polynomial.const(c, dom)),
        st.sampled_from(VARS).map(lambda w: Polynomial.variable(w, dom)),
        monomial_images(dom),
    )


@st.composite
def substitutions(draw, dom):
    """Images of every variable of VARS: a few drawn, the rest themselves."""
    images = _images(dom)
    for v in draw(st.lists(st.sampled_from(VARS), max_size=3, unique=True)):
        images[v] = draw(map_images(dom))
    return images


@st.composite
def pair_with_substitution(draw):
    dom = draw(domains)
    return (
        draw(polys(domain=dom, max_terms=3)),
        draw(polys(domain=dom, max_terms=3)),
        draw(substitutions(dom)),
    )


@settings(deadline=None)
@given(pair_with_substitution())
def test_substitution_homomorphism(data):
    p, q, images = data
    assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)
    assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


# -- print order ----------------------------------------------------------------------


def assert_in_print_order(p):
    """The stored terms, read before anything else touches ``p``, are in
    descending order of the reference comparator."""
    stored = list(p.terms.items())
    expected = sorted(stored, key=lambda kv: cmp_to_key(grevlex_cmp)(kv[0]), reverse=True)
    assert stored == expected, p


def test_built_families_are_stored_in_print_order():
    # Built terms are never sorted: each family writes them in print order,
    # bridges and generic minors in either block or column order.
    built = [curve_equation(n, i, block) for n in range(2, 9) for i in range(1, n) for block in (1, 3)]
    built += [bridge(a, b, i, j) for a in range(1, 7) for b in range(1, 7)
              for i, j in ((1, 2), (2, 1), (2, 5), (5, 2))]
    built += [m for n in ((1, 1), (2, 3), (1, 2, 3), (3, 1, 2, 2)) for m in minors_2x2(build_profile(n))]
    built += [verify.generic_minor(i, j) for i in range(1, 6) for j in range(1, 6)]
    for p in built:
        assert_in_print_order(p)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weight_generators_are_stored_in_print_order(d):
    for n in itertools.product(range(1, 4), repeat=d):
        for _, p in equation_set(build_profile(n)).weight_gens:
            assert_in_print_order(p)


@settings(max_examples=300, deadline=None)
@given(pair_with_substitution(), st.integers(0, 3), coeffs, st.sampled_from([2, 3, 7]))
def test_every_operation_leaves_terms_in_print_order(data, e, c, q):
    # Operands from the constructor (given terms in no known order) and from
    # a product; drawn polynomials are often
    # inhomogeneous and may be constants.
    p, r, images = data
    product = p * r
    results = [p, p + r, p - r, product, p ** e, product ** e, p.substitute(images),
               -p, -product, p.scale(c), product.scale(c)]
    if p.domain == ZZ:
        results += [p.reduce_mod(q), product.reduce_mod(q)]
    for result in results:
        assert_in_print_order(result)


def is_canonical_monomial(m) -> bool:
    """A tuple of (VarId, positive int) pairs, strictly increasing by variable."""
    return (
        type(m) is tuple
        and all(type(f) is tuple and len(f) == 2 for f in m)
        and all(type(v) is VarId and type(e) is int and e > 0 for v, e in m)
        and all(f[0] < g[0] for f, g in zip(m, m[1:]))
    )


@st.composite
def factor_lists(draw):
    """A list or tuple of factors: about half strictly increasing by
    variable, the rest unsorted or repeated; exponents that are positive,
    zero, negative or bool; and now and then a factor that is a list."""
    variables = draw(st.lists(st.sampled_from(VARS[:5]), max_size=5))
    if draw(st.booleans()):
        variables = sorted(set(variables))
    exponent = st.one_of(st.integers(1, 3), st.integers(-2, 0), st.booleans())
    factors = [(v, draw(exponent)) for v in variables]
    factors = [list(f) if draw(st.integers(0, 4)) == 0 else f for f in factors]
    return draw(st.sampled_from([list, tuple]))(factors)


def result_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(factor_lists())
@example([(VARS[0], True)])
@example(((VARS[0], 1), [VARS[1], 1]))
@example([(VARS[1], 1), (VARS[0], 1)])
@example([(VARS[0], 2), (VARS[0], -1)])
@example([(VARS[0], 1), (VARS[0], 2)])
def test_monomial_matches_the_reference_merge(factors):
    # Canonical input skips the merge, so it must come back as the merge
    # would give it: a tuple of (VarId, int) tuples, with no list and no bool.
    result = result_or_error(monomial, factors)
    assert result == result_or_error(merge_monomial, factors)
    assert type(result) is str or is_canonical_monomial(result)


@settings(deadline=None)
@given(pair_with_substitution(), st.integers(0, 3))
def test_terms_are_keyed_by_canonical_tuples(data, e):
    p, q, images = data
    for result in (
        p * q,
        p**e,
        p.substitute(images),
        parse_poly(str(p), ParseContext(domain=p.domain)),
        poly_from_json(poly_to_json(p)),
    ):
        assert all(is_canonical_monomial(m) for m in result.terms)


@st.composite
def raw_terms(draw):
    """(domain, items) where each item is (pairs, coefficient): pairs in any
    order, with repeated variables and zero exponents, and monomials that
    repeat with coefficients that may cancel."""
    dom = draw(st.sampled_from([ZZ, GF(2), GF(101)]))
    factors = st.lists(st.tuples(st.sampled_from(VARS[:4]), st.integers(0, 2)), max_size=4)
    items = draw(st.lists(st.tuples(factors, coeffs), max_size=8))
    if items:
        # Repeat some items reversed and negated, so those terms cancel.
        again = draw(st.lists(st.sampled_from(items), max_size=4))
        items += [(pairs[::-1], -c) for pairs, c in again]
    return dom, draw(st.permutations(items))


@settings(deadline=None)
@given(raw_terms())
def test_constructor_equals_merged_sorted_terms(data):
    dom, items = data
    merged = {}
    for pairs, c in items:
        exps = {}
        for v, e in pairs:
            exps[v] = exps.get(v, 0) + e
        key = tuple(sorted((v, e) for v, e in exps.items() if e))
        merged[key] = merged.get(key, 0) + c
    expected = {k: dom.coerce(c) for k, c in merged.items() if dom.coerce(c) != 0}
    p = Polynomial(dom, items)
    assert p.terms == expected
    assert all(type(c) is int for c in p.terms.values())


@settings(deadline=None)
@given(raw_terms(), st.data())
def test_shuffled_terms_are_stored_in_print_order_once_made(data, draw):
    # The constructor, + and the parser sort as they build; reading the
    # terms, printing and serializing then leave the same dict in place.
    dom, items = data
    p = Polynomial(dom, items)
    shuffled = draw.draw(st.permutations(list(p.terms.items())))
    summed = Polynomial.zero(dom)
    for mono, c in shuffled:
        summed = summed + Polynomial(dom, [(mono, c)])
    # No term's text holds a sign, so "+ -" comes only from a negative term.
    text = " + ".join([str(Polynomial(dom, [t])) for t in shuffled]).replace("+ -", "- ") or "0"
    for q in (Polynomial(dom, shuffled), summed, parse_poly(text, ParseContext(domain=dom))):
        assert q == p
        terms = q.terms
        assert_in_print_order(q)
        order = list(terms.items())
        str(q), poly_to_json(q), polys_json_text([q])
        assert q.terms is terms and list(q.terms.items()) == order


# -- packed arithmetic against the schoolbook reference -------------------------------
#
# Multiply, power and substitute pack each exponent into a bit field as wide
# as an exact bound on the result's exponents.  Single-variable terms with
# exponents 2^k - 1 and 2^k put result exponents exactly on that bound, so a
# field one bit too narrow carries into its neighbour or loses its top bit.

BOUNDARY_EXPS = (1, 2, 3, 4, 7, 8, 15, 16)


@st.composite
def boundary_polys(draw, domain, exps=BOUNDARY_EXPS):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        chosen = draw(st.lists(st.sampled_from(VARS[:3]), min_size=1, max_size=2, unique=True))
        terms[monomial({v: draw(st.sampled_from(exps)) for v in chosen})] = draw(coeffs)
    return Polynomial(domain, terms)


def _x(i, e=1, c=1, domain=ZZ):
    return Polynomial.term(c, [(VARS[i], e)], domain)


def monomial_images(dom):
    """Single terms c * m over two or three variables, with c neither 0 nor,
    except over GF(2), 1 in ``dom``: a prepared map keeps them as a packed
    key and a coefficient."""
    if dom.p == 2:
        cs = st.just(1)
    else:
        cs = coeffs.filter(lambda c: dom.coerce(c) not in (0, 1))
    return st.builds(lambda m, c: Polynomial(dom, [(m, c)]), monomials(min_vars=2), cs)


@st.composite
def mul_cases(draw):
    dom = draw(domains)
    cases = st.one_of(polys(dom), boundary_polys(dom))
    return draw(cases), draw(cases)


@settings(deadline=None)
@given(mul_cases())
@example((_x(0, 7) + _x(1), _x(0, 8) - _x(2, 8)))  # x^15 fills a 4-bit field
@example((_x(0, 16) - _x(1, 15), _x(0, 15) + _x(1, 16)))  # 31 fills 5 bits
@example((  # the cross terms cancel: 4x^2 - 9y^2
    _x(0, 1, 2) + _x(1, 1, 3),
    _x(0, 1, 2) - _x(1, 1, 3),
))
def test_mul_matches_schoolbook(case):
    p, r = case
    assert p * r == schoolbook_mul(p, r)


@st.composite
def pow_cases(draw):
    # Degrees 1, 2, 4 or 8 times e in {2, 4, 8} make deg * e a power of two,
    # the bound at which the field width steps up.  Exponents 5, 7 and 12 are
    # odd or not a power of two, as balancing powers of weight generators are.
    dom = draw(domains)
    p = draw(
        st.one_of(
            polys(dom, 3), boundary_polys(dom, exps=(1, 2, 4, 7, 8))
        )
    )
    return p, draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 12]))


_DEG4 = _x(0, 4) + _x(1) * _x(2, 3) - _x(1, 4)


@settings(deadline=None)
@given(pow_cases())
@example((_DEG4, 2))
@example((_DEG4, 4))
@example((_DEG4, 8))
@example((_x(0, 1, 3, GF(5)) - _x(1, 2, 2, GF(5)), 4))  # 3^4 = 2^4 = 1 in GF(5)
@example((bridge(2, 3), 7))  # a 7-term base, as in a weight generator
def test_pow_matches_schoolbook(case):
    p, e = case
    assert p**e == schoolbook_pow(p, e)


@st.composite
def substitute_cases(draw):
    """A polynomial and images of every variable of VARS: a few drawn by
    ``map_images``, and the rest themselves."""
    dom = draw(domains)
    p = draw(
        st.one_of(
            polys(dom, 4), boundary_polys(dom, exps=(1, 3, 4, 7, 8))
        )
    )
    images = _images(dom)
    for v in draw(st.lists(st.sampled_from(VARS), max_size=4, unique=True)):
        images[v] = draw(map_images(dom))
    return p, images


_SUBST = _x(0, 7) * _x(1) + _x(1, 8) - _x(2) * _x(0, 3) + Polynomial.const(5)


@settings(deadline=None)
@given(substitute_cases())
@example((_SUBST, _images(x0=Polynomial.zero(ZZ))))
@example((_SUBST, _images(x0=Polynomial.const(-2), x1=_x(2, 1, 3))))
@example((_SUBST, _images(x0=_x(1, 1, -1), x1=Polynomial.zero(ZZ), x2=_x(0, 15))))
@example((  # single-term images: 2*x0 + 3*x1 -> 6*x2 - 6*x2 = 0
    _x(0, 1, 2) + _x(1, 1, 3),
    _images(x0=_x(2, 1, 3), x1=_x(2, 1, -2)),
))
# Single-term images: a negative coefficient to an odd power; 3*x1^2*x2 over
# GF(5) to the 4th power, where 3^4 = 1; and -x1^5 cubed, whose x1^15 fills
# the 4-bit field (bound 3 * 5) beside a term over two variables.
@example((_x(0, 3) - _x(1), _images(x0=Polynomial.term(-2, [(VARS[1], 1), (VARS[2], 2)]))))
@example((
    _x(0, 4, 1, GF(5)),
    _images(GF(5), x0=Polynomial.term(3, [(VARS[1], 2), (VARS[2], 1)], GF(5))),
))
@example((
    _x(0, 3) + _x(0, 2) * _x(2),
    _images(x0=_x(1, 5, -1), x2=Polynomial.term(3, [(VARS[1], 1), (VARS[3], 1)])),
))
def test_substitute_matches_schoolbook(case):
    p, images = case
    assert p.substitute(images) == schoolbook_substitute(p, images)


@st.composite
def prepared_map_cases(draw):
    """Images for every variable of VARS, and polynomials of several degrees
    for one prepared map to take in turn."""
    dom = draw(domains)
    images = {v: draw(map_images(dom)) for v in VARS}
    ps = draw(
        st.lists(
            st.one_of(
                polys(dom, 4), boundary_polys(dom, exps=(1, 3, 4, 7, 8))
            ),
            min_size=1,
            max_size=4,
        )
    )
    return images, ps


@settings(deadline=None)
@given(prepared_map_cases())
# A field is as wide as degree * (largest image degree): these put an output
# exponent exactly on that bound, at 15 (4 bits), 16 (5 bits) and 31 (5 bits).
@example((_images(x0=_x(1)), [_x(0, 15), _x(0, 3) * _x(2), Polynomial.const(2)]))
@example((_images(x0=_x(1, 4)), [_x(0, 4), _x(0) * _x(2, 3)]))
@example((_images(x0=_x(1, 3, -1)), [_x(0, 5), _x(0) * _x(1)]))
@example((_images(x0=_x(1, 31), x2=Polynomial.zero(ZZ)), [_x(0), _x(2, 1)]))
@example((_images(x0=_x(1, 4, 2)), [_x(0, 4), _x(0) * _x(2, 3)]))  # 2^4*x1^16, single term
@example((  # x0 -> 2*x2 cancels 2*x1 -> -2*x2, at two degrees
    _images(x0=_x(2, 1, 2), x1=_x(2, 1, -1)),
    [_x(0) + _x(1, 1, 2), _x(0, 2, 3)],
))
def test_prepared_map_matches_schoolbook(case):
    images, ps = case
    dom = ps[0].domain
    param = Substitution(images, dom, max(p.total_degree() for p in ps + [Polynomial.zero(dom)]))
    for p in ps:
        assert param(p) == schoolbook_substitute(p, images)


def test_prepared_map_takes_no_power_past_its_bound():
    # The running degree of a term is checked before each power of an image
    # coefficient: x0's coefficient records its powers, and x1's may not be
    # raised to any power at all.
    from scrolleq import polyring

    built = []

    class Recording(int):
        def __pow__(self, e):
            built.append(e)
            return int(self) ** e

    class NoPower(int):
        def __pow__(self, e):
            raise AssertionError("coefficient power taken")

    recording = polyring._raw_poly(ZZ, {((VARS[2], 1),): Recording(2)})
    no_power = polyring._raw_poly(ZZ, {((VARS[2], 1),): NoPower(3)})
    param = Substitution({VARS[0]: recording, VARS[1]: no_power}, ZZ, 3)
    for p in [_x(0, 4), _x(1, 4), _x(0, 2) * _x(1, 2)]:
        with pytest.raises(ValueError, match="degree 4 exceeds the prepared bound 3"):
            param(p)
    assert built == [2]


@given(st.integers(0, 200))
@example(0)
@example(200)
def test_binomial_row_is_the_signed_comb_row(m):
    assert binomial_row(m) == [(-1) ** k * math.comb(m, k) for k in range(m + 1)]


def test_prepared_map_refuses_what_it_was_not_prepared_for():
    param = Substitution({VARS[0]: _x(1, 2)}, ZZ, 3)
    assert param(_x(0, 3)) == _x(1, 6)
    with pytest.raises(ValueError, match="exceeds the prepared bound 3"):
        param(_x(0, 4))
    with pytest.raises(ValueError, match="no image for variable"):
        param(_x(1))
    with pytest.raises(DomainMismatchError):
        param(_x(0, 1, 1, GF(5)))
    with pytest.raises(DomainMismatchError):
        Substitution({VARS[0]: _x(1, 1, 1, GF(5))}, ZZ, 3)


@st.composite
def vanishing_cases(draw):
    """Single-term or zero images of a few variables of VARS, the first two
    equal at times, and polynomials in those variables.  A polynomial minus
    itself with the second variable renamed to the first maps to zero when
    their images are equal."""
    dom = draw(domains)
    pool = draw(st.lists(st.sampled_from(VARS), min_size=2, max_size=5, unique=True))
    images = {v: draw(map_images(dom)) for v in pool}
    if draw(st.booleans()):
        images[pool[1]] = images[pool[0]]
    ps = []
    for f in draw(st.lists(polys(dom, 4, pool=pool), max_size=5)):
        renamed = Polynomial(dom, [([(pool[0] if v == pool[1] else v, e) for v, e in mono], c)
                                   for mono, c in f.terms.items()])
        ps.append(draw(st.sampled_from([f, f - renamed])))
    return dom, images, ps


@settings(deadline=None)
@given(vanishing_cases())
def test_vanishing_matches_the_full_map(case):
    dom, images, ps = case
    sub = Substitution(images, dom, max(p.total_degree() for p in ps + [Polynomial.zero(dom)]))
    expected = [schoolbook_substitute(p, images).is_zero() for p in ps]
    assert sub.vanishing(ps) == [sub(p).is_zero() for p in ps] == expected
    assert sub.vanishing([]) == []


@settings(deadline=None)
@given(vanishing_cases(), st.sampled_from(["degree", "image", "domain"]), st.data())
def test_vanishing_raises_what_a_call_on_its_bad_polynomial_raises(case, kind, data):
    # One bad polynomial anywhere in a batch: over the degree bound, with a
    # variable that has no image, or over another domain.
    dom, images, ps = case
    bound = max([0] + [p.total_degree() for p in ps])
    sub = Substitution(images, dom, bound)
    good = data.draw(st.sampled_from(ps + [Polynomial.zero(dom)]))
    if kind == "degree":
        bad = good + Polynomial.term(1, [(next(iter(images)), bound + data.draw(st.integers(1, 3)))], dom)
    elif kind == "image":
        bad = good + Polynomial.variable(x_var(3, 0), dom)
    else:
        bad = data.draw(polys(GF(3) if dom.p is None else ZZ, 3, pool=list(images)))
    at = data.draw(st.integers(0, len(ps)))
    with pytest.raises(ValueError) as single:
        sub(bad)
    with pytest.raises(ValueError) as batch:
        sub.vanishing(ps[:at] + [bad] + ps[at:])
    assert type(batch.value) is type(single.value)
    assert str(batch.value) == str(single.value)


# -- homogeneity ----------------------------------------------------------------------


@st.composite
def homogeneous_polys(draw, degree):
    dom = ZZ
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        chosen = draw(
            st.lists(st.sampled_from(VARS), min_size=1, max_size=min(3, degree), unique=True)
        )
        exps = [1] * len(chosen)
        remaining = degree - len(chosen)
        for idx in range(len(chosen)):
            add = draw(st.integers(0, remaining))
            exps[idx] += add
            remaining -= add
        exps[0] += remaining
        terms[monomial(dict(zip(chosen, exps)))] = draw(
            st.integers(-9, 9).filter(lambda c: c != 0)
        )
    return Polynomial(dom, terms)


@given(homogeneous_polys(3), homogeneous_polys(2))
def test_product_of_homogeneous_is_homogeneous(p, q):
    assert is_homogeneous(p) and is_homogeneous(q)
    prod = p * q
    assert is_homogeneous(prod)
    if not prod.is_zero():
        assert prod.total_degree() == 5


# -- reduction commutes with everything -------------------------------------------------


@st.composite
def int_poly_pairs(draw):
    return draw(polys(domain=ZZ)), draw(polys(domain=ZZ))


@given(int_poly_pairs(), st.sampled_from([2, 3, 5, 101]))
def test_reduction_commutes_with_add_mul(pq, q):
    p, r = pq
    assert (p + r).reduce_mod(q) == p.reduce_mod(q) + r.reduce_mod(q)
    assert (p * r).reduce_mod(q) == p.reduce_mod(q) * r.reduce_mod(q)


@given(polys(domain=ZZ), st.integers(0, 4), st.sampled_from([2, 5]))
def test_reduction_commutes_with_pow(p, e, q):
    assert (p**e).reduce_mod(q) == p.reduce_mod(q) ** e


@settings(deadline=None)
@given(polys(domain=ZZ, max_terms=3), substitutions(ZZ), st.sampled_from([2, 7]))
def test_reduction_commutes_with_substitution(p, images, q):
    reduced_images = {v: img.reduce_mod(q) for v, img in images.items()}
    assert p.substitute(images).reduce_mod(q) == p.reduce_mod(q).substitute(reduced_images)


@given(polys(domain=ZZ, max_terms=4), st.sampled_from([3, 11]))
def test_eval_commutes_with_reduction(p, q):
    point = {v: 2 + i for i, v in enumerate(VARS)}
    reduced_point = {v: c % q for v, c in point.items()}
    assert evaluate(p.reduce_mod(q), reduced_point) == evaluate(p, point) % q


@given(
    st.dictionaries(monomials(), coeffs, max_size=5),
    st.integers(-40, 40),
    st.sampled_from([2, 3, 5, 101]),
)
def test_coercion_commutes_with_reduction(terms, scale, q):
    # Over Z and GF(q) an integer coefficient lands on the same residue, and
    # so does its product with an integer scale.
    reduced = Polynomial(ZZ, terms).reduce_mod(q)
    assert Polynomial(GF(q), terms) == reduced
    assert Polynomial(GF(q), terms).scale(scale) == Polynomial(ZZ, terms).scale(scale).reduce_mod(q)


# -- depth-first walk against the brute-force oracle ----------------------------------


@settings(deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_walk_matches_brute_force(q, data):
    # The walk evaluates each generator at the first level where all of its
    # variables are set, and prunes a prefix once it is off both groups.
    # The zero polynomial rules no point out and a nonzero constant rules out
    # every point from the root; the first group is walked with the first,
    # then with both.
    variables = VARS[:4]
    first, second = (
        data.draw(st.lists(polys(GF(q), max_terms=4, pool=variables), max_size=3))
        for _ in range(2)
    )
    first.append(Polynomial.zero(GF(q)))
    constant = Polynomial.const(data.draw(st.integers(1, q - 1)), GF(q))
    index = {v: k for k, v in enumerate(variables)}
    for system in (first, first + [constant]):
        _, hits, other = verify._projective_scan(
            [verify._flat([(g, 1)], index, q) for g in system],
            [verify._flat([(g, 1)], index, q) for g in second], variables, q
        )
        assert hits == enumerate_variety(system, variables, q)
        assert other == enumerate_variety(second, variables, q)


# -- parse / print round trip --------------------------------------------------------


@given(polys(domain=ZZ))
def test_round_trip_integers(p):
    assert parse_poly(str(p)) == p


@given(polys(domain=GF(7)))
def test_round_trip_prime_field(p):
    assert parse_poly(str(p), ParseContext(domain=GF(7))) == p


# -- parser against the reference parser ---------------------------------------------


# Grammar characters, whitespace that does and does not end a line, and
# non-ASCII characters that str.isdigit or str.isalpha would take; then
# fragments that reach the deeper productions and their range checks.
PARSE_PIECES = [
    *"0123456789xutszwvq+-*/^[]", " ", "\t", "\n", "\r", "\u00a0", "\u0663", "\u00b2", "\u00e9",
    "x[1][0]", "x[2][3]", "x[3][1]", "x[0][1]", "t[2]", "u[1]", "^2", "/0", "/3", " + ",
    "9" * 5000,  # more digits than int() reads by default
]
PARSE_CONTEXTS = [ParseContext(dom, sizes) for dom in (ZZ, GF(7)) for sizes in (None, (2, 3))]


def parse_outcome(parse, text, ctx):
    try:
        return parse(text, ctx)
    except ParseError as err:
        return str(err), err.line, err.col


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PARSE_PIECES), max_size=16).map("".join),
       st.sampled_from(PARSE_CONTEXTS))
@example("x[1][0] x[1][1] \u00e9", ParseContext())  # the bad character comes first
@example("x[1][0] +\n\t2*u[0]", ParseContext())
@example("\r\n 1/3*x[2][3]^2 - t[2]", ParseContext(GF(7), (2, 3)))
@example("x[1][0]^" + "9" * 5000, ParseContext())
@example("+ * " + "9" * 5000, ParseContext())  # the syntax error comes first
@example("1/" + "9" * 5000 + "*x[9][0]", ParseContext(ZZ, (2, 3)))
def test_parse_matches_reference_parser(text, ctx):
    assert parse_outcome(parse_poly, text, ctx) == parse_outcome(reference_parse, text, ctx)


# -- direct JSON writer ---------------------------------------------------------------


# Every auxiliary kind, each encoded with block 0 and its own slot code.
JSON_VARS = VARS + [VAR_W, u_var(12), t_var(3)]


@st.composite
def json_polys(draw):
    dom = draw(st.sampled_from([ZZ, GF(2), GF(101)]))
    p = draw(polys(dom, pool=JSON_VARS))
    # A constant term writes "exps": []; the zero polynomial "terms": [].
    return p + Polynomial.const(draw(coeffs), dom)


@given(st.lists(json_polys(), min_size=1, max_size=5), st.integers(0, 4))
@example([Polynomial.zero(ZZ)], 2)
@example([Polynomial.const(-3, ZZ)], 0)
@example([Polynomial.const(3, GF(7))], 3)
def test_json_writer_matches_indented_dumps(ps, level):
    # One call renders the whole list from one table of [i, j, e] entries.
    expected = [
        json.dumps(poly_to_json(p), indent=2).replace("\n", "\n" + "  " * level) for p in ps
    ]
    assert polys_json_text(ps, level) == expected
