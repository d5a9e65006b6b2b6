"""Property-based tests: ring axioms, homomorphism laws, canonical form."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrolleq import (
    GF,
    QQ,
    VAR_S,
    VAR_T,
    ZZ,
    Monomial,
    ParseContext,
    Polynomial,
    enumerate_variety,
    parse_poly,
    u_var,
    x_var,
)
from scrolleq.verify import _residues_function

VARS = [x_var(1, 0), x_var(1, 1), x_var(1, 2), x_var(2, 0), x_var(2, 1), VAR_S, VAR_T, u_var(1)]

domains = st.sampled_from([ZZ, GF(2), GF(5), GF(101), QQ])
coeffs = st.integers(min_value=-30, max_value=30)


@st.composite
def monomials(draw, max_vars=3, max_exp=3, pool=VARS):
    chosen = draw(st.lists(st.sampled_from(pool), max_size=max_vars, unique=True))
    return Monomial({v: draw(st.integers(1, max_exp)) for v in chosen})


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
        assert all(e > 0 for m in result.terms for _, e in m.exps)
        if result.domain.kind == "Fp":
            assert all(0 < c < result.domain.p for c in result.terms.values())
        if result.domain.kind == "Q":
            assert all(isinstance(c, Fraction) for c in result.terms.values())


@given(st.lists(monomials(), min_size=3, max_size=3, unique=True))
def test_order_is_total_and_transitive(ms):
    a, b, c = ms
    assert (a < b) + (b < a) + (a == b) == 1
    chain = sorted([a, b, c])
    assert chain[0] <= chain[1] <= chain[2]
    if a < b and b < c:
        assert a < c


# -- substitution is a ring homomorphism ---------------------------------------------


@st.composite
def substitutions(draw, dom):
    images = {}
    for v in draw(st.lists(st.sampled_from(VARS), max_size=3, unique=True)):
        images[v] = draw(polys(domain=dom, max_terms=2))
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
        terms[Monomial(dict(zip(chosen, exps)))] = draw(
            st.integers(-9, 9).filter(lambda c: c != 0)
        )
    return Polynomial(dom, terms)


@given(homogeneous_polys(3), homogeneous_polys(2))
def test_product_of_homogeneous_is_homogeneous(p, q):
    assert p.is_homogeneous() and q.is_homogeneous()
    prod = p * q
    assert prod.is_homogeneous()
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
    assert p.reduce_mod(q).eval(reduced_point) == p.eval(point) % q


@given(
    st.dictionaries(monomials(), coeffs, max_size=5),
    st.integers(1, 40),
    st.sampled_from([2, 3, 5, 101]),
)
def test_coercion_commutes_with_reduction(terms, den, q):
    # Over Z and GF(q) an integer coefficient lands on the same residue;
    # over Q and GF(q) the fraction c/den, scaled back by den, gives c again.
    reduced = Polynomial(ZZ, terms).reduce_mod(q)
    assert Polynomial(GF(q), terms) == reduced
    fractions = {m: Fraction(c, den) for m, c in terms.items()}
    assert Polynomial(ZZ, Polynomial(QQ, fractions).scale(den).terms).reduce_mod(q) == reduced
    if den % q:
        assert Polynomial(GF(q), fractions).scale(den) == reduced
    elif any(c % q for c in terms.values()):
        with pytest.raises(ValueError):
            Polynomial(GF(q), {m: Fraction(c, den) for m, c in terms.items() if c % q})


# -- generated evaluator against the reference evaluator ---------------------------


@st.composite
def prime_field_polys_and_point(draw):
    p = draw(st.sampled_from([2, 5, 101]))
    dom = GF(p)
    drawn = draw(st.lists(polys(domain=dom), max_size=4))
    # The zero and a constant polynomial, whatever was drawn.
    fs = drawn + [Polynomial.zero(dom), Polynomial.const(draw(coeffs), dom)]
    point = [draw(st.integers(0, p - 1)) for _ in VARS]
    return p, fs, point


@given(prime_field_polys_and_point())
def test_generated_evaluator_matches_eval(data):
    p, fs, point = data
    residues = _residues_function(fs, VARS, p)
    assert residues(*point) == tuple(f.eval(dict(zip(VARS, point))) for f in fs)


@settings(deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_generated_scan_matches_brute_force(q, data):
    # The scan specializes each generator per leading-1 position: terms with
    # a coordinate before it are dropped and factors at it are left out.
    variables = VARS[:4]
    gens = data.draw(st.lists(polys(GF(q), max_terms=4, pool=variables), max_size=3))
    expected = []
    for tup in itertools.product(range(q), repeat=len(variables)):
        lead = next((v for v in tup if v), None)
        point = dict(zip(variables, tup))
        if lead == 1 and all(g.eval(point) == 0 for g in gens):
            expected.append(tup)
    assert enumerate_variety(gens, variables, q) == expected


# -- parse / print round trip --------------------------------------------------------


@given(polys(domain=ZZ))
def test_round_trip_integers(p):
    assert parse_poly(str(p)) == p


@given(polys(domain=GF(7)))
def test_round_trip_prime_field(p):
    assert parse_poly(str(p), ParseContext(domain=GF(7))) == p


@st.composite
def rational_polys(draw):
    terms = draw(
        st.dictionaries(
            monomials(),
            st.fractions(min_value=-10, max_value=10, max_denominator=12),
            max_size=4,
        )
    )
    return Polynomial(QQ, terms)


@given(rational_polys())
def test_round_trip_rationals(p):
    assert parse_poly(str(p), ParseContext(domain=QQ)) == p
