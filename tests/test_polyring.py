"""Unit tests for the sparse polynomial kernel."""

import re
import sys
from fractions import Fraction

import pytest

from reference import binomial, evaluate, is_homogeneous
from scrolleq import (
    GF,
    VAR_S,
    VAR_T,
    VAR_W,
    VAR_Z,
    ZZ,
    Domain,
    DomainMismatchError,
    Polynomial,
    Substitution,
    binomial_row,
    grevlex_key,
    is_prime,
    monomial,
    x_var,
)
from scrolleq import polyring
from scrolleq.scroll import bridge
from scrolleq.textio import ParseContext, domain_from_json, domain_to_json, parse_poly
from scrolleq.textio import poly_from_json, poly_to_json

X0, X1, X2 = x_var(1, 0), x_var(1, 1), x_var(1, 2)
Y0, Y1, Y2, Y3, Y4 = (x_var(2, j) for j in range(5))


def var(v, dom=ZZ):
    return Polynomial.variable(v, dom)


def term(c, pairs, dom=ZZ):
    return Polynomial.term(c, pairs, dom)


# -- binomial -----------------------------------------------------------------


def test_binomial_values():
    assert binomial(4, 1) == 4
    assert binomial(12, 6) == 924
    for m in (0, 1, 5, 40):
        assert binomial(m, 0) == 1


def test_binomial_is_exact_at_large_sizes():
    assert binomial(200, 100) % 10**9 == binomial(200, 100) - (binomial(200, 100) // 10**9) * 10**9
    assert binomial(60, 30) == 118264581564861424


def test_binomial_row_by_hand():
    assert binomial_row(0) == [1]
    assert binomial_row(4) == [1, -4, 6, -4, 1]
    with pytest.raises(ValueError, match="must be non-negative"):
        binomial_row(-1)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="str() has no digit limit")
@pytest.mark.parametrize("n", [0, 7, -7, 10**499, 10**500 - 1, 10**500, -(10**1000 + 1), 3**9000],
                         ids=["0", "7", "-7", "10^499", "10^500-1", "10^500", "-10^1000-1", "3^9000"])
def test_int_text_is_str_at_any_length_under_the_least_digit_limit(n):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = str(n)
        sys.set_int_max_str_digits(640)
        assert polyring.int_text(n) == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_binomial_domain_errors():
    with pytest.raises(ValueError):
        binomial(3, 4)
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_is_prime_small():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(561)


# The smallest strong pseudoprime to bases 2..37 and the smallest to 2..41.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_the_strong_pseudoprime_to_bases_2_to_37():
    assert 399165290221 * 798330580441 == PSI_12
    assert not is_prime(PSI_12)
    with pytest.raises(ValueError, match="is not prime"):
        GF(PSI_12)


def test_is_prime_is_exact_up_to_its_limit_and_refuses_beyond():
    assert 1287836182261 * 2575672364521 == PSI_13
    assert is_prime(2**61 - 1) and is_prime(18446744073709551557)
    assert is_prime(PSI_13 - 168)  # the largest prime below the limit
    assert not is_prime(PSI_13 - 2)  # 17 * 1709 * 1366183751 * 83570142193
    for n in (PSI_13, PSI_13 + 2, 2**127 - 1):
        with pytest.raises(ValueError, match="too large for the primality test"):
            is_prime(n)
        with pytest.raises(ValueError, match="too large for the primality test"):
            GF(n)


@pytest.mark.parametrize("p", [4, 1, 0, -7, 7.0, True, "7"])
def test_domain_refuses_a_modulus_that_is_not_prime(p):
    # Domain(4) was the ring Z/4 printed as GF(4), where 2 * 2 is 0, and
    # Domain(7.0) made float coefficients.
    message = f"^{re.escape(repr(p))} is not prime$"
    with pytest.raises(ValueError, match=message):
        Domain(p)
    with pytest.raises(ValueError, match=message):
        GF(p)


def test_domains_and_their_round_trips_are_unchanged():
    assert ZZ == Domain() and ZZ.p is None and str(ZZ) == "Z"
    assert GF(7) == Domain(7) and GF(7).p == 7 and str(GF(7)) == "GF(7)"
    for dom in (ZZ, GF(7)):
        p = term(12, [(X0, 2), (X1, 1)], dom) - term(5, [(X2, 3)], dom) + Polynomial.const(9, dom)
        assert parse_poly(str(p), ParseContext(domain=dom)) == p
        assert poly_from_json(poly_to_json(p)) == p
        assert domain_from_json(domain_to_json(dom)) == dom
    assert str(term(12, [(X0, 1)], GF(7))) == "5*x[1][0]"
    assert domain_to_json(GF(7)) == {"Fp": 7} and domain_to_json(ZZ) == "Z"


# -- addition -----------------------------------------------------------------


def test_add_inverse_cancels():
    x = var(X0)
    assert (x + (-x)).is_zero()


def test_add_merges_coefficients():
    x, y = var(X0), var(X1)
    assert (x + y) + y == x + y.scale(2)


def test_add_assembles_bridge_head():
    lead = term(1, [(X2, 2), (Y0, 1)])
    second = term(-4, [(X2, 1), (X1, 1), (Y1, 1)])
    combined = lead + second
    assert combined.num_terms() == 2
    full = bridge(2, 4)
    for mono, coeff in combined.terms.items():
        assert full.terms[mono] == coeff


def test_add_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        var(X0, ZZ) + var(X0, GF(5))


# -- multiplication -------------------------------------------------------------


def test_mul_identity():
    p = term(3, [(X0, 2)]) + var(X1)
    assert p * Polynomial.const(1) == p


def test_mul_difference_of_squares():
    x, y = var(X0), var(X1)
    assert (x - y) * (x + y) == term(1, [(X0, 2)]) - term(1, [(X1, 2)])


def test_mul_binomial_square():
    # (t*z - s*w)^2 expanded by hand.
    tz = term(1, [(VAR_T, 1), (VAR_Z, 1)])
    sw = term(1, [(VAR_S, 1), (VAR_W, 1)])
    expected = (
        term(1, [(VAR_T, 2), (VAR_Z, 2)])
        + term(-2, [(VAR_S, 1), (VAR_T, 1), (VAR_Z, 1), (VAR_W, 1)])
        + term(1, [(VAR_S, 2), (VAR_W, 2)])
    )
    assert (tz - sw) * (tz - sw) == expected


def test_mul_self_accumulates_exponents():
    x = var(X1)
    assert x * x == term(1, [(X1, 2)])


# -- powering -------------------------------------------------------------------


def test_pow_zero_is_one():
    p = var(X0) - var(X1)
    assert p**0 == Polynomial.const(1)
    assert Polynomial.zero(ZZ) ** 0 == Polynomial.const(1)


def test_pow_one_is_the_polynomial_itself():
    p = term(3, [(X0, 1), (X1, 2)]) - var(X2)
    assert p**1 is p


def test_pow_binomial_fourth():
    # (t*z - s*w)^4 has coefficients 1, -4, 6, -4, 1 by the binomial theorem.
    tz = term(1, [(VAR_T, 1), (VAR_Z, 1)])
    sw = term(1, [(VAR_S, 1), (VAR_W, 1)])
    expected = Polynomial.zero(ZZ)
    for k in range(5):
        expected = expected + term(
            (-1) ** k * binomial(4, k),
            [(VAR_T, 4 - k), (VAR_Z, 4 - k), (VAR_S, k), (VAR_W, k)],
        )
    assert (tz - sw) ** 4 == expected


def test_pow_bridge_fifth_degree():
    b = bridge(2, 4)
    p5 = b**5
    assert is_homogeneous(p5)
    assert p5.total_degree() == 15


@pytest.mark.parametrize("e", [2.0, Fraction(2), "2"])
def test_pow_refuses_an_exponent_that_is_not_an_int(monkeypatch, e):
    # Refused before any packing: 2.0 used to fail inside _Packing with an
    # AttributeError on float.bit_length.
    def no_packing(*args):
        raise AssertionError("packed before the exponent was checked")

    monkeypatch.setattr(polyring, "_Packing", no_packing)
    with pytest.raises(ValueError, match="non-integer or negative polynomial power"):
        (var(X0) + var(X1)) ** e


def test_pow_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="non-integer or negative polynomial power -1"):
        var(X0) ** -1


# -- substitution ----------------------------------------------------------------


def test_substitute_to_zero():
    p = term(1, [(X0, 2)]) + var(X1)
    zero = Polynomial.zero(ZZ)
    assert p.substitute({X0: zero, X1: zero}).is_zero()


def test_substitute_minor_to_determinant():
    p = term(1, [(X1, 1), (Y0, 1)]) - term(1, [(X0, 1), (Y1, 1)])
    images = {
        X0: var(VAR_S),
        X1: var(VAR_T),
        Y0: var(VAR_Z),
        Y1: var(VAR_W),
    }
    expected = term(1, [(VAR_T, 1), (VAR_Z, 1)]) - term(1, [(VAR_S, 1), (VAR_W, 1)])
    assert p.substitute(images) == expected


def test_substitute_bridge_on_scroll_points_vanishes():
    # Both blocks over one base point: the bridge of equal blocks collapses.
    from scrolleq import VAR_V, u_var

    b22 = bridge(2, 2)
    images = {}
    for j in range(3):
        images[x_var(1, j)] = term(1, [(u_var(1), 1), (VAR_S, 2 - j), (VAR_T, j)])
        images[x_var(2, j)] = term(1, [(VAR_V, 1), (VAR_S, 2 - j), (VAR_T, j)])
    assert b22.substitute(images).is_zero()


def test_substitute_strict_requires_all_variables():
    p = var(X0) + var(X1)
    with pytest.raises(ValueError):
        p.substitute({X0: var(X1)})


def test_substitute_rejects_foreign_domain():
    with pytest.raises(DomainMismatchError):
        var(X0, ZZ).substitute({X0: var(X1, GF(3))})


@pytest.mark.parametrize("dom", [ZZ, GF(3)], ids=str)
def test_multi_term_image_is_refused(dom):
    two_terms = var(X0, dom) + var(X2, dom)
    message = re.escape(f"image of x[1][1] is not a single term: {two_terms}")
    images = {X0: var(X0, dom), X1: two_terms}
    with pytest.raises(ValueError, match=message):
        Substitution(images, dom, 2)
    with pytest.raises(ValueError, match=message):
        var(X1, dom).substitute(images)
    # Zero and constant images are single terms or none.
    images[X1] = Polynomial.zero(dom)
    assert term(1, [(X0, 1), (X1, 1)], dom).substitute(images).is_zero()
    images[X1] = Polynomial.const(2, dom)
    assert term(1, [(X0, 1), (X1, 1)], dom).substitute(images) == term(2, [(X0, 1)], dom)


def test_vanishing_agrees_with_the_full_map():
    # vanishing reads the packed images that __call__ unpacks, so both give
    # one verdict, through a zero image and through terms whose images cancel.
    images = {X0: term(1, [(VAR_S, 2)]), X1: term(1, [(VAR_S, 1), (VAR_T, 1)]),
              X2: term(1, [(VAR_T, 2)]), Y0: term(-3, [(VAR_Z, 1)]),
              Y1: term(2, [(VAR_Z, 1), (VAR_W, 1)]), Y2: Polynomial.zero(ZZ)}
    sub = Substitution(images, ZZ, 4)
    conic = term(1, [(X0, 1), (X2, 1)]) - term(1, [(X1, 2)])
    polys = [
        conic, conic + var(X0), conic.scale(5), Polynomial.zero(ZZ), Polynomial.const(2),
        term(3, [(Y0, 1)]) + term(9, [(X0, 1)]) - term(9, [(X0, 1)]),
        term(1, [(Y0, 2)]) - term(9, [(VAR_Z, 0), (Y0, 2)]), conic * var(Y1),
        term(1, [(Y1, 2)]) - term(1, [(Y1, 2)]), var(Y2) + conic, var(Y2) + var(X0),
    ]
    for p in polys:
        assert sub.vanishing([p]) == [sub(p).is_zero()], p
    assert sub.vanishing(polys) == [
        True, False, True, True, False, False, False, True, True, True, False]
    assert sub.vanishing(iter(polys)) == sub.vanishing(polys)
    assert sub.vanishing([]) == []


@pytest.mark.parametrize("dom, expected", [
    (ZZ, [True, False, False, False, False]),
    (GF(5), [True, True, True, True, False]),
    (GF(7), [True, False, False, False, False]),
    (GF(13), [True, False, True, False, False]),
], ids=str)
def test_vanishing_reads_image_sums_mod_p(dom, expected):
    # vanishing reads the image sums unreduced: 2*s + 3*s sums to 5*s, and
    # 4^3*t^3 + t^3 to 65*t^3, so over GF(5) (and the latter over GF(13))
    # they cancel only once reduced mod p.
    images = {X0: term(2, [(VAR_S, 1)], dom), X1: term(3, [(VAR_S, 1)], dom),
              X2: term(4, [(VAR_T, 1)], dom), Y0: term(1, [(VAR_T, 1)], dom)}
    sub = Substitution(images, dom, 3)
    polys = [
        var(X0, dom).scale(3) - var(X1, dom).scale(2),
        var(X0, dom) + var(X1, dom),
        var(X2, dom) ** 3 + var(Y0, dom) ** 3,
        (var(X0, dom) + var(X1, dom)) * var(Y0, dom) ** 2,
        var(X0, dom) * var(X1, dom),
    ]
    assert sub.vanishing(polys) == [sub(p).is_zero() for p in polys] == expected


def test_vanishing_keeps_the_checks_of_a_call():
    # Alone or after a polynomial that maps, a bad one raises what a call does.
    sub = Substitution({X0: term(1, [(VAR_S, 1)]), X1: term(1, [(VAR_T, 1)])}, ZZ, 2)
    for before in [[], [var(X0) - var(X1)]]:
        with pytest.raises(ValueError, match="degree 3 exceeds the prepared bound 2"):
            sub.vanishing(before + [term(1, [(X0, 2), (X1, 1)]) - term(1, [(X0, 1), (X1, 2)])])
        with pytest.raises(ValueError, match="no image for variable x\\[1\\]\\[2\\]"):
            sub.vanishing(before + [var(X0) - var(X2)])
        with pytest.raises(DomainMismatchError):
            sub.vanishing(before + [var(X0, GF(3))])


# -- reference evaluation ---------------------------------------------------------


def conic(dom=ZZ):
    return Polynomial.term(1, [(X0, 1), (X2, 1)], dom) - Polynomial.term(1, [(X1, 2)], dom)


def test_eval_on_curve_point():
    assert evaluate(conic(), {X0: 1, X1: 1, X2: 1}) == 0


def test_eval_mod_five():
    p = conic().reduce_mod(5)
    assert evaluate(p, {X0: 1, X1: 2, X2: 3}) == 4


def test_eval_commutes_with_reduction():
    p = conic()
    point = {X0: 7, X1: -3, X2: 11}
    for q in (2, 3, 5, 101):
        reduced_point = {v: c % q for v, c in point.items()}
        assert evaluate(p.reduce_mod(q), reduced_point) == evaluate(p, point) % q


def test_eval_requires_all_variables():
    with pytest.raises(ValueError, match="no value for variable"):
        evaluate(conic(), {X0: 1, X1: 1})


# -- reduction ---------------------------------------------------------------------


def test_reduce_drops_characteristic_multiples():
    p = term(2, [(X1, 1), (Y1, 1)])
    assert p.reduce_mod(2).is_zero()


def test_reduce_bridge_mod_two():
    # Coefficients 1, -4, 6, -4, 1 reduce to 1, 0, 0, 0, 1: only the two
    # extreme terms survive in characteristic 2.
    b = bridge(2, 4)
    expected = Polynomial.term(1, [(X2, 2), (Y0, 1)], GF(2)) + Polynomial.term(
        1, [(X0, 2), (Y4, 1)], GF(2)
    )
    assert b.reduce_mod(2) == expected


def test_reduce_bridge_mod_three():
    # 1, -4, 6, -4, 1 mod 3 -> 1, 2, 0, 2, 1: the middle term drops.
    b = bridge(2, 4)
    r = b.reduce_mod(3)
    assert r.num_terms() == 4
    assert sorted(r.terms.values()) == [1, 1, 2, 2]


def test_reduce_normalizes_signs():
    p = conic()
    r = p.reduce_mod(5)
    assert r == Polynomial.term(1, [(X0, 1), (X2, 1)], GF(5)) + Polynomial.term(
        4, [(X1, 2)], GF(5)
    )


def test_reduce_requires_prime():
    with pytest.raises(ValueError):
        conic().reduce_mod(6)
    with pytest.raises(ValueError):
        conic().reduce_mod(1)


# -- canonical order and form ---------------------------------------------------------


def test_grevlex_two_variable_chain():
    x2 = monomial([(X0, 2)])
    xy = monomial([(X0, 1), (X1, 1)])
    y2 = monomial([(X1, 2)])
    assert grevlex_key(y2) > grevlex_key(xy) > grevlex_key(x2)


def test_grevlex_grading_dominates():
    assert grevlex_key(monomial([(X2, 3)])) > grevlex_key(monomial([(X0, 1), (X1, 1)]))
    assert grevlex_key(monomial([(X0, 1)])) < grevlex_key(monomial([(X1, 2)]))


def test_grevlex_classic_tie_break():
    # Same degree, same top variable: weight on the later variable loses.
    a = monomial([(X0, 1), (X2, 1)])
    b = monomial([(X1, 2)])
    assert grevlex_key(b) > grevlex_key(a)


def test_sorted_terms_lead_with_largest():
    p = conic()
    lead_mono, lead_coeff = list(p.terms.items())[0]
    assert lead_mono == monomial([(X1, 2)])
    assert lead_coeff == -1


def test_canonical_form_has_no_zero_entries():
    p = term(1, [(X0, 1)]) + term(-1, [(X0, 1)]) + term(2, [(X1, 1)])
    assert list(p.terms.values()) == [2]
    assert all(e > 0 for m in p.terms for _, e in m)


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        monomial({X0: -1})


def test_constructor_sorts_an_unsorted_key():
    p = Polynomial(ZZ, {((X1, 1), (X0, 1)): 1})
    assert str(p) == "x[1][0]*x[1][1]"
    assert p == var(X0) * var(X1)


def test_constructor_drops_a_zero_exponent():
    p = Polynomial(ZZ, {((X0, 0),): 5})
    assert str(p) == "5"
    assert p == Polynomial.const(5)


def test_constructor_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="negative exponent -1 for x\\[1\\]\\[0\\]"):
        Polynomial(ZZ, {((X0, -1),): 1})


@pytest.mark.parametrize("e", [1.5, 2.0, Fraction(2), "2", None], ids=repr)
def test_constructor_refuses_a_non_integer_exponent(e):
    # A float exponent would print as x[1][0]^1.5 or x[1][0]^2.0 and has no
    # bit_length for the packed products.
    with pytest.raises(ValueError, match="non-integer or negative exponent"):
        Polynomial(ZZ, {((X0, e),): 1})


def test_variable_order_scroll_before_auxiliary():
    from scrolleq import VAR_V, VAR_W, VAR_Z, t_var, u_var

    assert x_var(1, 0) < x_var(1, 1) < x_var(2, 0)  # block-major, then slot
    assert x_var(99, 7) < u_var(1)  # every scroll variable precedes auxiliaries
    assert u_var(1) < u_var(2) < t_var(1) < VAR_S < VAR_T < VAR_Z < VAR_W < VAR_V


def test_varid_equality_requires_all_fields():
    assert x_var(1, 2) == x_var(1, 2)
    assert x_var(1, 2) != x_var(2, 1)
    from scrolleq import t_var, u_var

    assert u_var(3) != t_var(3)


def test_homogeneity_detection():
    assert is_homogeneous(conic())
    assert not is_homogeneous(conic() + var(X0))
    assert is_homogeneous(Polynomial.zero(ZZ))


# -- domains -----------------------------------------------------------------------


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(9)


def test_fp_coefficients_normalized():
    p = Polynomial.term(-1, [(X0, 1)], GF(7))
    assert p.terms[monomial([(X0, 1)])] == 6


def test_coerce_rejects_non_integral_values():
    m = monomial([(X0, 1)])
    for dom in (ZZ, GF(5)):
        with pytest.raises(ValueError, match="non-integral"):
            Polynomial(dom, {m: 2.5})
    with pytest.raises(ValueError, match="non-integral"):
        Polynomial(ZZ, {m: Fraction(1, 2)})


@pytest.mark.parametrize("dom, value", [
    (GF(5), Fraction(1, 2)),
    *((dom, value) for value in (Fraction(6, 3), 2.0, "2") for dom in (ZZ, GF(5))),
], ids=lambda x: str(x) if isinstance(x, Domain) else repr(x))
def test_coerce_takes_only_ints(dom, value):
    # A coefficient is an int over Z or a residue over GF(p): no fraction,
    # even an integral one, no float and no string.
    with pytest.raises(ValueError, match="non-integral"):
        Polynomial(dom, {monomial([(X0, 1)]): value})
    with pytest.raises(ValueError, match="non-integral"):
        Polynomial.const(1, dom).scale(value)


def test_printing_examples():
    assert str(Polynomial.zero(ZZ)) == "0"
    assert str(conic()) == "-x[1][1]^2 + x[1][0]*x[1][2]"
    assert str(Polynomial.const(-3)) == "-3"
    assert str(conic().reduce_mod(5)) == "4*x[1][1]^2 + x[1][0]*x[1][2]"


def test_format_poly_dialect_arguments():
    from scrolleq import format_poly

    def name(v):
        return f"x_({v.block},{v.slot})"

    assert format_poly(conic(), name, space="") == "-x_(1,1)^2+x_(1,0)*x_(1,2)"
    p = Polynomial(ZZ, {monomial([(X0, 2)]): -12, (): 3})
    assert format_poly(p) == "-12*x[1][0]^2 + 3"
    assert format_poly(p, name, space="") == "-12*x_(1,0)^2+3"
    assert format_poly(Polynomial.zero(ZZ), name, space="") == "0"
