"""Unit tests for the sparse polynomial kernel."""

import pytest

from scrolleq import (
    GF,
    QQ,
    VAR_S,
    VAR_T,
    VAR_W,
    VAR_Z,
    ZZ,
    DomainMismatchError,
    Monomial,
    Polynomial,
    binomial,
    is_prime,
    monomial,
    x_var,
)
from scrolleq.scroll import bridge

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
    _, full = bridge(2, 4)
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
    _, b = bridge(2, 4)
    p5 = b**5
    assert p5.is_homogeneous()
    assert p5.total_degree() == 15


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

    _, b22 = bridge(2, 2)
    images = {}
    for j in range(3):
        images[x_var(1, j)] = term(1, [(u_var(1), 1), (VAR_S, 2 - j), (VAR_T, j)])
        images[x_var(2, j)] = term(1, [(VAR_V, 1), (VAR_S, 2 - j), (VAR_T, j)])
    assert b22.substitute(images, strict=True).is_zero()


def test_substitute_strict_requires_all_variables():
    p = var(X0) + var(X1)
    with pytest.raises(ValueError):
        p.substitute({X0: var(X1)}, strict=True)
    # non-strict leaves unmapped variables alone
    assert p.substitute({X0: var(X1)}) == var(X1).scale(2)


def test_substitute_rejects_foreign_domain():
    with pytest.raises(DomainMismatchError):
        var(X0, ZZ).substitute({X0: var(X1, GF(3))})


# -- evaluation -------------------------------------------------------------------


def conic(dom=ZZ):
    return Polynomial.term(1, [(X0, 1), (X2, 1)], dom) - Polynomial.term(1, [(X1, 2)], dom)


def test_eval_on_curve_point():
    assert conic().eval({X0: 1, X1: 1, X2: 1}) == 0


def test_eval_mod_five():
    p = conic().reduce_mod(5)
    assert p.eval({X0: 1, X1: 2, X2: 3}) == 4


def test_eval_commutes_with_reduction():
    p = conic()
    point = {X0: 7, X1: -3, X2: 11}
    for q in (2, 3, 5, 101):
        assert p.reduce_mod(q).eval({v: c % q for v, c in point.items()}) == p.eval(point) % q


def test_eval_requires_all_variables():
    with pytest.raises(ValueError):
        conic().eval({X0: 1, X1: 1})


# -- reduction ---------------------------------------------------------------------


def test_reduce_drops_characteristic_multiples():
    p = term(2, [(X1, 1), (Y1, 1)])
    assert p.reduce_mod(2).is_zero()


def test_reduce_bridge_mod_two():
    # Coefficients 1, -4, 6, -4, 1 reduce to 1, 0, 0, 0, 1: only the two
    # extreme terms survive in characteristic 2.
    _, b = bridge(2, 4)
    expected = Polynomial.term(1, [(X2, 2), (Y0, 1)], GF(2)) + Polynomial.term(
        1, [(X0, 2), (Y4, 1)], GF(2)
    )
    assert b.reduce_mod(2) == expected


def test_reduce_bridge_mod_three():
    # 1, -4, 6, -4, 1 mod 3 -> 1, 2, 0, 2, 1: the middle term drops.
    _, b = bridge(2, 4)
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
    assert y2 > xy > x2
    assert x2 < y2


def test_grevlex_grading_dominates():
    assert monomial([(X2, 3)]) > monomial([(X0, 1), (X1, 1)])
    assert monomial([(X0, 1)]) < monomial([(X1, 2)])


def test_grevlex_classic_tie_break():
    # Same degree, same top variable: weight on the later variable loses.
    a = monomial([(X0, 1), (X2, 1)])
    b = monomial([(X1, 2)])
    assert b > a


def test_sorted_terms_lead_with_largest():
    p = conic()
    lead_mono, lead_coeff = p.sorted_terms()[0]
    assert lead_mono == monomial([(X1, 2)])
    assert lead_coeff == -1


def test_canonical_form_has_no_zero_entries():
    p = term(1, [(X0, 1)]) + term(-1, [(X0, 1)]) + term(2, [(X1, 1)])
    assert list(p.terms.values()) == [2]
    assert all(e > 0 for m in p.terms for _, e in m.exps)


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Monomial({X0: -1})


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
    assert conic().is_homogeneous()
    assert not (conic() + var(X0)).is_homogeneous()
    assert Polynomial.zero(ZZ).is_homogeneous()


# -- domains -----------------------------------------------------------------------


def test_rational_domain_reduces():
    from fractions import Fraction

    p = Polynomial.term(Fraction(2, 4), [(X0, 1)], QQ)
    assert p.terms[monomial([(X0, 1)])] == Fraction(1, 2)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(9)


def test_fp_coefficients_normalized():
    p = Polynomial.term(-1, [(X0, 1)], GF(7))
    assert p.terms[monomial([(X0, 1)])] == 6


def test_coerce_rejects_non_integral_values():
    from fractions import Fraction

    m = monomial([(X0, 1)])
    for dom in (ZZ, GF(5)):
        with pytest.raises(ValueError, match="non-integral"):
            Polynomial(dom, {m: 2.5})
    with pytest.raises(ValueError, match="non-integral"):
        Polynomial(ZZ, {m: Fraction(1, 2)})
    with pytest.raises(ValueError, match="5 divides the denominator"):
        Polynomial(GF(5), {m: Fraction(1, 5)})
    assert Polynomial(ZZ, {m: 2.0}) == Polynomial(ZZ, {m: 2})
    assert Polynomial(ZZ, {m: Fraction(6, 3)}) == Polynomial(ZZ, {m: 2})


def test_coerce_fraction_into_prime_field_is_exact():
    from fractions import Fraction

    m = monomial([(X0, 1)])
    # 1/2 in GF(5) is the inverse of 2, which is 3; -2/3 is -2 * 2 = 1.
    assert Polynomial(GF(5), {m: Fraction(1, 2)}).terms[m] == 3
    assert Polynomial(GF(5), {m: Fraction(-2, 3)}).terms[m] == 1
    assert Polynomial(GF(7), {m: Fraction(14, 3)}).is_zero()


def test_printing_examples():
    assert str(Polynomial.zero(ZZ)) == "0"
    assert str(conic()) == "-x[1][1]^2 + x[1][0]*x[1][2]"
    assert str(Polynomial.const(-3)) == "-3"
    assert str(conic().reduce_mod(5)) == "4*x[1][1]^2 + x[1][0]*x[1][2]"


def test_format_poly_dialect_arguments():
    from fractions import Fraction

    from scrolleq import format_poly

    def name(v):
        return f"x_({v.block},{v.slot})"

    assert format_poly(conic(), name, space="") == "-x_(1,1)^2+x_(1,0)*x_(1,2)"
    p = Polynomial(QQ, {monomial([(X0, 2)]): Fraction(-1, 2), Monomial(): 3})
    assert format_poly(p) == "-1/2*x[1][0]^2 + 3"
    assert format_poly(p, name, space="") == "-1/2*x_(1,0)^2+3"
    assert format_poly(Polynomial.zero(ZZ), name, space="") == "0"
