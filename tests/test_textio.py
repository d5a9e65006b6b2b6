"""Parser, printer and JSON serialization tests."""

import json

import pytest

from reference import bridge_via_lists
from scrolleq import (
    GF,
    QQ,
    VAR_S,
    VAR_T,
    ZZ,
    ParseContext,
    ParseError,
    Polynomial,
    monomial,
    parse_poly,
    poly_from_json,
    poly_to_json,
    poly_to_json_text,
    t_var,
    u_var,
    x_var,
)

X0, X1, X2 = x_var(1, 0), x_var(1, 1), x_var(1, 2)


def conic():
    return Polynomial.term(1, [(X0, 1), (X2, 1)]) - Polynomial.term(1, [(X1, 2)])


# -- parsing ------------------------------------------------------------------


def test_parse_conic():
    assert parse_poly("x[1][0]*x[1][2] - x[1][1]^2") == conic()


def test_parse_zero():
    assert parse_poly("0").is_zero()


def test_parse_ignores_whitespace():
    assert parse_poly(" x[1][0] * x[1][2]\n - x[1][1] ^ 2 ") == conic()


def test_parse_leading_sign_and_constants():
    assert parse_poly("-3") == Polynomial.const(-3)
    assert parse_poly("+2*x[1][0] - 2*x[1][0]").is_zero()


def test_parse_auxiliary_variables():
    p = parse_poly("s*t - u[2]*t[3] + v*z*w")
    assert monomial([(u_var(2), 1), (t_var(3), 1)]) in p.terms
    assert monomial([(VAR_S, 1), (VAR_T, 1)]) in p.terms


def test_parse_cancelling_terms_give_zero():
    assert parse_poly("3*x[1][0] + 4*x[1][0]", ParseContext(domain=GF(7))).is_zero()
    assert parse_poly("1/2*x[1][0] - 1/2*x[1][0]", ParseContext(domain=QQ)).is_zero()
    assert parse_poly("x[1][0] + 2 - x[1][0] + x[1][1] - 2") == Polynomial.variable(X1)


def test_parse_repeated_variable_accumulates():
    assert parse_poly("x[1][1]*x[1][1]") == Polynomial.term(1, [(X1, 2)])


def test_parse_rational_coefficients():
    from fractions import Fraction

    p = parse_poly("1/2*x[1][0] + 3", ParseContext(domain=QQ))
    assert p.coefficient(monomial([(X0, 1)])) == Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_poly("1/2*x[1][0]")  # rational coefficient over Z


def test_parse_fp_domain_normalizes():
    p = parse_poly("7*x[1][0] - 1", ParseContext(domain=GF(5)))
    assert p.coefficient(monomial([(X0, 1)])) == 2
    assert p.coefficient(monomial([])) == 4


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x[1][0] + $")
    assert err.value.line == 1 and err.value.col == 11

    with pytest.raises(ParseError) as err:
        parse_poly("x[1][0] +\n y[1][0]")
    assert err.value.line == 2


def test_parse_unknown_variable_name():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly("q + 1")


def test_parse_scalar_takes_no_index():
    with pytest.raises(ParseError, match="takes no index"):
        parse_poly("s[1]")


def test_parse_u_requires_index():
    with pytest.raises(ParseError, match="requires an index"):
        parse_poly("u + 1")


def test_parse_exponent_overflow():
    with pytest.raises(ParseError, match="exponent overflow"):
        parse_poly("x[1][0]^10000000")


def test_parse_validates_against_block_sizes():
    ctx = ParseContext(block_sizes=(2, 3))
    assert parse_poly("x[2][3]", ctx) == Polynomial.variable(x_var(2, 3))
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly("x[3][0]", ctx)
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly("x[1][3]", ctx)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("x[1][0] x[1][1]")
    with pytest.raises(ParseError):
        parse_poly("x[1][0] +")


# -- round trips ---------------------------------------------------------------


def test_print_parse_round_trip_bridge():
    p = bridge_via_lists(3, 4)
    assert parse_poly(str(p)) == p


def test_print_parse_round_trip_fp():
    p = bridge_via_lists(2, 3).reduce_mod(3)
    assert parse_poly(str(p), ParseContext(domain=GF(3))) == p


def test_print_parse_round_trip_rational():
    from fractions import Fraction

    p = Polynomial.term(Fraction(-3, 4), [(X0, 2)], QQ) + Polynomial.term(
        Fraction(5), [(X1, 1)], QQ
    )
    assert parse_poly(str(p), ParseContext(domain=QQ)) == p


# -- JSON ------------------------------------------------------------------------


def test_json_golden_conic():
    text = poly_to_json_text(conic())
    assert text == (
        '{"domain":"Z","terms":['
        '{"coeff":"-1","exps":[[1,1,2]]},'
        '{"coeff":"1","exps":[[1,0,1],[1,2,1]]}]}'
    )


def test_json_round_trip_domains():
    polys = [
        conic(),
        bridge_via_lists(2, 4),
        bridge_via_lists(2, 4).reduce_mod(2),
        Polynomial.term(1, [(u_var(1), 2), (VAR_S, 1)]) - Polynomial.term(1, [(t_var(2), 1)]),
        Polynomial.zero(QQ),
    ]
    for p in polys:
        assert poly_from_json(poly_to_json(p)) == p
        assert poly_from_json(poly_to_json_text(p)) == p


def test_json_domain_tags():
    assert poly_to_json(conic())["domain"] == "Z"
    assert poly_to_json(conic().reduce_mod(7))["domain"] == {"Fp": 7}
    assert poly_to_json(Polynomial.zero(QQ)) == {"domain": "Q", "terms": []}


def test_json_is_valid_json():
    doc = json.loads(poly_to_json_text(bridge_via_lists(2, 3)))
    assert len(doc["terms"]) == 7


def test_json_exps_sorted():
    p = Polynomial.term(5, [(x_var(2, 1), 1), (X0, 2), (VAR_S, 3)])
    entry = poly_to_json(p)["terms"][0]["exps"]
    assert entry == sorted(entry)
