"""Parser, printer and JSON serialization tests."""

import json
import sys

import pytest

from reference import bridge_via_lists, poly_to_json_text
from scrolleq import (
    GF,
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
    t_var,
    u_var,
    x_var,
)
from scrolleq.textio import MAX_EXPONENT, polys_json_text

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
    assert parse_poly("x[1][0] + 2 - x[1][0] + x[1][1] - 2") == Polynomial.variable(X1)


def test_parse_repeated_variable_accumulates():
    assert parse_poly("x[1][1]*x[1][1]") == Polynomial.term(1, [(X1, 2)])


def test_parse_refuses_a_slash():
    # A coefficient is an integer: '/' is no token of the grammar.
    for ctx in (ParseContext(), ParseContext(GF(7))):
        with pytest.raises(ParseError, match="unexpected character '/'") as err:
            parse_poly("1/2*x[1][0]", ctx)
        assert (err.value.line, err.value.col) == (1, 2)


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


@pytest.mark.parametrize("text, line, col", [
    ("x[1][\u0663]", 1, 6),  # ARABIC-INDIC DIGIT THREE: read as 3 before
    ("x[1][0]^\u00b2", 1, 9),  # SUPERSCRIPT TWO: a bare int() error before
    ("x[1][0] +\n 2*\u00e9", 2, 4),
    ("\uff58[1][0]", 1, 1),  # FULLWIDTH LATIN SMALL LETTER X
])
def test_parse_refuses_non_ascii_digits_and_letters(text, line, col):
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_poly(text)
    assert (err.value.line, err.value.col) == (line, col)


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


# int() refuses a digit run longer than sys.get_int_max_str_digits() (4300 by
# default); 0 or an older Python means no limit.
LONG_DIGITS = "1" * 5000
needs_digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG_DIGITS),
    reason="int() reads a 5000-digit run here",
)


@needs_digit_limit
@pytest.mark.parametrize("text, ctx, col", [
    (LONG_DIGITS, ParseContext(), 1),
    ("x[1][0]^" + LONG_DIGITS, ParseContext(), 9),
    ("x[" + LONG_DIGITS + "][0]", ParseContext(), 3),
    ("u[" + LONG_DIGITS + "]", ParseContext(), 3),
], ids=["coefficient", "exponent", "index", "u-index"])
def test_parse_long_digit_run_is_a_parse_error(text, ctx, col):
    with pytest.raises(ParseError, match="integer too long \\(5000 digits\\)") as err:
        parse_poly(text, ctx)
    assert (err.value.line, err.value.col) == (1, col)


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
        Polynomial.zero(ZZ),
        Polynomial.zero(GF(7)),
    ]
    for p in polys:
        assert poly_from_json(poly_to_json(p)) == p
        assert poly_from_json(poly_to_json_text(p)) == p


def test_json_domain_tags():
    assert poly_to_json(conic())["domain"] == "Z"
    assert poly_to_json(conic().reduce_mod(7))["domain"] == {"Fp": 7}
    assert poly_to_json(Polynomial.zero(ZZ)) == {"domain": "Z", "terms": []}


def test_json_is_valid_json():
    doc = json.loads(poly_to_json_text(bridge_via_lists(2, 3)))
    assert len(doc["terms"]) == 7


def test_json_exps_sorted():
    p = Polynomial.term(5, [(x_var(2, 1), 1), (X0, 2), (VAR_S, 3)])
    entry = poly_to_json(p)["terms"][0]["exps"]
    assert entry == sorted(entry)


def test_json_repeated_monomials_add_up():
    # As in the text parser, repeated monomials merge instead of the last
    # one winning, and a sum that vanishes drops out.
    doc = {
        "domain": "Z",
        "terms": [{"coeff": "1", "exps": [[1, 0, 1]]}, {"coeff": "2", "exps": [[1, 0, 1]]}],
    }
    assert poly_from_json(doc) == parse_poly("x[1][0] + 2*x[1][0]") == parse_poly("3*x[1][0]")
    doc = {
        "domain": {"Fp": 7},
        "terms": [{"coeff": "3", "exps": [[1, 0, 1]]}, {"coeff": "4", "exps": [[1, 0, 1]]}],
    }
    assert poly_from_json(doc).is_zero()


def test_json_repeated_variable_exponents_add_up():
    doc = {"domain": "Z", "terms": [{"coeff": "1", "exps": [[1, 0, 1], [1, 0, 2]]}]}
    assert poly_from_json(doc) == parse_poly("x[1][0]*x[1][0]^2") == parse_poly("x[1][0]^3")
    # A negative exponent is refused before it can cancel a positive one.
    doc = {"domain": "Z", "terms": [{"coeff": "1", "exps": [[1, 0, 2], [1, 0, -1]]}]}
    with pytest.raises(ValueError, match="negative exponent"):
        poly_from_json(doc)


def test_json_zero_denominator_is_a_value_error():
    doc = {"domain": "Z", "terms": [{"coeff": "1/0", "exps": [[1, 0, 1]]}]}
    with pytest.raises(ValueError, match="invalid coefficient '1/0'"):
        poly_from_json(doc)


def test_json_refuses_the_rational_domain():
    doc = {"domain": "Q", "terms": [{"coeff": "1", "exps": [[1, 0, 1]]}]}
    with pytest.raises(ValueError, match="invalid domain descriptor 'Q'"):
        poly_from_json(doc)


def test_json_refuses_a_fraction_over_a_prime_field():
    # A coefficient is an integer over GF(p) too, not a times the inverse of b.
    doc = {"domain": {"Fp": 7}, "terms": [{"coeff": "1/2", "exps": [[1, 0, 1]]}]}
    with pytest.raises(ValueError, match="invalid coefficient '1/2'"):
        poly_from_json(doc)


def one_factor_doc(i, j, e):
    return {"domain": "Z", "terms": [{"coeff": "1", "exps": [[i, j, e]]}]}


@pytest.mark.parametrize("exponent, message", [
    (1.5, "not an integer"),
    (2.0, "not an integer"),
    ("2", "not an integer"),
    (True, "not an integer"),
    (None, "not an integer"),
    (10**7, "exponent overflow"),
    (MAX_EXPONENT + 1, "exponent overflow"),
])
def test_json_refuses_bad_exponents(exponent, message):
    with pytest.raises(ValueError, match=message):
        poly_from_json(one_factor_doc(1, 0, exponent))


def test_json_accepts_exponents_from_zero_to_the_limit():
    assert poly_from_json(one_factor_doc(1, 0, 0)) == Polynomial.const(1)
    assert poly_from_json(one_factor_doc(1, 0, MAX_EXPONENT)) == Polynomial.term(
        1, [(X0, MAX_EXPONENT)]
    )


@pytest.mark.parametrize("block, slot", [
    ("1", 0), (1, "0"), (1.0, 0), (1, 0.0), (True, 0), (1, False), (None, 0), (0, True),
    # Unhashable: refused by the type check, before (i, j) is looked up.
    ([1], 0), (1, [0]), ({}, 0),
])
def test_json_refuses_non_integer_blocks_and_slots(block, slot):
    with pytest.raises(ValueError, match="invalid variable encoding"):
        poly_from_json(one_factor_doc(block, slot, 1))


@pytest.mark.parametrize("twin", [[True, 0, 1], [1, False, 1], [1.0, 0, 1]])
def test_json_refuses_a_non_integer_twin_of_a_decoded_variable(twin):
    # True == 1.0 == 1 and they hash alike, so the twin of the decoded [1, 0]
    # must be refused by its type, not found in the table of decoded pairs.
    doc = {"domain": "Z", "terms": [{"coeff": "1", "exps": [[1, 0, 1], twin]}]}
    with pytest.raises(ValueError, match="invalid variable encoding"):
        poly_from_json(doc)


@pytest.mark.parametrize("p", [7.0, "7", True, None])
def test_json_refuses_a_modulus_that_is_not_an_int(p):
    doc = {"domain": {"Fp": p}, "terms": [{"coeff": "10", "exps": [[1, 0, 1]]}]}
    with pytest.raises(ValueError, match="invalid domain descriptor"):
        poly_from_json(doc)


def test_json_refuses_a_modulus_that_is_not_prime():
    with pytest.raises(ValueError, match="8 is not prime"):
        poly_from_json({"domain": {"Fp": 8}, "terms": []})
    # The smallest strong pseudoprime to bases 2..37.
    with pytest.raises(ValueError, match="is not prime"):
        poly_from_json({"domain": {"Fp": 318665857834031151167461}, "terms": []})
    with pytest.raises(ValueError, match="too large for the primality test"):
        poly_from_json({"domain": {"Fp": 3317044064679887385961981}, "terms": []})


@pytest.mark.parametrize("coeff", [
    "1_000", " 7 ", "7\n", "\u0663", "+5", "7/-2", "1/2/3", "1.5", "", 5, None,
])
def test_json_refuses_coefficients_outside_the_documented_form(coeff):
    doc = {"domain": "Z", "terms": [{"coeff": coeff, "exps": [[1, 0, 1]]}]}
    with pytest.raises(ValueError, match="invalid coefficient"):
        poly_from_json(doc)


@needs_digit_limit
@pytest.mark.parametrize("coeff", [LONG_DIGITS, "-" + LONG_DIGITS], ids=["integer", "negative"])
def test_json_long_coefficient_is_a_value_error_naming_it(coeff):
    doc = {"domain": "Z", "terms": [{"coeff": coeff, "exps": [[1, 0, 1]]}]}
    with pytest.raises(ValueError, match=f"coefficient {coeff[:20]}\\.\\.\\. is too long") as err:
        poly_from_json(doc)
    assert type(err.value) is ValueError


@needs_digit_limit
def test_printers_write_a_coefficient_past_the_digit_limit():
    # str() refuses the 5000 digits; every printer writes them, and both
    # readers refuse them, as input-safety limits.
    p = Polynomial.term(-(10**5000 - 1) // 9, [(x_var(1, 0), 1)])
    assert str(p) == "-" + LONG_DIGITS + "*x[1][0]"
    doc = poly_to_json(p)
    assert doc["terms"][0]["coeff"] == "-" + LONG_DIGITS
    assert polys_json_text([p]) == [json.dumps(doc, indent=2)]
    with pytest.raises(ParseError, match="integer too long \\(5000 digits\\)"):
        parse_poly(str(p))
    with pytest.raises(ValueError, match="is too long \\(5001 characters\\)"):
        poly_from_json(doc)


@pytest.mark.parametrize("doc", [
    {"terms": []},
    {"domain": "Z"},
    {"domain": "Z", "terms": [{"coeff": "1"}]},
    {"domain": "Z", "terms": 5},
    {"domain": "Z", "terms": [{"coeff": "1", "exps": [5]}]},
    {"domain": "Z", "terms": [5]},
    [{"domain": "Z", "terms": []}],
    '"Z"',
], ids=[
    "no-domain", "no-terms", "no-exps", "terms-not-a-list", "exps-entry-not-a-list",
    "term-not-an-object", "top-level-list", "top-level-string",
])
def test_json_malformed_structure_is_a_value_error(doc):
    with pytest.raises(ValueError):
        poly_from_json(doc)


def test_json_reads_the_documented_coefficient_forms():
    doc = {
        "domain": {"Fp": 7},
        "terms": [{"coeff": "-3", "exps": [[1, 0, 1]]}, {"coeff": "11", "exps": [[1, 1, 1]]}],
    }
    # Over GF(7), -3 is 4 and 11 is 4.
    assert poly_from_json(doc) == parse_poly("4*x[1][0] + 4*x[1][1]", ParseContext(GF(7)))
