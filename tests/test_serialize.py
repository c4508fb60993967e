import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tlh.poly import A, ONE, ONE_MINUS_Q, Q, FracPoly, Polynomial
from tlh.serialize import (
    ParseError, dumps, parse_frac, parse_int, parse_poly, poly_from_obj,
)

from test_poly import fracs, polys


def test_simple_text():
    assert dumps(ONE + A) == "1 + a"
    assert parse_poly("1 + a") == ONE + A
    assert parse_poly("q^(1/2)") == Polynomial.term(1, q=Fraction(1, 2))
    assert parse_poly("0") == Polynomial()
    assert dumps(Polynomial()) == "0"


def test_text_accepts_leading_minus_and_spacing():
    assert parse_poly("-q") == -Q
    assert parse_poly("- q + 2a") == -Q + 2 * A
    assert parse_poly("3 q^2 a t^(-3/4)") == Polynomial.term(3, q=2, a=1, t=Fraction(-3, 4))
    assert parse_poly("q q") == Q * Q


def test_parse_errors_carry_position():
    for bad in ["", "q +", "q ^", "q^(1/3)", "x + 1", "1 + + 2",
                "q^(1/0)", "\u00b2 q", "\u0663 q"]:
        with pytest.raises(ParseError) as err:
            parse_poly(bad)
        assert err.value.position >= 0


def test_parse_error_positions_lie_inside_the_input():
    cases = [
        ("", "expected a term", 0),
        ("q^ 2", "expected '+' or '-'", 1),
        ("q^(1/0)", "zero exponent denominator", 5),
        ("q^(1/3) a", "exponent off the quarter lattice", 7),
        ("2 q + \u0663 q", "expected a term", 6),
        ("1 + 2\u00b2", "expected '+' or '-'", 5),
        ("q^\u0663", "expected '+' or '-'", 1),
        ("q^(\u0663)", "expected '+' or '-'", 1),
        ("q^(4/\u0664)", "expected '+' or '-'", 1),
    ]
    for bad, message, position in cases:
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_poly(bad)
        assert err.value.position == position <= len(bad)


def test_parse_int_takes_a_sign_and_ascii_digits_only():
    assert [parse_int(s) for s in ("0", "+7", "-12", "007")] == [0, 7, -12, 7]
    for bad in ("", "+", "-", "+-5", " 7", "7 ", "1_000", "\uff17", "\u0663", "1e3"):
        with pytest.raises(ParseError):
            parse_int(bad)


def test_text_integer_over_the_digit_limit_is_a_parse_error():
    assert parse_poly("1" * 4300 + " q") == int("1" * 4300) * Q
    for bad, position in [
        ("1" * 5000 + " q", 0),
        ("q + " + "2" * 5000, 4),
        ("q^" + "3" * 5000, 0),
        ("a - t^(1/" + "4" * 5000 + ")", 9),
    ]:
        with pytest.raises(ParseError, match="over the 4300-digit limit") as err:
            parse_poly(bad)
        assert err.value.position == position


def test_json_integer_over_the_digit_limit_is_a_parse_error():
    obj = json.loads(dumps(ONE + A, "json"))
    obj["terms"][1]["coeff"] = 0
    text = json.dumps(obj).replace('"coeff": 0', '"coeff": ' + "7" * 5000)
    for parse in (lambda s: parse_poly(s, "json"), parse_frac):
        with pytest.raises(ParseError, match="over the 4300-digit limit"):
            parse(text)


def test_json_schema():
    p = Polynomial.term(2, q=1) + Polynomial.term(-1, a=Fraction(1, 2))
    obj = json.loads(dumps(p, "json"))
    assert obj["exponent_unit"] == "1/4"
    assert obj["variables"] == ["q", "a", "t"]
    assert obj["terms"] == [
        {"coeff": "-1", "exp": [0, 2, 0]},
        {"coeff": "2", "exp": [4, 0, 0]},
    ]


def test_json_frac_schema():
    f = FracPoly(ONE + A, [ONE_MINUS_Q, ONE_MINUS_Q])
    obj = json.loads(dumps(f, "json"))
    assert obj["den"] == [
        {"lead": [0, 0, 0], "trail": [4, 0, 0]},
        {"lead": [0, 0, 0], "trail": [4, 0, 0]},
    ]
    assert parse_frac(dumps(f, "json")) == f


def test_json_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_poly("{", "json")
    with pytest.raises(ParseError, match="expected a JSON object"):
        parse_poly("[]", "json")
    with pytest.raises(ParseError):
        parse_poly(json.dumps({"exponent_unit": "1/2", "variables": ["q", "a", "t"], "terms": []}), "json")
    with pytest.raises(ParseError, match="variables must be"):
        parse_poly(json.dumps({"exponent_unit": "1/4", "variables": ["q", "t", "a"], "terms": []}), "json")
    frac = json.loads(dumps(FracPoly(ONE, [ONE_MINUS_Q]), "json"))
    with pytest.raises(ParseError):
        parse_poly(json.dumps(frac), "json")
    for factor, message in [
        ([[0, 0, 0], [4, 0, 0]], "bad denominator factor 0"),
        ({"lead": [4, 0, 0], "trail": [4, 0, 0]}, "degenerate denominator factor 0"),
    ]:
        frac["den"] = [factor]
        with pytest.raises(ParseError, match=message):
            parse_frac(json.dumps(frac))


def test_unknown_format_is_a_value_error():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        dumps(ONE, "xml")
    for fmt in ("xml", "latex"):
        with pytest.raises(ValueError, match=f"unknown format '{fmt}'"):
            parse_poly("1", fmt)


# Term forms the JSON decoder must refuse, and the message naming term 1.
BAD_TERMS = [
    ({"coeff": 1.5, "exp": [0, 0, 0]}, "bad coefficient in term 1"),
    ({"coeff": 2.0, "exp": [0, 0, 0]}, "bad coefficient in term 1"),
    ({"coeff": True, "exp": [0, 0, 0]}, "bad coefficient in term 1"),
    ({"coeff": "1.5", "exp": [0, 0, 0]}, "bad coefficient in term 1"),
    ({"coeff": None, "exp": [0, 0, 0]}, "bad coefficient in term 1"),
    ({"exp": [0, 0, 0]}, "bad coefficient in term 1"),
    ({"coeff": "1", "exp": [True, 0, 0]}, "bad exponent vector in term 1"),
    ({"coeff": "1", "exp": [0, False, 0]}, "bad exponent vector in term 1"),
    ({"coeff": "1", "exp": [0, 0, 1.5]}, "bad exponent vector in term 1"),
    ({"coeff": "1", "exp": [4.0, 0, 0]}, "bad exponent vector in term 1"),
    ({"coeff": "1", "exp": ["4", 0, 0]}, "bad exponent vector in term 1"),
    ({"coeff": "1", "exp": [0, 0]}, "bad exponent vector in term 1"),
    ({"coeff": "1", "exp": [0, 0, 0, 0]}, "bad exponent vector in term 1"),
    ({"coeff": "1"}, "bad exponent vector in term 1"),
    (["1", [0, 0, 0]], "bad term 1"),
    # int() alone would read these three
    ({"coeff": " 7 ", "exp": [0, 0, 0]}, "bad coefficient in term 1"),
    ({"coeff": "1_000", "exp": [0, 0, 0]}, "bad coefficient in term 1"),
    ({"coeff": "\uff17", "exp": [0, 0, 0]}, "bad coefficient in term 1"),
]


def _with_second_term(term) -> dict:
    return {"exponent_unit": "1/4", "variables": ["q", "a", "t"],
            "terms": [{"coeff": "3", "exp": [0, 4, 0]}, term]}


@pytest.mark.parametrize("term,message", BAD_TERMS)
def test_json_decoding_is_strict(term, message):
    with pytest.raises(ParseError, match=message):
        poly_from_obj(_with_second_term(term))
    with pytest.raises(ParseError, match=message):
        parse_poly(json.dumps(_with_second_term(term)), "json")


def test_json_decoding_accepts_integers_and_decimal_strings():
    obj = _with_second_term({"coeff": -(10 ** 30), "exp": [-4, 0, 2]})
    assert poly_from_obj(obj) == Polynomial.term(3, a=1) - Polynomial.term(10 ** 30, q=-1, t=Fraction(1, 2))
    obj = _with_second_term({"coeff": "-3", "exp": [0, 4, 0]})
    assert poly_from_obj(obj) == Polynomial()
    with pytest.raises(ParseError, match="terms must be a list"):
        poly_from_obj({"exponent_unit": "1/4", "variables": ["q", "a", "t"], "terms": {}})
    frac = json.loads(dumps(FracPoly(ONE, [ONE_MINUS_Q]), "json"))
    frac["den"][0]["trail"] = [True, 0, 0]
    with pytest.raises(ParseError, match="bad exponent vector in factor 0"):
        parse_frac(json.dumps(frac))
    for den in (5, None, {"lead": [0, 0, 0], "trail": [4, 0, 0]}):
        frac["den"] = den
        with pytest.raises(ParseError, match="den must be a list"):
            parse_frac(json.dumps(frac))


def test_latex_output():
    assert dumps(Q ** 3 + Q ** 5 - Q ** 8, "latex") == "q^{3} + q^{5} - q^{8}"
    assert dumps(Polynomial.term(1, t=Fraction(-3, 2)), "latex") == "t^{-3/2}"
    f = FracPoly(ONE + A, [ONE_MINUS_Q])
    assert dumps(f, "latex") == "\\frac{1 + a}{(1 - q)}"


def test_three_strand_poly_round_trips_all_formats():
    from tlh.shuffle import poincare_poly

    p = poincare_poly("000")
    assert parse_poly(dumps(p, "text")) == p
    assert parse_poly(dumps(p, "json"), "json") == p
    dumps(p, "latex")  # write-only, must not raise


def test_big_coefficients_round_trip():
    p = Polynomial.term(10 ** 40, q=1) - Polynomial.term(7 ** 30, t=2)
    assert parse_poly(dumps(p)) == p
    assert parse_poly(dumps(p, "json"), "json") == p


@settings(max_examples=200)
@given(polys())
def test_poly_round_trip(p):
    assert parse_poly(dumps(p, "text")) == p
    assert parse_poly(dumps(p, "json"), "json") == p
    # canonical form is a fixed point
    assert dumps(parse_poly(dumps(p, "text")), "text") == dumps(p, "text")


@settings(max_examples=150)
@given(fracs())
def test_frac_json_round_trip(f):
    assert parse_frac(dumps(f, "json")) == f
    assert dumps(parse_frac(dumps(f, "json")), "json") == dumps(f, "json")
