"""Canonical text / JSON / LaTeX forms for polynomials and fractions.

The text grammar is the artifact's own: terms joined by " + " / " - ", each
term an optional integer coefficient followed by variable powers, exponents
either bare positive integers or parenthesized (possibly fractional) values
on the quarter lattice, e.g. ``q^3``, ``q^(-1)``, ``t^(1/2)``.  Whatever this
module serializes it can parse back, bit-identically; LaTeX is write-only.

JSON uses a fixed schema with coefficients as decimal strings (they are big
integers) and exponents in quarter units::

    {"exponent_unit": "1/4", "variables": ["q", "a", "t"],
     "terms": [{"coeff": "1", "exp": [eq, ea, et]}, ...]}

A FracPoly adds ``"den": [{"lead": [...], "trail": [...]}, ...]`` with one
entry per denominator factor, multiplicities by repetition.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .poly import UNIT, Exponents, FracPoly, Polynomial

__all__ = [
    "ParseError",
    "dumps",
    "parse_poly",
    "parse_frac",
    "poly_to_obj",
    "poly_from_obj",
    "frac_to_obj",
    "frac_from_obj",
]

_VARS = "qat"


class ParseError(ValueError):
    """Malformed input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# text


class _Scanner:
    def __init__(self, s: str):
        self.s = s
        self.i = 0

    def skip_ws(self) -> None:
        while self.i < len(self.s) and self.s[self.i] in " \t\n":
            self.i += 1

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def at(self, chars: str) -> bool:
        ch = self.peek()
        return bool(ch) and ch in chars

    def take(self) -> str:
        ch = self.peek()
        self.i += 1
        return ch

    def integer(self, allow_sign: bool = False) -> int:
        start = self.i
        if allow_sign and self.at("+-"):
            self.i += 1
        digits = self.i
        while self.peek().isdigit():
            self.i += 1
        if self.i == digits:
            raise ParseError("expected an integer", start)
        return int(self.s[start:self.i])

    def exponent_units(self) -> int:
        # after '^': integer, or '(' integer [ '/' integer ] ')'
        if self.peek() == "(":
            self.take()
            num = self.integer(allow_sign=True)
            den = 1
            if self.peek() == "/":
                self.take()
                den = self.integer()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.i)
            self.take()
            value = Fraction(num, den) * UNIT
            if value.denominator != 1:
                raise ParseError("exponent off the quarter lattice", self.i)
            return int(value)
        return self.integer(allow_sign=True) * UNIT


def _parse_poly_text(s: str) -> Polynomial:
    sc = _Scanner(s)
    terms: dict[Exponents, int] = {}
    sc.skip_ws()
    if not sc.peek():
        raise ParseError("empty input", 0)
    sign = 1
    if sc.at("+-"):
        sign = -1 if sc.take() == "-" else 1
        sc.skip_ws()
    while True:
        coeff = sign
        units = [0, 0, 0]
        seen = False
        if sc.peek().isdigit():
            coeff = sign * sc.integer()
            seen = True
            sc.skip_ws()
        while sc.at(_VARS):
            var = _VARS.index(sc.take())
            e = UNIT
            if sc.peek() == "^":
                sc.take()
                e = sc.exponent_units()
            units[var] += e
            seen = True
            sc.skip_ws()
        if not seen:
            raise ParseError("expected a term", sc.i)
        key = tuple(units)
        v = terms.get(key, 0) + coeff
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)
        sc.skip_ws()
        if not sc.peek():
            return Polynomial(terms)
        if not sc.at("+-"):
            raise ParseError("expected '+' or '-'", sc.i)
        sign = -1 if sc.take() == "-" else 1
        sc.skip_ws()


# ---------------------------------------------------------------------------
# json


def poly_to_obj(p: Polynomial) -> dict:
    return {
        "exponent_unit": "1/4",
        "variables": ["q", "a", "t"],
        "terms": [
            {"coeff": str(c), "exp": list(e)} for e, c in p.terms()
        ],
    }


def frac_to_obj(f: FracPoly) -> dict:
    obj = poly_to_obj(f.num)
    obj["den"] = [
        {"lead": list(b.lead), "trail": list(b.trail)} for b in f.den
    ]
    return obj


def _exp_from(obj, where: str, n: int) -> Exponents:
    # JSON integers only: ``type(u) is int`` rejects floats and booleans
    if (
        type(obj) is not list or len(obj) != 3
        or type(obj[0]) is not int or type(obj[1]) is not int
        or type(obj[2]) is not int
    ):
        raise ParseError(f"bad exponent vector in {where} {n}", 0)
    return (obj[0], obj[1], obj[2])


def poly_from_obj(obj) -> Polynomial:
    """Decode the JSON form strictly: nothing is rounded or coerced.

    A coefficient is a decimal string or a JSON integer, and an exponent a
    list of three JSON integers; anything else (a float, a boolean, a
    fractional string) raises :class:`ParseError` naming the term.
    """
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", 0)
    if obj.get("exponent_unit") != "1/4":
        raise ParseError("exponent_unit must be '1/4'", 0)
    if obj.get("variables") != ["q", "a", "t"]:
        raise ParseError("variables must be ['q', 'a', 't']", 0)
    items = obj.get("terms", [])
    if type(items) is not list:
        raise ParseError("terms must be a list", 0)
    terms: dict[Exponents, int] = {}
    for n, item in enumerate(items):
        if type(item) is not dict:
            raise ParseError(f"bad term {n}", 0)
        coeff = item.get("coeff")
        if type(coeff) is str:
            try:
                coeff = int(coeff)
            except ValueError:
                raise ParseError(f"bad coefficient in term {n}", 0) from None
        elif type(coeff) is not int:
            raise ParseError(f"bad coefficient in term {n}", 0)
        exp = _exp_from(item.get("exp"), "term", n)
        v = terms.get(exp, 0) + coeff
        if v:
            terms[exp] = v
        else:
            terms.pop(exp, None)
    return Polynomial._trusted(terms)


def frac_from_obj(obj) -> FracPoly:
    num = poly_from_obj(obj)
    den = obj.get("den", [])
    if type(den) is not list:
        raise ParseError("den must be a list", 0)
    pairs = []
    for n, item in enumerate(den):
        if not isinstance(item, dict):
            raise ParseError(f"bad denominator factor {n}", 0)
        lead = _exp_from(item.get("lead"), "factor", n)
        trail = _exp_from(item.get("trail"), "factor", n)
        if lead == trail:
            raise ParseError(f"degenerate denominator factor {n}", 0)
        pairs.append((lead, trail))
    return FracPoly.over_binomials(num, pairs)


# ---------------------------------------------------------------------------
# public API


def dumps(obj: Polynomial | FracPoly, fmt: str = "text") -> str:
    """Serialize a Polynomial or FracPoly in the requested format."""
    if fmt == "text":
        return obj.text()
    if fmt == "latex":
        return obj.text(latex=True)
    if fmt == "json":
        data = frac_to_obj(obj) if isinstance(obj, FracPoly) else poly_to_obj(obj)
        return json.dumps(data)
    raise ValueError(f"unknown format {fmt!r}")


def parse_poly(s: str, fmt: str = "text") -> Polynomial:
    if fmt == "text":
        return _parse_poly_text(s)
    if fmt == "json":
        try:
            obj = json.loads(s)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
        if isinstance(obj, dict) and obj.get("den"):
            raise ParseError("input is a fraction, not a polynomial", 0)
        return poly_from_obj(obj)
    raise ValueError(f"unknown format {fmt!r}")


def parse_frac(s: str) -> FracPoly:
    """Parse a FracPoly from its JSON form (text form is write-only)."""
    try:
        obj = json.loads(s)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
    return frac_from_obj(obj)
