r"""Canonical text / JSON / LaTeX forms for polynomials and fractions.

The text grammar is the artifact's own, e.g. ``3 q^2 a t^(-3/4)``: a run of
terms, each after the first opening with its sign.  A term matches
``_TERM`` and each variable power in it ``_POWER`` (``ws`` is ``[ \t\n]*``)::

    term   ws [+-]? ws [0-9]* ws (power ws)*
    power  [qat] ( \^ ( [+-]?[0-9]+ | \( [+-]?[0-9]+ (/[0-9]+)? \) ) )?

A term needs a coefficient or a power, and an exponent must land on the
quarter lattice.  Digits are ASCII only, as in every integer read from
outside input (:func:`parse_int`).  Malformed text or JSON raises
:class:`ParseError` at a position inside the input.  Whatever this module
serializes it parses back bit-identically; LaTeX is write-only.

JSON uses a fixed schema with coefficients as decimal strings (they are big
integers) and exponents in quarter units::

    {"exponent_unit": "1/4", "variables": ["q", "a", "t"],
     "terms": [{"coeff": "1", "exp": [eq, ea, et]}, ...]}

A FracPoly adds ``"den": [{"lead": [...], "trail": [...]}, ...]`` with one
entry per denominator factor, multiplicities by repetition.
"""

from __future__ import annotations

import json
import re
import sys

from .poly import UNIT, Exponents, FracPoly, Polynomial

__all__ = [
    "ParseError",
    "dumps",
    "parse_poly",
    "parse_frac",
    "parse_int",
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

_WS = r"[ \t\n]*"
_POWER = re.compile(r"([qat])(?:\^(?:([+-]?[0-9]+)|\(([+-]?[0-9]+)(?:/([0-9]+))?\)))?")
_TERM = re.compile(rf"{_WS}([+-]?){_WS}([0-9]*){_WS}((?:{_POWER.pattern}{_WS})*)")


def parse_int(text: str, position: int = 0) -> int:
    """Read an integer from outside input: an optional sign, then ASCII digits.

    Blanks, underscores and non-ASCII digits, which ``int()`` would accept,
    raise :class:`ParseError`, and so do more digits than ``int()`` converts
    (``sys.get_int_max_str_digits()``, 4300 by default).  ``position`` is
    where ``text`` starts in the input.
    """
    if text.isascii() and text.lstrip("+-").isdigit():
        try:
            return int(text)
        except ValueError:  # more than one sign, or more digits than int() takes
            digits = text.lstrip("+-")
            if len(text) - len(digits) < 2:
                raise ParseError(
                    f"an integer of {len(digits)} digits, over the "
                    f"{sys.get_int_max_str_digits()}-digit limit",
                    position,
                ) from None
    raise ParseError(f"expected an integer, not {text!r}", position)


def _parse_poly_text(s: str) -> Polynomial:
    terms: dict[Exponents, int] = {}
    pos = 0
    while True:
        term = _TERM.match(s, pos)
        sign, digits, powers = term.group(1, 2, 3)
        if not (digits or powers):
            raise ParseError("expected a term", term.end())
        units = [0, 0, 0]
        for power in _POWER.finditer(s, term.start(3), term.end(3)):
            var, whole, num, den = power.groups()
            den = parse_int(den, power.start(4)) if den else 1
            if not den:
                raise ParseError("zero exponent denominator", power.start(4))
            top = whole or num
            e, off = divmod((parse_int(top, power.start()) if top else 1) * UNIT, den)
            if off:
                raise ParseError("exponent off the quarter lattice", power.end())
            units[_VARS.index(var)] += e
        key = tuple(units)
        terms[key] = terms.get(key, 0) + parse_int(sign + (digits or "1"), term.start(2))
        pos = term.end()
        if pos == len(s):
            return Polynomial(terms)  # drops the zero sums
        if s[pos] not in "+-":
            raise ParseError("expected '+' or '-'", pos)


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
                coeff = parse_int(coeff)
            except ParseError:
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


def _json_loads(s: str):
    try:
        return json.loads(s)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
    except ValueError:  # a JSON integer with more digits than int() converts
        raise ParseError(
            f"invalid JSON: an integer over the {sys.get_int_max_str_digits()}-digit "
            "limit", 0,
        ) from None


def parse_poly(s: str, fmt: str = "text") -> Polynomial:
    if fmt == "text":
        return _parse_poly_text(s)
    if fmt == "json":
        obj = _json_loads(s)
        if isinstance(obj, dict) and obj.get("den"):
            raise ParseError("input is a fraction, not a polynomial", 0)
        return poly_from_obj(obj)
    raise ValueError(f"unknown format {fmt!r}")


def parse_frac(s: str) -> FracPoly:
    """Parse a FracPoly from its JSON form (text form is write-only)."""
    return frac_from_obj(_json_loads(s))
