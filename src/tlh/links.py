"""Reduced superpolynomials, normalizations, and classical specializations.

A braid-closure homology series in the Q, A, T gradings becomes a link
invariant only after a normalization prefactor fixed by the braid exponent e
and strand count n; in the q, a, t variables (q = Q^2, t = T^2 Q^-2,
a = A Q^-2) the prefactor is the monomial

    (tq)^(-e/2) * q^(n/2) * (a^(1/2) (tq)^(1/4))^(e-n)

which is why exponents live on a quarter lattice.  Dividing by the unknot
invariant (1 + a)-times-a-monomial over (1 - q) gives the reduced
superpolynomial, a Laurent polynomial in q^(1/2), a, t^(1/2) for knots.

Two classical specializations: decategorification sends t^(1/2) to
-q^(-1/2), and the sl(N) polynomial is then obtained by a -> -q^N.

This module also ships a small built-in table of reduced superpolynomials
for torus knots (the two-strand family in closed form, plus the (3,4),
(3,5) and (4,5) knots), and an independent q,t-Catalan oracle on Dyck paths
with the (area, bounce) statistics; the lowest a-slice of the (n,n+1) table
entries matches the Catalan polynomial up to a monomial, which the
verification suites check rather than assume.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from . import budget
from .poly import (
    A,
    ONE,
    ONE_MINUS_Q,
    Q,
    UNIT,
    BinomialFactor,
    Exponents,
    FracPoly,
    NonExactDivision,
    NonIntegralPower,
    Polynomial,
    _exp_vector,
)
from .serialize import parse_int, parse_poly

__all__ = [
    "UnknownLink",
    "SuperPolyEntry",
    "two_strand_superpoly",
    "dataset_get",
    "dataset_keys",
    "decategorify",
    "sl_specialization",
    "normalize_superpoly",
    "unknot_invariant",
    "reduce_by_unknot",
    "qt_catalan",
    "dyck_paths",
    "lowest_a_slice",
    "monomial_ratio",
]

_SOURCE = "built-in table, transcribed by hand"


class UnknownLink(KeyError):
    """No entry for that link name."""


@dataclass(frozen=True)
class SuperPolyEntry:
    key: str
    poly: Polynomial
    source: str


# What :func:`two_strand_superpoly` holds per term at its peak: tracemalloc
# measured 369 to 451 bytes at k = 10^3..10^5 (Python 3.11), so this rounds up.
_BYTES_PER_TERM = 512


def _reduced(k: int, body: Polynomial) -> Polynomial:
    # a^k (tq)^(-k/2) times body: one shift, in quarter units
    half = UNIT // 2 * k
    return body.shifted((-half, UNIT * k, -half))


def two_strand_superpoly(k: int) -> Polynomial:
    """Reduced superpolynomial of the (2, 2k+1) torus knot.

    a^k (tq)^(-k/2) ( t^k + q t^(k-1) + ... + q^k
                      + a (t^(k-1) + ... + q^(k-1)) ).

    Its 2k + 1 terms are checked against physical memory before any is
    built: :class:`~tlh.budget.MemoryBudgetExceeded` names the link.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    terms = 2 * k + 1
    budget._room(f"T(2,{terms})", {"superpolynomial terms": terms * _BYTES_PER_TERM})
    body = {(UNIT * i, 0, UNIT * (k - i)): 1 for i in range(k + 1)}
    body.update({(UNIT * i, UNIT, UNIT * (k - 1 - i)): 1 for i in range(k)})
    return _reduced(k, Polynomial(body))


# The fixed entries, as (k, body text) for :func:`_reduced`.
_TABLE = {
    "unknot": (0, "1"),
    "T(3,4)": (3, "t^3 + q t^2 + q t + q^2 t + q^3"
                  " + a t^2 + a t + a q t + a q + a q^2 + a^2"),
    "T(3,5)": (4, "t^4 + q t^3 + q t^2 + q^2 t^2 + q^2 t + q^3 t + q^4"
                  " + a t^3 + a t^2 + a q t^2 + 2 a q t + a q^2 t + a q^2 + a q^3"
                  " + a^2 q + a^2 t"),
    "T(4,5)": (6, "t^6 + q t^5 + q t^4 + q t^3 + q^2 t^4 + q^3 t^2 + q^2 t^3"
                  " + q^2 t^2 + q^3 t + q^3 t^3 + q^4 t^2 + q^4 t + q^5 t + q^6"
                  " + a t^5 + a t^4 + a t^3 + a q t^4 + a q^2 t^3 + 2 a q t^3"
                  " + 2 a q t^2 + a q t + 2 a q^2 t^2 + 2 a q^2 t + 2 a q^3 t"
                  " + a q^3 t^2 + a q^4 t + a q^3 + a q^4 + a q^5"
                  " + a^2 t^3 + a^2 t^2 + a^2 t + a^2 q t^2 + a^2 q t"
                  " + a^2 q^2 t + a^2 q + a^2 q^2 + a^2 q^3 + a^3"),
}

_TWO_STRAND = re.compile(r"T\(2,([0-9]+)\)")


def dataset_keys() -> list[str]:
    """Concrete keys; any odd T(2,m) with m >= 3 also resolves."""
    return ["unknot", "T(2,3)", "T(2,5)", "T(2,7)", "T(2,9)", "T(3,4)", "T(3,5)", "T(4,5)"]


def dataset_get(key: str) -> SuperPolyEntry:
    """Fetch a reduced superpolynomial by link name, e.g. ``T(3,4)``."""
    if key in _TABLE:
        k, body = _TABLE[key]
        return SuperPolyEntry(key, _reduced(k, parse_poly(body)), _SOURCE)
    m = _TWO_STRAND.fullmatch(key)
    if m:
        odd = parse_int(m.group(1))
        if odd >= 3 and odd % 2 == 1:
            return SuperPolyEntry(
                key, two_strand_superpoly((odd - 1) // 2), _SOURCE
            )
    raise UnknownLink(key)


# ---------------------------------------------------------------------------
# specializations

def _eliminate(p: Polynomial, var: str, base: int, to_q: int) -> Polynomial:
    # var^(k*base) -> (-1)^k q^(k*to_q), in quarter units; k must be whole
    i = "qat".index(var)
    out: dict[Exponents, int] = {}
    for e, c in p.units().items():
        k, rest = divmod(e[i], base)
        if rest:
            raise NonIntegralPower(
                f"(-1)^({Fraction(e[i], base)}) while eliminating {var}"
            )
        new = list(e)
        new[i] = 0
        new[0] += k * to_q
        key = tuple(new)
        out[key] = out.get(key, 0) + (-c if k % 2 else c)
    return Polynomial(out)


def decategorify(p: Polynomial) -> Polynomial:
    """Substitute t^(1/2) -> -q^(-1/2); the result is free of t."""
    return _eliminate(p, "t", UNIT // 2, -(UNIT // 2))


def sl_specialization(p: Polynomial, n: int) -> Polynomial:
    """Substitute a -> -q^N into an already decategorified polynomial."""
    if n < 1:
        raise ValueError("N must be >= 1")
    if p.unit_range("t") not in (None, (0, 0)):
        raise ValueError("decategorify first: input still involves t")
    return _eliminate(p, "a", UNIT, n * UNIT)


def normalize_superpoly(p: Polynomial, e: int, n: int) -> Polynomial:
    """Apply the braid-closure normalization prefactor.

    ``e`` is the braid exponent (signed crossing count), ``n`` the strand
    count.
    """
    return p.shifted((n - e, 2 * (e - n), -(e + n)))


def unknot_invariant() -> FracPoly:
    """The unnormalized unknot invariant, q^(1/4) a^(-1/2) t^(-1/4) (1+a) / (1-q)."""
    num = (ONE + A).shifted((1, -2, -1))  # q^(1/4) a^(-1/2) t^(-1/4)
    return FracPoly(num, [ONE_MINUS_Q])


_ONE_MINUS_A = BinomialFactor((0, 0, 0), (0, UNIT, 0))


def _a_to_minus_a(p: Polynomial) -> Polynomial:
    # a^(u/4) -> (-1)^floor(u/4) a^(u/4): an involution taking (1 + a) x to
    # (1 - a) times the image of x, on the whole quarter lattice
    return Polynomial({e: -c if e[1] // UNIT % 2 else c for e, c in p.units().items()})


def _divide_by_one_plus_a(p: Polynomial) -> Polynomial:
    """Exact quotient ``p / (1 + a)``: ``1 - a`` divides the image of p.

    Raises :class:`NonExactDivision` naming the least exponent of p whose
    class along a (same q and t exponents, a exponent mod 1) does not vanish
    at a = -1.
    """
    reflected = _a_to_minus_a(p)
    quo = _ONE_MINUS_A.quotient(reflected)
    if quo is not None:
        return _a_to_minus_a(quo)
    at_minus_one: dict[Exponents, int] = {}
    for (eq, ea, et), c in reflected.units().items():
        key = (eq, ea % UNIT, et)
        at_minus_one[key] = at_minus_one.get(key, 0) + c
    bad = min(e for e in p.units() if at_minus_one[e[0], e[1] % UNIT, e[2]])
    raise NonExactDivision(
        f"class of q,a,t exponent {_exp_vector(bad)} does not vanish at a = -1: "
        "not divisible by 1 + a"
    )


def reduce_by_unknot(p: Union[Polynomial, FracPoly]) -> Polynomial:
    """Divide an invariant by the unknot invariant, exactly.

    Multiplies by (1 - q) and the inverse prefactor monomial, then divides by
    (1 + a) through the binomial kernel (see :func:`_divide_by_one_plus_a`);
    raises NonExactDivision if the input is not an unknot multiple, or
    NotPolynomial if a rational input's denominator fails to cancel.
    """
    frac = p if isinstance(p, FracPoly) else FracPoly(p)
    num = frac.num * (ONE - Q)
    num = num.shifted((-1, 2, 1))  # q^(-1/4) a^(1/2) t^(1/4)
    num = _divide_by_one_plus_a(num)
    return FracPoly(num, frac.den).as_polynomial()


# ---------------------------------------------------------------------------
# q,t-Catalan oracle

def dyck_paths(n: int) -> Iterator[tuple[int, ...]]:
    """Dyck paths of semilength n, as the heights of their east steps.

    A path from (0,0) to (n,n) staying weakly above the diagonal is recorded
    by y_1 <= ... <= y_n with i <= y_i <= n, the height at which the i-th
    east step is taken.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        i = len(prefix)
        if i == n:
            yield prefix
            return
        low = max(i + 1, prefix[-1] if prefix else 1)
        for y in range(low, n + 1):
            yield from rec(prefix + (y,))

    yield from rec(())


def _area(y: tuple[int, ...]) -> int:
    return sum(v - i - 1 for i, v in enumerate(y))


def _bounce(y: tuple[int, ...]) -> int:
    n = len(y)
    total = 0
    cur = 0
    while True:
        cur = y[cur]
        if cur >= n:
            return total
        total += n - cur


def qt_catalan(n: int) -> Polynomial:
    """Sum of q^area t^bounce over Dyck paths of semilength n."""
    terms: dict[Exponents, int] = {}
    for y in dyck_paths(n):
        key = (UNIT * _area(y), 0, UNIT * _bounce(y))
        terms[key] = terms.get(key, 0) + 1
    return Polynomial(terms)


def lowest_a_slice(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(coefficient polynomial, a-monomial) of the minimal a-degree part.

    The coefficient keeps its q, t exponents (including any fractional
    normalization shifts); comparisons against the Catalan oracle go through
    :func:`monomial_ratio`.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no lowest slice")
    amin = min(e[1] for e in p.units())
    coeff = Polynomial(
        {(eq, 0, et): c for (eq, ea, et), c in p.units().items() if ea == amin}
    )
    return coeff, Polynomial({(0, amin, 0): 1})


def monomial_ratio(p: Polynomial, q: Polynomial) -> Exponents | None:
    """The quarter-unit exponent m with p == x^m * q, or None if there is none."""
    if p.is_zero or q.is_zero:
        return None
    (pe, pc) = next(p.terms())
    (qe, qc) = next(q.terms())
    if pc != qc:
        return None
    shift = (pe[0] - qe[0], pe[1] - qe[1], pe[2] - qe[2])
    return shift if p == q.shifted(shift) else None
