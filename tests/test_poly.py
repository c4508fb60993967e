from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tlh.poly import (
    A,
    ONE,
    ONE_MINUS_Q,
    Q,
    T,
    UNIT,
    ZERO,
    BinomialFactor,
    FracPoly,
    NonExactDivision,
    NonIntegralPower,
    NotASeries,
    NotPolynomial,
    Polynomial,
    SubstitutionRule,
    monomial,
)


@st.composite
def polys(draw, max_terms=4, span=6):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        exp = tuple(draw(st.integers(-span, span)) for _ in range(3))
        terms[exp] = draw(st.integers(-6, 6))
    return Polynomial(terms)


_POOL = [
    BinomialFactor((0, 0, 0), (UNIT, 0, 0)),
    BinomialFactor((0, 0, 0), (2 * UNIT, 0, 0)),
    BinomialFactor((0, 0, 0), (0, 0, UNIT)),
    BinomialFactor((0, UNIT, 0), (UNIT, 0, 0)),
]


@st.composite
def fracs(draw):
    num = draw(polys(max_terms=3, span=4))
    den = draw(st.lists(st.sampled_from(_POOL), max_size=3))
    return FracPoly(num, den)


def test_monomial_lattice():
    m = monomial(3, q=Fraction(1, 2), a=-1, t=Fraction(3, 4))
    assert m.units() == {(2, -4, 3): 3}
    with pytest.raises(ValueError):
        monomial(1, q=Fraction(1, 3))


def test_mul_examples():
    assert (ONE + A) * (T + A) == T + A + A * T + A * A
    assert (ONE + A) * ONE == ONE + A
    # the two-strand normalized polynomial, expanded by hand
    f00 = (ONE + A) * (Q + T - Q * T + A)
    assert f00.coefficient_of_a(0) == Q + T - Q * T
    assert f00.coefficient_of_a(2) == ONE
    assert f00.coefficient_of_a(-1) == ZERO


def test_zero_and_identity():
    p = Q + T
    assert p + ZERO == p
    assert p * ZERO == ZERO
    assert p - p == ZERO
    assert not ZERO
    assert (ZERO).text() == "0"


def test_pow():
    assert (ONE + Q) ** 0 == ONE
    assert (ONE + Q) ** 2 == ONE + 2 * Q + Q * Q
    with pytest.raises(ValueError):
        (ONE + Q) ** -1


def test_exact_div_examples():
    assert (ONE - Q * Q).exact_div(ONE - Q) == ONE + Q
    base = Q + T - Q * T
    geometric = ONE + base + base * base
    assert (ONE - base ** 3).exact_div((ONE - Q) * (ONE - T)) == geometric
    with pytest.raises(NonExactDivision):
        (ONE + Q).exact_div(ONE - Q)
    with pytest.raises(ZeroDivisionError):
        (ONE + Q).exact_div(ZERO)
    assert ZERO.exact_div(ONE - Q) == ZERO


def test_exact_div_laurent():
    p = monomial(1, q=-2) - monomial(1, q=3)
    d = monomial(1, q=-2)
    assert p.exact_div(d) == ONE - monomial(1, q=5)


@settings(max_examples=200)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=200)
@given(polys(), polys())
def test_division_recovers_quotient(p, d):
    if d.is_zero:
        d = ONE - Q
    assert (p * d).exact_div(d) == p


@given(polys(), st.sampled_from(_POOL))
def test_binomial_divides_agrees_with_division(p, factor):
    claimed = factor.divides(p)
    try:
        p.exact_div(factor.poly())
        divided = True
    except NonExactDivision:
        divided = False
    assert claimed == divided


def test_binomial_normalization():
    f, sign = BinomialFactor.normalize((0, 0, 0), (UNIT, 0, 0))  # 1 - q
    assert sign == 1 and f.lead == (0, 0, 0)
    f, sign = BinomialFactor.normalize((UNIT, 0, 0), (0, 0, 0))  # q - 1
    assert sign == -1 and f.lead == (0, 0, 0)
    # t - q flips: q sorts before t in the factor order
    f, sign = BinomialFactor.normalize((0, 0, UNIT), (UNIT, 0, 0))
    assert sign == -1 and f.lead == (UNIT, 0, 0)
    with pytest.raises(ValueError):
        BinomialFactor.normalize((0, 0, 0), (0, 0, 0))


def test_frac_reduction_and_as_polynomial():
    f = FracPoly((T - Q) * (ONE + A), [BinomialFactor.normalize((0, 0, UNIT), (UNIT, 0, 0))[0]])
    # (t - q)(1 + a) / (q - t) reduces; orientation sign lives in the numerator
    assert f.is_polynomial
    assert f.as_polynomial() == -(ONE + A)
    with pytest.raises(NotPolynomial):
        FracPoly(ONE, [ONE_MINUS_Q]).as_polynomial()


def test_frac_add_examples():
    x = FracPoly.over_binomials(T - T * Q, [((0, 0, UNIT), (UNIT, 0, 0))])
    y = FracPoly.over_binomials(Q - Q * T, [((UNIT, 0, 0), (0, 0, UNIT))])
    assert x + y == 1
    z = FracPoly(ONE, [ONE_MINUS_Q])
    assert z + FracPoly(ZERO) == z
    assert z + z == FracPoly(2 * ONE, [ONE_MINUS_Q])


@settings(max_examples=150)
@given(fracs(), fracs())
def test_frac_add_cross_multiplication(x, y):
    s = x + y
    assert s.num * (x.den_poly() * y.den_poly()) == (
        x.num * y.den_poly() + y.num * x.den_poly()
    ) * s.den_poly()


@settings(max_examples=150)
@given(fracs(), fracs())
def test_frac_mul_cross_multiplication(x, y):
    p = x * y
    assert p.num * (x.den_poly() * y.den_poly()) == (x.num * y.num) * p.den_poly()


def test_series_examples():
    f0 = FracPoly(ONE + A, [ONE_MINUS_Q])
    assert f0.series(2) == (ONE + A) * (ONE + Q + Q * Q)
    f2 = FracPoly(T, [ONE_MINUS_Q]) + FracPoly(Q, [ONE_MINUS_Q, ONE_MINUS_Q])
    expect = (
        T + T * Q + T * Q ** 2 + T * Q ** 3
        + Q + 2 * Q ** 2 + 3 * Q ** 3
    )
    assert f2.series(3) == expect
    p = ONE + Q * A
    assert FracPoly(p).series(5) == p


def test_series_requires_q_denominator():
    f = FracPoly.over_binomials(ONE, [((0, 0, 0), (0, 0, UNIT))])  # 1/(1-t)
    with pytest.raises(NotASeries):
        f.series(3)


def test_series_truncation_consistency():
    f = FracPoly(ONE + T, [ONE_MINUS_Q, BinomialFactor((0, 0, 0), (2 * UNIT, 0, 0))])
    big = f.series(9)
    small = f.series(4)
    cut = Polynomial({e: c for e, c in big.units().items() if e[0] <= 4 * UNIT})
    assert small == cut


# Denominator steps j of (1 - q^j) in quarter units: whole and quarter-lattice.
_Q_STEPS = [UNIT, 2 * UNIT, 3 * UNIT, 1, 2, 3]


def _q_factor(j):
    return BinomialFactor((0, 0, 0), (j, 0, 0))


def _series_by_full_product(f, qmax):
    """Multiply the whole numerator by every geometric factor, truncate once."""
    bound = qmax * UNIT
    if f.num.is_zero:
        return ZERO
    qmin = min(e[0] for e in f.num.units())
    result = f.num
    for factor in f.den:
        j = factor.trail[0]
        geom = {(m * j, 0, 0): 1 for m in range((bound - qmin) // j + 1)}
        result = result * Polynomial(geom)
    return Polynomial({e: c for e, c in result.units().items() if e[0] <= bound})


@st.composite
def q_series_fracs(draw, steps=_Q_STEPS, unit=1):
    """Fractions over (1 - q^j) factors; exponents are multiples of ``unit``."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exp = (
            unit * draw(st.integers(-12 // unit, 24 // unit)),
            unit * draw(st.integers(-4 // unit, 4 // unit)),
            unit * draw(st.integers(-4 // unit, 4 // unit)),
        )
        terms[exp] = draw(st.integers(-6, 6))
    den = draw(st.lists(st.sampled_from(steps), max_size=3))
    return FracPoly(Polynomial(terms), [_q_factor(j) for j in den])


@settings(max_examples=200)
@given(q_series_fracs(), st.integers(0, 5))
def test_series_truncates_like_full_product(f, qmax):
    assert f.series(qmax) == _series_by_full_product(f, qmax)


def test_series_edge_cases():
    # negative q-exponents: q^-2/(1-q) = q^-2 + q^-1 + 1 + q + ...
    f = FracPoly(monomial(1, q=-2) + A * T, [ONE_MINUS_Q])
    assert f.series(1) == (
        monomial(1, q=-2) + monomial(1, q=-1) + ONE + Q + A * T * (ONE + Q)
    )
    # numerator entirely above the bound
    high = FracPoly(Q ** 5 * (ONE + A), [ONE_MINUS_Q, _q_factor(2 * UNIT)])
    assert high.series(4) == ZERO
    assert high.series(4).is_zero
    assert FracPoly(ZERO, [ONE_MINUS_Q]).series(3) == ZERO
    # (1 - q^2) and a quarter-lattice (1 - q^(1/4))
    assert FracPoly(T, [_q_factor(2 * UNIT)]).series(5) == T * (ONE + Q ** 2 + Q ** 4)
    quarter = FracPoly(ONE, [_q_factor(1)]).series(1)
    assert quarter == Polynomial({(m, 0, 0): 1 for m in range(UNIT + 1)})
    # a- and t-dependent terms ride along unchanged in a and t
    at = FracPoly(A * A - T * Q, [ONE_MINUS_Q, _q_factor(2 * UNIT)])
    assert at.series(3) == (A * A) * (ONE + Q + 2 * Q ** 2 + 2 * Q ** 3) - T * (
        Q + Q ** 2 + 2 * Q ** 3
    )


def _sympy_series_matches(f, qmax):
    sympy = pytest.importorskip("sympy")
    q, a, t = sympy.symbols("q a t")

    def expr(p):
        return sum(
            c * q ** (eq // UNIT) * a ** (ea // UNIT) * t ** (et // UNIT)
            for (eq, ea, et), c in p.units().items()
        )

    rational = expr(f.num)
    for factor in f.den:
        rational /= 1 - q ** (factor.trail[0] // UNIT)
    want = sympy.series(rational, q, 0, qmax + 1).removeO()
    return sympy.expand(want - expr(f.series(qmax))) == 0


@pytest.mark.parametrize(
    "f, qmax",
    [
        (FracPoly(ONE + A, [ONE_MINUS_Q]), 4),
        (FracPoly(monomial(1, q=-2) + 3 * A * T * Q, [ONE_MINUS_Q] * 2), 3),
        (FracPoly(A * A - T ** 3 * Q ** 2, [ONE_MINUS_Q, _q_factor(2 * UNIT)]), 5),
        (FracPoly(Q ** 6 - A, [_q_factor(3 * UNIT), _q_factor(2 * UNIT)]), 5),
        (FracPoly(Q ** 4 * T, [ONE_MINUS_Q]), 2),
    ],
)
def test_series_matches_sympy(f, qmax):
    assert _sympy_series_matches(f, qmax)


@settings(max_examples=10, deadline=None)
@given(q_series_fracs(steps=[UNIT, 2 * UNIT, 3 * UNIT], unit=UNIT), st.integers(0, 4))
def test_series_matches_sympy_property(f, qmax):
    assert _sympy_series_matches(f, qmax)


def test_add_shifted_examples():
    p = ONE + Q
    assert p.add_shifted(T, (0, 0, UNIT)) == ONE + Q + T * T
    assert p.add_shifted(p, (UNIT, 0, 0), -1) == ONE - Q * Q
    cancelled = p.add_shifted(p, (0, 0, 0), -1)
    assert cancelled == ZERO
    assert cancelled.units() == {}
    assert ZERO.add_shifted(p, (0, UNIT, 0)) == A * p


@settings(max_examples=200)
@given(polys(), polys(), st.tuples(*[st.integers(-6, 6)] * 3), st.sampled_from([1, -1]))
def test_add_shifted_matches_product(p, r, exp, sign):
    got = p.add_shifted(r, exp, sign)
    assert got == p + sign * Polynomial({exp: 1}) * r
    assert all(got.units().values())


def test_hash_agrees_with_equality():
    five = Polynomial.term(5)
    assert five == 5
    assert hash(five) == hash(5)
    assert ZERO == 0
    assert hash(ZERO) == hash(0)
    assert hash(Q - Q) == hash(0)
    assert {5: "five"}[five] == "five"
    assert len({ONE, 1, (ONE + Q) - Q}) == 1
    x = FracPoly(ONE + Q, [_q_factor(2 * UNIT)])
    y = FracPoly(ONE, [ONE_MINUS_Q])
    assert x == y
    with pytest.raises(TypeError):
        hash(x)
    with pytest.raises(TypeError):
        hash(y)


@given(polys(), polys())
def test_hash_of_equal_polynomials(p, r):
    same = (p + r) - r
    assert same == p
    assert hash(same) == hash(p)


def test_frac_equality_cross_denominator():
    a = FracPoly(ONE - Q * Q, [ONE_MINUS_Q, ONE_MINUS_Q])
    b = FracPoly(ONE + Q, [ONE_MINUS_Q])
    assert a == b
    assert FracPoly(ONE) == 1


def test_substitute_halves():
    # t^(1/2) -> -q^(-1/2) on a (tq)^(-1/2) shifted trefoil numerator
    rules = {"t": SubstitutionRule.make(Fraction(1, 2), -1, q=Fraction(-1, 2))}
    p = monomial(1, q=Fraction(-1, 2), a=1, t=Fraction(-1, 2)) * (Q + T + A)
    got = p.substitute(rules)
    want = -(A * Q) - A * monomial(1, q=-1) - A * A
    assert got == want


def test_substitute_sl_rule():
    rules = {"a": SubstitutionRule.make(1, -1, q=2)}
    p = -(A * Q) - A * monomial(1, q=-1) - A * A
    assert p.substitute(rules) == Q ** 3 + Q - Q ** 4


def test_substitute_identity_and_errors():
    p = Q + A * T
    ident = {
        "q": SubstitutionRule.make(1, 1, q=1),
        "t": SubstitutionRule.make(1, 1, t=1),
    }
    assert p.substitute(ident) == p
    # a half power of the sign is not allowed
    bad = {"t": SubstitutionRule.make(1, -1, q=1)}
    with pytest.raises(NonIntegralPower):
        monomial(1, t=Fraction(1, 2)).substitute(bad)


def test_swap_qt():
    p = Q ** 2 * T + A
    assert p.swap_qt() == T ** 2 * Q + A
    f = FracPoly(ONE, [ONE_MINUS_Q])
    assert f.swap_qt() == FracPoly.over_binomials(ONE, [((0, 0, 0), (0, 0, UNIT))])


def test_text_rendering():
    assert str(ONE + A) == "1 + a"
    assert str(-(ONE + A)) == "-1 - a"
    assert str(monomial(1, q=-1) + monomial(2, q=Fraction(1, 2))) == "q^(-1) + 2 q^(1/2)"
    assert str(FracPoly(ONE + A, [ONE_MINUS_Q, ONE_MINUS_Q])) == "(1 + a) / (1 - q)^2"
    assert str(FracPoly(ONE + A)) == "1 + a"
