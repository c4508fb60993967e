import heapq
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tlh import budget, poly, shuffle, verify
from tlh.budget import MemoryBudgetExceeded
from tlh.links import _divide_by_one_plus_a, unknot_invariant
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
    NotASeries,
    NotPolynomial,
    Polynomial,
    _exp_vector,
)
from tlh.shuffle import poincare_series


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


def _heap_exact_div(p, d):
    """Exact quotient p / d, or raise :class:`NonExactDivision`.

    The engine's former general division, kept as the differential reference
    for the binomial quotient and the (1 + a) division.  Leading-term
    elimination under descending lex order on exponent vectors.  The
    quotient's per-variable exponent window is known exactly beforehand (the
    lowest/highest degree parts of a product never cancel), which both
    detects failure early and guarantees termination on the Laurent lattice.
    """
    d = Polynomial._coerce(d)
    if d is None or d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero:
        return ZERO
    p_terms = p.units()
    d_terms = d.units()
    lo = []
    hi = []
    for i in range(3):
        lo.append(min(e[i] for e in p_terms) - min(e[i] for e in d_terms))
        hi.append(max(e[i] for e in p_terms) - max(e[i] for e in d_terms))
    if any(l > h for l, h in zip(lo, hi)):
        raise NonExactDivision(f"quotient exponent window is empty dividing by {d}")
    dlead = max(d_terms)
    dcoeff = d_terms[dlead]
    dtail = [(e, c) for e, c in d_terms.items() if e != dlead]
    rem = dict(p_terms)
    quo = {}
    # Max-heap of candidate leading exponents (negated for heapq); stale
    # entries are discarded lazily when they no longer appear in rem.
    heap = [(-e[0], -e[1], -e[2]) for e in rem]
    heapq.heapify(heap)
    while rem:
        while True:
            ne = heap[0]
            rlead = (-ne[0], -ne[1], -ne[2])
            if rlead in rem:
                break
            heapq.heappop(heap)
        exp = (rlead[0] - dlead[0], rlead[1] - dlead[1], rlead[2] - dlead[2])
        if any(exp[i] < lo[i] or exp[i] > hi[i] for i in range(3)):
            raise NonExactDivision(
                f"leading term at q,a,t exponent {_exp_vector(rlead)} "
                f"not divisible by {d}"
            )
        rcoeff = rem[rlead]
        if rcoeff % dcoeff:
            raise NonExactDivision(
                f"coefficient {rcoeff} at q,a,t exponent {_exp_vector(rlead)} "
                f"not divisible by {d}"
            )
        c = rcoeff // dcoeff
        quo[exp] = c
        del rem[rlead]
        heapq.heappop(heap)
        for dexp, dc in dtail:
            key = (exp[0] + dexp[0], exp[1] + dexp[1], exp[2] + dexp[2])
            v = rem.get(key, 0) - c * dc
            if v:
                if key not in rem:
                    heapq.heappush(heap, (-key[0], -key[1], -key[2]))
                rem[key] = v
            else:
                rem.pop(key, None)
    return Polynomial(quo)


def test_monomial_lattice():
    m = Polynomial.term(3, q=Fraction(1, 2), a=-1, t=Fraction(3, 4))
    assert m.units() == {(2, -4, 3): 3}
    with pytest.raises(ValueError):
        Polynomial.term(1, q=Fraction(1, 3))


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


def test_text_renders_repeated_powers_alike_in_both_forms():
    # fractional and negative exponents, some powers shared by several
    # terms: a power rendered once in a call reads the same in each term,
    # and the plain form first, so a power kept past its call would show in
    # the latex form
    p = Polynomial({
        (-UNIT, 2, 0): 3, (-UNIT, 2, UNIT): 1, (0, 0, 0): -1,
        (UNIT, -2, 3 * UNIT): -2, (2 * UNIT, 1, UNIT): -1,
    })
    assert p.text() == (
        "3 q^(-1) a^(1/2) + q^(-1) a^(1/2) t - 1 - 2 q a^(-1/2) t^3 - q^2 a^(1/4) t"
    )
    assert p.text(latex=True) == (
        "3 q^{-1} a^{1/2} + q^{-1} a^{1/2} t - 1 - 2 q a^{-1/2} t^{3} - q^{2} a^{1/4} t"
    )


def test_pow():
    assert (ONE + Q) ** 0 == ONE
    assert (ONE + Q) ** 2 == ONE + 2 * Q + Q * Q
    with pytest.raises(ValueError):
        (ONE + Q) ** -1


def test_exact_div_examples():
    assert _heap_exact_div(ONE - Q * Q, ONE - Q) == ONE + Q
    base = Q + T - Q * T
    geometric = ONE + base + base * base
    assert _heap_exact_div(ONE - base ** 3, (ONE - Q) * (ONE - T)) == geometric
    with pytest.raises(NonExactDivision):
        _heap_exact_div(ONE + Q, ONE - Q)
    with pytest.raises(ZeroDivisionError):
        _heap_exact_div(ONE + Q, ZERO)
    assert _heap_exact_div(ZERO, ONE - Q) == ZERO


def test_exact_div_laurent():
    p = Polynomial.term(1, q=-2) - Polynomial.term(1, q=3)
    d = Polynomial.term(1, q=-2)
    assert _heap_exact_div(p, d) == ONE - Polynomial.term(1, q=5)


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
    assert _heap_exact_div(p * d, d) == p


def _heap_quotient(p, factor):
    try:
        return _heap_exact_div(p, factor.poly())
    except NonExactDivision:
        return None


@given(polys(), st.sampled_from(_POOL))
def test_binomial_divides_agrees_with_division(p, factor):
    # a random p is almost never a multiple, so its product with the factor
    # is checked too
    for target in (p, p * factor.poly()):
        assert factor.quotient(target) == _heap_quotient(target, factor)


# Every _POOL factor plus (1 - a), a quarter-unit (1 - q^(1/4)) and the
# oriented (q - t), whose direction runs against the q axis.
_QUOTIENT_POOL = _POOL + [
    BinomialFactor((0, 0, 0), (0, UNIT, 0)),
    BinomialFactor((0, 0, 0), (1, 0, 0)),
    BinomialFactor.normalize((0, 0, UNIT), (UNIT, 0, 0))[0],
]


@settings(max_examples=300)
@given(
    polys(max_terms=5),
    st.sampled_from(_QUOTIENT_POOL),
    st.integers(0, 6),
    polys(max_terms=1, span=2),
)
def test_quotient_matches_heap_division(p, factor, k, noise):
    # p * factor^k is divisible k times; the noise term usually breaks that
    for target in (p * factor.poly() ** k, p * factor.poly() ** k + noise):
        for _ in range(k + 1):
            got = factor.quotient(target)
            assert got == _heap_quotient(target, factor)
            if got is None:
                break
            assert all(got.units().values())
            target = got


def test_quotient_examples():
    one_minus_q5 = _q_factor(5 * UNIT)
    # a gap inside one residue class: (1 - q^5) / (1 - q)
    assert ONE_MINUS_Q.quotient(one_minus_q5.poly()) == sum(Q ** j for j in range(5))
    # a nonzero prefix sum, then zero, then nonzero again along the class
    p = ONE - Q + Q ** 2 - Q ** 3
    assert ONE_MINUS_Q.quotient(p) == ONE + Q ** 2
    assert ONE_MINUS_Q.quotient(ZERO) == ZERO
    assert ONE_MINUS_Q.quotient(ONE + Q) is None
    assert ONE_MINUS_Q.quotient(ONE) is None
    # Laurent exponents and the x^-lead shift: (t - tq) / (t - tq) and friends
    t_tq = BinomialFactor((0, 0, UNIT), (UNIT, 0, UNIT))
    assert t_tq.quotient(T - T * Q) == ONE
    assert t_tq.quotient(Polynomial.term(1, q=-2, t=-1) * (T - T * Q) * (A + Q)) == (
        Polynomial.term(1, q=-2, t=-1) * (A + Q)
    )
    # (1 - q)^k for k up to 6 divides exactly k times
    base = A - Polynomial.term(2, q=-1, t=1)
    for k in range(7):
        target = base * (ONE - Q) ** k
        for _ in range(k):
            target = ONE_MINUS_Q.quotient(target)
        assert target == base
        assert ONE_MINUS_Q.quotient(target) is None
    # quarter-unit and a-direction factors
    quarter = _q_factor(1)
    assert quarter.quotient(ONE - Q) == sum(
        Polynomial.term(1, q=Fraction(j, UNIT)) for j in range(UNIT)
    )
    one_minus_a = BinomialFactor((0, 0, 0), (0, UNIT, 0))
    assert one_minus_a.quotient(ONE - A ** 3) == ONE + A + A * A
    assert one_minus_a.quotient(ONE - Q) is None


def _sympy_expr(sympy, p):
    q, a, t = sympy.symbols("q a t")
    return sum(
        (c * q ** (eq // UNIT) * a ** (ea // UNIT) * t ** (et // UNIT)
         for (eq, ea, et), c in p.units().items()),
        sympy.Integer(0),
    )


def _sympy_frac(sympy, f):
    return _sympy_expr(sympy, f.num) / _sympy_expr(sympy, f.den_poly())


def _is_laurent_monomial(sympy, expr):
    return len(sympy.Poly(expr, *sympy.symbols("q a t")).terms()) == 1


@st.composite
def whole_polys(draw, max_terms=4, span=2):
    """Polynomials with whole exponents only, for the sympy oracles."""
    p = draw(polys(max_terms, span))
    return Polynomial({tuple(UNIT * x for x in e): c for e, c in p.units().items()})


@settings(max_examples=40)
@given(
    whole_polys(),
    st.sampled_from([f for f in _QUOTIENT_POOL if all(u % UNIT == 0 for u in f.trail)]),
    st.integers(0, 3),
    whole_polys(max_terms=1),
)
def test_quotient_matches_sympy(p, factor, k, noise):
    sympy = pytest.importorskip("sympy")
    for target in (p * factor.poly() ** k, p * factor.poly() ** k + noise):
        got = factor.quotient(target)
        ratio = sympy.cancel(_sympy_expr(sympy, target) / _sympy_expr(sympy, factor.poly()))
        _, den = sympy.fraction(ratio)
        if got is None:
            assert not _is_laurent_monomial(sympy, den)
        else:
            assert sympy.expand(_sympy_expr(sympy, got) - ratio) == 0


def _repeated(divide, p, mult):
    """(p / f^j, mult - j) by one single-power division at a time."""
    for used in range(mult):
        quo = divide(p)
        if quo is None:
            return p, mult - used
        p = quo
    return p, 0


# _QUOTIENT_POOL and (t - tq) = t (1 - q), whose lead t comes off once per power
_POWER_POOL = _QUOTIENT_POOL + [BinomialFactor((0, 0, UNIT), (UNIT, 0, UNIT))]


@settings(max_examples=300)
@given(
    polys(max_terms=5),
    st.sampled_from(_POWER_POOL),
    st.integers(0, 5),
    st.integers(1, 4),
    polys(max_terms=1, span=2),
)
def test_divide_power_matches_repeated_quotient(p, factor, k, mult, noise):
    for target in (p * factor.poly() ** k, p * factor.poly() ** k + noise):
        got, left = factor.divide_power(target, mult)
        assert (got, left) == _repeated(factor.quotient, target, mult)
        heap = _repeated(lambda x: _heap_quotient(x, factor), target, mult)
        assert (got, left) == heap
        assert all(got.units().values())
        if left == mult:
            assert got is target


@settings(max_examples=40)
@given(
    whole_polys(),
    st.sampled_from([f for f in _POWER_POOL if all(u % UNIT == 0 for u in f.trail)]),
    st.integers(0, 4),
    st.integers(1, 4),
    whole_polys(max_terms=1),
)
def test_divide_power_matches_sympy(p, factor, k, mult, noise):
    sympy = pytest.importorskip("sympy")
    f = _sympy_expr(sympy, factor.poly())
    for target in (p * factor.poly() ** k, p * factor.poly() ** k + noise):
        got, left = factor.divide_power(target, mult)
        expr = _sympy_expr(sympy, got)
        # got * f^(mult - left) is the target, and f does not divide got again
        assert sympy.expand(expr * f ** (mult - left) - _sympy_expr(sympy, target)) == 0
        if left and not got.is_zero:
            _, den = sympy.fraction(sympy.cancel(expr / f))
            assert not _is_laurent_monomial(sympy, den)


def test_divide_power_examples():
    base = A - Polynomial.term(2, q=-1, t=1)
    for k in range(6):
        for mult in range(1, 6):
            got = ONE_MINUS_Q.divide_power(base * (ONE - Q) ** k, mult)
            j = min(k, mult)
            assert got == (base * (ONE - Q) ** (k - j), mult - j)
    assert ONE_MINUS_Q.divide_power(ZERO, 3) == (ZERO, 0)
    assert ONE_MINUS_Q.divide_power(ONE - Q, 0) == (ONE - Q, 0)
    # (q - t) steps against the q axis
    q_t, sign = BinomialFactor.normalize((0, 0, UNIT), (UNIT, 0, 0))
    assert sign == -1 and q_t.poly() == Q - T
    assert q_t.divide_power((Q - T) ** 3 * (A + T), 4) == (A + T, 1)


def test_divide_power_skips_zero_gaps():
    # the running sum is zero across a gap of 10^9 keys, which a dense row
    # per class would have to fill in
    gap = ONE + Polynomial.term(1, q=10 ** 9)
    start = time.perf_counter()
    assert ONE_MINUS_Q.divide_power((ONE - Q) * gap, 1) == (gap, 0)
    assert ONE_MINUS_Q.quotient((ONE - Q) * gap) == gap
    square = (ONE - Q) ** 2 * gap ** 2
    assert ONE_MINUS_Q.divide_power(square, 2) == (gap ** 2, 0)
    assert ONE_MINUS_Q.divide_power(square, 3) == (gap ** 2, 1)
    assert FracPoly(square, [ONE_MINUS_Q] * 2) == FracPoly(gap ** 2)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("b", [1, 2, 3, 7, 8, 9, 16, 17])
def test_unpack_reads_signed_fields_at_a_byte_boundary(b):
    # the packed kernel's byte decoder (tlh.shuffle): fields of b bytes,
    # each at its largest magnitude 2^(8 b - 1) - 1 of either sign beside
    # zeros and units, against the plain sum of c_i 2^(8 b i): a lost sign
    # or a carry between fields would show, and past 8 bytes a field spans
    # a whole low limb and a signed top one
    big = 2 ** (8 * b - 1) - 1
    coeffs = [big, -big, 0, -1, 1, -big, big, 0, 2, big]
    exps = [(UNIT * i, 0, 0) for i in range(len(coeffs))]
    packed = sum(c << 8 * b * i for i, c in enumerate(coeffs))
    want = Polynomial({e: c for e, c in zip(exps, coeffs) if c})
    assert shuffle._unpack(packed, b, len(coeffs), exps) == want
    assert shuffle._unpack(-packed, b, len(coeffs), exps) == -want


def test_running_sums_are_charged_before_they_fill_a_gap(monkeypatch):
    # (1 - q^(m+1)) / (1 - q) = 1 + q + ... + q^m fills m - 1 keys between
    # its two terms, and times 1 + a it has two classes that fill as many
    # each: a call is charged for every key it fills, over all its
    # classes, before the keys exist
    per_key = poly._FILLED_BYTES_PER_KEY
    m = 10 ** 4
    gap = ONE - Polynomial.term(1, q=m + 1)
    monkeypatch.setattr(budget, "_memory_budget", lambda: (m - 1) * per_key)
    assert ONE_MINUS_Q.quotient(gap) == sum(Q ** j for j in range(m + 1))
    monkeypatch.setattr(budget, "_memory_budget", lambda: (m - 2) * per_key)
    with pytest.raises(MemoryBudgetExceeded, match="MiB of keys filled in$"):
        ONE_MINUS_Q.quotient(gap)
    both = gap * (ONE + A)
    monkeypatch.setattr(budget, "_memory_budget", lambda: 2 * (m - 1) * per_key)
    assert ONE_MINUS_Q.quotient(both) == sum(Q ** j for j in range(m + 1)) * (ONE + A)
    monkeypatch.setattr(budget, "_memory_budget", lambda: (2 * m - 3) * per_key)
    with pytest.raises(MemoryBudgetExceeded, match="running sums of a quotient"):
        ONE_MINUS_Q.quotient(both)
    # a series runs its sum on to its bound, charged the same way
    monkeypatch.setattr(budget, "_memory_budget", lambda: m * per_key)
    assert FracPoly(ONE, [ONE_MINUS_Q]).series(m - 1) == sum(Q ** j for j in range(m))
    with pytest.raises(MemoryBudgetExceeded, match="running sums of a quotient"):
        FracPoly(ONE, [ONE_MINUS_Q]).series(m + 1)


def _sum_by_scale_then_add(items):
    """Reference FracPoly.sum: scale each numerator by general products, then +."""
    common = {}
    per_item = []
    for f in items:
        counts = {}
        for factor in f.den:
            counts[factor] = counts.get(factor, 0) + 1
        per_item.append(counts)
        for factor, m in counts.items():
            common[factor] = max(common.get(factor, 0), m)
    num = ZERO
    for f, counts in zip(items, per_item):
        scaled = f.num
        for factor, m in common.items():
            scaled = scaled * factor.poly() ** (m - counts.get(factor, 0))
        num = num + scaled
    den = [factor for factor, m in common.items() for _ in range(m)]
    return FracPoly(num, den)


@settings(max_examples=200)
@given(st.lists(fracs(), max_size=6), st.data())
def test_frac_sum_matches_scale_then_add(items, data):
    # 0-9 fractions: up to three are negated copies, which make some pairs
    # of the sum's fold cancel, so the folded value can lose factors that
    # the common denominator keeps
    if items:
        for f in data.draw(st.lists(st.sampled_from(items), max_size=3)):
            items.insert(data.draw(st.integers(0, len(items))), -f)
    got = FracPoly.sum(items)
    want = _sum_by_scale_then_add(items)
    assert got.num == want.num
    assert got.den == want.den
    assert all(got.num.units().values())


_VERIFY_FACTORS = [f for f, _sign in verify._FACTOR_POOL]


@settings(max_examples=200)
@given(polys(), st.sampled_from(_VERIFY_FACTORS))
def test_binomial_times_matches_general_product(p, factor):
    assert factor.times(p) == p * factor.poly()


@pytest.mark.parametrize("factor", _VERIFY_FACTORS)
def test_binomial_times_drops_cancelled_terms(factor):
    # p = 1 + x^d + x^2d: the lead and trail copies of p overlap in two
    # terms, which cancel, leaving x^lead - x^(lead + 3d)
    lead, trail = factor
    d = tuple(t - l for l, t in zip(lead, trail))
    p = Polynomial({tuple(k * e for e in d): 1 for k in range(3)})
    want = Polynomial({lead: 1, tuple(l + 3 * e for l, e in zip(lead, d)): -1})
    assert factor.times(p) == p * factor.poly() == want


def test_frac_sum_reduced_form_independent_of_order():
    # 1/(1 - q^2) and its negation cancel when the fold pairs them, and
    # q/(1 - q) alone reduces no further; over the flat lcm the sum is
    # (q + q^2)/(1 - q^2), whichever order the fractions come in
    one_minus_q2 = BinomialFactor((0, 0, 0), (2 * UNIT, 0, 0))
    a, b = FracPoly(ONE, [one_minus_q2]), FracPoly(-ONE, [one_minus_q2])
    c = FracPoly(Q, [ONE_MINUS_Q])
    want = "(q + q^2) / (1 - q^2)"
    for items in ([a, b, c], [c, a, b], [a, c, b]):
        assert FracPoly.sum(items).text() == want
    assert FracPoly.sum([a, b, c, c]).text() == "(2 q + 2 q^2) / (1 - q^2)"


@st.composite
def whole_fracs(draw):
    num = draw(whole_polys(max_terms=3))
    den = draw(st.lists(st.sampled_from(_POOL), max_size=3))
    return FracPoly(num, den)


@settings(max_examples=30)
@given(st.lists(whole_fracs(), min_size=1, max_size=4))
def test_frac_sum_matches_sympy(items):
    sympy = pytest.importorskip("sympy")
    got = FracPoly.sum(items)
    want = sum(_sympy_frac(sympy, f) for f in items)
    assert sympy.cancel(_sympy_frac(sympy, got) - want) == 0


@settings(max_examples=100)
@given(whole_polys(), whole_polys())
def test_mul_matches_sympy(p, r):
    sympy = pytest.importorskip("sympy")
    want = _sympy_expr(sympy, p) * _sympy_expr(sympy, r)
    assert sympy.expand(_sympy_expr(sympy, p * r) - want) == 0


_GEOMETRIC_BASES = [(UNIT, 0, 0), (0, UNIT, 0), (0, 0, UNIT)]


@settings(max_examples=60)
@given(
    whole_fracs(),
    st.sampled_from(_GEOMETRIC_BASES),
    st.integers(2, 3),
    whole_polys(max_terms=1),
)
def test_frac_eq_matches_sympy(x, m, k, noise):
    # x / (1 - x^m) against the same value over (1 - x^(km)), whose numerator
    # carries 1 + x^m + ... + x^((k-1)m): equal over unequal denominators,
    # and usually unequal once the noise term is added
    sympy = pytest.importorskip("sympy")
    geometric = Polynomial({tuple(j * u for u in m): 1 for j in range(k)})
    km = tuple(k * u for u in m)
    small = FracPoly(x.num, [*x.den, BinomialFactor((0, 0, 0), m)])
    for num in (x.num * geometric, x.num * geometric + noise):
        big = FracPoly(num, [*x.den, BinomialFactor((0, 0, 0), km)])
        want = sympy.cancel(_sympy_frac(sympy, small) - _sympy_frac(sympy, big)) == 0
        assert (small == big) is want
        assert (big == small) is want


def test_exact_div_error_names_divisor_and_exponent():
    with pytest.raises(
        NonExactDivision, match=r"leading term at q,a,t exponent \(0, 0, 0\) not divisible by 1 - q"
    ):
        _heap_exact_div(ONE + Q, ONE - Q)
    with pytest.raises(
        NonExactDivision,
        match=r"coefficient 1 at q,a,t exponent \(1, 0, 0\) not divisible by 2 \+ 2 q",
    ):
        _heap_exact_div(ONE + Q, 2 * ONE + 2 * Q)
    with pytest.raises(NonExactDivision, match=r"window is empty dividing by 1 \+ a"):
        _heap_exact_div(Q, ONE + A)


def test_one_plus_a_division_examples():
    assert _divide_by_one_plus_a(ONE - A * A) == ONE - A
    assert _divide_by_one_plus_a(ONE + A ** 3) == ONE - A + A * A
    assert _divide_by_one_plus_a(ZERO) == ZERO
    # negative, half and quarter powers of a: a^(-1/4) (1 + a) (a^(1/2) - q)
    x = Polynomial.term(1, a=Fraction(-1, 4)) * (Polynomial.term(1, a=Fraction(1, 2)) - Q)
    assert _divide_by_one_plus_a(x * (ONE + A)) == x
    # a^(1/2) - q sums to 0 at a = 1, so only the per-class check rejects it
    with pytest.raises(
        NonExactDivision,
        match=r"class of q,a,t exponent \(0, 1/2, 0\) does not vanish at a = -1: "
        r"not divisible by 1 \+ a",
    ):
        _divide_by_one_plus_a(Polynomial.term(1, a=Fraction(1, 2)) - Q)
    with pytest.raises(NonExactDivision, match=r"\(0, 0, 0\) .* by 1 \+ a"):
        _divide_by_one_plus_a(ONE - A)
    # the class of 1 vanishes at a = -1, so the error names q's class
    with pytest.raises(NonExactDivision, match=r"\(1, 0, 0\) .* by 1 \+ a"):
        _divide_by_one_plus_a(ONE + A + Q)


def _try_divide_by_one_plus_a(p):
    try:
        return _divide_by_one_plus_a(p)
    except NonExactDivision:
        return None


@settings(max_examples=300)
@given(polys(max_terms=5), st.integers(0, 5), polys(max_terms=1, span=2))
def test_one_plus_a_division_matches_heap_division(p, k, noise):
    # polys() draws quarter-unit exponents in [-6, 6], so negative, half and
    # quarter powers of a all occur.  p (1 + a)^k divides exactly k times;
    # the noise term usually breaks that.
    one_plus_a = ONE + A
    target = p * one_plus_a ** k
    for _ in range(k):
        target = _divide_by_one_plus_a(target)
    assert target == p
    target = p * one_plus_a ** k + noise
    for _ in range(k + 1):
        try:
            want = _heap_exact_div(target, one_plus_a)
        except NonExactDivision:
            want = None
        got = _try_divide_by_one_plus_a(target)
        assert got == want
        if got is None:
            break
        target = got


def _sympy_quarter_expr(sympy, p):
    # x^(u/4) is written X^u, so every quarter-lattice exponent is whole
    q, a, t = sympy.symbols("q a t")
    return sum(
        (c * q ** eq * a ** ea * t ** et for (eq, ea, et), c in p.units().items()),
        sympy.Integer(0),
    )


@settings(max_examples=40)
@given(polys(), st.integers(0, 2), polys(max_terms=1, span=2))
def test_one_plus_a_division_matches_sympy(p, k, noise):
    sympy = pytest.importorskip("sympy")
    one_plus_a = 1 + sympy.Symbol("a") ** UNIT
    for target in (p * (ONE + A) ** k, p * (ONE + A) ** k + noise):
        got = _try_divide_by_one_plus_a(target)
        ratio = sympy.cancel(_sympy_quarter_expr(sympy, target) / one_plus_a)
        _, den = sympy.fraction(ratio)
        if got is None:
            assert not _is_laurent_monomial(sympy, den)
        else:
            assert sympy.expand(_sympy_quarter_expr(sympy, got) - ratio) == 0


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
    # a pair adds by one _add, in the very reduced form that sum gives it
    for got, want in ((s, FracPoly.sum((x, y))), (x - y, FracPoly.sum((x, -y)))):
        assert (got.text(), got.den) == (want.text(), want.den)


def _cross_multiplied_eq(x, y):
    """FracPoly equality's former form: cross-multiply by both expanded denominators."""
    return x.num * y.den_poly() == y.num * x.den_poly()


_ONE_MINUS_Q2 = BinomialFactor((0, 0, 0), (2 * UNIT, 0, 0))


@settings(max_examples=200)
@given(fracs(), fracs(), polys(max_terms=1, span=2))
@example(FracPoly(ONE), FracPoly(ONE, [ONE_MINUS_Q, ONE_MINUS_Q]), Q)
def test_frac_eq_matches_cross_multiplication(x, y, noise):
    # (1 + q) x / (1 - q^2) equals x / (1 - q) over different denominators
    # (the example: (1 + q)/(1 - q^2) == 1/(1 - q)); the noise term usually
    # breaks that
    wide = FracPoly(x.num * (ONE + Q), [*x.den, _ONE_MINUS_Q2])
    narrow = FracPoly(x.num, [*x.den, ONE_MINUS_Q])
    noisy = FracPoly(x.num * (ONE + Q) + noise, [*x.den, _ONE_MINUS_Q2])
    assert wide == narrow
    for u, v in ((x, y), (wide, narrow), (noisy, narrow), (x, narrow), (x, wide)):
        want = _cross_multiplied_eq(u, v)
        assert (u == v) is want
        assert (v == u) is want


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


@pytest.mark.parametrize("n", range(1, 9))
def test_full_twist_series_matches_full_product(n):
    # real data: up to eight stacked (1 - q) factors over a large numerator
    f = poincare_series("0" * n)
    assert len(f.den) == n
    assert f.series(10) == _series_by_full_product(f, 10)


def test_unknot_series_matches_full_product():
    for qmax in range(11):
        unknot = unknot_invariant()
        assert unknot.series(qmax) == _series_by_full_product(unknot, qmax)


def test_series_edge_cases():
    # negative q-exponents: q^-2/(1-q) = q^-2 + q^-1 + 1 + q + ...
    f = FracPoly(Polynomial.term(1, q=-2) + A * T, [ONE_MINUS_Q])
    assert f.series(1) == (
        Polynomial.term(1, q=-2) + Polynomial.term(1, q=-1) + ONE + Q + A * T * (ONE + Q)
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
    q = sympy.Symbol("q")
    rational = _sympy_expr(sympy, f.num)
    for factor in f.den:
        rational /= 1 - q ** (factor.trail[0] // UNIT)
    want = sympy.series(rational, q, 0, qmax + 1).removeO()
    return sympy.expand(want - _sympy_expr(sympy, f.series(qmax))) == 0


@pytest.mark.parametrize(
    "f, qmax",
    [
        (FracPoly(ONE + A, [ONE_MINUS_Q]), 4),
        (FracPoly(Polynomial.term(1, q=-2) + 3 * A * T * Q, [ONE_MINUS_Q] * 2), 3),
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
    # (1 - q^2) does not divide either numerator, so these stay over
    # different denominators and compare by cross-multiplication
    one_minus_q2 = BinomialFactor((0, 0, 0), (2 * UNIT, 0, 0))
    x = FracPoly(ONE + Q, [one_minus_q2])
    y = FracPoly(ONE, [ONE_MINUS_Q])
    near = FracPoly(ONE + Q + Q * Q, [one_minus_q2])
    assert x.den != y.den and near.den != y.den
    assert x == y and y == x
    assert near != y and y != near


def test_swap_qt():
    p = Q ** 2 * T + A
    assert p.swap_qt() == T ** 2 * Q + A
    f = FracPoly(ONE, [ONE_MINUS_Q])
    assert f.swap_qt() == FracPoly.over_binomials(ONE, [((0, 0, 0), (0, 0, UNIT))])


def test_text_rendering():
    assert str(ONE + A) == "1 + a"
    assert str(-(ONE + A)) == "-1 - a"
    assert str(Polynomial.term(1, q=-1) + Polynomial.term(2, q=Fraction(1, 2))) == "q^(-1) + 2 q^(1/2)"
    assert str(FracPoly(ONE + A, [ONE_MINUS_Q, ONE_MINUS_Q])) == "(1 + a) / (1 - q)^2"
    assert str(FracPoly(ONE + A)) == "1 + a"
