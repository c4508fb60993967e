import tracemalloc
from fractions import Fraction

import pytest

from tlh import budget
from tlh.links import (
    UnknownLink,
    dataset_get,
    dataset_keys,
    decategorify,
    dyck_paths,
    lowest_a_slice,
    monomial_ratio,
    normalize_superpoly,
    qt_catalan,
    reduce_by_unknot,
    sl_specialization,
    two_strand_superpoly,
    unknot_invariant,
)
from tlh.poly import (
    A,
    ONE,
    Q,
    T,
    UNIT,
    ZERO,
    FracPoly,
    NonExactDivision,
    NonIntegralPower,
    Polynomial,
)
from tlh.serialize import dumps, parse_poly
from tlh.budget import MemoryBudgetExceeded


def test_two_strand_family_fails_by_name_before_it_is_built(monkeypatch):
    # 200,001 terms of about 470 bytes each at the peak outgrow 64 MiB
    monkeypatch.setattr(budget, "_memory_budget", lambda: 64 * 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceeded, match=r"evaluating T\(2,200001\) "):
            dataset_get("T(2,200001)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # a smaller member fits
    assert len(dataset_get("T(2,20001)").poly) == 20001


def test_two_strand_family():
    tre = two_strand_superpoly(1)
    assert tre == Polynomial.term(1, q=Fraction(-1, 2), a=1, t=Fraction(-1, 2)) * (Q + T + A)
    k2 = two_strand_superpoly(2)
    body = T ** 2 + Q * T + Q ** 2 + A * (T + Q)
    assert k2 == Polynomial.term(1, q=-1, a=2, t=-1) * body
    with pytest.raises(ValueError):
        two_strand_superpoly(0)


def test_dataset_lookup():
    assert dataset_get("unknot").poly == ONE
    assert dataset_get("T(2,3)").poly == two_strand_superpoly(1)
    assert dataset_get("T(2,11)").poly == two_strand_superpoly(5)
    entry = dataset_get("T(3,4)")
    assert entry.source
    body = parse_poly(
        "t^3 + q t^2 + q t + q^2 t + q^3"
        " + a t^2 + a t + a q t + a q + a q^2"
        " + a^2"
    )
    want = Polynomial.term(1, q=Fraction(-3, 2), a=3, t=Fraction(-3, 2)) * body
    assert entry.poly == want
    for bad in ("T(2,4)", "T(2,1)", "T(5,6)", "nonsense"):
        with pytest.raises(UnknownLink):
            dataset_get(bad)
    for key in dataset_keys():
        dataset_get(key)


def test_dataset_qt_symmetry_and_dealer_coefficient():
    for key in dataset_keys():
        p = dataset_get(key).poly
        assert p.swap_qt() == p


def test_decategorify_examples():
    got = decategorify(two_strand_superpoly(1))
    assert got == parse_poly("-q^(-1) a - a^2 - q a")
    t34 = decategorify(dataset_get("T(3,4)").poly)
    want = -(A ** 3) * (
        parse_poly("q^(-3) + q^(-1) + 1 + q + q^3")
        + A * parse_poly("q^(-2) + q^(-1) + 1 + q + q^2")
        + A * A
    )
    assert t34 == want
    assert decategorify(2 * ONE) == 2 * ONE


def test_sl_specialization_examples():
    d = decategorify(two_strand_superpoly(1))
    for n in range(1, 7):
        got = sl_specialization(d, n)
        want = (
            Polynomial.term(1, q=n - 1)
            + Polynomial.term(1, q=n + 1)
            - Polynomial.term(1, q=2 * n)
        )
        assert got == want
    assert dumps(sl_specialization(decategorify(dataset_get("T(3,4)").poly), 2)) == (
        "q^3 + q^5 - q^8"
    )
    assert sl_specialization(ONE, 5) == ONE
    with pytest.raises(ValueError):
        sl_specialization(T, 2)
    with pytest.raises(ValueError):
        sl_specialization(ONE, 0)


def test_specializations_map_each_term():
    # t^(k/2) -> (-1)^k q^(-k/2), a^k -> (-1)^k q^(kN), including negative k
    assert decategorify(Polynomial.term(3, q=1, a=2, t=-1)) == Polynomial.term(3, q=2, a=2)
    assert decategorify(Polynomial.term(1, t=Fraction(3, 2))) == -Polynomial.term(1, q=Fraction(-3, 2))
    assert decategorify(T - Polynomial.term(1, q=-1)) == ZERO
    assert sl_specialization(Polynomial.term(2, q=1, a=-1), 3) == Polynomial.term(-2, q=-2)
    assert sl_specialization(A * Polynomial.term(1, q=-2) + ONE, 2) == ZERO


def test_specializations_reject_a_fractional_sign_power():
    with pytest.raises(NonIntegralPower, match=r"^\(-1\)\^\(1/2\) while eliminating t$"):
        decategorify(Polynomial.term(1, t=Fraction(1, 4)))
    with pytest.raises(NonIntegralPower, match=r"^\(-1\)\^\(1/2\) while eliminating a$"):
        sl_specialization(Polynomial.term(1, a=Fraction(1, 2)), 2)


def test_normalization_prefactor():
    # alpha power vanishes at e = n, leaving t^(-n/2)
    for n in (1, 2, 3):
        got = normalize_superpoly(ONE, n, n)
        assert got == Polynomial.term(1, t=Fraction(-n, 2))
    # generic prefactor on the quarter lattice
    got = normalize_superpoly(ONE, 0, 1)
    assert got == Polynomial.term(
        1, q=Fraction(1, 4), a=Fraction(-1, 2), t=Fraction(-1, 4)
    )


def test_unknot_series():
    lead = Polynomial.term(1, q=Fraction(1, 4), a=Fraction(-1, 2), t=Fraction(-1, 4))
    # the least q-exponent is 1/4, so nothing survives a qmax=0 truncation
    unknot = unknot_invariant()
    assert unknot.series(0) == Polynomial()
    assert unknot.series(1) == lead * (ONE + A)
    s2 = unknot.series(2)
    s1 = unknot.series(1)
    cut = Polynomial({e: c for e, c in s2.units().items() if e[0] <= UNIT})
    assert s1 == cut


def test_reduce_by_unknot():
    assert reduce_by_unknot(unknot_invariant()) == ONE
    tre = two_strand_superpoly(1)
    assert reduce_by_unknot(unknot_invariant() * tre) == tre
    with pytest.raises(NonExactDivision):
        reduce_by_unknot(ONE + Q)


def test_reduce_by_unknot_error_names_divisor_and_exponent():
    # (1 + q + aq)(1 - q) q^(-1/4) a^(1/2) t^(1/4) has the lone term
    # q^(-1/4) a^(1/2) t^(1/4) in its class, which cannot vanish at a = -1
    with pytest.raises(
        NonExactDivision,
        match=r"class of q,a,t exponent \(-1/4, 1/2, 1/4\) does not vanish at a = -1: "
        r"not divisible by 1 \+ a",
    ):
        reduce_by_unknot(ONE + Q + A * Q)
    # q (1 - q) q^(-1/4) a^(1/2) t^(1/4): both classes are single terms
    with pytest.raises(
        NonExactDivision, match=r"exponent \(3/4, 1/2, 1/4\) .* by 1 \+ a"
    ):
        reduce_by_unknot(Q)


def test_two_strand_normalization_round_trip():
    # rebuild the raw braid-level series of the trefoil from its reduced
    # invariant, then check the normalization layer recovers it exactly
    e, n = 3, 2
    reduced = two_strand_superpoly(1)
    link_invariant = unknot_invariant() * reduced
    inverse_prefactor = Polynomial.term(
        1,
        q=-Fraction(n - e, 4),
        a=-Fraction(2 * (e - n), 4),
        t=Fraction(e + n, 4),
    )
    braid_series = link_invariant * inverse_prefactor
    renormalized = braid_series * FracPoly(normalize_superpoly(ONE, e, n))
    assert renormalized == link_invariant
    assert reduce_by_unknot(renormalized) == reduced


def test_dyck_paths_and_catalan():
    assert list(dyck_paths(1)) == [(1,)]
    assert sorted(dyck_paths(2)) == [(1, 2), (2, 2)]
    assert qt_catalan(1) == ONE
    assert qt_catalan(2) == Q + T
    expect3 = parse_poly("q^3 + q^2 t + q t^2 + t^3 + q t")
    assert qt_catalan(3) == expect3
    for n in range(1, 7):
        c = qt_catalan(n)
        assert c.swap_qt() == c


def test_lowest_a_slice():
    p = dataset_get("T(3,4)").poly
    slice_, mono = lowest_a_slice(p)
    assert mono == Polynomial.term(1, a=3)
    want = Polynomial.term(1, q=Fraction(-3, 2), t=Fraction(-3, 2)) * parse_poly(
        "t^3 + q t^2 + q t + q^2 t + q^3"
    )
    assert slice_ == want
    m = Polynomial.term(5, q=1, a=2)
    s, am = lowest_a_slice(m)
    assert s == Polynomial.term(5, q=1) and am == Polynomial.term(1, a=2)
    with pytest.raises(ValueError):
        lowest_a_slice(Polynomial())


def test_catalan_matches_lowest_slices():
    for n, key in [(2, "T(2,3)"), (3, "T(3,4)"), (4, "T(4,5)")]:
        slice_, _ = lowest_a_slice(dataset_get(key).poly)
        assert monomial_ratio(slice_, qt_catalan(n)) is not None


def test_monomial_ratio():
    assert monomial_ratio(Q * T, T) == (UNIT, 0, 0)
    assert monomial_ratio(Q + T, T) is None
    assert monomial_ratio(2 * Q, Q) is None
