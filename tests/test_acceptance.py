"""Acceptance gate: one check per shipping criterion, one printed line each.

Every assertion is exact (integer polynomial identity); the only tolerances
are wall-clock targets, asserted where stated.  Criterion 7b pins the whole
r = 0 tableau sum: it is the n-component unlink value (1+a)^n, and its
a-degree-zero part is 1.
"""

import time
from functools import cache

from tlh.closed_form import hochschild_zero_series
from tlh.links import (
    dataset_get,
    decategorify,
    lowest_a_slice,
    monomial_ratio,
    qt_catalan,
    sl_specialization,
    two_strand_superpoly,
)
from tlh.poly import A, ONE, Q, T, FracPoly, Polynomial
from tlh.serialize import dumps, parse_poly
from tlh import shuffle
from tlh.shuffle import all_sequences, insertion_series, zero_expansion_identity
from tlh.tableaux import (
    corner_weights_sum_to_one,
    partitions_of,
    tableau_sum,
    tableau_weights_sum_to_one,
)

# the criteria ask again for values that an earlier one computed
poincare_poly = cache(shuffle.poincare_poly)
poincare_series = cache(shuffle.poincare_series)


def report(number: str, ok: bool, label: str, elapsed: float | None = None) -> None:
    """One line per criterion; run with ``pytest -s`` to see them live."""
    status = "PASS" if ok else "FAIL"
    timing = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {number:>3}  {status}  {label}{timing}", flush=True)


def test_criterion_01_golden_series():
    start = time.perf_counter()
    ok = poincare_poly("0") == ONE + A
    ok = ok and poincare_poly("00") == (ONE + A) * (Q + T - Q * T + A)
    a0 = parse_poly(
        "t^3 q^2 + q^3 t^2 - 2 t^2 q^2 - 2 t q^3 - 2 q t^3"
        " + t^3 + q^3 + t q^2 + q t^2 + t q"
    )
    a1 = parse_poly("t^2 q^2 - 2 t q^2 - 2 q t^2 + t^2 + q^2 + t q + t + q")
    ok = ok and poincare_poly("000") == (ONE + A) * (a0 + a1 * A + A * A)
    elapsed = time.perf_counter() - start
    report("1", ok and elapsed < 1.0, "printed one/two/three-strand series", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_dual_recursion_510_sequences():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 9):
        for v in all_sequences(n):
            checked += 1
            if insertion_series(v) != poincare_series(v):
                ok = False
    elapsed = time.perf_counter() - start
    report("2", ok and checked == 510 and elapsed < 60.0,
           f"both recursions agree on {checked} sequences", elapsed)
    assert ok and checked == 510
    assert elapsed < 60.0


def test_criterion_03_zero_sequence_identities():
    ok = True
    for n in range(1, 9):
        if poincare_poly("0" * n) != poincare_poly("1" + "0" * (n - 1)):
            ok = False
        if not zero_expansion_identity(n):
            ok = False
    report("3", ok, "all-zero sequence identities up to 8 strands")
    assert ok


def test_criterion_04_top_a_coefficient():
    ok = True
    for n in range(9):
        for v in all_sequences(n):
            if poincare_poly(v).coefficient_of_a(n) != ONE:
                ok = False
    report("4", ok, "leading-a coefficient is 1 for every sequence")
    assert ok


def test_criterion_05_closed_form_oracle():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        f = poincare_series("0" * n)
        sliced = FracPoly(f.num.coefficient_of_a(0), f.den).series(12)
        if hochschild_zero_series(n, 12) != sliced:
            ok = False
    elapsed = time.perf_counter() - start
    report("5", ok and elapsed < 120.0,
           "closed form matches the a=0 slice up to 6 strands", elapsed)
    assert ok
    assert elapsed < 120.0


def test_criterion_06_corner_sums():
    ok = True
    for n in range(9):
        for shape in partitions_of(n):
            if not corner_weights_sum_to_one(shape):
                ok = False
    report("6", ok, "corner weights sum to one for all shapes up to size 8")
    assert ok


def test_criterion_07a_tableau_sum_r1():
    start = time.perf_counter()
    ok = True
    for n in range(1, 5):
        s = tableau_sum(n, 1)
        if not (s.is_polynomial and s.num == poincare_poly("0" * n)):
            ok = False
        if not tableau_weights_sum_to_one(n):
            ok = False
    elapsed = time.perf_counter() - start
    report("7a", ok and elapsed < 120.0,
           "tableau sum at r=1 matches the recursion; weights sum to one", elapsed)
    assert ok
    assert elapsed < 120.0


def test_criterion_07b_tableau_sum_r0_literal():
    # At r = 0 the braid is the identity and its closure is the n-component
    # unlink, n disjoint copies of the one-strand value P(0) = 1 + a.  By hand
    # at n = 2: shape (2) has weight (t - tq)/(t - q) and envelope
    # (1+a)(1+a/t); shape (1,1) has weight (q - tq)/(q - t) and envelope
    # (1+a)(1+a/q); together (1+a)(t - q + at - aq)/(t - q) = (1+a)^2.
    ok = True
    for n in range(1, 5):
        s = tableau_sum(n, 0)
        unlink = poincare_poly("0") ** n
        if not (s.is_polynomial and s.num == unlink == (ONE + A) ** n):
            ok = False
        elif s.num.coefficient_of_a(0) != ONE:  # the Hochschild-zero part
            ok = False
    report("7b", ok, "tableau sum at r=0 is the unlink (1+a)^n; its a^0 part is 1")
    assert ok


def test_criterion_08_conjecture_suites_at_stated_ranges():
    ok = True
    for n in range(1, 7):
        p = poincare_poly("0" * n)
        if p.swap_qt() != p:
            ok = False
    base = Q + T - Q * T
    for n in range(1, 8):
        slice_ = poincare_poly("0" * n).coefficient_of_a(n - 1)
        geometric = sum((base ** i for i in range(n)), Polynomial())
        if slice_ != geometric:
            ok = False
    report("8", ok, "q/t symmetry to 6 strands, geometric slice to 7")
    assert ok


def test_criterion_09_appendix_specializations():
    trefoil = decategorify(two_strand_superpoly(1))
    ok = dumps(trefoil) == dumps(-(A * Q) - A * Polynomial.term(1, q=-1) - A * A)
    for n in range(1, 7):
        got = dumps(sl_specialization(trefoil, n))
        want = dumps(
            Polynomial.term(1, q=n - 1)
            + Polynomial.term(1, q=n + 1)
            - Polynomial.term(1, q=2 * n)
        )
        if got != want:
            ok = False
    t34 = sl_specialization(decategorify(dataset_get("T(3,4)").poly), 2)
    ok = ok and dumps(t34) == "q^3 + q^5 - q^8"
    report("9", ok, "decategorified and sl(N) forms match printed strings")
    assert ok


def test_criterion_10_catalan_observation():
    ok = True
    for n, key in [(2, "T(2,3)"), (3, "T(3,4)"), (4, "T(4,5)")]:
        slice_, _ = lowest_a_slice(dataset_get(key).poly)
        if monomial_ratio(slice_, qt_catalan(n)) is None:
            ok = False
    report("10", ok, "lowest a-slices are the q,t-Catalan polynomials")
    assert ok
