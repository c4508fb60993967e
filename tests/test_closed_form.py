import tracemalloc
from math import comb

import pytest

from tlh import budget, closed_form
from tlh.closed_form import hochschild_zero_series, level_functions, level_stats
from tlh.poly import ONE_MINUS_Q, Q, T, UNIT, FracPoly, Polynomial
from tlh.budget import MemoryBudgetExceeded
from tlh.shuffle import poincare_series


def test_level_stats_examples():
    assert tuple(level_stats((0, 0))) == (1, 0, 0)
    assert tuple(level_stats((0, 1))) == (0, 1, 1)
    assert tuple(level_stats((1, 0))) == (0, 0, 1)
    assert tuple(level_stats((2, 2, 3, 2))) == (3, 2, 9)
    with pytest.raises(ValueError):
        level_stats(())
    with pytest.raises(ValueError):
        level_stats((0, -1))


def test_level_function_enumeration_count():
    for n in range(1, 6):
        for budget in (0, 3, 7):
            got = sum(1 for _ in level_functions(n, budget))
            assert got == comb(budget + n, n)


def test_bad_arguments_are_value_errors():
    with pytest.raises(ValueError, match="n must be >= 1"):
        list(level_functions(0, 3))
    with pytest.raises(ValueError, match="n must be >= 1"):
        hochschild_zero_series(0, 3)
    with pytest.raises(ValueError, match="qmax must be >= 0"):
        hochschild_zero_series(3, -1)


def test_level_function_enumeration_unique():
    seen = set(level_functions(3, 5))
    assert len(seen) == comb(8, 3)
    assert all(sum(v) <= 5 for v in seen)


def _brute_force_series(n, qmax):
    """The series summed over every level function's own statistics."""
    terms = {}
    for levels in level_functions(n, qmax):
        s = level_stats(levels)
        key = (s.total * UNIT, 0, (s.equal_pairs + s.step_pairs) * UNIT)
        terms[key] = terms.get(key, 0) + 1
    return Polynomial(terms)


@pytest.mark.parametrize("n", range(1, 8))
def test_series_matches_brute_force_sum(n):
    # every hhh0 size the benchmark's reference calls: n <= 7, qmax <= 10
    whole = _brute_force_series(n, 10).units()
    for qmax in range(11):
        cut = Polynomial({e: c for e, c in whole.items() if e[0] <= qmax * UNIT})
        assert hochschild_zero_series(n, qmax) == cut, qmax


def test_level_functions_do_not_recurse_per_strand():
    # the series' own walk is checked at this size by test_hhh0_many_strands
    assert list(level_functions(3000, 0)) == [(0,) * 3000]


def test_series_one_strand():
    got = hochschild_zero_series(1, 4)
    assert got == Polynomial({(i * UNIT, 0, 0): 1 for i in range(5)})


def test_series_two_strands():
    f2 = FracPoly(T, [ONE_MINUS_Q]) + FracPoly(Q, [ONE_MINUS_Q, ONE_MINUS_Q])
    assert hochschild_zero_series(2, 3) == f2.series(3)
    assert hochschild_zero_series(2, 0) == T


def test_truncation_monotone():
    for n in (1, 2, 3):
        big = hochschild_zero_series(n, 8)
        small = hochschild_zero_series(n, 5)
        cut = Polynomial({e: c for e, c in big.units().items() if e[0] <= 5 * UNIT})
        assert small == cut


def test_matches_recursion_slice():
    for n in range(1, 5):
        f = poincare_series("0" * n)
        sliced = FracPoly(f.num.coefficient_of_a(0), f.den).series(9)
        assert hochschild_zero_series(n, 9) == sliced


def test_walk_state_is_checked_before_it_is_allocated(monkeypatch):
    # qmax = 10^10 asks for 10^10 + 2 counts, an 80 GB list: refused by
    # name on a machine of 8 GiB before any of it exists
    monkeypatch.setattr(budget, "_memory_budget", lambda: 8 * 2 ** 30)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceeded, match="on 2 strands") as err:
            hochschild_zero_series(2, 10 ** 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.need == (10 ** 10 + 2) * 8 + 2 * 64
    assert "of level counts" in str(err.value)
    assert peak < 2 ** 20
    # the level functions themselves walk the same state
    with pytest.raises(MemoryBudgetExceeded, match="on 2 strands"):
        next(level_functions(2, 10 ** 10))
    assert hochschild_zero_series(2, 0) == T


def test_walk_state_estimate_matches_the_walk():
    # the walk's counts at qmax = 10^6 against their part of the estimate
    tracemalloc.start()
    try:
        next(closed_form._prefixes(2, 10 ** 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.99 < peak / ((10 ** 6 + 2) * closed_form._BYTES_PER_COUNT) < 1.01
