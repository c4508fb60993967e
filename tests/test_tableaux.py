import tracemalloc

import pytest

from tlh import budget, tableaux
from tlh.budget import MemoryBudgetExceeded
from tlh.poly import A, ONE, Q, T, UNIT, FracPoly, Polynomial
from tlh.serialize import dumps
from tlh.shuffle import poincare_poly
from tlh.tableaux import (
    Box,
    NotInnerCorner,
    Partition,
    StandardTableau,
    a_envelope,
    box_monomial,
    corner_weight,
    corner_weights_sum_to_one,
    corners,
    hook_length_count,
    partition_monomial,
    partitions_of,
    standard_tableaux,
    tableau_sum,
    tableau_weight,
    tableau_weights_sum_to_one,
)


def brute_corners(shape: Partition, grid: int = 12):
    """Corner sets straight from the definitions, by grid scan."""
    cells = set(shape.boxes())

    def is_diagram(cs):
        return all(
            (c.col == 0 or Box(c.col - 1, c.row) in cs)
            and (c.row == 0 or Box(c.col, c.row - 1) in cs)
            for c in cs
        )

    inner = []
    outer = []
    for row in range(grid):
        for col in range(grid):
            c = Box(col, row)
            if c in cells:
                continue
            if is_diagram(cells | {c}):
                inner.append(c)
            if (
                col > 0
                and row > 0
                and Box(col - 1, row - 1) in cells
                and is_diagram(cells - {Box(col - 1, row - 1)})
            ):
                outer.append(c)
    return inner, outer


def test_partition_basics():
    p = Partition((3, 1, 1))
    assert p.size == 5
    assert p.transpose() == Partition((3, 1, 1))
    assert Partition((2, 1)).transpose() == Partition((2, 1))
    assert Partition((3,)).transpose() == Partition((1, 1, 1))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))


def test_corner_examples():
    assert corners(Partition(())) == ([Box(0, 0)], [])
    assert corners(Partition((1,))) == ([Box(1, 0), Box(0, 1)], [Box(1, 1)])
    inner, outer = corners(Partition((2, 1)))
    assert len(inner) == 3 and len(outer) == 2


def test_corners_match_brute_force():
    for n in range(7):
        for p in partitions_of(n):
            inner, outer = corners(p)
            binner, bouter = brute_corners(p)
            assert sorted(inner) == sorted(binner)
            assert sorted(outer) == sorted(bouter)
            assert len(inner) == len(outer) + 1


def test_box_monomials():
    assert box_monomial(Box(0, 0)) == ONE
    assert box_monomial(Box(1, 2)) == T * Q ** 2
    assert partition_monomial(Partition((2,))) == T
    assert partition_monomial(Partition(())) == ONE


def test_partition_monomial_transpose():
    for n in range(7):
        for p in partitions_of(n):
            assert partition_monomial(p).swap_qt() == partition_monomial(p.transpose())


def test_corner_weight_single_box():
    p = Partition((1,))
    right = corner_weight(p, Box(1, 0))   # z = t
    below = corner_weight(p, Box(0, 1))   # z = q
    assert right == FracPoly.over_binomials(T - T * Q, [((0, 0, UNIT), (UNIT, 0, 0))])
    assert below == FracPoly.over_binomials(Q - Q * T, [((UNIT, 0, 0), (0, 0, UNIT))])
    assert corner_weight(Partition(()), Box(0, 0)) == FracPoly(ONE)
    with pytest.raises(NotInnerCorner):
        corner_weight(p, Box(2, 2))


def test_corner_sums():
    assert corner_weights_sum_to_one(Partition(()))
    assert corner_weights_sum_to_one(Partition((1,)))
    for n in range(7):
        for p in partitions_of(n):
            assert corner_weights_sum_to_one(p)


def test_corner_weight_transpose():
    for n in range(6):
        for p in partitions_of(n):
            inner, _ = corners(p)
            for c in inner:
                lhs = corner_weight(p, c).swap_qt()
                assert lhs == corner_weight(p.transpose(), c.transpose())


def test_a_envelope():
    assert a_envelope(Partition(())) == ONE
    assert a_envelope(Partition((1,))) == ONE + A
    expect = (ONE + A) * (ONE + A * Polynomial.term(1, t=-1))
    assert a_envelope(Partition((2,))) == expect


def test_standard_tableaux_counts():
    assert len(standard_tableaux(1)) == 1
    assert len(standard_tableaux(3)) == 4
    assert len(standard_tableaux(4)) == 10
    by_shape = {}
    for t in standard_tableaux(5):
        by_shape[t.shape] = by_shape.get(t.shape, 0) + 1
    for shape, count in by_shape.items():
        assert hook_length_count(shape) == count


@pytest.mark.parametrize("n", range(1, 8))
def test_tableaux_are_counted_before_they_are_grown(monkeypatch, n):
    # the involution numbers, 1, 2, 4, 10, 26, 76, 232: a budget of exactly
    # their bytes grows them all, and one byte less grows none
    count = [1, 2, 4, 10, 26, 76, 232][n - 1]
    need = count * tableaux._TABLEAU_BYTES
    monkeypatch.setattr(budget, "_memory_budget", lambda: need)
    assert len(standard_tableaux(n)) == count
    monkeypatch.setattr(budget, "_memory_budget", lambda: need - 1)
    grown = []
    monkeypatch.setattr(tableaux, "StandardTableau", lambda growth: grown.append(growth))
    with pytest.raises(MemoryBudgetExceeded, match=f"of {n} boxes with their weights"):
        standard_tableaux(n)
    assert grown == []


@pytest.mark.parametrize("n", range(13))
def test_partitions_are_counted_before_they_are_built(monkeypatch, n):
    # p(n) distinct partitions, largest first row first: a budget of exactly
    # their bytes builds them all, and one byte less builds none
    count = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77][n]
    need = count * tableaux._PARTITION_BYTES
    monkeypatch.setattr(budget, "_memory_budget", lambda: need)
    rows = [p.rows for p in partitions_of(n)]
    assert rows == sorted(set(rows), reverse=True) and len(rows) == count
    assert all(sum(r) == n for r in rows)
    monkeypatch.setattr(budget, "_memory_budget", lambda: need - 1)
    built = []
    monkeypatch.setattr(tableaux, "Partition", lambda rows: built.append(rows))
    with pytest.raises(MemoryBudgetExceeded, match=f"evaluating the partitions of {n} "):
        partitions_of(n)
    assert built == []


def test_partitions_are_refused_by_name_in_little_memory(monkeypatch):
    # p(60) = 966,467 partitions outgrow 64 MiB; the count for 10^20 stops
    # as soon as it passes memory
    monkeypatch.setattr(budget, "_memory_budget", lambda: 64 * 2 ** 20)
    tracemalloc.start()
    try:
        for n in (60, 10 ** 20):
            with pytest.raises(MemoryBudgetExceeded, match=f"evaluating the partitions of {n} "):
                partitions_of(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_tableau_validation():
    with pytest.raises(NotInnerCorner):
        StandardTableau((Box(1, 1),))
    with pytest.raises(NotInnerCorner):
        StandardTableau((Box(0, 0), Box(2, 0)))
    t = StandardTableau((Box(0, 0), Box(1, 0), Box(0, 1)))
    assert t.shape == Partition((2, 1))
    assert str(t) == "0,0;1,0;0,1"


def test_tableau_weight_examples():
    single = standard_tableaux(1)[0]
    assert tableau_weight(single) == FracPoly(ONE)
    row2 = StandardTableau((Box(0, 0), Box(1, 0)))
    assert tableau_weight(row2) == corner_weight(Partition((1,)), Box(1, 0))
    for n in range(1, 6):
        for t in standard_tableaux(n):
            assert tableau_weight(t).swap_qt() == tableau_weight(t.transpose())


def test_tableau_weights_sum_to_one():
    for n in (1, 2, 5):
        assert tableau_weights_sum_to_one(n)


def test_tableau_sum_r1_hand_value():
    # two tableaux of size 2, folded by hand
    expect = (ONE + A) * (Q + T - Q * T + A)
    s = tableau_sum(2, 1)
    assert s.as_polynomial() == expect


def test_tableau_sum_r1_matches_recursion():
    for n in range(1, 5):
        assert tableau_sum(n, 1).as_polynomial() == poincare_poly("0" * n)


def test_tableau_sum_r0_envelope():
    # the r = 0 sum is the full homology envelope of the trivial twist power,
    # (1+a)^n; only its a-degree-zero part is 1
    for n in range(1, 5):
        s = tableau_sum(n, 0)
        assert s == (ONE + A) ** n
        assert s.as_polynomial().coefficient_of_a(0) == ONE


def test_tableau_sum_symmetry():
    for n in range(1, 5):
        for r in range(3):
            s = tableau_sum(n, r)
            assert s.swap_qt() == s
    with pytest.raises(ValueError):
        tableau_sum(2, -1)


def test_tableau_sum_folds_each_shape_alone():
    # a shape's weights are summed by the balanced fold alone, without the
    # step that brings a folded sum back to the common denominator: the
    # tableau sum prints the same, in every format, as with that step
    for n in range(1, 7):
        by_shape = {}
        for tab in standard_tableaux(n):
            by_shape.setdefault(tab.shape, []).append(tableau_weight(tab))
        sums = [(shape, FracPoly.sum(weights)) for shape, weights in by_shape.items()]
        sums.sort(key=lambda item: item[0].rows)
        for r in range(5):
            want = FracPoly.sum(
                (partition_monomial(shape) ** r * a_envelope(shape)) * total
                for shape, total in sums
            )
            got = tableau_sum(n, r)
            for fmt in ("text", "json", "latex"):
                assert dumps(got, fmt) == dumps(want, fmt), (n, r, fmt)
