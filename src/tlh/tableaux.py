"""Partitions, corner weights, and the tableau sum over standard tableaux.

Young diagrams are drawn English style.  A box in column i and row j (both
0-based, counted left to right and top to bottom) carries the monomial
z = t^i q^j.  An inner corner of a diagram is an addable box; an outer
corner sits diagonally below-right of a removable box.  A diagram always has
one more inner corner than outer corners.

To an inner corner c we attach the rational corner weight

    prod over outer corners d of (z_c - z_d)
    --------------------------------------------
    prod over other inner corners e of (z_c - z_e)

and to a standard tableau, seen as a growth chain of diagrams, the product
of the corner weights along its growth.  The corner weights of any fixed
diagram sum to 1 (an identity of rational functions that has nothing to do
with partitions), which doubles as a strong self-test of all conventions.

The headline object is ``tableau_sum(n, r)``: the sum over all standard
tableaux with n boxes of  z_shape^r * (a-envelope of the shape) * weight,
conjecturally (1-q)^n times the full q,a,t series of the r-fold full twist.
Its a-degree-zero part is (1-q)^n times the Hochschild-zero series.  For
r = 1 it equals the normalized full-twist polynomial; for r = 0 the braid is
the identity, whose closure is the n-component unlink, and the sum is the
unlink value (1+a)^n (only its a-degree-zero part is 1).
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, NamedTuple

from . import budget
from .poly import ONE, UNIT, A, FracPoly, Polynomial

__all__ = [
    "NotInnerCorner",
    "Box",
    "Partition",
    "StandardTableau",
    "corners",
    "box_monomial",
    "partition_monomial",
    "corner_weight",
    "corner_weights_sum_to_one",
    "a_envelope",
    "standard_tableaux",
    "tableau_weight",
    "tableau_sum",
    "tableau_weights_sum_to_one",
    "hook_length_count",
    "partitions_of",
]


class NotInnerCorner(ValueError):
    """The given box is not addable to the given partition."""


class Box(NamedTuple):
    col: int
    row: int

    def transpose(self) -> "Box":
        return Box(self.row, self.col)


class Partition(NamedTuple("Partition", [("rows", tuple[int, ...])])):
    """Weakly decreasing positive row lengths, English style."""

    __slots__ = ()

    def __new__(cls, rows: tuple[int, ...] = ()) -> "Partition":
        for i, r in enumerate(rows):
            if r < 1:
                raise ValueError("row lengths must be positive")
            if i and rows[i - 1] < r:
                raise ValueError("row lengths must be weakly decreasing")
        return super().__new__(cls, rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    def boxes(self) -> Iterator[Box]:
        for j, length in enumerate(self.rows):
            for i in range(length):
                yield Box(i, j)

    def transpose(self) -> "Partition":
        if not self.rows:
            return self
        cols = []
        for i in range(self.rows[0]):
            cols.append(sum(1 for r in self.rows if r > i))
        return Partition(tuple(cols))

    def add_box(self, c: Box) -> "Partition":
        rows = list(self.rows)
        if c.row < 0 or c.col < 0:
            raise NotInnerCorner(f"{c} is not addable to {self.rows}")
        if c.row == len(rows):
            rows.append(0)
        if c.row > len(rows) - 1 or rows[c.row] != c.col:
            raise NotInnerCorner(f"{c} is not addable to {self.rows}")
        if c.row and rows[c.row - 1] <= rows[c.row]:
            # would out-grow the row above
            raise NotInnerCorner(f"{c} is not addable to {self.rows}")
        rows[c.row] += 1
        return Partition(tuple(rows))

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rows)


def corners(shape: Partition) -> tuple[list[Box], list[Box]]:
    """(inner, outer) corners, each listed in increasing row order."""
    rows = shape.rows
    m = len(rows)
    inner = []
    for j in range(m + 1):
        length = rows[j] if j < m else 0
        if j == 0 or rows[j - 1] > length:
            inner.append(Box(length, j))
    outer = []
    for j in range(m):
        if j == m - 1 or rows[j] > rows[j + 1]:
            outer.append(Box(rows[j], j + 1))
    return inner, outer


def box_monomial(c: Box) -> Polynomial:
    """z = t^col q^row."""
    return Polynomial.term(1, q=c.row, t=c.col)


def _box_units(c: Box) -> tuple[int, int, int]:
    return (UNIT * c.row, 0, UNIT * c.col)


def partition_monomial(shape: Partition) -> Polynomial:
    out = ONE
    for c in shape.boxes():
        out = out * box_monomial(c)
    return out


def corner_weight(shape: Partition, c: Box) -> FracPoly:
    """The corner weight of an inner corner; raises NotInnerCorner otherwise."""
    inner, outer = corners(shape)
    if c not in inner:
        raise NotInnerCorner(f"{c} is not an inner corner of {shape.rows!r}")
    zc = _box_units(c)
    num = ONE
    for d in outer:
        num = num * (box_monomial(c) - box_monomial(d))
    pairs = [(zc, _box_units(e)) for e in inner if e != c]
    return FracPoly.over_binomials(num, pairs)


def corner_weights_sum_to_one(shape: Partition) -> bool:
    inner, _ = corners(shape)
    return FracPoly.sum(corner_weight(shape, c) for c in inner) == 1


def a_envelope(shape: Partition) -> Polynomial:
    """Product over the boxes of (1 + a/z); injects the Hochschild grading."""
    out = ONE
    for c in shape.boxes():
        out = out * (ONE + A.shifted((-UNIT * c.row, 0, -UNIT * c.col)))
    return out


class StandardTableau(NamedTuple("StandardTableau", [("growth", tuple[Box, ...])])):
    """A growth chain of diagrams, recorded by the box added at each step."""

    __slots__ = ()

    def __new__(cls, growth: tuple[Box, ...]) -> "StandardTableau":
        shape = Partition(())
        for c in growth:
            shape = shape.add_box(c)  # raises NotInnerCorner if invalid
        return super().__new__(cls, growth)

    @property
    def size(self) -> int:
        return len(self.growth)

    @property
    def shape(self) -> Partition:
        shape = Partition(())
        for c in self.growth:
            shape = shape.add_box(c)
        return shape

    def transpose(self) -> "StandardTableau":
        return StandardTableau(tuple(c.transpose() for c in self.growth))

    def __str__(self) -> str:
        return ";".join(f"{c.col},{c.row}" for c in self.growth)


# What tableau_sum holds per tableau, its weight among it: 37 to 42 KiB at
# the tracemalloc peak of tableau_sum(n, 1), n = 5..8 (Python 3.11).
_TABLEAU_BYTES = 48 * 2**10


def standard_tableaux(n: int) -> list[StandardTableau]:
    """All standard tableaux with n boxes, by depth-first growth.

    Their count, the involution number I(k) = I(k - 1) + (k - 1) I(k - 2),
    is checked against physical memory before any is grown, at
    ``_TABLEAU_BYTES`` each; the recurrence stops once it passes memory.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    limit = budget._memory_budget() // _TABLEAU_BYTES
    k = prev = count = 1
    while k < n and count <= limit:
        k += 1
        prev, count = count, count + (k - 1) * prev
    held = f"{count:,} tableaux of {k} boxes" + (f", fewer than of {n}," if k < n else "")
    budget._room(
        f"the standard tableaux of {n} boxes",
        {f"{held} with their weights": count * _TABLEAU_BYTES},
    )
    out: list[StandardTableau] = []

    def grow(shape: Partition, growth: tuple[Box, ...]) -> None:
        if len(growth) == n:
            out.append(StandardTableau(growth))
            return
        inner, _ = corners(shape)
        for c in sorted(inner, key=lambda b: (b.row, b.col)):
            grow(shape.add_box(c), growth + (c,))

    grow(Partition(()), ())
    return out


def tableau_weight(tab: StandardTableau) -> FracPoly:
    """Product of corner weights along the growth chain; 1 for a single box."""
    result = FracPoly(ONE)
    shape = Partition(())
    for i, c in enumerate(tab.growth):
        if i:
            result = result * corner_weight(shape, c)
        shape = shape.add_box(c)
    return result


def tableau_sum(n: int, r: int) -> FracPoly:
    """Sum over all size-n standard tableaux of z_shape^r * envelope * weight.

    Conjecturally (1-q)^n times the full q,a,t series of the r-fold full
    twist, so its a-degree-zero part is (1-q)^n times the Hochschild-zero
    series; at r = 0 it is the unlink value (1+a)^n.

    Weights are folded over a common denominator per shape before the global
    sum, which keeps intermediate numerators small.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    by_shape: dict[Partition, list[FracPoly]] = {}
    for tab in standard_tableaux(n):
        by_shape.setdefault(tab.shape, []).append(tableau_weight(tab))
    parts = []
    for shape, weights in sorted(by_shape.items(), key=lambda kv: kv[0].rows):
        folded = FracPoly.sum(weights)
        parts.append((partition_monomial(shape) ** r * a_envelope(shape)) * folded)
    return FracPoly.sum(parts)


def tableau_weights_sum_to_one(n: int) -> bool:
    """Whether the bare weights of all size-n tableaux sum to 1."""
    return FracPoly.sum(tableau_weight(t) for t in standard_tableaux(n)) == 1


def hook_length_count(shape: Partition) -> int:
    """Number of standard tableaux of a shape, by the hook length formula."""
    rows = shape.rows
    cols = shape.transpose().rows
    count = factorial(shape.size)
    for c in shape.boxes():
        hook = (rows[c.row] - c.col) + (cols[c.col] - c.row) - 1
        count //= hook
    return count


# What partitions_of holds per partition: tracemalloc measured 199 to 246
# bytes at n = 20..55, rising with the mean part count (Python 3.11).
_PARTITION_BYTES = 320


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, largest first row first.

    Their count, by Euler's pentagonal-number recurrence, is checked against
    physical memory before any is built; the recurrence stops once it passes.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    limit = budget._memory_budget() // _PARTITION_BYTES
    counts = [1]
    while len(counts) <= n and counts[-1] <= limit:
        m = len(counts)
        counts.append(sum(
            (-1) ** (k + 1) * counts[m - g]
            for k in range(1, m + 1)
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
            if g <= m
        ))
    m = len(counts) - 1
    held = f"{counts[m]:,} partitions of {m}" + (f" <= p({n})" if m < n else "")
    budget._room(f"the partitions of {n}", {held: counts[m] * _PARTITION_BYTES})
    out: list[Partition] = []

    def rec(rest: int, maximum: int, prefix: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(Partition(prefix))
            return
        for first in range(min(rest, maximum), 0, -1):
            rec(rest - first, first, prefix + (first,))

    rec(n, n if n else 1, ())
    return out
