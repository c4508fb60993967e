"""Direct enumeration of the Hochschild-degree-zero series of full twists.

The a = 0 slice of the n-strand full twist series has a closed form: a sum
over level functions, i.e. assignments of a nonnegative integer level to
each of the n strands.  A level function sigma contributes
t^(equal_pairs + step_pairs) q^(total) where

    equal_pairs  =  number of pairs assigned the same level
    step_pairs   =  number of pairs i < j with sigma(j) = sigma(i) + 1
    total        =  sum of all levels

Truncating at q-degree qmax means enumerating exactly the level functions
with total <= qmax, so the truncation is complete, never approximate.

The series keeps the statistics running rather than computing them for each
level function.  The walk places the strands one at a time, first to last,
depth first, and counts the strands placed at each level.  A strand placed
at level v pairs equally with the counts[v] strands already at v and steps
up from the counts[v - 1] strands already at v - 1, so it adds
counts[v] + counts[v - 1] to the t-degree, where level -1 counts none.  The
walk holds the levels of one placement and qmax + 2 counts, and it loops
rather than recursing once per strand.  That state is checked against
physical memory before any of it is allocated, so a qmax too large for it
fails with :class:`~tlh.budget.MemoryBudgetExceeded`.

This module is deliberately independent of the recursion engine; agreement
of the two is one of the package's acceptance criteria.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, NamedTuple, Sequence

from . import budget
from .poly import UNIT, Polynomial

__all__ = ["LevelStats", "level_stats", "level_functions", "hochschild_zero_series"]


# What the walk holds (tracemalloc, Python 3.11): a list slot per count,
# and 48 to 49 bytes per strand placed, in the levels and the running pair
# counts, at n = 2,000..20,000.
_BYTES_PER_COUNT = 8
_BYTES_PER_STRAND = 64


class LevelStats(NamedTuple):
    equal_pairs: int
    step_pairs: int
    total: int


def level_stats(levels: Sequence[int]) -> LevelStats:
    """The three statistics of a level function."""
    if not levels or any(v < 0 for v in levels):
        raise ValueError("levels must be a nonempty sequence of nonnegative ints")
    counts: dict[int, int] = {}
    for v in levels:
        counts[v] = counts.get(v, 0) + 1
    equal = sum(comb(m, 2) for m in counts.values())
    step = 0
    for j in range(len(levels)):
        for i in range(j):
            if levels[j] == levels[i] + 1:
                step += 1
    return LevelStats(equal, step, sum(levels))


def _prefixes(n: int, qmax: int) -> Iterator[tuple[list[int], int, list[int], int]]:
    """Every placement of the first n - 1 strands with total <= qmax.

    Yields ``(levels, left, counts, t)`` lexicographically by ``levels``:
    ``left`` is the total the last strand may take, ``counts[v + 1]`` the
    number of strands at level v (``counts[0]``, level -1, stays 0), and
    ``t`` the equal and step pairs among the placed strands.  The lists are
    the walk's own and change as it goes on.  Their size is checked against
    physical memory before any is allocated.
    """
    budget._room(f"the closed form on {n} strands", {
        "level counts": (qmax + 2) * _BYTES_PER_COUNT,
        "placed strands": n * _BYTES_PER_STRAND,
    })
    levels: list[int] = []
    tdeg = [0]  # tdeg[j]: the pairs among the first j strands
    counts = [0] * (qmax + 2)
    left, v = qmax, 0  # v: the next level to try for strand len(levels)
    while True:
        if len(levels) == n - 1:
            yield levels, left, counts, tdeg[-1]
            v = left + 1
        if v <= left:
            tdeg.append(tdeg[-1] + counts[v + 1] + counts[v])
            counts[v + 1] += 1
            levels.append(v)
            left -= v
            v = 0
        elif levels:
            v = levels.pop()
            tdeg.pop()
            counts[v + 1] -= 1
            left += v
            v += 1
        else:
            return


def level_functions(n: int, budget: int) -> Iterator[tuple[int, ...]]:
    """All level functions on n strands with total <= budget, lexicographically."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for levels, left, _, _ in _prefixes(n, budget):
        for v in range(left + 1):
            yield (*levels, v)


def hochschild_zero_series(n: int, qmax: int) -> Polynomial:
    """Truncated series of the degree-zero part for the n-strand full twist.

    Exact in t; complete in q up to and including q^qmax.  Each level
    function's t-degree is summed strand by strand as the walk places it
    (see the module docstring), in O(n + qmax) memory, which is checked
    first: more than physical memory raises
    :class:`~tlh.budget.MemoryBudgetExceeded` before the walk starts.
    """
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    terms: dict[tuple[int, int, int], int] = {}
    for _, left, counts, t in _prefixes(n, qmax):
        total = qmax - left
        for v in range(left + 1):
            key = ((total + v) * UNIT, 0, (t + counts[v + 1] + counts[v]) * UNIT)
            terms[key] = terms.get(key, 0) + 1
    return Polynomial(terms)
