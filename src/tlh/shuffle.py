"""Recursion engine over binary shuffle sequences.

A shuffle sequence is a finite word v over {0,1}; position 1 is the leftmost
letter.  Each sequence carries an exact Poincare polynomial in q, a, t,
defined by the recursion

    P(empty)  =  1
    P(v.1)    =  t^ones(v) * P(v)  +  a * P(v)
    P(0^n)    =  P(1 0^(n-1))
    P(v.0)    =  P(1 v)  +  q * (P(0 v) - P(1 v))      (v.0 not all zeroes)

(``v.1`` appends on the right, ``0 v`` prepends on the left).  The v.0 rule
is q * P(0 v) + (1 - q) * P(1 v) regrouped so that every multiplier is a
monomial: each step shifts values already computed and adds or subtracts
them, never a general product.

Packed kernel.  The recursion runs on Kronecker-packed integers: P(v) is one
Python int with a signed field of w bits per (q, a, t) slot, slot
(i, j, k) holding the coefficient of q^i a^j t^k at bit offset
w ((i (n + 1) + j) T + k), with T = n(n - 1)/2 + 1 for the target length n.
So q is the most significant field, and the steps are C-level big-int
operations: ``P(v.1) = (p << ones(v) w) + (p << SA)`` and
``P(v.0) = p1 + ((p0 - p1) << SQ)``, SA and SQ being the a and q strides.

A :func:`full_twist_series` with qmax below the q-degree bound dq of P(0^n)
may step instead on the series f(v) = P(v) / (1 - q)^#0(v), whose
recursion has no subtraction:

    f(v.1)  =  (t^ones(v) + a) * f(v)
    f(v.0)  =  q * f(0 v)  +  f(1 v)          (v.0 not all zeroes)
    f(0^m)  =  f(1 0^(m-1)) / (1 - q)

on unsigned fields, each key v holding q-rows 0..r(v), its demand row:
``f(v.0) = (p1 + (p0 << SQ)) & M_r``, M_r = 2^((r + 1) SQ) - 1 keeping
q-rows 0..r, and f(0^m) the prefix sum over q-rows, ``p = (p + (p << s SQ))
& M_r`` for s = 1, 2, 4, ... <= r.  Every step is ring-linear with
non-negative q-shifts (the a- and t-shifts stay inside a q-row), so rows
0..r of f(v.1) and f(0^m) depend only on rows 0..r of their one
dependency, and those of f(v.0) only on rows 0..r of f(1 v) and 0..r - 1 of
f(0 v): the rows above can be dropped key by key.  So the target reads
r(0^n) = qmax, each dependency gets the largest r its consumers read, and a
key that no consumer reads (r < 0) steps as 0 (:func:`_demand`); f(0^n) cut
at q^qmax is the truncated series itself.
a enters only through the v.1 multiplier, so the same holds for a-rows: the
slices a^0..a^J are closed under the recursion, and so are the slices
b <= B of the reversal f~(v) = a^|v| f(v)(1/a), whose v.1 multiplier is
a t^ones(v) + 1 and whose slice b is f's slice |v| - b (the other rules keep
the length).  The f route steps its plan twice, in passes of about half the
height: a-rows 0..J, ``f(v.1) = (p << s w) + ((p & R) << SA)``, then f~'s
rows b = 0..B = n - 1 - J, f's a-degrees J + 1..n at the target,
``f~(v.1) = ((p & R) << s w + SA) + p``, where R clears the top a-row of
every q-row; the two disjoint results join into one.  But the f values
near the target fill up to qmax + 1 q-rows, in fields that widen with qmax,
where a packed P(v) stops at its own q-degree bound; so the f route is
taken only when its two passes, r(v) + 1 q-rows per key, step fewer bytes
in all than whole P (:func:`full_twist_series`).  Otherwise P(0^n) is
stepped whole and expanded over (1 - q)^n, and no qmax costs more than that.

The f route has a second reader: the check that P(v) = (1 - q)^#0(v) f(v),
each side by its own recursion (:func:`_normalized`), which
:func:`_agreement` reads beside P's run of the same words.  It steps one
plan per length m, whose roots are every word of length m, in one pass on
the geometry of the check's largest length (below), each root v read at
q-rows 0..dq_v, its P's q-degree bound, so r(v) >= dq_v.  Its closure is
that of 0^m, every word of length <= m, so no a-slice mass up to the
plan's largest dq exceeds that of 0^m, as below (:func:`_slice_mass`).
Each root's value is the packed int of P(v), never decoded
(:func:`_residue`): ``p -= p << SQ`` once per zero, z = #0(v) times, then
the low (r + 1) SQ bits, r = r(v), as a signed residue.  Packing is a ring
homomorphism, so that int is the image of (1 - q)^z (f(v) mod q^(r + 1)),
whose q-rows 0..r are those of (1 - q)^z f(v) = P(v), as (1 - q)^z only
raises q, and whose rows above, up to r + z, add a multiple of
2^((r + 1) SQ).  Each field of rows 0..r holds a coefficient of P(v), at
most P's L1 bound in size; with fields that hold the larger of that bound
and the slice mass plus a sign, the image of rows 0..r lies strictly
within 2^((r + 1) SQ - 1) of 0, so it is exactly the symmetric residue mod
2^((r + 1) SQ): the int that P's own run packs on the same geometry.

Exactness rule.  Each layout is fixed before any step from a-priori bounds
propagated over the closure of the target key: deg_a <= |v|; and the a^j
slice has t-degree at most C(|v|, 2) - C(j, 2), by induction on v.1, whose
a^j slice is t^k P_j(v) + P_(j-1)(v) with k = ones(v): the bound of v.1
exceeds that of the first term by |v| - k >= 0 and that of the second by
|v| - (j - 1) >= 0, and the other rules keep the length.  So deg_t <=
C(|v|, 2), and f~'s slice b has t-degree at most b |v| - C(b + 1, 2) <=
B n - C(B + 1, 2), one less than the t-width of the high pass.  For P,
deg_q grows by one per v.0 step, and the L1 norm obeys
|P(v.1)| <= 2 |P(v)| and |P(v.0)| <= |P(0 v)| + 2 |P(1 v)|.  Every bound
only grows toward the target, so the target's layout, q-rows 0..dq with dq
its q-degree bound, holds every key of its closure, and its fields hold the
target's L1 bound plus a sign.  For f, every
multiplier has non-negative coefficients, so every coefficient is at most
the mass of its q-row's a-slice, f(v) at t = 1 there.  At t = 1 the four
rules read P(empty) = 1, P(v.1) = (1 + a) P(v), P(0^m) = P(1 0^(m-1)) and
P(v.0) = P(1 v) + q (P(0 v) - P(1 v)), where 1 v and 0 v have one length;
so by induction on them P(v)(q, a, 1) = (1 + a)^|v|, free of q, and
f(v)(q, a, 1) = (1 + a)^|v| / (1 - q)^z, z = #0(v): the a^j part of row d
holds C(|v|, j) C(d + z - 1, z - 1) (z = 0: C(|v|, j) in row 0 alone),
growing with z and d.  Over the closure of 0^n up to row qmax no a^j slice
mass exceeds C(n, j) C(qmax + n - 1, n - 1), as C(|v|, j) grows with |v|;
f~'s row b, f's a-degree |v| - b, holds C(|v|, b) C(d + z - 1, z - 1), at
most C(n, n - b) C(qmax + n - 1, n - 1), the bound of f's a-degree n - b
that the high pass's layout names.  So each pass's fields are the fewest
bits that hold the largest slice mass of its a-degrees at the target
(:func:`_slice_mass`), unsigned.  The bound holds for every intermediate
field as well, as no step mixes a-degrees but the v.1 step, whose sum is
a field of f(v.1) itself: a stored f(k) is exact in its rows 0..r(k) and 0
above, so each unmasked row j of the v.0 step is at most row j of f(v.0),
j <= qmax, or in row qmax + 1 a row of f(0 v); and each window of the
doubling prefix sum is at most the whole prefix sum.  No term is negative,
so no field carries into the next, and none can overflow: nothing is
guessed.
Every run yields packed ints (:func:`_evaluate`); only the readers that
return a polynomial decode, each root once its run has ended, by one of two
decoders, and each layout's field width is the one its reader's decoder
needs.  The signed-field decoder (:func:`_unpack`) slices whole bytes, so
:func:`poincare_poly`, :func:`insertion_series` and the whole-P route of
the full twist step on whole-byte fields (:func:`_decoded`).  The f route's
passes take the fewest unsigned bits of their slice mass, each decoding its
one root bit by bit (:func:`_unpack_bits`); and the runs that
:func:`_agreement` compares decode none, so they take the fewest signed bits
of their shared bound (:func:`_shared_geometry`).  Both decoders stay: read
bit by bit as signed fields, P's roots took 5 to 7 times as long to decode
at n = 6..12 (Python 3.11, 2 cores).
The insertion route (below) steps on P's layout, sized by its own rules.
Packing is the evaluation q = 2^SQ, a = 2^SA, t = 2^w, a ring homomorphism
Z[q, a, t] -> Z, and its step is +, - and left shifts alone, with no mask,
so every packed value is the image of its exact polynomial, whatever its
temporaries hold: only the values stored, and decoded, must fit the
layout.  By induction over its rule, deg_a <= |v| and deg_t <= C(|v|, 2),
as W(v, w) has a-degree o = #1(v) and t-degree at most C(o, 2) + o #1(w),
with C(o, 2) + o z + C(z, 2) = C(|v|, 2) for z = #0(v) = |w|; the q-degree
bound is dq(v) = max dq(w) + z, z being the q-degree of q^#0(w)
(1 - q)^#1(w); and the L1 bound is L1(v) = 2^o sum over w of 2^#1(w)
L1(w), as |W(v, w)| = 2^o and |(1 - q)^k| = 2^k.  P(0^m) keeps the bounds
of P(1 0^(m-1)).  Both rules read v through z and o alone, w running over
every word of length z, so both bounds have closed forms, read key by key
(:func:`_insertion_bounds`), with no walk.  For o >= 1 the q-degree bound
is D(z) = z + D(z - 1) = C(z + 1, 2): w = 0^z has the bound of
1 0^(z - 1), D(z - 1), and every other w has D(#0(w)) <= D(z - 1).  And
L1(v) = 2^o S(z), S(z) being the sum: C(z, j) words w have j >= 1 ones,
each of L1 2^j S(z - j), and 0^z has L1 2 S(z - 1), so S(0) = 1 and
S(z) = 2 S(z - 1) + sum over j >= 1 of C(z, j) 4^j S(z - j).  So 0^z
has the bounds (C(z, 2), 2 S(z - 1)), and the empty word (0, 1).  Both
bounds grow from every key to its consumers, so a plan's largest are its
roots', and the run's layout holds those; and the L1 bound grows with o,
so the largest over every word of length <= n is 2^(n - z) S(z) at some
z.  At n = 8..10 the dq of 0^n is the P route's, and its L1 bound three
bits longer.
Values are packed only by stepping, from P(empty) = 1, and a decoded root
is read at its own q-rows 0..dq_k by its route's bounds, which hold the
whole value.  The runs that :func:`_agreement` compares step on
one geometry (:func:`_shared_geometry`), a-rows 0..n,
t-width C(n, 2) + 1 and fields of the fewest bits that hold the largest
bound of the three routes up to length n plus a sign, so every root of
every run is the image of its exact P(v) under one map, injective on the
values that fit: two ints are equal exactly when their polynomials are.
Before any step of a pass its peak packed working set is estimated from
the closure alone (:func:`_working_set`), each value sized by its own
q-rows: dq_k + 1 for P(k), by the bounds of the route that steps it, and
r(k) + 1 for f(k), plus the step's temporaries as tall as the layout and
the f route's masks; J minimises the larger of the f route's two.  A run
is made unstarted beside that estimate, and the reader that holds runs
checks all it holds, with what its decoding adds, in one call of
:mod:`tlh.budget`'s check before any of those runs steps; a stream never
checks.  A sum over physical memory fails with
:class:`MemoryBudgetExceeded`, as does a closure walk whose own state, its
keys and their dependency entries, outgrows physical memory, as soon as
it does.  A layout is geometry alone until then: its masks are built when
its pass starts, and a decoder's slot table once the run has ended, so a
refused run builds neither.

The rational series attaches a (1-q) denominator factor per zero.  The same
series is computed a second, independent way by the insertion recursion:
expand over all words w of length #zeroes(v), inserting w into the zeroes of
v, with a product W(v, w) of (t^j + a) weights per one of v.  It too steps on
normalized polynomials, P(v) = sum over w of q^#0(w) (1-q)^#1(w) W(v, w) P(w),
keeping P(0^n) = P(1 0^(n-1)).  W(v, w) depends on w only through its
weight class, the count of inserted ones to the right of each one of v, so
each step first adds the packed P(w) that share k = #1(w) and weight class,
then multiplies each sum by its weight once, ``p = (p << (l + m) w) +
(p << SA)`` per one of v, and folds each k's total G_k as it completes,
``acc = acc - (acc << SQ) + (G_k << (z - k) SQ)`` from k = z down to 0.
Agreement of the two routes is a core self-check of the whole engine.  The
routes share the packed layout, the work-list driver (``_evaluate``) and
the decoder; each layout class carries its route's dependency and step
rules and its bounds.

The driver walks the closure of its roots once, lists after each key the
values its step lets go, and steps the keys in topological order with an
explicit work list rather than native recursion, so long sequences do not
hit the interpreter stack limit.  A packed value is released as soon as
its last consumer has run, a root's that no key reads at once.  A run
steps one layout and streams the packed ints of its roots, each yielded
as soon as it is stepped, so a reader that drops each int holds one at a
time; ``dict(...)`` of the stream holds them all.  Many keys are best
asked of one run, which steps each key of their closures once.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
from array import array
from collections import Counter
from itertools import chain, compress, islice, product, repeat
from math import comb
from operator import add, lshift
from typing import Callable, Iterator

from . import budget
from .poly import (
    A,
    ONE,
    ONE_MINUS_Q,
    UNIT,
    FracPoly,
    Polynomial,
    _exp_vector,
)
from .budget import MemoryBudgetExceeded
from .serialize import ParseError, _json_loads, poly_from_obj, poly_to_obj

__all__ = [
    "IncompatiblePair",
    "MemoDivergence",
    "EntryOutOfBounds",
    "MemoryBudgetExceeded",
    "all_sequences",
    "insert_into_zeros",
    "crossings",
    "insertion_weight",
    "poincare_poly",
    "poincare_series",
    "insertion_series",
    "zero_expansion_identity",
    "full_twist_series",
    "load_cache",
    "save_cache",
]


class IncompatiblePair(ValueError):
    """w must have exactly one letter per zero of v."""


class MemoDivergence(RuntimeError):
    """A cache entry disagrees with a fresh computation of its key.

    Raised by :func:`load_cache`'s spot check.
    """


class EntryOutOfBounds(ValueError):
    """A cache entry does not fit the a-priori bounds of its key.

    Raised by :func:`load_cache` (:func:`_check_entry`).  The engine never
    reads a cache: an entry is only ever the answer for its own key.
    """


def _key(v: str) -> str:
    if v.strip("01"):
        raise ValueError(f"not a binary sequence: {v!r}")
    return v


def all_sequences(length: int) -> list[str]:
    """Every word of ``length`` letters, checked against memory before any is built.

    A word is a list slot and a string, as a walk's dependency entry is:
    74 to 77 bytes at lengths 16 and 20 (tracemalloc, Python 3.11).
    """
    size = 2 ** min(length, 64) * _WALK_BYTES_PER_ENTRY  # no memory holds 2^64
    budget._room(f"every word of length {length}", {"words": size})
    return ["".join(bits) for bits in product("01", repeat=length)]


def _compatible(v: str, w: str) -> tuple[str, str]:
    """(v, w), checked to be binary with one letter of w per zero of v."""
    v, w = _key(v), _key(w)
    if len(w) != v.count("0"):
        raise IncompatiblePair(
            f"w has length {len(w)}, but v={v!r} has {v.count('0')} zeroes"
        )
    return v, w


def insert_into_zeros(v: str, w: str) -> str:
    """Overlay w onto the zero positions of v."""
    v, w = _compatible(v, w)
    it = iter(w)
    return "".join(b if b == "1" else next(it) for b in v)


def crossings(v: str, w: str) -> int:
    """Pairs i < j with a one of v at i and an inserted one of w at j.

    The sum of the weight class (:func:`_weight_class`).
    """
    return sum(_weight_class(*_compatible(v, w)))


def insertion_weight(v: str, w: str) -> Polynomial:
    """Product over the ones of v of (t^(l+m) + a).

    l counts ones of v strictly to the left of the position, m counts
    inserted ones of w strictly to the right: the weight class
    (:func:`_weight_class`) read left to right.  Empty product is 1.
    """
    result = ONE
    for l, m in enumerate(reversed(_weight_class(*_compatible(v, w)))):
        result = result * (Polynomial.term(1, t=l + m) + A)
    return result


# What the closure walk holds (``_plan`` plus its bounds and demand rows),
# measured with tracemalloc (Python 3.11) and split by sys.getsizeof.  Per
# dependency entry, a tuple slot and a string of its own: 71 to 79 bytes in
# P's plan of 0^n at n = 10, 13, 16 and 18, and 64 to 68 in the insertion
# route's plan over every word of length <= 8, 10, 11 and 12, where entries
# are nearly all it holds (2^#0(v) for each key v).  Per key, the rest of
# P's plan: 295, 302, 321 and 321 bytes.  Both grow about a byte a letter
# with the strings, so both round up past n = 30, whose 2^31 keys no
# machine's memory holds: 88 holds a word of 31 letters.
_WALK_BYTES_PER_KEY = 352
_WALK_BYTES_PER_ENTRY = 88


def _zeros_closure(n: int) -> None:
    """Refuse by name, before 0^n is built, a walk of its closure past memory.

    By P's rules it is every word of length <= n, 2^(n + 1) - 1 keys and
    3 (2^n - 1) - n dependency entries: the state :func:`_plan` holds when
    it ends, so every n whose walk ends passes.  No memory holds 2^64 keys.
    """
    m = min(n, 64)
    walk = (2 ** (m + 1) - 1) * _WALK_BYTES_PER_KEY
    walk += (3 * (2**m - 1) - m) * _WALK_BYTES_PER_ENTRY
    budget._room(f"'0' * {n}", {f"closure walk state, every word of length <= {n}": walk})


def _name(roots: list[str]) -> str:
    """How a :class:`MemoryBudgetExceeded` message names a run's roots."""
    if len(roots) == 1:
        return repr(roots[0])
    return f"{len(roots)} keys, {roots[0]!r} to {roots[-1]!r}"


def _plan(roots: list[str], deps) -> tuple[dict, dict]:
    """Walk the closure of ``roots`` once.

    Returns ``needs``, every key to step mapped to the keys its step reads,
    in a topological order, and ``frees``, each key that releases any
    mapped to the keys released right after its step: each dependency whose
    last consumer it is, and itself if it is a root that no key reads (a
    lone root has no consumer in its own closure, the recursions being
    acyclic; of several roots, one may read another).  The walk raises
    :class:`MemoryBudgetExceeded` as soon as the keys and dependency entries
    it holds would outgrow physical memory (``_WALK_BYTES_PER_KEY`` and
    ``_WALK_BYTES_PER_ENTRY``).
    """
    # A closure's size is not a function of its key's length alone (1^30 0
    # has 64 keys, 0^31 has 2^32 - 1), nor is a key's count of entries (the
    # insertion route's v has 2^#0(v)), so the walk counts what it holds.
    limit = budget._memory_budget()
    needs: dict[str, tuple[str, ...]] = {}
    stack = roots[::-1]
    # what is left of the limit once the keys of needs and of the stack, and
    # the entries of needs, are charged
    room = limit - len(stack) * _WALK_BYTES_PER_KEY
    while stack:
        top = stack[-1]
        if top in needs:
            stack.pop()
            room += _WALK_BYTES_PER_KEY
            continue
        ds = deps(top)
        missing = [d for d in ds if d not in needs]
        if missing:
            stack.extend(missing)
            room -= len(missing) * _WALK_BYTES_PER_KEY
        else:  # a key moves from the stack to needs with its entries
            needs[top] = ds
            stack.pop()
            room -= len(ds) * _WALK_BYTES_PER_ENTRY
        if room < 0:
            raise MemoryBudgetExceeded(
                f"walking the closure of {_name(roots)} outgrew the "
                f"{limit / 2**30:.1f} GiB of physical memory after {len(needs)} keys",
                limit - room,
            )
    last = {d: k for k, ds in needs.items() for d in ds}  # its last consumer
    frees = {k: (k,) for k in needs if k not in last}  # roots that no key reads
    for d, k in last.items():
        frees[k] = frees.get(k, ()) + (d,)
    return needs, frees


def _peak_live(needs: dict, frees: dict, size: Callable[[str], int]) -> int:
    """Most units alive at once as ``_evaluate`` steps ``needs``.

    Key k's value holds ``size(k)`` units: 1 counts values, q-rows size a
    packed run (:func:`_working_set`).  ``frees`` is the :func:`_plan`'s.
    """
    live = peak = 0
    for k in needs:
        live += size(k)
        if live > peak:
            peak = live
        live -= sum(map(size, frees.get(k, ())))
    return peak


def _working_set(needs: dict, peak: int, layout: _Layout) -> dict[str, int]:
    """Estimated peak bytes of a packed run over ``needs`` on ``layout``.

    Its live values, ``peak`` q-rows at their most (:func:`_peak_live`):
    dq_k + 1 for P(k), and r(k) + 1 for f(k), its demand row
    (:func:`_demand`); the step's temporaries, ``layout.temps`` values as
    tall as the layout; and its masks, ``layout.mask_rows`` q-rows; with the
    heap's holes between them; and the closure walk's state, its keys and
    their dependency entries, as :func:`_plan` counts them; each under the
    name, with its route, that :class:`MemoryBudgetExceeded` gives it.
    Values are counted by :func:`_packed_bytes`, which keeps the estimate,
    with its reader's decoding, 1.4 to 1.7 times the peak RSS growth of the
    P and f routes at |v| = 10..13 and of the insertion route's 0^10
    (Python 3.11, measured from a trimmed heap, as
    ``test_memory_estimate_covers_the_peak_rss_growth`` does).
    """
    rows = peak + layout.temps * (layout.dq + 1) + layout.mask_rows
    return {
        f"live values on the {layout.route} route, a-degrees "
        f"{min(layout.a_rows)}..{max(layout.a_rows)}":
            _packed_bytes(rows * layout.row_bytes),
        f"closure walk state of the {layout.route} route":
            len(needs) * _WALK_BYTES_PER_KEY
            + sum(map(len, needs.values())) * _WALK_BYTES_PER_ENTRY,
    }


def _packed_bytes(size: int) -> int:
    """The heap that packed ints of ``size`` bytes in all take.

    CPython stores 30 bits of an int in every 4 bytes.  The malloc heap
    leaves holes where a freed value is too small for the next one: the
    f-route's peak RSS growth measured 1.19 times its live bytes at
    |v| = 13..15 (Python 3.11, glibc), and 1.0 times with every value in
    its own mmap.  So values count half again.
    """
    return size * 16 // 15 * 3 // 2


# Bytes held per unit, rounding up what was measured (Python 3.11, glibc): a
# slot table field (``_Layout.slots``) and what decoding adds per field, 136
# to 139 at the tracemalloc peak of 0 1^29 0 and 0 1^30 0, three fields per
# term, and 99 of the latter's peak RSS growth past the rest of its estimate;
# and a slot of q-rows 0..qmax as whole P(0^n) expands over (1 - q)^n, 120
# to 158 of peak RSS growth at n = 1..11, qmax <= 10^6.
_SLOT_BYTES_PER_FIELD = 144
_SERIES_BYTES_PER_TERM = 192


def _evaluate(
    roots: list[str], plan: tuple[dict, dict], layout: _Layout
) -> Iterator[tuple[str, int]]:
    """The one work-list driver of every packed run: (root, its packed int) pairs.

    Steps the keys of ``plan``, the :func:`_plan` of ``roots``, in order on
    ``layout``: ``layout.step(k, ds, work)`` reads the values of ``ds``, the
    keys that ``plan`` names for ``k``, from ``work``.  Once a root is
    stepped, the keys of ``frees[k]`` are released, and only then is the
    root yielded.  Nothing is stepped, nor any table built
    (``layout.build()``), until the first value is asked for, and the
    stream checks no memory: its reader checks the run's estimate first.
    """
    needs, frees = plan
    layout.build()
    wanted = set(roots)
    work: dict = {}
    for k, ds in needs.items():
        work[k] = layout.step(k, ds, work)
        value = work[k] if k in wanted else None
        for d in frees.get(k, ()):
            del work[d]
        if value is not None:
            yield k, value
            del value


def _poly_deps(key: str) -> tuple[str, ...]:
    if not key:
        return ()
    if key.endswith("1"):
        return (key[:-1],)
    if "1" not in key:
        return ("1" + key[1:],)
    body = key[:-1]
    return ("0" + body, "1" + body)


def _fill_bounds(needs: dict) -> dict[str, tuple[int, int]]:
    """The (q-degree, L1 norm) bounds of every key of ``needs``, a ``_plan``.

    The a- and t-degrees need no propagation: they are at most |v| and
    |v|(|v| - 1)/2.
    """
    bounds: dict[str, tuple[int, int]] = {}
    for k, ds in needs.items():
        if not k:
            bounds[k] = (0, 1)
        elif len(ds) == 1:
            dq, l1 = bounds[ds[0]]
            bounds[k] = (dq, 2 * l1) if k.endswith("1") else (dq, l1)
        else:
            (dq0, l10), (dq1, l11) = bounds[ds[0]], bounds[ds[1]]
            bounds[k] = (max(dq0, dq1) + 1, l10 + 2 * l11)
    return bounds


def _tile(unit: int, stride: int, count: int) -> int:
    """``count`` copies of ``unit``, ``stride`` bits apart from bit 0 up.

    Built by doubling: one shift and one or per bit of ``count``.
    """
    out = offset = 0
    while count:
        if count & 1:
            out |= unit << offset
            offset += stride
        unit |= unit << stride
        stride *= 2
        count >>= 1
    return out


# a field's top byte to the byte that sign-extends it
_SIGN_BYTE = bytes(0 if i < 0x80 else 0xFF for i in range(256))
# the signed array typecode of each item size
_SIGNED = {array(code).itemsize: code for code in "bhiq"}


def _limbs(b: int) -> list[tuple[int, int, int, str]]:
    """(first byte, bytes, item size, typecode) of each limb of a b-byte field.

    Low to high: whole unsigned 8-byte limbs, then the signed top limb in
    the smallest array item that holds its bytes.
    """
    out = []
    for j in range(0, b, 8):
        r = min(8, b - j)
        if j + 8 < b:
            out.append((j, r, 8, "Q"))
        else:
            size = min(s for s in _SIGNED if s >= r)
            out.append((j, r, size, _SIGNED[size]))
    return out


def _little(words: array) -> array:
    """``words``, read from little-endian bytes, in native byte order."""
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _byte_width(bound: int) -> int:
    """Bits in whole bytes that hold ``bound`` plus a sign: :func:`_unpack`'s fields."""
    return -(-(bound.bit_length() + 1) // 8) * 8


def _unpack(packed: int, b: int, fields: int, exps: list) -> Polynomial:
    """The polynomial whose term at the i-th of ``exps`` is field i of ``packed``.

    ``packed`` is the sum of c_i 2^(8 b i) over its ``fields`` signed b-byte
    fields, low to high, each |c_i| < 2^(8 b - 1).  Adding the top bit of
    every field makes each c_i + 2^(8 b - 1), with no carry, and xoring it
    back reads each field as two's complement.  Limb j of every field
    (:func:`_limbs`) is gathered from those bytes as one array, by C-level
    byte slices with stride b.  A term above the fields makes ``to_bytes``
    raise ``OverflowError``, so none is ever dropped.
    """
    top = _tile(1 << 8 * b - 1, 8 * b, fields)
    raw = ((packed + top) ^ top).to_bytes(b * fields, "little")
    limbs = []
    for j, r, size, code in _limbs(b):
        buf = bytearray(size * fields)
        for i in range(r):
            buf[i::size] = raw[j + i::b]
        if r < size:  # the top limb's bytes above the field: its sign
            sign = raw[b - 1::b].translate(_SIGN_BYTE)
            for i in range(r, size):
                buf[i::size] = sign
        limbs.append(_little(array(code, buf)))
    coeffs = limbs.pop()
    for low in reversed(limbs):
        coeffs = list(map(add, map(lshift, coeffs, repeat(64)), low))
    return Polynomial._trusted(dict(zip(compress(exps, coeffs), filter(None, coeffs))))


def _unpack_bits(packed: int, w: int, fields: int, exps: list) -> Polynomial:
    """The polynomial whose term at the i-th of ``exps`` is field i of ``packed``.

    ``packed`` is the sum of c_i 2^(w i) over its ``fields`` unsigned w-bit
    fields, low to high.  Its binary digits, a byte a bit, are cut into
    fields from the low end.  A term above the fields raises
    ``OverflowError``, as :func:`_unpack` does, so none is dropped.
    """
    size = w * fields
    digits = format(packed, "b").zfill(size)
    if len(digits) > size:
        raise OverflowError(f"a packed value has a term above its {fields} fields")
    coeffs = [int(digits[i - w:i], 2) for i in range(size, 0, -w)]
    return Polynomial._trusted(dict(zip(compress(exps, coeffs), filter(None, coeffs))))


class _Layout:
    """The packed-integer layout of one run (see the module docstring).

    Its geometry: q-rows 0..dq, each of one a-row per a-degree in ``a_rows``,
    in that order, of ``t_width`` t-slots; by default a = 0..n, t = 0..C(n, 2);
    and fields of ``w`` bits, the width its reader's decoder needs (see the
    module docstring).
    """

    route = "P"
    # the step temporaries as tall as the layout that a run's estimate counts
    temps = 2
    # the q-rows of the masks a pass holds
    mask_rows = 0
    # the route's rules: a key's dependencies, and the (q-degree, L1 norm)
    # bounds of every key of a plan
    deps = staticmethod(_poly_deps)
    bounds = staticmethod(_fill_bounds)

    def __init__(self, n: int, dq: int, w: int, a_rows=None, t_width=0):
        a_rows = self.a_rows = range(n + 1) if a_rows is None else a_rows
        t_width = self.t_width = t_width or comb(n, 2) + 1
        self.w = w  # bits a field
        self.sa = w * t_width
        self.sq = self.sa * len(a_rows)
        self.dq = dq
        self.row_fields = len(a_rows) * t_width
        self.fields = (dq + 1) * self.row_fields
        self.row_bytes = -(-self.sq // 8)

    def build(self) -> None:
        """Make the tables a pass reads, as it starts: P's reads none."""

    def slots(self, rows: int) -> list:
        """The exponent of every slot of q-rows 0..rows - 1, in slot order.

        A decoder's slot table, q the most significant, built only once the
        run it decodes has ended.
        """
        grid = range(rows), self.a_rows, range(self.t_width)
        return list(product(*([UNIT * i for i in r] for r in grid)))

    def step(self, key: str, ds: tuple[str, ...], work: dict) -> int:
        if not ds:
            return 1
        p = work[ds[0]]
        if key.endswith("1"):
            return (p << self.w * (key.count("1") - 1)) + (p << self.sa)
        if len(ds) == 1:  # P(0^m) = P(1 0^(m-1))
            return p
        p1 = work[ds[1]]
        return p1 + ((p - p1) << self.sq)

    def a_row(self, j: int) -> int:
        """The bits of a-row j of every q-row."""
        return _tile(((1 << self.sa) - 1) << j * self.sa, self.sq, self.dq + 1)

    def top_a_test(self, j: int) -> Callable[[int], bool]:
        """Whether a packed value has a^j coefficient 1, read without decoding.

        The offset-binary bias, the top bit of every field, turns each
        signed field into its coefficient plus 2^(w - 1) with no borrow
        between fields: a-row j of the biased value must hold the bias
        alone, but 1 more at q^0 t^0.
        """
        bias = _tile(1 << self.w - 1, self.w, self.fields)
        mask = self.a_row(j)
        one = (bias & mask) + (1 << j * self.sa)
        return lambda packed: (packed + bias) & mask == one


def _demand(needs: dict, read: dict[str, int]) -> dict[str, int]:
    """{k: r(k)}, the demand row of each key of ``needs``, a ``_plan``.

    The f route reads f(k) at q-rows 0..r(k) alone.  Consumers first: each
    root k reads its own ``read[k]``; f(v.1) and f(0^m) pass their own r to
    their one dependency, and f(v.0) = q f(0 v) + f(1 v) passes r to f(1 v)
    and r - 1 to f(0 v); a key takes the largest r of its readers, and
    r(k) < 0 means no key reads f(k).
    """
    r = dict.fromkeys(needs, -1)
    r.update(read)
    for k, ds in reversed(needs.items()):
        rk = r[k]
        if rk < 0 or not ds:
            continue
        if len(ds) == 2:  # f(0 v), read one row lower
            if r[ds[0]] < rk - 1:
                r[ds[0]] = rk - 1
        d = ds[-1]
        if r[d] < rk:
            r[d] = rk
    return r


def _slice_mass(n: int, qmax: int, degrees: range) -> int:
    """The largest mass of f's a-slices ``degrees`` over the closure of 0^n.

    Up to q-row qmax, n >= 1: C(n, j) C(qmax + n - 1, n - 1) at the j of
    ``degrees`` nearest n / 2, those degrees being f's at the target on
    both passes of the f route (see the module docstring).
    """
    return max(comb(n, j) for j in degrees) * comb(qmax + n - 1, n - 1)


class _SeriesLayout(_Layout):
    """The layout of f(v) = P(v) / (1 - q)^#0(v), cut at q-row qmax.

    Its fields are unsigned, of ``w`` bits: on the full twist the fewest
    that hold the largest slice mass of its a-rows (:func:`_slice_mass`).
    Each key k holds q-rows 0..r(k) alone, its ``demand`` row
    (:func:`_demand`): a step cuts its value at ``masks[r]`` wherever it
    could reach above them, and a key that no consumer reads is 0.  The v.1
    step drops what the a-shift moves out of the top a-row; descending
    ``a_rows`` step the reversal f~ (see the module docstring).
    """

    route = "f"

    def __init__(self, n: int, qmax: int, w: int, demand: dict, *geometry):
        super().__init__(n, qmax, w, *geometry)
        self.demand = demand
        self.mask_rows = (qmax + 1) * (qmax + 4) // 2  # masks[0..qmax] and R
        # the prefix sum's doubling strides: s q-rows for s = 1, 2, 4, ... <= qmax
        self.strides = [self.sq << k for k in range(qmax.bit_length())]

    def build(self) -> None:
        # masks[r] keeps q-rows 0..r
        self.masks = [(1 << r * self.sq) - 1 for r in range(1, self.dq + 2)]
        # R keeps every a-row of every q-row but the top one
        self.keep = _tile((1 << self.sq - self.sa) - 1, self.sq, self.dq + 1)

    def step(self, key: str, ds: tuple[str, ...], work: dict) -> int:
        r = self.demand[key]
        if r < 0:  # no key reads f(key)
            return 0
        if not ds:
            return 1
        mask = self.masks[r]
        p = work[ds[0]]
        if len(ds) == 2:  # f(v.0) = q f(0 v) + f(1 v)
            return (work[ds[1]] + (p << self.sq)) & mask
        if self.demand[ds[0]] > r:
            p &= mask
        if key.endswith("1"):
            s = self.w * (key.count("1") - 1)
            if self.a_rows.step < 0:  # f~(v.1) = (a t^ones(v) + 1) f~(v)
                return ((p & self.keep) << s + self.sa) + p
            return (p << s) + ((p & self.keep) << self.sa)
        # f(0^m) = f(1 0^(m-1)) / (1 - q), a prefix sum over q-rows 0..r
        for stride in self.strides[: r.bit_length()]:
            p = (p + (p << stride)) & mask
        return p


def _split(n: int, J: int) -> list[tuple[range, int]]:
    """The geometries of the f route's two passes on length n, split at J.

    a-rows 0..J at the whole t-width, and f~'s rows b = 0..B, B = n - 1 - J,
    f's a-degrees n down to J + 1, at t-width B n - C(B + 1, 2) + 1.
    """
    B = n - 1 - J
    high = (range(n, J, -1), B * n - comb(B + 1, 2) + 1)
    return [(range(J + 1), comb(n, 2) + 1), high]


def _run(roots: list[str], route: type[_Layout], geometry: tuple) -> tuple[dict, Iterator]:
    """The estimate of one run over ``roots``' closure, and its unstarted stream.

    ``route``, a layout class, carries the rules: ``route.deps``, a key's
    dependencies, and ``route.bounds``, the (q-degree, L1 norm) bounds of
    every key of a plan.  The run steps on ``geometry``,
    :func:`_shared_geometry`'s ``(n, dq, w)``: its a-rows, t-width and
    fields, at q-rows 0..the largest q-degree bound of the plan; each key
    counts its own q-rows in the estimate, the :func:`_working_set` parts
    its reader checks before it reads the stream, which yields (root, its
    packed int) as each is stepped (:func:`_evaluate`).
    """
    needs, _ = plan = _plan(roots, route.deps)
    bounds = route.bounds(needs)
    dq = max(d for d, _ in bounds.values())
    n, _, w = geometry
    layout = route(n, dq, w)
    peak = _peak_live(*plan, lambda k: bounds[k][0] + 1)
    return _working_set(needs, peak, layout), _evaluate(roots, plan, layout)


def _decoded(key: str, route: type[_Layout], plan=None, extra=None) -> Polynomial:
    """``key``'s polynomial by ``route``'s rules, decoded once its run has ended.

    One run over the closure of ``key`` (``plan``, if it is given), on a
    layout of the root's own bounds, the largest of its plan since bounds
    grow toward the consumers: q-rows 0..dq, and fields of the whole bytes
    that hold its L1 bound plus a sign (:func:`_byte_width`).  Its estimate
    is checked with the slot table and the parts of ``extra`` before it
    steps; the table is built after the last step, for the root's q-rows.
    """
    needs, _ = plan = plan or _plan([key], route.deps)
    bounds = route.bounds(needs)
    dq, l1 = bounds[key]
    layout = route(len(key), dq, _byte_width(l1))
    peak = _peak_live(*plan, lambda k: bounds[k][0] + 1)
    budget._room(repr(key), {
        **_working_set(needs, peak, layout),
        "slot table": layout.fields * _SLOT_BYTES_PER_FIELD,
        **(extra or {}),
    })
    [(_, packed)] = _evaluate([key], plan, layout)
    return _unpack(packed, layout.w // 8, layout.fields, layout.slots(dq + 1))


def poincare_poly(v: str) -> Polynomial:
    """The normalized Poincare polynomial of a shuffle sequence.

    Equals (1-q)^zeros(v) times the rational series; always a polynomial.
    The recursion terminates because each rewrite strictly descends in
    (length, number of zeroes, number of inversions).  The whole closure of
    ``v`` is stepped as one plan (:func:`_decoded`).
    """
    return _decoded(_key(v), _Layout)


def poincare_series(v: str) -> FracPoly:
    """The Poincare series: the normalized polynomial over (1-q)^zeros(v)."""
    key = _key(v)
    return FracPoly(poincare_poly(key), [ONE_MINUS_Q] * key.count("0"))


def _insertion_deps(key: str) -> tuple[str, ...]:
    if not key:
        return ()
    if "1" not in key:
        return ("1" + key[1:],)
    return tuple(all_sequences(key.count("0")))


def _weight_class(v: str, w: str) -> tuple[int, ...]:
    """Per one of v, right to left, the inserted ones of w to its right.

    The one pass over (v, w) behind both of its statistics:
    :func:`crossings` is the sum of this vector and :func:`insertion_weight`
    its product form, so W(v, w) depends on w only through it.
    """
    letters = reversed(w)
    m = 0
    ms = []
    for bit in reversed(v):
        if bit == "0":
            m += next(letters) == "1"
        else:
            ms.append(m)
    return tuple(ms)


def _insertion_bounds(needs: dict) -> dict[str, tuple[int, int]]:
    """The insertion route's (q-degree, L1 norm) bounds of every key of ``needs``.

    In closed form, from each key's zeros z and ones o alone (see the
    module docstring): (C(z + 1, 2), 2^o S(z)), 0^z having the bounds of
    1 0^(z - 1), and the empty word (0, 1).
    """
    s = [1]  # S(0), the empty word's L1
    for z in range(1, max(map(len, needs)) + 1):
        ones = sum(comb(z, j) * 4**j * s[z - j] for j in range(1, z + 1))
        s.append(2 * s[z - 1] + ones)
    bounds = {}
    for k in needs:
        z = k.count("0")
        o = len(k) - z
        if z and not o:  # P(0^z) = P(1 0^(z - 1))
            z, o = z - 1, 1
        bounds[k] = comb(z + 1, 2), s[z] << o
    return bounds


class _InsertionLayout(_Layout):
    """P's layout, stepping the insertion recursion (see the module docstring)."""

    route = "insertion"
    # live at once in a step: acc, the group G_k, and a weighted class sum
    # with its two shifts and their sum
    temps = 6
    deps = staticmethod(_insertion_deps)
    bounds = staticmethod(_insertion_bounds)

    def step(self, key: str, ds: tuple[str, ...], work: dict) -> int:
        """P(v) = sum over w of q^#0(w) (1-q)^#1(w) W(v, w) P(w).

        ``ds`` holds the words w.  The P(w) of one k = #1(w) and one weight
        class are added first, and each sum is multiplied by its weight, one
        ``(p << w (l + m)) + (p << SA)`` per one of v.  Their total G_k is
        shifted by q^(z - k) and folded Horner-style as it completes,
        acc <- acc (1 - q) + G_k, from k = z = #0(v) down to 0.
        """
        if not ds:
            return 1
        if "1" not in key:  # P(0^m) = P(1 0^(m-1))
            return work[ds[0]]
        z = key.count("0")
        # the words w by k = #1(w), then by weight class: the words of one
        # class share their whole summand but for P(w)
        classes: list[dict] = [{} for _ in range(z + 1)]
        for w in ds:
            classes[w.count("1")].setdefault(_weight_class(key, w), []).append(w)
        acc = 0
        for k in range(z, -1, -1):
            g = 0
            for ms, words in classes[k].items():
                p = sum(map(work.__getitem__, words))
                for l, m in enumerate(reversed(ms)):
                    p = (p << self.w * (l + m)) + (p << self.sa)
                g += p
            acc = acc - (acc << self.sq) + (g << (z - k) * self.sq)
        return acc


def insertion_series(v: str) -> FracPoly:
    """The Poincare series computed by the insertion recursion.

    Steps on normalized polynomials and returns the result over
    (1-q)^zeros(v).  Independent of :func:`poincare_series` in its rules,
    its steps and its bounds: the two routes share only the packed layout,
    the work-list driver and the decoder.  Their equality is a verification
    suite.
    """
    key = _key(v)
    return FracPoly(_decoded(key, _InsertionLayout), [ONE_MINUS_Q] * key.count("0"))


def zero_expansion_identity(n: int) -> bool:
    """Check (1 - q^n) f(0^n) = (1 + q + ... + q^(n-1)) f(1 0^(n-1)).

    This is the identity obtained by expanding the all-zeroes sequence with
    the insertion recursion instead of treating it as a special case; it must
    hold identically.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = (ONE - Polynomial.term(1, q=n)) * poincare_series("0" * n)
    geom = Polynomial({(UNIT * i, 0, 0): 1 for i in range(n)})
    rhs = geom * poincare_series("1" + "0" * (n - 1))
    return lhs == rhs


def _series_terms(n: int, qmax: int) -> dict[str, int]:
    """The bytes that expanding whole P(0^n) to q^qmax holds, named.

    The expansion holds up to every slot of q-rows 0..qmax of P's layout.
    """
    fields = _Layout(n, qmax, 1).fields
    return {"series terms": fields * _SERIES_BYTES_PER_TERM}


def full_twist_series(n: int, qmax: int) -> Polynomial:
    """Truncated homology series of the n-strand full twist closure.

    With qmax below the q-degree bound of P(0^n), the recursion steps on
    the series f itself, cut at q^qmax, in two passes split by a-degree at
    J (:class:`_SeriesLayout`, :func:`_split`), when they step fewer bytes
    in all than whole P, each key k holding q-rows 0..r(k) of both passes'
    layouts, its demand row (:func:`_demand`), or its own q-rows of P's.
    J gives the larger pass the shortest q-row; a layout has no table
    before its pass starts (:func:`_evaluate`), so sizing all 2n is free.
    The total tracks the step time: over n = 10..12 and qmax 5..40 the
    ratio of the two routes' step times was 0.7 to 2.1 times that of their
    totals, and 0.7 to 1.3 from qmax 10 on, nearer the crossover.
    Up to n = 17 the larger pass then holds no more at once than whole P.
    Both passes are pre-flighted before either steps, the high one with
    the low one's root, and each root is decoded once both have stepped,
    bit by bit (:func:`_unpack_bits`); their a-degrees are disjoint, so
    their sum is the series.
    Otherwise it steps the whole polynomial and expands it over (1 - q)^n,
    pre-flighting the run and the expansion (:func:`_series_terms`)
    together before any step.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    _zeros_closure(n)
    key = "0" * n
    needs, _ = plan = _plan([key], _Layout.deps)
    bounds = _Layout.bounds(needs)
    dq, l1 = bounds[key]
    if qmax < dq:
        demand = _demand(needs, {key: qmax})
        # unsigned fields of the fewest bits that hold each pass's slice mass
        pairs = [
            [_SeriesLayout(n, qmax, _slice_mass(n, qmax, a).bit_length(), demand, a, t)
             for a, t in _split(n, J)]
            for J in range(n)
        ]
        # both passes hold the same q-rows, so J balances their q-row bytes
        pair = min(pairs, key=lambda passes: max(p.row_bytes for p in passes))
        rows = sum(demand.values()) + len(demand)  # r(k) + 1 q-rows per key
        stepped = rows * sum(p.row_bytes for p in pair)
        whole = _Layout(n, dq, _byte_width(l1))
        if stepped < sum(d + 1 for d, _ in bounds.values()) * whole.row_bytes:
            # both passes are checked before either steps, each with its slot
            # table and _unpack_bits's binary digits, a byte a bit, and the
            # high pass with the low pass's root, held as it steps
            peak = _peak_live(*plan, lambda k: demand[k] + 1)
            held = {}
            for p in pair:
                budget._room(repr(key), {
                    **_working_set(needs, peak, p),
                    "slot table": p.fields * _SLOT_BYTES_PER_FIELD,
                    "binary digits": p.fields * p.w,
                    **held,
                })
                held = {"the low pass's root": _packed_bytes((qmax + 1) * p.row_bytes)}
            ints = [packed for p in pair for _, packed in _evaluate([key], plan, p)]
            low, high = (_unpack_bits(x, p.w, p.fields, p.slots(qmax + 1))
                         for p, x in zip(pair, ints))
            return low + high  # the passes hold disjoint a-degrees
    out = _decoded(key, _Layout, plan, _series_terms(n, qmax))
    return FracPoly(out, [ONE_MINUS_Q] * n).series(qmax)


def _residue(key: str, packed: int, rows: int, sq: int) -> int:
    """(1 - q)^#0(key) times ``packed``, at q-rows 0..rows - 1, of SQ = ``sq``.

    P(key) from f(key) (see the module docstring): one ``p -= p << SQ`` per
    zero of ``key``, then the low ``rows SQ`` bits as a signed residue.
    """
    for _ in range(key.count("0")):
        packed -= packed << sq
    half = 1 << rows * sq - 1
    return ((packed + half) & (2 * half - 1)) - half


def _step_order(m: int) -> list[str]:
    """Every word of length m, in the order that P's run over them yields them.

    The roots listed from 1^m down to 0^m, as :func:`_normalized` lists
    them; a run yields each root as it steps it, in its plan's order
    (:func:`_evaluate`).
    """
    needs, _ = _plan(all_sequences(m)[::-1], _poly_deps)
    return [k for k in needs if len(k) == m]


def _normalized(m: int, geometry: tuple) -> tuple[dict, Iterator]:
    """The estimate and unstarted stream of (v, (1 - q)^#0(v) f(v)), |v| = m.

    Each is the packed int of P(v) from the series recursion alone, by the
    f route, on ``geometry``, :func:`_shared_geometry`'s ``(n, dq, w)`` for
    some n >= m: one plan over every word of length m, listed from 1^m down
    to 0^m (the reverse held 1.1 to 1.3 times as many q-rows at once at
    m = 8..10), each root read at q-rows 0..dq_v, P's q-degree bound
    (:func:`_demand`), and yielded, through :func:`_residue`, as soon as it
    is stepped (:func:`_evaluate`).  It shares P's rules and roots, so it
    yields them in :func:`_step_order`.  Its reader checks the estimate,
    the run's :func:`_working_set`, first.
    """
    roots = all_sequences(m)[::-1]
    needs, _ = plan = _plan(roots, _SeriesLayout.deps)
    bounds = _SeriesLayout.bounds(needs)
    demand = _demand(needs, {v: bounds[v][0] for v in roots})
    dq = max(d for d, _ in bounds.values())
    n, _, w = geometry
    layout = _SeriesLayout(n, dq, w, demand)
    parts = _working_set(needs, _peak_live(*plan, lambda k: demand[k] + 1), layout)
    run = _evaluate(roots, plan, layout)
    return parts, ((v, _residue(v, f, demand[v] + 1, layout.sq)) for v, f in run)


def _shared_geometry(n: int) -> tuple[int, int, int]:
    """(n, dq, w): one layout for every run that checks P up to length n.

    a-rows 0..n and t-width C(n, 2) + 1; q-rows 0..dq, P's q-degree bound
    of 0^n; and fields of the fewest bits, ``w``, that hold plus a sign the
    largest of three proven bounds: P's L1 bound of 0^n, the insertion route's
    largest L1 bound over every word of length <= n, 2^(n - z) S(z) at
    some z (:func:`_insertion_bounds`), and f's largest slice mass up to
    q-row dq (:func:`_slice_mass`).  The closure of 0^n by P's rules is
    every word of length <= n (a closure that outgrows memory is refused
    before 0^n is built, :func:`_zeros_closure`), and bounds grow toward
    their consumers, so 0^n's bounds are the largest of P's and f's runs of
    any length <= n; and slice masses grow with the length and the q-row.
    Packing is a ring homomorphism, injective on the values that fit one
    geometry, so two roots' ints on it are equal exactly when their
    polynomials are.  No such run is decoded, so no field is rounded to
    whole bytes.
    """
    _zeros_closure(n)
    top = "0" * n
    dq, l1 = _fill_bounds(_plan([top], _poly_deps)[0])[top]
    # the largest insertion L1 bound is of length n, at some count of zeros
    words = dict.fromkeys("1" * (n - z) + "0" * z for z in range(n + 1))
    insertion = max(b for _, b in _insertion_bounds(words).values())
    mass = _slice_mass(n, dq, range(n + 1)) if n else 1
    return n, dq, max(l1, insertion, mass).bit_length() + 1


def _lockstep(p: Iterator, other: Iterator) -> Iterator[tuple[str, int, int]]:
    """(word, P's int, the other route's int), the two streams read side by side.

    The streams must yield the same words in the same order, so each word
    is paired as it comes and nothing waits.  Words that differ, or a
    stream that ends before the other, raise ``ValueError``: a bug in the
    engine's step order, not a failed identity.
    """
    for (v, pv), (w, ov) in zip(p, other, strict=True):
        if v != w:
            raise ValueError(f"streams out of step: {[v, w]}")
        yield v, pv, ov


def _agreement(bound: int) -> dict[str, Counter]:
    """Per check of P, how many words of each length up to ``bound`` pass it.

    The engine's core self-check, read by :mod:`tlh.verify`'s recursion and
    top-a checks.  Two passes, each of two streams read side by side
    (:func:`_lockstep`), so no more than two runs are live at once.  Each
    pass steps P's runs anew, over the words of each length m = 0..bound in
    turn, each listed from 1^m down.  The first reads them beside one
    insertion run over every word up to the bound, each length's words
    listed in P's step order (:func:`_step_order`); every insertion
    dependency of a word but 0^m is shorter, so that run yields its roots
    as they are listed.  Only once it has ended does the second pass read P
    beside (1 - q)^#0(v) f(v) by the f route, a length at a time
    (:func:`_normalized`), which shares P's rules and roots.  So the two
    streams of a pass yield the same words in the same order, no value
    waits for its partner, and P of every word is never held at once; P's
    run of each length and the run it is read beside are checked against
    memory together, before P's steps.  Every run steps on one geometry,
    whose fields hold all three routes' bounds (:func:`_shared_geometry`),
    and yields packed ints: equal ints are equal polynomials, and nothing
    is decoded.  Counted, as distinct words: those whose insertion value
    equals P(v) (``insertion``), and whose P(v) has top a-coefficient, of
    a^|v|, 1 (``top-a``), read from P's int by the layout
    (:meth:`_Layout.top_a_test`), in the first pass; and those whose f
    route value equals P(v) (``f``), in the second.
    """
    geometry = _shared_geometry(bound)
    layout = _Layout(*geometry)
    lengths = range(bound + 1)

    def beside(m: int, route: str, parts: dict, other: Iterator) -> Iterator:
        """Length m's words paired from P's run and ``other``'s, of estimate ``parts``."""
        words = all_sequences(m)[::-1]
        p_parts, p = _run(words, _Layout, geometry)
        what = f"P's run over {_name(words)} beside the {route} route's run"
        budget._room(what, {**p_parts, **parts})
        return _lockstep(p, other)

    roots = [v for m in lengths for v in _step_order(m)]
    parts, insertion = _run(roots, _InsertionLayout, geometry)
    first = (beside(m, "insertion", parts, islice(insertion, 2**m)) for m in lengths)
    agree: dict[str, set] = {"insertion": set(), "f": set(), "top-a": set()}
    length = None
    for v, pv, iv in chain.from_iterable(first):
        if pv == iv:
            agree["insertion"].add(v)
        if len(v) != length:  # the words come a length at a time
            length = len(v)
            top_a_is_one = layout.top_a_test(length)
        if top_a_is_one(pv):
            agree["top-a"].add(v)
    for v, _ in insertion:  # it must end with the last length's words
        raise ValueError(f"streams out of step: {v!r} after the last word")
    second = (beside(m, "f", *_normalized(m, geometry)) for m in lengths)
    for v, pv, fv in chain.from_iterable(second):
        if pv == fv:
            agree["f"].add(v)
    return {count: Counter(map(len, words)) for count, words in agree.items()}


# ---------------------------------------------------------------------------
# cache files


# the share of a cache's keys that :func:`load_cache` recomputes
_SPOT_CHECK_RATE = 0.05


def save_cache(path: str, answers: dict[str, Polynomial]) -> None:
    """Write a map of sequences to their normalized polynomials as JSON.

    The file holds one JSON object, its keys sorted, followed by a newline.
    It is written under a temporary name in the same directory and then
    renamed over ``path``, so a crash or a concurrent writer never leaves a
    partial cache behind.
    """
    # Unique among live writers; a stale file of a dead writer is overwritten.
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            obj = {k: poly_to_obj(answers[k]) for k in sorted(answers)}
            fh.write(json.dumps(obj))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _check_entry(key: str, p: Polynomial, dq: int, l1: int) -> None:
    """Raise :class:`EntryOutOfBounds` unless cache entry ``p`` fits ``key``.

    Checked in this order, so the message depends on the entry alone: its
    L1 norm is at most ``l1``; each term's exponents are whole and
    non-negative, with a <= |key| and t <= C(|key|, 2); its q-degree is at
    most ``dq``.
    """
    terms = p._terms
    if sum(map(abs, terms.values())) > l1:
        raise EntryOutOfBounds(
            f"memo entry {key!r} has an L1 norm above its bound {l1}"
        )
    frac, amax, tmax = UNIT - 1, len(key) * UNIT, comb(len(key), 2) * UNIT
    qmax, high = dq * UNIT, False
    for q, a, t in terms:
        u = q | a | t  # negative if any is, and fractional if any is
        if u & frac or u < 0 or a > amax or t > tmax:
            raise EntryOutOfBounds(
                f"memo entry {key!r} has a term at q,a,t exponent "
                f"{_exp_vector((q, a, t))}, not a whole exponent inside its bounds"
            )
        if q > qmax:
            high = True
    if high:
        raise EntryOutOfBounds(
            f"memo entry {key!r} has a q-degree above its bound {dq}"
        )


def load_cache(path: str) -> dict[str, Polynomial]:
    """The map of :func:`save_cache`, with a deterministic sample rechecked.

    Text that is not JSON, or an integer past ``int``'s digit limit,
    raises :class:`ParseError`.  Each sampled key is recomputed from scratch
    and compared; a mismatch raises :class:`MemoDivergence`.  The sample is
    an even stride over the sorted keys, ``_SPOT_CHECK_RATE`` of them (at
    least one).  Then every entry must fit its key's a-priori bounds, or
    :class:`EntryOutOfBounds` names it (:func:`_check_entry`).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = _json_loads(fh.read())
    if not isinstance(data, dict):
        raise ParseError("cache must be a JSON object", 0)
    answers = {}
    for key, obj in data.items():
        if key.strip("01"):
            raise ParseError(f"bad cache key {key!r}", 0)
        answers[key] = poly_from_obj(obj)
    keys = sorted(answers)
    count = max(1, round(len(keys) * _SPOT_CHECK_RATE))
    stride = max(1, len(keys) // count)
    for key in keys[::stride][:count]:
        if poincare_poly(key) != answers[key]:
            raise MemoDivergence(
                f"cache entry {key!r} disagrees with a fresh computation"
            )
    bounds = _Layout.bounds(_plan(list(answers), _Layout.deps)[0])
    for key, value in answers.items():
        _check_entry(key, value, *bounds[key])
    return answers
