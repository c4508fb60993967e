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
Python int with a signed field of w = 8 b bits per (q, a, t) slot, slot
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
its q-degree bound, holds every key of its closure, and b is the fewest
bytes that hold the target's L1 bound plus a sign.  For f, every
multiplier has non-negative coefficients, so every coefficient is at most
its q-row's mass, f(v) at a = t = 1 in that row.  There P(v.1) = 2 P(v),
P(0^m) = P(1 0^(m-1)) and P(v.0) = P(1 v) + q (P(0 v) - P(1 v)), so by
induction P(v) = 2^|v| and f(v) = 2^|v| / (1 - q)^z, z = #0(v): row d
holds 2^|v| C(d + z - 1, z - 1) (z = 0: 2^|v| in row 0 alone), growing
with |v|, z and d.  Over the closure of 0^n up to row qmax no mass
exceeds 2^n C(qmax + n - 1, n - 1), the target's own in row qmax, and b
is the fewest bytes that hold it plus one bit, which keeps every field's
top bit clear.  The bound holds for every intermediate field as well: a
stored f(k) is exact in its rows 0..r(k) and 0 above, so each unmasked row
j of the v.0 step is at most row j of f(v.0), j <= qmax, or in row
qmax + 1 a row of f(0 v); and each window of the doubling prefix sum is at
most the whole prefix sum.  No term is negative, so no field carries into
the next, and none can overflow: nothing is guessed.
The insertion route (below) steps on P's layout, sized by its own rules.
Packing is the evaluation q = 2^SQ, a = 2^SA, t = 2^w, a ring homomorphism
Z[q, a, t] -> Z, and its step is +, - and left shifts alone, with no mask,
so every packed value is the image of its exact polynomial, whatever its
temporaries hold: only the values stored, and unpacked, must fit the
layout.  By induction over its rule, deg_a <= |v| and deg_t <= C(|v|, 2),
as W(v, w) has a-degree o = #1(v) and t-degree at most C(o, 2) + o #1(w),
with C(o, 2) + o z + C(z, 2) = C(|v|, 2) for z = #0(v) = |w|; the q-degree
bound is dq(v) = max dq(w) + z, z being the q-degree of q^#0(w)
(1 - q)^#1(w); and the L1 bound is L1(v) = 2^o sum over w of 2^#1(w)
L1(w), as |W(v, w)| = 2^o and |(1 - q)^k| = 2^k.  P(0^m) keeps the bounds
of P(1 0^(m-1)).  Both bounds grow from every key to its consumers, so a
plan's largest are its roots', and the run's layout holds those.  At
n = 8..10 the dq of 0^n is the P route's, and its L1 bound three bits
longer.
Values are packed only by stepping, from P(empty) = 1, and unpacked only
as the values a run returns, those of its roots, each at its own q-rows
0..dq_k by its route's bounds, which hold the whole value, with the
signed-field decoder of :mod:`tlh.poly` (:func:`~tlh.poly._unpack`).
Before any step of a pass its peak packed working set is estimated from
the closure alone (:func:`_working_set`), each value sized by its own
q-rows: dq_k + 1 for P(k), by the bounds of the route that steps it, and
r(k) + 1 for f(k), plus the step's temporaries as tall as the layout and
the f route's masks; J minimises the larger of the f route's two, and both
are checked first.  A pass whose estimate exceeds physical memory fails with
:class:`MemoryBudgetExceeded`; so does a run whose unpacked values would
take it over, as soon as they would, and a closure walk whose own state
outgrows physical memory, as soon as it does.  A layout is geometry alone
until then: its tables (slot exponents, field masks) are built when its
pass starts, after every pass's estimate has passed, so a refused run
builds none.

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
unpacking; each layout class carries its route's dependency and step rules
and its bounds.

The driver walks the closure of its roots once, counts each key's
consumers, and steps the keys in topological order with an explicit work
list rather than native recursion, so long sequences do not hit the
interpreter stack limit.  A run returns the values of its roots, each
unpacked once it is stepped; a packed value is released as soon as its
last consumer has run, a root's that no key reads at once.  Many keys are
best asked of one run, which steps each key of their closures once.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from itertools import product
from math import comb
from typing import Callable

from .poly import (
    A,
    ONE,
    ONE_MINUS_Q,
    UNIT,
    FracPoly,
    Polynomial,
    _exp_vector,
    _field_bytes,
    _unpack,
)
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


class MemoryBudgetExceeded(MemoryError):
    """A run's estimated peak working set exceeds physical memory.

    Raised from the closure alone, before any recursion step, or while a
    run unpacks the values it returns, as soon as those unpacked so far
    would take it over.  The message names the parts of the estimate;
    ``need`` is their sum in bytes.
    """

    def __init__(self, message: str, need: int):
        super().__init__(message)
        self.need = need


def _key(v: str) -> str:
    if v.strip("01"):
        raise ValueError(f"not a binary sequence: {v!r}")
    return v


def all_sequences(length: int) -> list[str]:
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


# What the closure walk holds per key (``_plan`` plus its bounds):
# tracemalloc measured 432 to 482 bytes at |v| = 10..16, growing with the
# key strings, so this rounds up.
_WALK_BYTES_PER_KEY = 512


def _name(roots: list[str]) -> str:
    """How a :class:`MemoryBudgetExceeded` message names a run's roots."""
    if len(roots) == 1:
        return repr(roots[0])
    return f"{len(roots)} keys, {roots[0]!r} to {roots[-1]!r}"


def _plan(roots: list[str], deps) -> tuple[dict, dict]:
    """Walk the closure of ``roots`` once.

    Returns ``needs``, every key to step mapped to the keys its step reads,
    in a topological order, and ``users``, each key's consumer count over
    ``needs``.  Only roots lack a count: a lone root has no consumer in its
    own closure (the recursions are acyclic), and of several roots, one may
    read another.  The walk raises :class:`MemoryBudgetExceeded` as soon as
    the keys it holds would outgrow physical memory.
    """
    # A closure's size is not a function of its key's length alone (1^30 0
    # has 64 keys, 0^31 has 2^32 - 1), so the walk counts what it holds.
    limit = _memory_budget() // _WALK_BYTES_PER_KEY
    needs: dict[str, tuple[str, ...]] = {}
    stack = roots[::-1]
    while stack:
        top = stack[-1]
        if top in needs:
            stack.pop()
            continue
        ds = deps(top)
        missing = [d for d in ds if d not in needs]
        if missing:
            stack.extend(missing)
            # the only branch that grows len(needs) + len(stack)
            if len(needs) + len(stack) > limit:
                raise MemoryBudgetExceeded(
                    f"walking the closure of {_name(roots)} outgrew the "
                    f"{limit * _WALK_BYTES_PER_KEY / 2**30:.1f} GiB of physical "
                    f"memory after {len(needs)} keys",
                    (len(needs) + len(stack)) * _WALK_BYTES_PER_KEY,
                )
        else:
            needs[top] = ds
            stack.pop()
    users: dict[str, int] = {}
    for ds in needs.values():
        for d in ds:
            users[d] = users.get(d, 0) + 1
    return needs, users


def _peak_live(needs: dict, users: dict, size: Callable[[str], int]) -> int:
    """Most units alive at once as ``_evaluate`` steps ``needs``.

    Key k's value holds ``size(k)`` units: 1 counts values, q-rows size a
    packed run (:func:`_working_set`).
    """
    left = dict(users)
    live = peak = 0
    for k, ds in needs.items():
        live += size(k)
        if live > peak:
            peak = live
        if k not in left:  # a root that no key reads is released at once
            live -= size(k)
        for d in ds:
            left[d] -= 1
            if not left[d]:
                live -= size(d)
    return peak


def _working_set(needs: dict, peak: int, layout: _Layout) -> dict[str, int]:
    """Estimated peak bytes of a packed run over ``needs`` on ``layout``.

    Its live values, ``peak`` q-rows at their most (:func:`_peak_live`):
    dq_k + 1 for P(k), and r(k) + 1 for f(k), its demand row
    (:func:`_demand`); the step's temporaries, ``layout.temps`` values as
    tall as the layout; and its masks, ``layout.mask_rows`` q-rows; with the
    heap's holes between them; the closure walk's state; and the layout's
    slot table, each under the name :class:`MemoryBudgetExceeded` gives it.
    CPython stores 30 bits of an int in every 4 bytes.  The malloc heap
    leaves holes where a freed value is too small for the next one: the
    f-route's peak RSS growth measured 1.19 times its live bytes at
    |v| = 13..15 (Python 3.11, glibc), and 1.0 times with every value in
    its own mmap.  Values count half again, which keeps the estimate 1.2 to
    1.5 times the peak RSS growth of the P and f routes at |v| = 10..13,
    and 1.5 to 1.6 times that of the insertion route's 0^10 and its one
    plan over every word of length <= 9 (Python 3.11, measured from a
    trimmed heap, as ``test_memory_estimate_covers_the_peak_rss_growth``
    does).
    """
    rows = peak + layout.temps * (layout.dq + 1) + layout.mask_rows
    return {
        f"live values on the {layout.route} route, a-degrees "
        f"{min(layout.a_rows)}..{max(layout.a_rows)}":
            rows * layout.row_bytes * 16 // 15 * 3 // 2,
        "closure walk state": len(needs) * _WALK_BYTES_PER_KEY,
        "slot table": layout.fields * _SLOT_BYTES_PER_FIELD,
    }


# Bytes held per unit, rounding up what was measured (Python 3.11, glibc): a
# slot table field (``_Layout.exps``) and what unpacking adds per field, 136
# to 139 at the tracemalloc peak of 0 1^29 0 and 0 1^30 0, three fields per
# term, and 99 of the latter's peak RSS growth past the rest of its estimate;
# an unpacked term, 52 to 58 of peak RSS growth with every key of the
# closure of 0^n unpacked and held at n = 9..12; and a slot of q-rows
# 0..qmax as whole P(0^n) expands over (1 - q)^n, 120 to 158 of peak RSS
# growth at n = 1..11, qmax <= 10^6.
_SLOT_BYTES_PER_FIELD = 144
_UNPACKED_BYTES_PER_TERM = 64
_SERIES_BYTES_PER_TERM = 192


def _memory_budget() -> int:
    """Physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _mib(size: int) -> str:
    # past 2^64 bytes, a power of two: a float overflows at 2^1024, and str()
    # refuses an int of over 4,300 digits
    if size.bit_length() > 64:
        return f"2^{size.bit_length() - 21} MiB"
    return f"{size / 2**20:,.1f} MiB"


def _room(what: str, parts: dict[str, int]) -> int:
    """Bytes of physical memory left over ``parts``, or the error naming them."""
    need = sum(parts.values())
    budget = _memory_budget()
    if need > budget:
        raise MemoryBudgetExceeded(
            f"evaluating {what} would hold about {_mib(need)} at once, over the "
            f"{_mib(budget)} of physical memory: "
            + ", ".join(f"{_mib(size)} of {part}" for part, size in parts.items()),
            need,
        )
    return budget - need


def _evaluate(
    roots: list[str],
    plan: tuple[dict, dict],
    layouts: list[_Layout],
    size: Callable[[str], int],
    extra: dict[str, int] | None = None,
) -> dict[str, Polynomial]:
    """The one work-list driver of every packed run: {root: its value}.

    Steps the keys of ``plan``, the :func:`_plan` of ``roots``, in order,
    once per pass, a pass per layout: ``layout.step(k, ds, work)`` reads
    the values of ``ds``, the keys that ``plan`` names for ``k``, from
    ``work``.  Each root is unpacked at its own ``size(k)`` q-rows,
    ``layout.unpack(value, size(k))``, once it is stepped, and the passes'
    disjoint slices of it join into one value.  A
    packed value is released once its last consumer has stepped, a root's
    that no key consumes at once.  Before the first step, every pass's
    estimate, its :func:`_working_set` at the peak that ``size`` (q-rows
    per key) gives, plus the parts of ``extra``, is checked against
    physical memory: one over it raises :class:`MemoryBudgetExceeded`,
    naming the run by its roots.  Only then are a layout's tables built,
    ``layout.build()``, as its pass starts.  A pass whose unpacked values,
    ``_UNPACKED_BYTES_PER_TERM`` per term, would take its estimate over
    raises too, as soon as they would.
    """
    needs, users = plan
    what = _name(roots)
    peak = _peak_live(needs, users, size)
    estimates = [
        {**_working_set(needs, peak, layout), **(extra or {})} for layout in layouts
    ]
    rooms = [_room(what, e) // _UNPACKED_BYTES_PER_TERM for e in estimates]
    wanted = set(roots)
    out: dict[str, Polynomial] = {}
    for layout, estimate, room in zip(layouts, estimates, rooms):
        layout.build()
        left = dict(users)
        held = 0
        work: dict = {}
        for k, ds in needs.items():
            work[k] = layout.step(k, ds, work)
            if k in wanted:
                value = layout.unpack(work[k], size(k))
                if k in out:  # a later pass's slice of the first pass's value
                    out[k]._terms.update(value._terms)
                else:
                    out[k] = value
                held += len(value)
                if held > room:
                    unpacked = held * _UNPACKED_BYTES_PER_TERM
                    _room(what, {**estimate, f"unpacked values up to {k!r}": unpacked})
                if k not in left:
                    del work[k]
            for d in ds:
                left[d] -= 1
                if not left[d]:
                    del work[d]
    return out


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


class _Layout:
    """The packed-integer layout of one run (see the module docstring).

    Its geometry: q-rows 0..dq, each of one a-row per a-degree in ``a_rows``,
    in that order, of ``t_width`` t-slots; by default a = 0..n, t = 0..C(n, 2).
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

    def __init__(self, n: int, dq: int, bound: int, a_rows=None, t_width=0):
        a_rows = self.a_rows = range(n + 1) if a_rows is None else a_rows
        t_width = self.t_width = t_width or comb(n, 2) + 1
        b = self.b = _field_bytes(bound)
        w = self.w = 8 * b
        self.sa = w * t_width
        self.sq = self.sa * len(a_rows)
        self.dq = dq
        self.row_fields = len(a_rows) * t_width
        self.fields = (dq + 1) * self.row_fields
        self.row_bytes = self.sq // 8

    def build(self) -> None:
        """Make the table a pass reads, once every estimate has passed."""
        # the exponent of every slot, in slot order, q the most significant
        rows = range(self.dq + 1), self.a_rows, range(self.t_width)
        self.exps = list(product(*([UNIT * i for i in r] for r in rows)))

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

    def unpack(self, packed: int, rows: int) -> Polynomial:
        """The value of ``packed``, a value of q-degree below ``rows``.

        Only its q-rows 0..rows - 1 are read (:func:`~tlh.poly._unpack`).
        """
        return _unpack(packed, self.b, rows * self.row_fields, self.exps)


def _demand(needs: dict, key: str, qmax: int) -> dict[str, int]:
    """{k: r(k)}, the demand row of each key of ``needs``, the plan of ``key``.

    The f route reads f(k) at q-rows 0..r(k) alone.  Consumers first:
    ``key`` reads qmax; f(v.1) and f(0^m) pass their own r to their one
    dependency, and f(v.0) = q f(0 v) + f(1 v) passes r to f(1 v) and r - 1
    to f(0 v); a key takes the largest r of its consumers, and r(k) < 0
    means no key reads f(k).
    """
    r = dict.fromkeys(needs, -1)
    r[key] = qmax
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


class _SeriesLayout(_Layout):
    """The layout of f(v) = P(v) / (1 - q)^#0(v), cut at q-row qmax.

    Its fields are unsigned and hold the largest row mass.  Each key k holds
    q-rows 0..r(k) alone, its ``demand`` row (:func:`_demand`): a step cuts
    its value at ``masks[r]`` wherever it could reach above them, and a key
    that no consumer reads is 0.  The v.1 step drops what the a-shift moves
    out of the top a-row; descending ``a_rows`` step the reversal f~ (see
    the module docstring).
    """

    route = "f"

    def __init__(self, n: int, qmax: int, bound: int, demand: dict, *geometry):
        super().__init__(n, qmax, bound, *geometry)
        self.demand = demand
        self.mask_rows = (qmax + 1) * (qmax + 4) // 2  # masks[0..qmax] and R
        # the prefix sum's doubling strides: s q-rows for s = 1, 2, 4, ... <= qmax
        self.strides = [self.sq << k for k in range(qmax.bit_length())]

    def build(self) -> None:
        super().build()
        # masks[r] keeps q-rows 0..r
        self.masks = [(1 << r * self.sq) - 1 for r in range(1, self.dq + 2)]
        top = self.sa // 8  # R keeps every a-row of every q-row but the top one
        row = b"\xff" * (self.row_bytes - top) + bytes(top)
        self.keep = int.from_bytes(row * (self.dq + 1), "little")

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


def _run(roots: list[str], route: type[_Layout]) -> dict[str, Polynomial]:
    """{root: its value}, the closure of ``roots`` stepped as one plan.

    ``route``, a layout class, carries the rules: ``route.deps``, a key's
    dependencies, and ``route.bounds``, the (q-degree, L1 norm) bounds of
    every key of a plan.  The one layout, of the longest key, holds the
    largest bounds of the plan, a lone root's own since bounds grow toward
    the consumers; each key counts its own q-rows in the pre-flight
    (:func:`_evaluate`).
    """
    needs, _ = plan = _plan(roots, route.deps)
    bound = route.bounds(needs)
    layout = route(max(map(len, needs)), *map(max, zip(*bound.values())))
    return _evaluate(roots, plan, [layout], lambda k: bound[k][0] + 1)


def poincare_poly(v: str) -> Polynomial:
    """The normalized Poincare polynomial of a shuffle sequence.

    Equals (1-q)^zeros(v) times the rational series; always a polynomial.
    The recursion terminates because each rewrite strictly descends in
    (length, number of zeroes, number of inversions).  The whole closure of
    ``v`` is stepped as one plan (:func:`_run`).
    """
    key = _key(v)
    return _run([key], _Layout)[key]


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
    """The insertion route's (q-degree, L1 norm) bounds of every key.

    ``needs`` is a :func:`_plan`; the rules are the module docstring's.
    """
    bounds: dict[str, tuple[int, int]] = {}
    for k, ds in needs.items():
        if not k:
            bounds[k] = (0, 1)
        elif "1" not in k:
            bounds[k] = bounds[ds[0]]
        else:
            z = k.count("0")
            dq = max(bounds[w][0] for w in ds) + z
            l1 = sum(bounds[w][1] << w.count("1") for w in ds) << len(k) - z
            bounds[k] = (dq, l1)
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
    the work-list driver and unpacking.  Their equality is a verification
    suite.
    """
    key = _key(v)
    num = _run([key], _InsertionLayout)[key]
    return FracPoly(num, [ONE_MINUS_Q] * key.count("0"))


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
    Otherwise it steps the whole polynomial and expands it over (1 - q)^n,
    pre-flighting the run and the expansion (:func:`_series_terms`)
    together before any step.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    key = "0" * n
    needs, _ = plan = _plan([key], _Layout.deps)
    bounds = _Layout.bounds(needs)
    dq, l1 = bounds[key]
    whole = _Layout(n, dq, l1)
    if qmax < dq:
        demand = _demand(needs, key, qmax)
        # the largest row mass over the closure (see the module docstring)
        mass = 2**n * comb(qmax + n - 1, n - 1)
        pairs = [
            [_SeriesLayout(n, qmax, mass, demand, *g) for g in _split(n, J)]
            for J in range(n)
        ]
        # both passes hold the same q-rows, so J balances their q-row bytes
        pair = min(pairs, key=lambda passes: max(p.row_bytes for p in passes))
        rows = sum(demand.values()) + len(demand)  # r(k) + 1 q-rows per key
        stepped = rows * sum(p.row_bytes for p in pair)
        if stepped < sum(d + 1 for d, _ in bounds.values()) * whole.row_bytes:
            return _evaluate([key], plan, pair, lambda k: demand[k] + 1)[key]
    out = _evaluate(
        [key], plan, [whole], lambda k: bounds[k][0] + 1, _series_terms(n, qmax)
    )
    return FracPoly(out[key], [ONE_MINUS_Q] * n).series(qmax)


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
