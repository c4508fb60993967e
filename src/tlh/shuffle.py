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

A memo-less :func:`full_twist_series` with qmax below the q-degree bound dq
of P(0^n) may step instead on the series f(v) = P(v) / (1 - q)^#0(v),
whose recursion has no subtraction:

    f(v.1)  =  (t^ones(v) + a) * f(v)
    f(v.0)  =  q * f(0 v)  +  f(1 v)          (v.0 not all zeroes)
    f(0^m)  =  f(1 0^(m-1)) / (1 - q)

on unsigned fields of the same geometry holding q-rows 0..qmax:
``f(v.0) = (p1 + (p0 << SQ)) & M``, M = 2^K - 1 keeping the layout's K
bits, and f(0^m) the prefix sum over q-rows, ``r = (r + (r << s SQ)) & M``
for s = 1, 2, 4, ... <= qmax.  Every step is ring-linear with non-negative
q-shifts (the a- and t-shifts stay inside a q-row), so the rows up to qmax
stay exact when the rows above are dropped, and f(0^n) cut at q^qmax is the
truncated series itself.  But every f value fills all qmax + 1 q-rows, in
fields that widen with qmax, where a packed P(v) stops at its own q-degree
bound; so the f route is taken only when it steps fewer bytes in all and
holds no more at once (:func:`_series_pays`).  Otherwise P(0^n) is stepped
whole and expanded over (1 - q)^n, and no qmax costs more than that.

Exactness rule.  Each layout is fixed before any step from a-priori bounds
propagated over the closure of the target key: deg_a <= |v|; deg_t <=
|v|(|v| - 1)/2, since v.1 adds ones(v) <= |v| and the other rules keep the
length.  For P, deg_q grows by one per v.0 step, and the L1 norm obeys
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
top bit clear.  The bound holds for every intermediate field as well: the
v.0 step's unmasked top row is a row of f(0 v), and each window of the
doubling prefix sum is at most the whole prefix sum.  No term is negative,
so no field carries into the next, and none can overflow: nothing is guessed.
Values are packed only by stepping, from P(empty) = 1, and unpacked only at
the boundaries: an insertion into a caller's memo, and the return value.
Before any step of a pass its peak packed working set is estimated from
the closure alone (:func:`_working_set`), and a pass whose estimate exceeds
physical memory fails with :class:`MemoryBudgetExceeded`; so does a
closure walk whose own state outgrows physical memory, as soon as it does.

The rational series attaches a (1-q) denominator factor per zero.  The same
series is computed a second, independent way by the insertion recursion:
expand over all words w of length #zeroes(v), inserting w into the zeroes of
v, with a product W(v, w) of (t^j + a) weights per one of v.  It too steps on
normalized polynomials, P(v) = sum over w of q^#0(w) (1-q)^#1(w) W(v, w) P(w),
keeping P(0^n) = P(1 0^(n-1)).  W(v, w) depends on w only through its
weight class, the count of inserted ones to the right of each one of v, so
each step first adds the P(w) that share #1(w) and weight class, then
multiplies each sum by its weight once.  Agreement of the two routes is a
core self-check of the whole engine.  The routes share no arithmetic (the
insertion route works on :class:`Polynomial` term dicts, never packed ints),
only one work-list driver (``_evaluate``); each keeps its own dependency and
step rules.

The driver walks the closure of the target once, counts each key's
consumers, and steps the keys in topological order with an explicit work
list rather than native recursion, so long sequences do not hit the
interpreter stack limit.  Only the insertion route stops its walk at memo
hits; the packed route reads a caller's memo for the target alone.  A
working value is released as soon as its last consumer has run; the result
is never released.  A caller-owned memo still receives every key computed
that it lacks, so memos may be shared and saved.  The memo admits
concurrent lookup and idempotent insertion; inserting a different value
under an existing key is a fatal invariant violation.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
from array import array
from itertools import compress, product, repeat
from math import comb
from operator import add, lshift
from typing import Callable

from .poly import (
    A,
    ONE,
    ONE_MINUS_Q,
    UNIT,
    Exponents,
    FracPoly,
    Polynomial,
    _exp_vector,
)
from .serialize import ParseError, _json_loads, poly_from_obj, poly_to_obj

__all__ = [
    "IncompatiblePair",
    "MemoDivergence",
    "EntryOutOfBounds",
    "MemoryBudgetExceeded",
    "MemoTable",
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
    """Two computations produced different values for the same memo key."""


class EntryOutOfBounds(ValueError):
    """A cache entry does not fit the a-priori bounds of its key.

    Raised by :func:`load_cache`: an entry's exponents must be whole and
    inside its key's degree bounds, and its L1 norm within the key's L1
    bound.  An unchecked entry is returned only for its own key; the packed
    recursion never reads it for another key.
    """


class MemoryBudgetExceeded(MemoryError):
    """A run's estimated peak working set exceeds physical memory.

    Raised from the closure alone, before any recursion step.  ``need`` is
    the estimate in bytes.
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


class MemoTable(dict):
    """Bit-string keyed memo with idempotent insertion.

    Safe for concurrent lookup and insertion: ``dict.setdefault`` with str
    keys is atomic under the GIL, so of two threads inserting one key, one
    stores its value and the other compares against it.  Duplicated
    computation of the same key is fine, divergent values are not.
    """

    def insert(self, key: str, value) -> None:
        existing = self.setdefault(key, value)
        if existing is not value and existing != value:
            raise MemoDivergence(f"memo diverges at key {key!r}")


# What the closure walk holds per key (``_plan`` plus ``_poly_bounds``):
# tracemalloc measured 432 to 482 bytes at |v| = 10..16, growing with the
# key strings, so this rounds up.
_WALK_BYTES_PER_KEY = 512


def _plan(key: str, hits, deps) -> tuple[dict, dict]:
    """Walk the closure of ``key`` once, stopping at the keys in ``hits``.

    Returns ``needs``, every key to step mapped to the keys its step reads,
    in a topological order, and ``users``, each key's consumer count over
    ``needs``.  ``key`` itself has no consumer in its own closure (the
    recursions are acyclic), so the driver never releases the result.
    The walk raises :class:`MemoryBudgetExceeded` as soon as the keys it
    holds would outgrow physical memory.
    """
    # A closure's size is not a function of its key's length alone (1^30 0
    # has 64 keys, 0^31 has 2^32 - 1), so the walk counts what it holds.
    limit = _memory_budget() // _WALK_BYTES_PER_KEY
    needs: dict[str, tuple[str, ...]] = {}
    stack = [key]
    while stack:
        top = stack[-1]
        if top in needs or top in hits:
            stack.pop()
            continue
        ds = deps(top)
        missing = [d for d in ds if d not in needs and d not in hits]
        if missing:
            stack.extend(missing)
            # the only branch that grows len(needs) + len(stack)
            if len(needs) + len(stack) > limit:
                raise MemoryBudgetExceeded(
                    f"walking the closure of {key!r} outgrew the "
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


def _peak_live(needs: dict, users: dict, size: dict | None = None) -> int:
    """Most values alive at once as ``_evaluate`` steps ``needs`` (no hits).

    With ``size``, the most bytes alive at once, key k's value holding
    ``size[k]`` of them.
    """
    left = dict(users)
    live = peak = 0
    for k, ds in needs.items():
        live += size[k] if size else 1
        if live > peak:
            peak = live
        for d in ds:
            left[d] -= 1
            if not left[d]:
                live -= size[d] if size else 1
    return peak


def _working_set(needs: dict, users: dict, value_bytes: int) -> int:
    """Estimated peak bytes of a packed run over ``needs``.

    Its live values (:func:`_peak_live`) and two values of step
    temporaries, with the heap's holes between them, plus the closure
    walk's own state.  The malloc heap leaves holes where a freed value is
    too small for the next one: the f-route's peak RSS growth measured
    1.19 times its live bytes at |v| = 13..15 (Python 3.11, glibc), and
    1.0 times with every value in its own mmap.  Values count half again,
    which keeps the estimate 1.2 times above that growth or more at
    |v| = 9..13 on Python 3.10, 3.11 and 3.12.
    """
    live = _peak_live(needs, users) + 2
    return live * value_bytes * 3 // 2 + len(needs) * _WALK_BYTES_PER_KEY


def _memory_budget() -> int:
    """Physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _evaluate(
    key: str,
    memo: MemoTable | None,
    deps: Callable,
    step: Callable,
    store: Callable = lambda value: value,
    value_bytes: int = 0,
    plan: tuple[dict, dict] | None = None,
):
    """The one work-list driver of both recursions.

    ``deps(k)`` names the keys that ``step(k, work)`` reads from ``work``.
    Without ``plan`` the driver walks one over ``memo``, stopping at its
    hits, which enter the working set as they are (the insertion route);
    the packed route passes a ``plan`` walked without hits.  Each new value
    goes into ``memo`` (when given) as ``store(value)`` if ``memo`` lacks
    its key, and the result is returned as ``store(value)``.  A working
    value is released once its last consumer has stepped.  With
    ``value_bytes`` set, a run whose estimated peak working set exceeds
    physical memory raises :class:`MemoryBudgetExceeded` before any step.
    """
    hits = {} if memo is None else memo
    needs, users = plan or _plan(key, hits, deps)
    if value_bytes:
        need = _working_set(needs, users, value_bytes)
        budget = _memory_budget()
        if need > budget:
            raise MemoryBudgetExceeded(
                f"evaluating {key!r} would hold about {need / 2**30:.1f} GiB of "
                f"working values at once, over the {budget / 2**30:.1f} GiB of "
                "physical memory",
                need,
            )
    work: dict = {}
    for k, ds in needs.items():
        for d in ds:
            if d not in work:
                work[d] = hits[d]
        value = step(k, work)
        work[k] = value
        if memo is not None and k not in memo:
            memo.insert(k, store(value))
        for d in ds:
            users[d] -= 1
            if not users[d]:
                del work[d]
    return store(work[key]) if memo is None else memo[key]


def _poly_deps(key: str) -> tuple[str, ...]:
    if not key:
        return ()
    if key.endswith("1"):
        return (key[:-1],)
    if "1" not in key:
        return ("1" + key[1:],)
    body = key[:-1]
    return ("0" + body, "1" + body)


def _poly_bounds(key: str, bounds: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """The (q-degree, L1 norm) bounds of P(key), filling ``bounds``.

    ``bounds`` receives the bounds of every key in the closure of ``key``
    that it does not hold yet.  The a- and t-degrees need no propagation:
    they are at most |v| and |v|(|v| - 1)/2.
    """
    needs, _ = _plan(key, bounds, _poly_deps)
    return _fill_bounds(needs, bounds)[key]


def _fill_bounds(needs: dict, bounds: dict[str, tuple[int, int]]) -> dict:
    """``bounds`` filled in for every key of ``needs``, a ``_plan`` over it."""
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


# Slot tables per sequence length n: the exponent of every slot, in slot
# order, and its inverse.  The (a, t) plane is fixed by n and q is the most
# significant coordinate, so one table, grown to the largest q-degree asked
# for, serves every layout of length n through a prefix.  A table is
# replaced, never mutated, so threads may share them.
_SLOT_TABLES: dict[int, tuple[list[Exponents], dict[Exponents, int]]] = {}


def _slot_table(n: int, fields: int) -> tuple[list[Exponents], dict[Exponents, int]]:
    table = _SLOT_TABLES.get(n)
    if table is None or len(table[0]) < fields:
        na, nt = n + 1, comb(n, 2) + 1
        nq = fields // (na * nt)
        units = [UNIT * i for i in range(max(nq, na, nt))]
        exps = [
            (units[i], units[j], units[k])
            for i in range(nq)
            for j in range(na)
            for k in range(nt)
        ]
        table = (exps, dict(zip(exps, range(len(exps)))))
        _SLOT_TABLES[n] = table
    return table


def _field_bytes(bound: int) -> int:
    """The bytes of a field that holds ``bound`` plus a sign bit."""
    return (bound.bit_length() + 8) // 8


class _Layout:
    """The packed-integer layout of one run (see the module docstring)."""

    def __init__(self, n: int, dq: int, bound: int):
        b = self.b = _field_bytes(bound)
        w = self.w = 8 * b
        nt = comb(n, 2) + 1
        self.sa = w * nt
        self.sq = w * nt * (n + 1)
        self.dq = dq
        self.fields = (dq + 1) * (n + 1) * nt
        self.nbytes = self.fields * b
        # CPython stores 30 bits of an int in every 4 bytes
        self.value_bytes = self.nbytes * 16 // 15
        # the top bit of every field: (p + top) ^ top reads p's signed
        # fields as w-bit two's complement, and (u ^ top) - top inverts it
        self.top = int.from_bytes((bytes(b - 1) + b"\x80") * self.fields, "little")
        self.limbs = _limbs(b)
        self.exps, self.slot_of = _slot_table(n, self.fields)

    def step(self, key: str, work: dict) -> int:
        if not key:
            return 1
        if key.endswith("1"):
            body = key[:-1]
            p = work[body]
            return (p << self.w * body.count("1")) + (p << self.sa)
        if "1" not in key:
            return work["1" + key[1:]]
        body = key[:-1]
        p1 = work["1" + body]
        return p1 + ((work["0" + body] - p1) << self.sq)

    def slots(self, key: str, p: Polynomial, l1: int) -> list[int]:
        """The slots of cache entry ``p``, checked against ``key``'s bounds."""
        if sum(map(abs, p._terms.values())) > l1:
            raise EntryOutOfBounds(
                f"memo entry {key!r} has an L1 norm above its bound {l1}"
            )
        try:
            slots = list(map(self.slot_of.__getitem__, p._terms))
        except KeyError as e:
            raise EntryOutOfBounds(
                f"memo entry {key!r} has a term at q,a,t exponent "
                f"{_exp_vector(e.args[0])}, not a whole exponent inside the layout"
            ) from None
        if slots and max(slots) >= self.fields:
            raise EntryOutOfBounds(
                f"memo entry {key!r} has a q-degree above its bound {self.dq}"
            )
        return slots

    def unpack(self, packed: int) -> Polynomial:
        # limb j of every field (``_limbs``) is gathered from the packed
        # bytes as one array, by C-level byte slices with stride b
        b = self.b
        raw = ((packed + self.top) ^ self.top).to_bytes(self.nbytes, "little")
        limbs = []
        for j, r, size, code in self.limbs:
            buf = bytearray(size * self.fields)
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
        return Polynomial._trusted(
            dict(zip(compress(self.exps, coeffs), filter(None, coeffs)))
        )


class _SeriesLayout(_Layout):
    """The layout of f(v) = P(v) / (1 - q)^#0(v), cut at q-row qmax.

    Its fields are unsigned and hold the largest row mass, and every step
    that shifts q keeps the layout's K bits (see the module docstring).
    """

    def __init__(self, n: int, qmax: int, bound: int):
        super().__init__(n, qmax, bound)
        self.mask = (1 << 8 * self.nbytes) - 1
        # the prefix sum's doubling strides: s q-rows for s = 1, 2, 4, ... <= qmax
        self.strides = [self.sq << k for k in range(qmax.bit_length())]

    def step(self, key: str, work: dict) -> int:
        if not key.endswith("0"):
            return super().step(key, work)
        if "1" not in key:  # f(0^m) = f(1 0^(m-1)) / (1 - q)
            r = work["1" + key[1:]]
            for stride in self.strides:
                r = (r + (r << stride)) & self.mask
            return r
        body = key[:-1]
        return (work["1" + body] + (work["0" + body] << self.sq)) & self.mask


def _series_pays(
    key: str, plan: tuple[dict, dict], bounds: dict, qmax: int, mass: int
) -> bool:
    """Whether f(key) cut at q^qmax steps fewer bytes than P(key), holding no more.

    Both layouts have the same fields per q-row, so sizes count q-rows
    times field bytes.  An f value fills all qmax + 1 q-rows, in fields
    that hold the largest row mass ``mass``; a packed P(k) stops at its own
    q-degree bound in ``bounds``, in fields of the target's L1 bound.  The
    total tracks the step time: over n = 10..12 and qmax 5..40 the ratio of
    the two routes' step times was 0.75 to 1.5 times that of their totals.
    """
    needs, users = plan
    b = _field_bytes(bounds[key][1])
    size = {k: (bounds[k][0] + 1) * b for k in needs}
    f = (qmax + 1) * _field_bytes(mass)
    return len(needs) * f < sum(size.values()) and (
        _peak_live(needs, users) * f <= _peak_live(needs, users, size)
    )


def poincare_poly(v: str, memo: MemoTable | None = None) -> Polynomial:
    """The normalized Poincare polynomial of a shuffle sequence.

    Equals (1-q)^zeros(v) times the rational series; always a polynomial.
    The recursion terminates because each rewrite strictly descends in
    (length, number of zeroes, number of inversions).  ``memo`` is read
    only for ``v`` itself; on a miss it receives every key of the closure
    that it lacks (:func:`_packed_poly`).
    """
    key = _key(v)
    if memo is not None and key in memo:
        return memo[key]
    return _packed_poly(key, memo)


def _packed_poly(key: str, memo: MemoTable | None = None) -> Polynomial:
    """P(key), stepping its whole closure on one packed layout.

    ``memo`` is a sink, never a source: it receives the value of each key it
    lacks and no entry of it is read, so a hit deep in the closure does not
    shorten the walk (a memo holding 0^12, asked for 0^12 1, steps the
    closure of 0^12 again).
    """
    plan = _plan(key, {}, _poly_deps)
    dq, l1 = _fill_bounds(plan[0], {})[key]
    return _step_packed(key, memo, _Layout(len(key), dq, l1), plan)


def _step_packed(key: str, memo: MemoTable | None, layout: _Layout, plan: tuple):
    """The value of ``key`` on ``layout``, stepping ``plan`` (consumed)."""
    return _evaluate(
        key,
        memo,
        _poly_deps,
        layout.step,
        store=layout.unpack,
        value_bytes=layout.value_bytes,
        plan=plan,
    )


def poincare_series(v: str, memo: MemoTable | None = None) -> FracPoly:
    """The Poincare series: the normalized polynomial over (1-q)^zeros(v)."""
    key = _key(v)
    num = poincare_poly(key, memo)
    return FracPoly(num, [ONE_MINUS_Q] * key.count("0"))


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


def _insertion_step(key: str, work: dict) -> Polynomial:
    """P(v) = sum over w of q^zeros(w) (1-q)^ones(w) W(v, w) P(w).

    The summand depends on w only through k = ones(w) and the weight class
    of w (:func:`_weight_class`), so the P(w) sharing both are added first,
    and each sum is multiplied once by its weight, itself computed once per
    weight class.  The products go into one group G_k per k, folded
    Horner-style: acc <- acc (1 - q) + G_k, from k = zeros(v) down to 0.
    """
    if not key:
        return ONE
    if "1" not in key:
        return work["1" + key[1:]]
    z = key.count("0")
    # (ones(w), weight class) -> (first such w, sum of their P(w))
    classes: dict[tuple, tuple[str, dict[Exponents, int]]] = {}
    for w in all_sequences(z):
        cls = (w.count("1"), _weight_class(key, w))
        entry = classes.get(cls)
        if entry is None:
            classes[cls] = (w, dict(work[w]._terms))
        else:
            total = entry[1]
            get = total.get
            for e, c in work[w]._terms.items():
                total[e] = get(e, 0) + c
    groups: list[dict[Exponents, int]] = [{} for _ in range(z + 1)]
    weights: dict[tuple[int, ...], Polynomial] = {}
    for (k, ms), (w, total) in classes.items():
        weight = weights.get(ms)
        if weight is None:
            weight = weights[ms] = insertion_weight(key, w)
        group = groups[k]
        get = group.get
        shift = UNIT * (z - k)
        terms = [(e, c) for e, c in total.items() if c]
        for (s0, s1, s2), d in weight._terms.items():
            s0 += shift
            for (e0, e1, e2), c in terms:
                e = (e0 + s0, e1 + s1, e2 + s2)
                group[e] = get(e, 0) + c * d
    acc: dict[Exponents, int] = {}
    for group in reversed(groups):
        get = group.get
        for e, c in acc.items():
            group[e] = get(e, 0) + c
            e = (e[0] + UNIT, e[1], e[2])
            group[e] = get(e, 0) - c
        acc = group
    return Polynomial(acc)


def insertion_series(v: str, memo: MemoTable | None = None) -> FracPoly:
    """The Poincare series computed by the insertion recursion.

    Steps on normalized polynomials, the values ``memo`` receives, and
    returns the result over (1-q)^zeros(v).  Independent of
    :func:`poincare_series` in its rules and its arithmetic: the two routes
    share only the work-list driver.  Their equality is a verification suite.
    """
    key = _key(v)
    num = _evaluate(key, memo, _insertion_deps, _insertion_step)
    return FracPoly(num, [ONE_MINUS_Q] * key.count("0"))


def zero_expansion_identity(n: int, memo: MemoTable | None = None) -> bool:
    """Check (1 - q^n) f(0^n) = (1 + q + ... + q^(n-1)) f(1 0^(n-1)).

    This is the identity obtained by expanding the all-zeroes sequence with
    the insertion recursion instead of treating it as a special case; it must
    hold identically.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if memo is None:
        memo = MemoTable()
    lhs = (ONE - Polynomial.term(1, q=n)) * poincare_series("0" * n, memo)
    geom = Polynomial({(UNIT * i, 0, 0): 1 for i in range(n)})
    rhs = geom * poincare_series("1" + "0" * (n - 1), memo)
    return lhs == rhs


def full_twist_series(n: int, qmax: int, memo: MemoTable | None = None) -> Polynomial:
    """Truncated homology series of the n-strand full twist closure.

    Without ``memo``, and with qmax below the q-degree bound of P(0^n), the
    recursion steps on the series f itself, cut at q^qmax
    (:class:`_SeriesLayout`), when that steps fewer bytes and holds no more
    (:func:`_series_pays`).  Otherwise it steps the whole polynomial and
    expands it over (1 - q)^n; a memo receives every key's whole polynomial.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    key = "0" * n
    if memo is not None:
        return poincare_series(key, memo).series(qmax)
    plan = _plan(key, {}, _poly_deps)
    bounds = _fill_bounds(plan[0], {})
    dq, l1 = bounds[key]
    if qmax < dq:
        # the largest row mass over the closure (see the module docstring)
        mass = 2**n * comb(qmax + n - 1, n - 1)
        if _series_pays(key, plan, bounds, qmax, mass):
            return _step_packed(key, None, _SeriesLayout(n, qmax, mass), plan)
    num = _step_packed(key, None, _Layout(n, dq, l1), plan)
    return FracPoly(num, [ONE_MINUS_Q] * n).series(qmax)


# ---------------------------------------------------------------------------
# memo cache files


# the share of a cache's keys that :func:`load_cache` recomputes
_SPOT_CHECK_RATE = 0.05


def save_cache(path: str, memo: MemoTable) -> None:
    """Write a memo of normalized polynomials as a JSON bit-string map.

    The file holds one JSON object, its keys sorted, followed by a newline.
    It is written under a temporary name in the same directory and then
    renamed over ``path``, so a crash or a concurrent writer never leaves a
    partial cache behind.
    """
    # Unique among live writers; a stale file of a dead writer is overwritten.
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({k: poly_to_obj(memo[k]) for k in sorted(memo)}))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_cache(path: str) -> MemoTable:
    """Load a memo cache, revalidating a deterministic sample of entries.

    Text that is not JSON, or an integer past ``int``'s digit limit,
    raises :class:`ParseError`.  Each sampled key is recomputed from scratch
    (without a memo) and compared; a mismatch raises :class:`MemoDivergence`.
    The sample is an even stride over the sorted keys, ``_SPOT_CHECK_RATE``
    of them (at least one).  Then every entry must fit its key's a-priori
    bounds (whole exponents inside the degree bounds, L1 norm within the L1
    bound), or :class:`EntryOutOfBounds` names it.  An entry outside the
    sample is returned only for its own key: :func:`poincare_poly` never
    reads it for another key.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = _json_loads(fh.read())
    if not isinstance(data, dict):
        raise ParseError("cache must be a JSON object", 0)
    memo = MemoTable()
    for key, obj in data.items():
        if key.strip("01"):
            raise ParseError(f"bad cache key {key!r}", 0)
        memo[key] = poly_from_obj(obj)
    keys = sorted(memo)
    count = max(1, round(len(keys) * _SPOT_CHECK_RATE))
    stride = max(1, len(keys) // count)
    for key in keys[::stride][:count]:
        if poincare_poly(key) != memo[key]:
            raise MemoDivergence(
                f"cache entry {key!r} disagrees with a fresh computation"
            )
    bounds: dict[str, tuple[int, int]] = {}
    for key, value in memo.items():
        dq, l1 = _poly_bounds(key, bounds)
        _Layout(len(key), dq, l1).slots(key, value, l1)
    return memo
