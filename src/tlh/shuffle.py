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
``P(v.0) = p1 + ((p0 - p1) << SQ)``, SA and SQ being the a and q strides,
the latter reduced to the layout's K bits: ``r &= M; r -= F if r >= H``
with M = 2^K - 1, F = 2^K and H = 2^(K - 1), once r has left them.

Exactness rule.  The layout is fixed before any step from a-priori bounds
propagated over the closure of the target key: deg_a <= |v|; deg_t <=
|v|(|v| - 1)/2, since v.1 adds ones(v) <= |v| and the other rules keep the
length; deg_q grows by one per v.0 step; and the L1 norm obeys
|P(v.1)| <= 2 |P(v)| and |P(v.0)| <= |P(0 v)| + 2 |P(1 v)|.  Every bound
only grows toward the target, so the target's layout holds every key of its
closure, and b is the fewest bytes that hold the target's L1 bound plus a
sign: no field can overflow, and nothing is guessed.  The layout holds
q-rows 0..dq, dq being the target's q-degree bound, and then the reduction
of the v.0 step is the identity.  A memo-less :func:`full_twist_series`
cuts dq at its qmax instead: every step is ring-linear with non-negative
q-shifts (the a- and t-shifts stay inside a q-row), so the rows up to the
cut stay exact when each v.0 step drops the rows above it, and the series
up to q^qmax reads no other row.  Such cut values never reach a memo.
Values are packed only by stepping, from P(empty) = 1, and unpacked only at
the boundaries: an insertion into a caller's memo, and the return value.
Before any step the run's peak packed working set is estimated from the
closure alone, and a run whose estimate exceeds physical memory fails with
:class:`MemoryBudgetExceeded`; so does a closure walk whose own state
outgrows physical memory, as soon as it does.

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
from .serialize import ParseError, poly_from_obj, poly_to_obj

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


def _peak_live(needs: dict, users: dict) -> int:
    """Most values alive at once as ``_evaluate`` steps ``needs`` (no hits)."""
    left = dict(users)
    live = peak = 0
    for ds in needs.values():
        live += 1
        peak = max(peak, live)
        for d in ds:
            left[d] -= 1
            live -= not left[d]
    return peak


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
        need = _peak_live(needs, users) * value_bytes
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


class _Layout:
    """The packed-integer layout of one run (see the module docstring)."""

    def __init__(self, n: int, dq: int, l1: int):
        b = self.b = (l1.bit_length() + 8) // 8  # l1 plus a sign bit, in bytes
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
        # a v.0 step is reduced to the signed K-bit value, K = 8 nbytes; a
        # value inside (r >> (K - 1) is 0 or -1) is that value already
        self.sign = 8 * self.nbytes - 1
        self.full = 1 << 8 * self.nbytes
        self.half = self.full >> 1
        self.mask = self.full - 1
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
        r = p1 + ((work["0" + body] - p1) << self.sq)
        if r >> self.sign not in (0, -1):  # r left the layout's K bits
            r &= self.mask
            if r >= self.half:
                r -= self.full
        return r

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


def _packed_poly(
    key: str, memo: MemoTable | None = None, qmax: int | None = None
) -> Polynomial:
    """P(key), stepping its whole closure on one packed layout.

    ``memo`` is a sink, never a source: it receives the value of each key it
    lacks and no entry of it is read, so a hit deep in the closure does not
    shorten the walk (a memo holding 0^12, asked for 0^12 1, steps the
    closure of 0^12 again).  ``qmax`` (memo-less only) cuts the layout at
    q-row qmax: the result is exact up to q^qmax and holds no term above.
    """
    plan = _plan(key, {}, _poly_deps)
    dq, l1 = _fill_bounds(plan[0], {})[key]
    layout = _Layout(len(key), dq if qmax is None else min(dq, qmax), l1)
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

    Without ``memo`` the recursion itself stops at q^qmax; a memo receives
    every key's whole polynomial.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    if memo is not None:
        return poincare_series("0" * n, memo).series(qmax)
    return FracPoly(_packed_poly("0" * n, qmax=qmax), [ONE_MINUS_Q] * n).series(qmax)


# ---------------------------------------------------------------------------
# memo cache files


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


def load_cache(path: str, spot_check_rate: float = 0.05) -> MemoTable:
    """Load a memo cache, revalidating a deterministic sample of entries.

    Each sampled key is recomputed from scratch (without a memo) and
    compared; a mismatch raises :class:`MemoDivergence`.  The sample is an
    even stride over the sorted keys, ``spot_check_rate`` of them (at least
    one, unless the rate is 0).  Then every entry must fit its key's
    a-priori bounds (whole exponents inside the degree bounds, L1 norm
    within the L1 bound), or :class:`EntryOutOfBounds` names it.  A rate of
    0 skips both checks; an unchecked entry is then returned only for its
    own key, and :func:`poincare_poly` never reads it for another key.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParseError("cache must be a JSON object", 0)
    memo = MemoTable()
    for key, obj in data.items():
        if key.strip("01"):
            raise ParseError(f"bad cache key {key!r}", 0)
        memo[key] = poly_from_obj(obj)
    if memo and spot_check_rate > 0:
        keys = sorted(memo)
        count = max(1, round(len(keys) * spot_check_rate))
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
