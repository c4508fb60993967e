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
monomial: each step is a shift-and-add over the terms of values already in
the memo (:meth:`Polynomial.add_shifted`), never a general product.

The rational series attaches a (1-q) denominator factor per zero.  The same
series is computed a second, independent way by the insertion recursion:
expand over all words w of length #zeroes(v), inserting w into the zeroes of
v, with a product of (t^j + a) weights per one of v.  Agreement of the two
routes is a core self-check of the whole engine.  The routes share only the
fraction arithmetic and one work-list driver (``_evaluate``); each keeps its
own dependency and step rules.

Values are memoized per bit-string.  The memo admits concurrent lookup and
idempotent insertion; inserting a different value under an existing key is a
fatal invariant violation.  The driver runs an explicit work list rather than
native recursion, so long sequences do not hit the interpreter stack limit.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from dataclasses import dataclass
from itertools import product
from typing import Union

from .poly import (
    A,
    ONE,
    ONE_MINUS_Q,
    UNIT,
    FracPoly,
    Polynomial,
)
from .serialize import ParseError, poly_from_obj, poly_to_obj

__all__ = [
    "IncompatiblePair",
    "MemoDivergence",
    "ShuffleSeq",
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


@dataclass(frozen=True)
class ShuffleSeq:
    """A binary sequence with its derived statistics."""

    bits: str

    def __post_init__(self):
        if self.bits.strip("01"):
            raise ValueError(f"not a binary sequence: {self.bits!r}")

    @property
    def ones(self) -> int:
        return self.bits.count("1")

    @property
    def zeros(self) -> int:
        return self.bits.count("0")

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.bits


Seq = Union[ShuffleSeq, str]


def _key(v: Seq) -> str:
    bits = v.bits if isinstance(v, ShuffleSeq) else v
    if bits.strip("01"):
        raise ValueError(f"not a binary sequence: {bits!r}")
    return bits


def all_sequences(length: int) -> list[str]:
    return ["".join(bits) for bits in product("01", repeat=length)]


def _check_compatible(v: str, w: str) -> None:
    if len(w) != v.count("0"):
        raise IncompatiblePair(
            f"w has length {len(w)}, but v={v!r} has {v.count('0')} zeroes"
        )


def _inserted_positions(v: str, w: str) -> list[int]:
    """0-based positions of v's zeroes that w turns on."""
    out = []
    j = 0
    for i, bit in enumerate(v):
        if bit == "0":
            if w[j] == "1":
                out.append(i)
            j += 1
    return out


def insert_into_zeros(v: Seq, w: Seq) -> ShuffleSeq:
    """Overlay w onto the zero positions of v."""
    v, w = _key(v), _key(w)
    _check_compatible(v, w)
    it = iter(w)
    return ShuffleSeq("".join(b if b == "1" else next(it) for b in v))


def crossings(v: Seq, w: Seq) -> int:
    """Pairs i < j with a one of v at i and an inserted one of w at j."""
    v, w = _key(v), _key(w)
    _check_compatible(v, w)
    total = 0
    ones_seen = 0
    j = 0
    for bit in v:
        if bit == "1":
            ones_seen += 1
        else:
            if w[j] == "1":
                total += ones_seen
            j += 1
    return total


def insertion_weight(v: Seq, w: Seq) -> Polynomial:
    """Product over the ones of v of (t^(l+m) + a).

    l counts ones of v strictly to the left of the position, m counts
    inserted ones of w strictly to the right.  Empty product is 1.
    """
    v, w = _key(v), _key(w)
    _check_compatible(v, w)
    inserted = _inserted_positions(v, w)
    result = ONE
    ones_seen = 0
    remaining = len(inserted)
    j = 0
    for i, bit in enumerate(v):
        while j < len(inserted) and inserted[j] <= i:
            j += 1
            remaining -= 1
        if bit == "1":
            result = result * (Polynomial.term(1, t=ones_seen + remaining) + A)
            ones_seen += 1
    return result


class MemoTable(dict):
    """Bit-string keyed memo with idempotent insertion.

    Safe for concurrent lookup and insertion; duplicated computation of the
    same key is fine, divergent values are not.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()

    def insert(self, key: str, value) -> None:
        with self._lock:
            if key not in self:
                self[key] = value
            elif self[key] != value:
                raise MemoDivergence(f"memo diverges at key {key!r}")


def _evaluate(key: str, memo: MemoTable | None, deps, step):
    """Fill ``memo`` up to ``key`` with an explicit work list, not recursion.

    ``deps(k)`` names the keys that ``step(k, memo)`` reads; a key is stepped
    only once all of them are in the memo.
    """
    if memo is None:
        memo = MemoTable()
    stack = [key]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        missing = [d for d in deps(top) if d not in memo]
        if missing:
            stack.extend(missing)
        else:
            memo.insert(top, step(top, memo))
            stack.pop()
    return memo[key]


def _poly_deps(key: str) -> tuple[str, ...]:
    if not key:
        return ()
    if key.endswith("1"):
        return (key[:-1],)
    if "1" not in key:
        return ("1" + key[1:],)
    body = key[:-1]
    return ("0" + body, "1" + body)


def _poly_step(key: str, memo: MemoTable) -> Polynomial:
    if not key:
        return ONE
    if key.endswith("1"):
        body = key[:-1]
        p = memo[body]
        return p.shifted((0, 0, UNIT * body.count("1"))).add_shifted(p, (0, UNIT, 0))
    if "1" not in key:
        return memo["1" + key[1:]]
    body = key[:-1]
    p1 = memo["1" + body]
    return p1.add_shifted(memo["0" + body].add_shifted(p1, (0, 0, 0), -1), (UNIT, 0, 0))


def poincare_poly(v: Seq, memo: MemoTable | None = None) -> Polynomial:
    """The normalized Poincare polynomial of a shuffle sequence.

    Equals (1-q)^zeros(v) times the rational series; always a polynomial.
    The recursion terminates because each rewrite strictly descends in
    (length, number of zeroes, number of inversions).
    """
    return _evaluate(_key(v), memo, _poly_deps, _poly_step)


def poincare_series(v: Seq, memo: MemoTable | None = None) -> FracPoly:
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


def _insertion_step(key: str, memo: MemoTable) -> FracPoly:
    if not key:
        return FracPoly(ONE)
    if "1" not in key:
        return memo["1" + key[1:]].divided_by_factor((0, 0, 0), (UNIT, 0, 0))
    parts = []
    for w in all_sequences(key.count("0")):
        shift = Polynomial.term(1, q=w.count("0"))
        parts.append((insertion_weight(key, w) * shift) * memo[w])
    return FracPoly.sum(parts)


def insertion_series(v: Seq, memo: MemoTable | None = None) -> FracPoly:
    """The Poincare series computed by the insertion recursion.

    Independent of :func:`poincare_series` in its rules: the two routes share
    only the fraction arithmetic and the work-list driver that orders the
    evaluation.  Equality of the two is exposed as a verification suite.
    """
    return _evaluate(_key(v), memo, _insertion_deps, _insertion_step)


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
    """Truncated homology series of the n-strand full twist closure."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return poincare_series("0" * n, memo).series(qmax)


# ---------------------------------------------------------------------------
# memo cache files


def save_cache(path: str, memo: MemoTable) -> None:
    """Write a memo of normalized polynomials as a JSON bit-string map.

    The file is written under a temporary name in the same directory and
    then renamed over ``path``, so a crash or a concurrent writer never
    leaves a partial cache behind.
    """
    data = {key: poly_to_obj(memo[key]) for key in sorted(memo)}
    # Unique among live writers; a stale file of a dead writer is overwritten.
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_cache(
    path: str,
    memo: MemoTable | None = None,
    spot_check_rate: float = 0.05,
) -> MemoTable:
    """Load a memo cache, revalidating a deterministic sample of entries.

    Each sampled key is recomputed from scratch (in a cache-free table) and
    compared; a mismatch raises :class:`MemoDivergence`.  The sample is an
    even stride over the sorted keys, ``spot_check_rate`` of them (at least
    one, unless the rate is 0).
    """
    if memo is None:
        memo = MemoTable()
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParseError("cache must be a JSON object", 0)
    entries: dict[str, Polynomial] = {}
    for key, obj in data.items():
        if key.strip("01"):
            raise ParseError(f"bad cache key {key!r}", 0)
        entries[key] = poly_from_obj(obj)
    if entries and spot_check_rate > 0:
        keys = sorted(entries)
        count = max(1, round(len(keys) * spot_check_rate))
        stride = max(1, len(keys) // count)
        fresh = MemoTable()
        for key in keys[::stride][:count]:
            if poincare_poly(key, fresh) != entries[key]:
                raise MemoDivergence(
                    f"cache entry {key!r} disagrees with a fresh computation"
                )
    for key, value in entries.items():
        memo.insert(key, value)
    return memo
