"""Exact sparse Laurent arithmetic in the three grading variables q, a, t.

Every quantity in this package is a Laurent polynomial (or a fraction of
them) in q, a, t with arbitrary-precision integer coefficients.  Exponents
live on a fixed quarter-integer lattice and are stored as integer counts of
quarter units, so ``q^(1/2)`` has q-units 2 and ``t^(-3/4)`` has t-units -3.
The quarter lattice is the finest ever needed (half powers of q and t appear
in reduced superpolynomials, quarter powers only in normalization
prefactors), and using it globally keeps the representation uniform.

Coefficients are plain Python ints, never rationals: all divisions performed
anywhere in the engine are exact, and a division that fails raises
:class:`NonExactDivision` instead of silently producing a fraction.  A failed
exact division is how a violated identity announces itself.  There is one
division loop, :meth:`BinomialFactor._power_sums`: it groups the terms into
residue classes along the divisor's direction once, then divides by each
power of the divisor with one running sum per class.  Stopped at each
class's last key it is exact division by the largest power that divides
(:meth:`BinomialFactor.divide_power`, whose first power is
:meth:`BinomialFactor.quotient`), and run on to a bound it is the truncated
:meth:`FracPoly.series`.  Every divisor the engine meets is a difference of
two monomials, except the ``1 + a`` of the unknot, which the sign change
a -> -a turns into one.

Multiplying by such a binomial is never a general product either:
:meth:`BinomialFactor.times` adds two shifted copies of the terms.  It is
how :meth:`FracPoly.sum` brings numerators to a common denominator, and
that sum is a balanced fold of sums of two, each reduced, so no numerator
is carried over the common denominator of all the fractions at once.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, groupby, repeat
from operator import or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from . import budget

__all__ = [
    "NonExactDivision",
    "NotASeries",
    "NotPolynomial",
    "NonIntegralPower",
    "Exponents",
    "UNIT",
    "Polynomial",
    "BinomialFactor",
    "ONE_MINUS_Q",
    "FracPoly",
    "ZERO",
    "ONE",
    "Q",
    "A",
    "T",
]

# Exponent vector in quarter units of (q, a, t).
Exponents = tuple[int, int, int]

UNIT = 4  # quarter units per whole power

ExponentLike = Union[int, Fraction]


class NonExactDivision(ArithmeticError):
    """Polynomial division left a remainder where an exact result was required."""


class NotASeries(ValueError):
    """Fraction denominator is not a product of (1 - q^j) factors."""


class NotPolynomial(ValueError):
    """Fraction failed to cancel down to a polynomial."""


class NonIntegralPower(ValueError):
    """A specialization asked for a fractional power of -1."""


def _units(x: ExponentLike) -> int:
    """Convert a whole/half/quarter exponent to integer quarter units."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"exponent must be an int or Fraction, not {type(x).__name__}")
    u = x * UNIT
    if isinstance(u, Fraction):
        if u.denominator != 1:
            raise ValueError(f"exponent {x} is not on the quarter lattice")
        return int(u)
    return u


def _factor_key(e: Exponents) -> tuple[int, int, int]:
    # Monomial order used to orient binomial factors: the factor's lead
    # monomial is the one with the smaller (et, eq, ea) tuple, so (1 - q),
    # (1 - q^j) and (t - tq) all keep their printed orientation.
    return (e[2], e[0], e[1])


def _exp_str(name: str, units: int, latex: bool = False) -> str:
    if units == UNIT:
        return name
    if units % UNIT == 0:
        n = units // UNIT
        if latex:
            return f"{name}^{{{n}}}"
        return f"{name}^{n}" if n > 1 else f"{name}^({n})"
    frac = Fraction(units, UNIT)
    if latex:
        return f"{name}^{{{frac.numerator}/{frac.denominator}}}"
    return f"{name}^({frac.numerator}/{frac.denominator})"


def _exp_vector(exp: Exponents) -> str:
    """Render quarter units as whole/fractional powers, e.g. "(1/4, -1, 0)"."""
    return "(" + ", ".join(str(Fraction(u, UNIT)) for u in exp) + ")"


def _term_str(
    exp: Exponents, coeff: int, latex: bool = False, powers: tuple | None = None
) -> tuple[int, str]:
    """Render one term; returns (sign, unsigned body).

    ``powers``, one dict per variable, keeps its exponent strings by units
    across the terms of one rendering.
    """
    powers = powers or ({}, {}, {})
    parts = []
    for name, units, seen in zip("qat", exp, powers):
        if units:
            power = seen.get(units)
            if power is None:
                power = seen[units] = _exp_str(name, units, latex)
            parts.append(power)
    mag = abs(coeff)
    if mag != 1 or not parts:
        parts.insert(0, str(mag))
    return (1 if coeff > 0 else -1), " ".join(parts)


class Polynomial:
    """Immutable sparse Laurent polynomial in q, a, t.

    Terms are held as a map from quarter-unit exponent vectors to nonzero
    integer coefficients.  Canonical term order (used by ``terms()`` and all
    serializers) is lexicographic on (q, a, t) units, ascending.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        self._terms = {e: c for e, c in terms.items() if c} if terms else {}
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def term(
        cls,
        coeff: int,
        q: ExponentLike = 0,
        a: ExponentLike = 0,
        t: ExponentLike = 0,
    ) -> "Polynomial":
        """Single term ``coeff * q^q a^a t^t`` (exponents may be Fractions)."""
        return cls({(_units(q), _units(a), _units(t)): coeff})

    @classmethod
    def _trusted(cls, terms: dict[Exponents, int]) -> "Polynomial":
        # Adopts ``terms`` without copying or filtering: the caller owns the
        # dict and guarantees that no coefficient in it is zero.
        p = cls.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, int]]:
        """Yield (exponents, coefficient) pairs in canonical order."""
        for exp in sorted(self._terms):
            yield exp, self._terms[exp]

    def units(self) -> Mapping[Exponents, int]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient_sum(self) -> int:
        """Value at q = a = t = 1; cheap transcription checksum."""
        return sum(self._terms.values())

    def unit_range(self, var: str) -> tuple[int, int] | None:
        """(min, max) exponent of ``var`` in quarter units, or None if zero."""
        if not self._terms:
            return None
        i = "qat".index(var)
        us = [e[i] for e in self._terms]
        return min(us), max(us)

    def coefficient_of_a(self, k: int) -> "Polynomial":
        """Collect terms with a-exponent exactly k (whole units), dropping a."""
        ka = k * UNIT
        return Polynomial(
            {(eq, 0, et): c for (eq, ea, et), c in self._terms.items() if ea == ka}
        )

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial({(0, 0, 0): other})
        return None

    def __add__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if not p._terms:
            return self
        out = dict(self._terms)
        for exp, coeff in p._terms.items():
            c = out.get(exp, 0) + coeff
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
        return Polynomial._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if not self._terms or not p._terms:
            return ZERO
        small, big = (self._terms, p._terms)
        if len(small) > len(big):
            small, big = big, small
        out: dict[Exponents, int] = {}
        for (e0, e1, e2), c in small.items():
            for (f0, f1, f2), d in big.items():
                exp = (e0 + f0, e1 + f1, e2 + f2)
                v = out.get(exp, 0) + c * d
                if v:
                    out[exp] = v
                else:
                    del out[exp]
        return Polynomial._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shifted(self, exp: Exponents) -> "Polynomial":
        """Multiply by the monic monomial with the given quarter units."""
        dq, da, dt = exp
        return Polynomial._trusted(
            {(eq + dq, ea + da, et + dt): c for (eq, ea, et), c in self._terms.items()}
        )

    def swap_qt(self) -> "Polynomial":
        return Polynomial(
            {(et, ea, eq): c for (eq, ea, et), c in self._terms.items()}
        )

    # -- comparison / rendering ----------------------------------------

    def __eq__(self, other) -> bool:
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self._terms == p._terms

    def __hash__(self) -> int:
        # A constant equals its int (ZERO equals 0), so it must hash like one.
        if self._hash is None:
            terms = self._terms
            if not terms:
                self._hash = hash(0)
            elif len(terms) == 1 and (0, 0, 0) in terms:
                self._hash = hash(terms[(0, 0, 0)])
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

    def text(self, latex: bool = False) -> str:
        if not self._terms:
            return "0"
        chunks = []
        powers = ({}, {}, {})
        for n, (exp, coeff) in enumerate(self.terms()):
            sign, body = _term_str(exp, coeff, latex, powers)
            if n == 0:
                chunks.append(body if sign > 0 else "-" + body)
            else:
                chunks.append((" + " if sign > 0 else " - ") + body)
        return "".join(chunks)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"


class BinomialFactor(NamedTuple):
    """A difference of two monic monomials, ``lead - trail``.

    Normalized so the lead monomial precedes the trail in the fixed factor
    order (lex on (t, q, a) units); orientation flips are absorbed as a sign
    on the owning fraction's numerator.  These are the only denominators the
    engine ever needs, which is why no general factorization or gcd exists
    here, and why dividing by a whole power f^j is one grouping of the
    terms plus a prefix sum per class and power (:meth:`_power_sums`)
    rather than general long division.  That one loop serves exact
    division (:meth:`divide_power`, :meth:`quotient`) and power series
    (:meth:`FracPoly.series`); the one other divisor, the ``1 + a`` of the
    unknot, is divided as ``1 - a`` after a -> -a.
    """

    lead: Exponents
    trail: Exponents

    @staticmethod
    def normalize(m1: Exponents, m2: Exponents) -> tuple["BinomialFactor", int]:
        """Orient ``m1 - m2``; returns (factor, sign) with sign = +1 or -1."""
        if m1 == m2:
            raise ValueError("degenerate binomial factor")
        if _factor_key(m1) < _factor_key(m2):
            return BinomialFactor(m1, m2), 1
        return BinomialFactor(m2, m1), -1

    def poly(self) -> Polynomial:
        return Polynomial({self.lead: 1, self.trail: -1})

    def times(self, p: Polynomial) -> Polynomial:
        """``p * (lead - trail)``: p shifted by the lead minus p shifted by the trail.

        Two passes over p's terms, where ``p * self.poly()`` would be a
        general product; a term of the trail copy that cancels one of the
        lead copy is dropped.
        """
        l0, l1, l2 = self.lead
        t0, t1, t2 = self.trail
        terms = p._terms
        out = {(e0 + l0, e1 + l1, e2 + l2): c for (e0, e1, e2), c in terms.items()}
        get = out.get
        for (e0, e1, e2), c in terms.items():
            e = (e0 + t0, e1 + t1, e2 + t2)
            v = get(e, 0) - c
            if v:
                out[e] = v
            else:
                del out[e]
        return Polynomial._trusted(out)

    def quotient(self, p: Polynomial) -> Polynomial | None:
        """Exact quotient ``p / (lead - trail)``, or None if it is not exact.

        The first power of :meth:`divide_power`.
        """
        quo, left = self.divide_power(p, 1)
        return None if left else quo

    def divide_power(self, p: Polynomial, mult: int) -> tuple[Polynomial, int]:
        """Divide ``p`` by the largest power f^j, j <= ``mult``, that divides it.

        Returns ``(p / f^j, mult - j)``, with ``p`` itself when j = 0.
        Failing is the common case, so the first power is decided before
        anything is built: a multiple of a binomial vanishes at
        q = a = t = 1, which rejects most inputs by their coefficient sum
        alone.  The rest is one :meth:`_power_sums` pass.
        """
        terms = p._terms
        if not terms:
            return p, 0
        if not mult or sum(terms.values()):
            return p, mult
        out, j = self._power_sums(terms, mult)
        return (Polynomial._trusted(out) if j else p), mult - j

    def _walk(self) -> tuple[int, int, int, int, int]:
        # (d0, d1, d2, axis, step): d = trail - lead, walked along its first
        # nonzero coordinate, whose value is the step
        lead, trail = self
        d = (trail[0] - lead[0], trail[1] - lead[1], trail[2] - lead[2])
        axis = 0 if d[0] else (1 if d[1] else 2)
        return (*d, axis, d[axis])

    def _power_sums(
        self, terms: dict[Exponents, int], mult: int, stop: int | None = None
    ) -> tuple[dict[Exponents, int], int]:
        """Terms of ``terms / (lead - trail)^j`` and j, by prefix sums per class.

        With d = trail - lead the factor is x^lead (1 - x^d).  Writing each
        term's exponent as base + k*d splits the terms into residue classes
        along d, grouped once.  Dividing a class by (1 - x^d) is its prefix
        sum: the quotient's coefficient at k is Q_k = sum of P_i over
        i <= k.  Without ``stop``, the power is exact when every class sums
        to zero, and the division stops at the first power that is not, so
        j is the largest power <= ``mult`` that divides.  With ``stop`` (for
        a lead of 1 and a positive step along the axis) every class runs on
        to axis coordinate ``stop`` and all ``mult`` powers are taken: the
        truncated power series of ``terms / (1 - x^d)^mult``.  The x^-lead
        shift of each power is applied once, when the keys are emitted.

        A class is a list of rows (first k, coefficients at k, k+1, ...)
        with at least one missing key between rows; each power is one
        C-level ``accumulate`` per row.  A gap across which the running sum
        is zero is never filled in, so time and memory follow the terms of
        the input and the output, not the exponent span.  The keys filled
        in, over every class and power, are charged to physical memory
        first (:func:`_fill`).
        """
        d0, d1, d2, axis, step = self._walk()
        classes: dict[Exponents, dict[int, int]] = {}
        for e, c in terms.items():
            k = e[axis] // step
            base = (e[0] - k * d0, e[1] - k * d1, e[2] - k * d2)
            run = classes.get(base)
            if run is None:
                classes[base] = {k: c}
            else:
                run[k] = c
        if stop is None and any(sum(run.values()) for run in classes.values()):
            return terms, 0  # the first power fails, before any row is built
        rows = {base: _rows(run) for base, run in classes.items()}
        room = budget._memory_budget()  # what the keys filled in may take
        j = 0
        while j < mult:
            nxt = {}
            for base, segs in rows.items():
                kmax = None if stop is None else (stop - base[axis]) // step
                segs, room = _prefix_sums(segs, kmax, room)
                if segs is None:
                    break
                nxt[base] = segs
            if len(nxt) < len(rows):
                break
            rows = nxt
            j += 1
        l0, l1, l2 = self.lead
        out: dict[Exponents, int] = {}
        for (b0, b1, b2), segs in rows.items():
            b0 -= j * l0
            b1 -= j * l1
            b2 -= j * l2
            for k, row in segs:
                for m, c in enumerate(row, k):
                    if c:
                        out[b0 + m * d0, b1 + m * d1, b2 + m * d2] = c
        return out, j

    def text(self, latex: bool = False) -> str:
        _, lead = _term_str(self.lead, 1, latex)
        _, trail = _term_str(self.trail, 1, latex)
        return f"({lead} - {trail})"


ONE_MINUS_Q = BinomialFactor((0, 0, 0), (UNIT, 0, 0))


def _rows(run: dict[int, int]) -> list[tuple[int, list[int]]]:
    """One residue class as rows of consecutive keys (see ``_power_sums``)."""
    rows: list[tuple[int, list[int]]] = []
    prev = None
    for k in sorted(run):
        if k - 1 == prev:
            row.append(run[k])
        else:
            row = [run[k]]
            rows.append((k, row))
        prev = k
    return rows


# What a key filled in by a running sum holds, its output term among it:
# 172 to 184 bytes at the tracemalloc peak of tableau_sum(2, r), whose
# quotients fill in 6 r keys, r = 10^4..3 10^5 (Python 3.11).
_FILLED_BYTES_PER_KEY = 192


def _fill(row: list[int], carry: int, keys: int, room: int) -> int:
    """``row`` extended by ``keys`` copies of ``carry``: what is left of ``room``.

    ``room`` is bytes of physical memory; a fill that would take it below 0
    is refused by name before it is made.
    """
    room -= keys * _FILLED_BYTES_PER_KEY
    if room < 0:
        need = budget._memory_budget() - room
        budget._room("the running sums of a quotient", {"keys filled in": need})
    row.extend(repeat(carry, keys))
    return room


def _prefix_sums(
    rows: list[tuple[int, list[int]]], kmax: int | None, room: int
) -> tuple[list[tuple[int, list[int]]] | None, int]:
    """One class divided by (1 - x^d) once, or None if that is not exact.

    The running sum is carried from row to row; where it is nonzero across
    a gap, the gap is filled with it and the rows merge.  Without ``kmax``
    the class must sum to zero, which is checked before any row grows (a
    class that does not would carry its sum across every gap); with
    ``kmax`` the sum runs on to key ``kmax``.  Returned with what the
    fills (:func:`_fill`) leave of ``room``.
    """
    if kmax is None and len(rows) > 1 and sum(sum(row) for _, row in rows):
        return None, room
    out: list[tuple[int, list[int]]] = []
    carry = 0
    for k, coeffs in rows:
        if carry:
            k0, row = out[-1]
            # the gap's last key takes the accumulate's initial value
            room = _fill(row, carry, k - k0 - len(row) - 1, room)
            row.extend(accumulate(coeffs, initial=carry))
        else:
            row = list(accumulate(coeffs))
            out.append((k, row))
        carry = row[-1]
    if carry:
        if kmax is None:
            return None, room
        k0, row = out[-1]
        room = _fill(row, carry, kmax - k0 - len(row) + 1, room)
    return out, room


def _times(p: Polynomial, factors: Iterable[BinomialFactor]) -> Polynomial:
    """``p`` times each of ``factors``, by :meth:`BinomialFactor.times`."""
    for f in factors:
        p = f.times(p)
    return p


class FracPoly:
    """A Laurent polynomial over a factored denominator.

    The denominator is a multiset of binomial factors, never expanded.
    Construction reduces: each distinct factor is cancelled to the largest
    power that divides the numerator in one grouped pass
    (:meth:`BinomialFactor.divide_power`), so a FracPoly with an empty
    denominator really is a polynomial.  Dividing by one more factor is
    building a FracPoly with that factor appended to the denominator.  Two
    fractions are added over their least common denominator, each
    numerator multiplied by the binomials it lacks; a longer sum is a
    balanced fold of such pairs.  Two fractions are equal when the
    numerator of their difference is zero.  FracPoly serves where
    denominators are general (tableau weights) and at the series boundary;
    the sequence recursions step on normalized polynomials instead.
    """

    __slots__ = ("_num", "_den")

    def __init__(
        self,
        num: Polynomial | int,
        den: Iterable[BinomialFactor] = (),
    ):
        p = Polynomial._coerce(num)
        if p is None:
            raise TypeError("numerator must be a Polynomial or int")
        factors = []
        if p._terms:
            # once f^(j+1) fails to divide, dividing by other factors cannot
            # make it divide, so a single pass reduces fully
            for f, run in groupby(sorted(den)):
                p, left = f.divide_power(p, len(list(run)))
                factors += [f] * left
        self._num = p
        self._den = tuple(factors)

    @classmethod
    def over_binomials(
        cls,
        num: Polynomial | int,
        pairs: Iterable[tuple[Exponents, Exponents]],
    ) -> "FracPoly":
        """Build num / prod(m1 - m2), orienting each factor and folding signs."""
        p = Polynomial._coerce(num)
        factors = []
        for m1, m2 in pairs:
            f, sign = BinomialFactor.normalize(m1, m2)
            if sign < 0:
                p = -p
            factors.append(f)
        return cls(p, factors)

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> tuple[BinomialFactor, ...]:
        return self._den

    def den_poly(self) -> Polynomial:
        out = ONE
        for f in self._den:
            out = out * f.poly()
        return out

    @property
    def is_polynomial(self) -> bool:
        return not self._den

    def as_polynomial(self) -> Polynomial:
        if self._den:
            raise NotPolynomial(f"denominator {self._den_text()} did not cancel")
        return self._num

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "FracPoly | None":
        if isinstance(other, FracPoly):
            return other
        p = Polynomial._coerce(other)
        if p is None:
            return None
        return FracPoly(p)

    def __mul__(self, other) -> "FracPoly":
        f = self._coerce(other)
        if f is None:
            return NotImplemented
        return FracPoly(self._num * f._num, self._den + f._den)

    __rmul__ = __mul__

    def __neg__(self) -> "FracPoly":
        return FracPoly(-self._num, self._den)

    def __add__(self, other) -> "FracPoly":
        f = self._coerce(other)
        if f is None:
            return NotImplemented
        return FracPoly._add(self, f)

    __radd__ = __add__

    def __sub__(self, other) -> "FracPoly":
        f = self._coerce(other)
        if f is None:
            return NotImplemented
        return FracPoly._add(self, -f)

    def __rsub__(self, other) -> "FracPoly":
        f = self._coerce(other)
        if f is None:
            return NotImplemented
        return FracPoly._add(f, -self)

    @classmethod
    def sum(cls, fractions: Iterable["FracPoly"]) -> "FracPoly":
        """Exact sum, reduced over the least common denominator multiset.

        The value is taken by a balanced fold of sums of two (:meth:`_fold`).
        Reduced form is not canonical, and a pair's reduction can cancel a
        factor that the whole sum would keep.  A folded sum that kept a
        denominator but lost such a factor is brought back to the common
        denominator of all the fractions and reduced from there, so the
        result is the same for every order of the fractions.  A sum that is
        a polynomial needs no such step, nor does a sum of two, which would
        rebuild the very fraction that :meth:`_add` reduced.
        """
        items = []
        for f in fractions:
            coerced = cls._coerce(f)
            if coerced is None:
                raise TypeError(f"cannot sum {type(f).__name__} as a fraction")
            items.append(coerced)
        if not items:
            return cls(ZERO)
        common = reduce(or_, (Counter(f._den) for f in items))
        out = cls._fold(items)
        missing = common - Counter(out._den)
        if out._den and missing:
            out = cls(_times(out._num, missing.elements()), common.elements())
        return out

    @classmethod
    def _fold(cls, items: list["FracPoly"]) -> "FracPoly":
        """The sum of ``items``, at least one, reduced by each pair's :meth:`_add`.

        Each round adds neighbours in pairs, an odd last one passing on as
        it is, so no numerator is carried over every fraction's common
        denominator; which reduced form it ends in depends on the order.
        """
        while len(items) > 1:
            pairs = [cls._add(x, y) for x, y in zip(items[::2], items[1::2])]
            items = pairs + items[len(pairs) * 2:]
        return items[0]

    @classmethod
    def _add(cls, x: "FracPoly", y: "FracPoly") -> "FracPoly":
        """``x + y`` over their least common denominator multiset, reduced.

        Each numerator is multiplied by every factor it lacks.
        """
        dx, dy = Counter(x._den), Counter(y._den)
        common = dx | dy
        num = _times(x._num, (common - dx).elements())
        return cls(num + _times(y._num, (common - dy).elements()), common.elements())

    def swap_qt(self) -> "FracPoly":
        num = self._num.swap_qt()
        pairs = []
        for f in self._den:
            (lq, la, lt), (tq, ta, tt) = f.lead, f.trail
            pairs.append((((lt, la, lq)), ((tt, ta, tq))))
        return FracPoly.over_binomials(num, pairs)

    # -- power series ---------------------------------------------------

    def series(self, qmax: int) -> Polynomial:
        """Truncated q-power-series expansion, exact in a and t.

        Requires every denominator factor to be (1 - q^j) with j > 0 on the
        quarter lattice; anything else raises :class:`NotASeries`.  Dividing
        a series by (1 - q^j)^m is the prefix sums of exact division
        (:meth:`BinomialFactor._power_sums`) run on to the bound, so the
        numerator is cut at ``qmax`` and each distinct factor is one more
        grouped pass.
        """
        if qmax < 0:
            raise ValueError("qmax must be >= 0")
        for f in self._den:
            if f.lead != (0, 0, 0) or f.trail[1] or f.trail[2] or f.trail[0] <= 0:
                raise NotASeries(f"denominator factor {f.text()} is not (1 - q^j)")
        bound = qmax * UNIT
        terms = {e: c for e, c in self._num._terms.items() if e[0] <= bound}
        for f, run in groupby(self._den):
            terms, _ = f._power_sums(terms, len(list(run)), stop=bound)
        return Polynomial._trusted(terms)

    # -- comparison / rendering ------------------------------------------

    def __eq__(self, other) -> bool:
        f = self._coerce(other)
        if f is None:
            return NotImplemented
        if self._den == f._den:
            return self._num == f._num
        return not FracPoly._add(self, -f)._num

    # Reduced form is not canonical ((1+q)/(1-q^2) == 1/(1-q)), so no hash
    # can agree with __eq__; FracPoly is unhashable.
    __hash__ = None

    def _den_text(self, latex: bool = False) -> str:
        if not self._den:
            return "1"
        parts = []
        for f, run in groupby(self._den):
            m = len(list(run))
            if m == 1:
                parts.append(f.text(latex))
            elif latex:
                parts.append(f"{f.text(latex)}^{{{m}}}")
            else:
                parts.append(f"{f.text(latex)}^{m}")
        return "".join(parts)

    def text(self, latex: bool = False) -> str:
        if not self._den:
            return self._num.text(latex)
        if latex:
            return f"\\frac{{{self._num.text(True)}}}{{{self._den_text(True)}}}"
        return f"({self._num.text()}) / {self._den_text()}"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"FracPoly({self.text()})"


ZERO = Polynomial()
ONE = Polynomial.term(1)
Q = Polynomial.term(1, q=1)
A = Polynomial.term(1, a=1)
T = Polynomial.term(1, t=1)
