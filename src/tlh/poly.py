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
division algorithm, a running sum along the divisor's direction: stopped at
each class's last key it is the exact :meth:`BinomialFactor.quotient`, and
run on to a bound it is the truncated :meth:`FracPoly.series`.  Every
divisor the engine meets is a difference of two monomials, except the
``1 + a`` of the unknot, which the sign change a -> -a turns into one.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

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
    "monomial",
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


def _term_str(exp: Exponents, coeff: int, latex: bool = False) -> tuple[int, str]:
    """Render one term; returns (sign, unsigned body)."""
    parts = []
    for name, units in zip("qat", exp):
        if units:
            parts.append(_exp_str(name, units, latex))
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
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    cleaned[exp] = coeff
        self._terms = cleaned
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
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({e: -c for e, c in self._terms.items()})

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
        return Polynomial(out)

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
        for n, (exp, coeff) in enumerate(self.terms()):
            sign, body = _term_str(exp, coeff, latex)
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
    here, and why dividing by one is a single prefix-sum pass
    (:meth:`_running_sums`) rather than general long division.  That one
    running sum serves both exact division (:meth:`quotient`) and power
    series (:meth:`FracPoly.series`); the one other divisor, the ``1 + a``
    of the unknot, is divided as ``1 - a`` after a -> -a.
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

    def quotient(self, p: Polynomial) -> Polynomial | None:
        """Exact quotient ``p / (lead - trail)``, or None if it is not exact.

        With d = trail - lead the factor is x^lead (1 - x^d).  Writing each
        term's exponent as base + k*d splits p into residue classes along d;
        p is divisible exactly when every class sums to zero.  Failing is the
        common case, so it is decided before anything is built: a multiple
        of a binomial vanishes at q = a = t = 1, which rejects most inputs by
        their coefficient sum alone, and the next pass only sums the classes.
        On success the quotient is :meth:`_running_sums` of p, each class's
        sum returning to zero after its last key.
        """
        terms = p._terms
        if not terms:
            return p
        if sum(terms.values()):
            return None
        d0, d1, d2, axis, step = self._walk()
        sums: dict[Exponents, int] = {}
        get = sums.get
        for e, c in terms.items():
            k = e[axis] // step
            key = (e[0] - k * d0, e[1] - k * d1, e[2] - k * d2)
            sums[key] = get(key, 0) + c
        if any(sums.values()):
            return None
        return Polynomial._trusted(self._running_sums(terms))

    def _walk(self) -> tuple[int, int, int, int, int]:
        # (d0, d1, d2, axis, step): d = trail - lead, walked along its first
        # nonzero coordinate, whose value is the step
        lead, trail = self
        d = (trail[0] - lead[0], trail[1] - lead[1], trail[2] - lead[2])
        axis = 0 if d[0] else (1 if d[1] else 2)
        return (*d, axis, d[axis])

    def _running_sums(
        self, terms: dict[Exponents, int], stop: int | None = None
    ) -> dict[Exponents, int]:
        """Terms of ``terms / (lead - trail)`` by one prefix sum per class.

        Along a class of keys base + k*d the quotient's coefficient at k is
        Q_k = sum of P_j over j <= k, constant from one key to the next, with
        the x^-lead shift folded into the emitted keys.  Without ``stop`` the
        sum ends at each class's last key, which is exact division when every
        class sums to zero.  With ``stop`` (for a positive step along the
        axis) each sum runs on to axis coordinate ``stop``: the truncated
        power series of ``terms / (1 - x^d)`` when the lead is 1.
        """
        l0, l1, l2 = self.lead
        d0, d1, d2, axis, step = self._walk()
        classes: dict[Exponents, list[tuple[int, int]]] = {}
        for e, c in terms.items():
            k = e[axis] // step
            key = (e[0] - k * d0 - l0, e[1] - k * d1 - l1, e[2] - k * d2 - l2)
            run = classes.get(key)
            if run is None:
                classes[key] = [(k, c)]
            else:
                run.append((k, c))
        out: dict[Exponents, int] = {}
        for base, run in classes.items():
            run.sort()
            if stop is not None:
                run.append(((stop - base[axis]) // step + 1, 0))
            b0, b1, b2 = base
            s = 0
            for (k, c), (k_next, _) in zip(run, run[1:]):
                s += c
                if s:
                    for m in range(k, k_next):
                        out[(b0 + m * d0, b1 + m * d1, b2 + m * d2)] = s
        return out

    def text(self, latex: bool = False) -> str:
        _, lead = _term_str(self.lead, 1, latex)
        _, trail = _term_str(self.trail, 1, latex)
        return f"({lead} - {trail})"


ONE_MINUS_Q = BinomialFactor((0, 0, 0), (UNIT, 0, 0))


class FracPoly:
    """A Laurent polynomial over a factored denominator.

    The denominator is a multiset of binomial factors, never expanded.
    Construction reduces: each factor that divides the numerator exactly is
    cancelled (one multiplicity at a time) by the one-pass prefix-sum
    :meth:`BinomialFactor.quotient`, so a FracPoly with an empty denominator
    really is a polynomial.  Dividing by one more factor is building a
    FracPoly with that factor appended to the denominator.  A sum brings
    each numerator to the common denominator one binomial at a time.
    Equality is decided by cross-multiplication.  FracPoly serves where
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
        factors = sorted(den)
        if not p._terms:
            factors = []
        else:
            kept = []
            i = 0
            while i < len(factors):
                f = factors[i]
                mult = 1
                while i + mult < len(factors) and factors[i + mult] == f:
                    mult += 1
                i += mult
                # once f fails to divide, dividing by other factors cannot
                # make it divide, so a single pass reduces fully
                while mult:
                    quo = f.quotient(p)
                    if quo is None:
                        break
                    p = quo
                    mult -= 1
                kept.extend([f] * mult)
            factors = kept
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
        return FracPoly.sum((self, f))

    __radd__ = __add__

    def __sub__(self, other) -> "FracPoly":
        f = self._coerce(other)
        if f is None:
            return NotImplemented
        return FracPoly.sum((self, -f))

    def __rsub__(self, other) -> "FracPoly":
        f = self._coerce(other)
        if f is None:
            return NotImplemented
        return FracPoly.sum((f, -self))

    @classmethod
    def sum(cls, fractions: Iterable["FracPoly"]) -> "FracPoly":
        """Exact sum over the least common denominator multiset.

        Each numerator is multiplied by every factor it lacks, one binomial
        at a time (``num x^lead - num x^trail``), and added term by term
        into one dict.
        """
        items = []
        for f in fractions:
            coerced = cls._coerce(f)
            if coerced is None:
                raise TypeError(f"cannot sum {type(f).__name__} as a fraction")
            items.append(coerced)
        dens = [Counter(f._den) for f in items]
        common = reduce(or_, dens, Counter())
        acc: dict[Exponents, int] = {}
        get = acc.get
        for f, den in zip(items, dens):
            num = f._num
            for factor in (common - den).elements():
                num = num.shifted(factor.lead) - num.shifted(factor.trail)
            for e, c in num._terms.items():
                acc[e] = get(e, 0) + c
        return cls(Polynomial(acc), common.elements())

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
        a series by (1 - q^j) is the prefix sum of exact division
        (:meth:`BinomialFactor._running_sums`) run on to the bound, so the
        numerator is cut at ``qmax`` and each factor is one more pass.
        """
        if qmax < 0:
            raise ValueError("qmax must be >= 0")
        for f in self._den:
            if f.lead != (0, 0, 0) or f.trail[1] or f.trail[2] or f.trail[0] <= 0:
                raise NotASeries(f"denominator factor {f.text()} is not (1 - q^j)")
        bound = qmax * UNIT
        terms = {e: c for e, c in self._num._terms.items() if e[0] <= bound}
        for f in self._den:
            terms = f._running_sums(terms, stop=bound)
        return Polynomial._trusted(terms)

    # -- comparison / rendering ------------------------------------------

    def __eq__(self, other) -> bool:
        f = self._coerce(other)
        if f is None:
            return NotImplemented
        if self._den == f._den:
            return self._num == f._num
        return self._num * f.den_poly() == f._num * self.den_poly()

    # Reduced form is not canonical ((1+q)/(1-q^2) == 1/(1-q)), so no hash
    # can agree with __eq__; FracPoly is unhashable.
    __hash__ = None

    def _den_text(self, latex: bool = False) -> str:
        if not self._den:
            return "1"
        groups: list[tuple[BinomialFactor, int]] = []
        for f in self._den:
            if groups and groups[-1][0] == f:
                groups[-1] = (f, groups[-1][1] + 1)
            else:
                groups.append((f, 1))
        parts = []
        for f, m in groups:
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


def monomial(
    coeff: int = 1,
    q: ExponentLike = 0,
    a: ExponentLike = 0,
    t: ExponentLike = 0,
) -> Polynomial:
    return Polynomial.term(coeff, q, a, t)


ZERO = Polynomial()
ONE = Polynomial.term(1)
Q = Polynomial.term(1, q=1)
A = Polynomial.term(1, a=1)
T = Polynomial.term(1, t=1)
