"""Named verification suites over every engine identity.

Each suite bundles the invariants of one part of the engine into checks that
report PASS or FAIL; suites are tagged THEOREM (a failure is a bug, full
stop) or CONJECTURE (an identity that is expected, and confirmed here, on a
default verified range; failures beyond that range are findings rather than
errors).  One check, ``magic/r0-sum-equals-one``, records a stated identity
that is actually false (the r = 0 tableau sum is (1+a)^n, not 1); it is
finding-grade by construction and documents the corrected identity, which
``magic/r0-envelope`` then checks.

Results are deterministic: no timings and a fixed check order, so the
rendered table is byte-identical across runs.

A value that several checks read, such as the per-length counts of the
words on which P agrees with its two other routes, is computed once per
:func:`run_suites` call, in a store that the call makes and hands to every
check, and held until the call returns.  An engine error raised computing
it is stored in its place, and raised again to every check that reads it.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple

from . import closed_form, links, shuffle, tableaux
from .poly import (
    A,
    ONE,
    Q,
    T,
    UNIT,
    BinomialFactor,
    FracPoly,
    NonExactDivision,
    NonIntegralPower,
    NotASeries,
    NotPolynomial,
    Polynomial,
)
from .serialize import ParseError, dumps, parse_frac, parse_poly

__all__ = [
    "ENGINE_ERRORS",
    "Check",
    "CheckResult",
    "UnknownSuite",
    "SUITES",
    "suite_names",
    "run_suites",
    "render_results",
    "exit_status",
]

THEOREM = "THEOREM"
CONJECTURE = "CONJECTURE"

PASS = "PASS"
FAIL = "FAIL"
FINDING = "FINDING"

# (label, ok, n) triples; n is the size the sub-check ran at, for grading
# conjecture failures against the verified range.
SubResults = list[tuple[str, bool, int]]


class UnknownSuite(KeyError):
    """No verification suite by that name."""


# The engine's named errors.  A check that raises one is graded FAIL; any
# other exception (a bare TypeError or KeyError) is a bug and propagates.
ENGINE_ERRORS = (
    NonExactDivision, NonIntegralPower, NotASeries, NotPolynomial, ParseError,
    shuffle.IncompatiblePair, shuffle.MemoryBudgetExceeded, tableaux.NotInnerCorner,
    links.UnknownLink,
)


class _Store:
    """The values that more than one check of a :func:`run_suites` call reads.

    Each is computed on its first request, or fails with the engine error
    that its computation raised, and is held as long as the store, which
    lives only as long as the call that made it.
    """

    def __init__(self) -> None:
        self._values: dict[tuple, object] = {}

    def once(self, fn: Callable, *args):
        """``fn(*args)``, computed at most once in this store."""
        key = (fn, *args)
        if key not in self._values:
            try:
                self._values[key] = fn(*args)
            except ENGINE_ERRORS as e:
                self._values[key] = e.with_traceback(None)
        value = self._values[key]
        if isinstance(value, ENGINE_ERRORS):
            raise value
        return value


class Check(NamedTuple):
    suite: str
    name: str
    kind: str
    fn: Callable[[int, _Store], SubResults]
    default_bound: int
    verified_bound: int | None = None  # None: failures are never hard errors

    def bound(self, max_n: int | None) -> int:
        return self.default_bound if max_n is None else max_n


# perfbench's tracer copies each check with another fn by
# ``dataclasses.replace``, which reads only this table: per field, its name,
# that it is an init field, and a field type that is neither ClassVar nor
# InitVar.  Built here, it keeps the package from importing dataclasses.
Check.__dataclass_fields__ = {
    name: SimpleNamespace(name=name, init=True, _field_type=None)
    for name in Check._fields
}


class CheckResult(NamedTuple):
    suite: str
    name: str
    kind: str
    status: str
    detail: str


def _grade(check: Check, subs: SubResults) -> CheckResult:
    failed = [(label, n) for label, ok, n in subs if not ok]
    if not failed:
        detail = f"{len(subs)} case(s)"
        return CheckResult(check.suite, check.name, check.kind, PASS, detail)
    labels = ", ".join(label for label, _ in failed[:6])
    if len(failed) > 6:
        labels += ", ..."
    if check.kind == THEOREM:
        return CheckResult(
            check.suite, check.name, check.kind, FAIL, f"failed: {labels}"
        )
    verified = check.verified_bound or 0
    hard = [label for label, n in failed if n <= verified]
    if hard:
        return CheckResult(
            check.suite, check.name, check.kind, FAIL,
            f"failed inside the verified range: {labels}",
        )
    scope = (
        "not a verified claim" if check.verified_bound is None
        else "beyond the verified range"
    )
    return CheckResult(
        check.suite, check.name, check.kind, FINDING, f"{scope}: {labels}"
    )


_CHECKS: list[Check] = []


def _check(suite: str, name: str, kind: str, default_bound: int,
           verified_bound: int | None = None):
    def wrap(fn):
        _CHECKS.append(Check(suite, name, kind, fn, default_bound, verified_bound))
        return fn
    return wrap


def _sizes(bound: int, ok: Callable[[int], bool], first: int = 1,
           label: str = "n") -> SubResults:
    """One case per size ``first..bound``, labelled ``{label}={n}``."""
    return [(f"{label}={n}", ok(n), n) for n in range(first, bound + 1)]


# ---------------------------------------------------------------------------
# polycore: ring laws, division, fractions, series, serialization


def _random_poly(rng: random.Random, terms: int = 4, span: int = 8) -> Polynomial:
    # rng.randint's draws without its argument checks: below(m) takes the
    # bits of m and draws again while they reach m, as Random._randbelow does
    bits = rng.getrandbits

    def below(m: int) -> int:
        k = m.bit_length()
        r = bits(k)
        while r >= m:
            r = bits(k)
        return r

    m = 2 * span + 1
    out = {}
    for _ in range(rng.randrange(terms + 1)):
        exp = below(m) - span, below(m) - span, below(m) - span
        out[exp] = below(11) - 5
    return Polynomial(out)


_FACTOR_POOL = [
    BinomialFactor.normalize((0, 0, 0), (UNIT, 0, 0)),        # 1 - q
    BinomialFactor.normalize((0, 0, 0), (2 * UNIT, 0, 0)),    # 1 - q^2
    BinomialFactor.normalize((0, 0, 0), (0, 0, UNIT)),        # 1 - t
    BinomialFactor.normalize((0, 0, UNIT), (UNIT, 0, 0)),     # t - q
    BinomialFactor.normalize((0, 0, UNIT), (UNIT, 0, UNIT)),  # t - tq
]


def _random_frac(rng: random.Random) -> FracPoly:
    num = _random_poly(rng, terms=3, span=4)
    den = []
    for _ in range(rng.randrange(3)):
        f, _sign = _FACTOR_POOL[rng.randrange(len(_FACTOR_POOL))]
        den.append(f)
    return FracPoly(num, den)


@_check("polycore", "ring-axioms", THEOREM, 1000)
def _ring_axioms(bound: int, store: _Store) -> SubResults:
    rng = random.Random(0x5EED)
    ok = True
    for _ in range(bound):
        p, q, r = (_random_poly(rng) for _ in range(3))
        if (p + q) + r != p + (q + r) or p + q != q + p:
            ok = False
        if p * q != q * p or p * (q + r) != p * q + p * r:
            ok = False
        if (p * q) * r != p * (q * r):
            ok = False
    return [("random triples", ok, bound)]


@_check("polycore", "exact-division-inverse", THEOREM, 1000)
def _division_inverse(bound: int, store: _Store) -> SubResults:
    # Both of the engine's divisions: the binomial quotient, by every pool
    # factor, and the unknot's (1 + a).  Adding one monomial to a multiple
    # breaks divisibility, so that sum must be rejected.
    rng = random.Random(0xD1CE)
    ok = True
    for _ in range(bound):
        p = _random_poly(rng)
        exp = tuple(rng.randint(-8, 8) for _ in range(3))
        noise = Polynomial({exp: rng.choice((-1, 1)) * rng.randint(1, 5)})
        for f, _sign in _FACTOR_POOL:
            multiple = p * f.poly()
            if f.quotient(multiple) != p or f.quotient(multiple + noise) is not None:
                ok = False
        multiple = p * (ONE + A)
        if links._divide_by_one_plus_a(multiple) != p:
            ok = False
        try:
            links._divide_by_one_plus_a(multiple + noise)
        except NonExactDivision:
            pass
        else:
            ok = False
    return [("quotient recovery", ok, bound)]


@_check("polycore", "fraction-cross-multiplication", THEOREM, 300)
def _fraction_cross(bound: int, store: _Store) -> SubResults:
    rng = random.Random(0xF4AC)
    ok = True
    for _ in range(bound):
        x, y = _random_frac(rng), _random_frac(rng)
        s = x + y
        lhs = s.num * x.den_poly() * y.den_poly()
        rhs = (x.num * y.den_poly() + y.num * x.den_poly()) * s.den_poly()
        if lhs != rhs:
            ok = False
    return [("lcm addition", ok, bound)]


@_check("polycore", "series-truncation-consistency", THEOREM, 200)
def _series_consistency(bound: int, store: _Store) -> SubResults:
    rng = random.Random(0x5E1E)
    ok = True
    for _ in range(bound):
        num = _random_poly(rng, terms=3, span=3)
        den = []
        for _ in range(rng.randrange(3)):
            j = rng.randint(1, 3)
            den.append(BinomialFactor((0, 0, 0), (j * UNIT, 0, 0)))
        f = FracPoly(num, den)
        m, n = sorted((rng.randint(3, 6), rng.randint(6, 10)))
        small = f.series(m)
        big = f.series(n)
        cut = Polynomial(
            {e: c for e, c in big.units().items() if e[0] <= m * UNIT}
        )
        if small != cut:
            ok = False
    return [("truncations agree", ok, bound)]


@_check("polycore", "serialization-round-trip", THEOREM, 500)
def _serialization_round_trip(bound: int, store: _Store) -> SubResults:
    rng = random.Random(0x0DEC)
    ok = True
    for _ in range(bound):
        p = _random_poly(rng)
        if parse_poly(dumps(p, "text")) != p:
            ok = False
        if parse_poly(dumps(p, "json"), "json") != p:
            ok = False
        f = _random_frac(rng)
        if parse_frac(dumps(f, "json")) != f:
            ok = False
    return [("text and json", ok, bound)]


# ---------------------------------------------------------------------------
# recursions


def _words(bound: int) -> list[str]:
    """Every word of length <= ``bound``, shortest first."""
    return [v for n in range(bound + 1) for v in shuffle.all_sequences(n)]


def _every_word(count: str, bound: int, store: _Store) -> SubResults:
    """One case per length n <= bound: all 2^n words of length n pass ``count``."""
    passed = store.once(shuffle._agreement, bound)[count]
    return _sizes(bound, lambda n: passed[n] == 2**n, first=0, label="|v|")


@_check("recursions", "dual-recursion-equivalence", THEOREM, 8)
def _dual_recursion(bound: int, store: _Store) -> SubResults:
    # equal normalized polynomials: the series share (1 - q)^#0(v)
    return _every_word("insertion", bound, store)


@_check("recursions", "normalization-consistency", THEOREM, 8)
def _normalization(bound: int, store: _Store) -> SubResults:
    # P(v) = (1 - q)^#0(v) f(v), each side by its own recursion: P's, and
    # the subtraction-free series recursion of the f route, one plan a length
    return _every_word("f", bound, store)


@_check("zeroseq", "zero-equals-one-prefix", THEOREM, 8)
def _zero_one_prefix(bound: int, store: _Store) -> SubResults:
    return _sizes(bound, lambda n: shuffle.poincare_poly("0" * n)
                  == shuffle.poincare_poly("1" + "0" * (n - 1)))


@_check("zeroseq", "zero-expansion-identity", THEOREM, 8)
def _zero_expansion(bound: int, store: _Store) -> SubResults:
    return _sizes(bound, shuffle.zero_expansion_identity)


@_check("top-a", "top-a-coefficient-is-one", THEOREM, 8)
def _top_a(bound: int, store: _Store) -> SubResults:
    return _every_word("top-a", bound, store)


# ---------------------------------------------------------------------------
# closed form


@_check("hhh0", "closed-form-oracle", THEOREM, 6)
def _closed_form_oracle(bound: int, store: _Store) -> SubResults:
    qmax = 12
    def ok(n: int) -> bool:
        f = shuffle.poincare_series("0" * n)
        sliced = FracPoly(f.num.coefficient_of_a(0), f.den).series(qmax)
        return closed_form.hochschild_zero_series(n, qmax) == sliced
    return _sizes(bound, ok)


@_check("hhh0", "truncation-monotone", THEOREM, 4)
def _truncation_monotone(bound: int, store: _Store) -> SubResults:
    def ok(n: int) -> bool:
        big = closed_form.hochschild_zero_series(n, 9)
        cut = Polynomial(
            {e: c for e, c in big.units().items() if e[0] <= 5 * UNIT}
        )
        return closed_form.hochschild_zero_series(n, 5) == cut
    return _sizes(bound, ok)


@_check("hhh0", "enumeration-count", THEOREM, 6)
def _enumeration_count(bound: int, store: _Store) -> SubResults:
    budget = 9
    return _sizes(bound, lambda n: comb(budget + n, n)
                  == sum(1 for _ in closed_form.level_functions(n, budget)))


# ---------------------------------------------------------------------------
# corners and tableaux


@_check("corners", "corner-weights-sum-to-one", THEOREM, 8)
def _corner_sums(bound: int, store: _Store) -> SubResults:
    return _sizes(bound, lambda n: all(
        tableaux.corner_weights_sum_to_one(p)
        for p in tableaux.partitions_of(n)
    ), first=0, label="|shape|")


@_check("corners", "inner-outer-count", THEOREM, 8)
def _corner_counts(bound: int, store: _Store) -> SubResults:
    def ok(n: int) -> bool:
        # a list, not a generator: every shape is evaluated
        counts = [tableaux.corners(p) for p in tableaux.partitions_of(n)]
        return all(len(inner) == len(outer) + 1 for inner, outer in counts)
    return _sizes(bound, ok, first=0, label="|shape|")


@_check("corners", "tableau-weights-sum-to-one", THEOREM, 5)
def _tableau_weight_sum(bound: int, store: _Store) -> SubResults:
    return _sizes(bound, tableaux.tableau_weights_sum_to_one)


@_check("corners", "tableau-count-hook-lengths", THEOREM, 6)
def _tableau_counts(bound: int, store: _Store) -> SubResults:
    def ok(n: int) -> bool:
        by_shape = Counter(t.shape for t in tableaux.standard_tableaux(n))
        return set(by_shape) == set(tableaux.partitions_of(n)) and all(
            tableaux.hook_length_count(s) == c for s, c in by_shape.items()
        )
    return _sizes(bound, ok)


@_check("transpose", "partition-monomial", THEOREM, 8)
def _monomial_transpose(bound: int, store: _Store) -> SubResults:
    return _sizes(bound, lambda n: all(
        tableaux.partition_monomial(p).swap_qt()
        == tableaux.partition_monomial(p.transpose())
        for p in tableaux.partitions_of(n)
    ), first=0, label="|shape|")


@_check("transpose", "corner-weight", THEOREM, 6)
def _corner_weight_transpose(bound: int, store: _Store) -> SubResults:
    def ok(n: int) -> bool:
        return all([  # a list, not a generator: every corner is evaluated
            tableaux.corner_weight(p, c).swap_qt()
            == tableaux.corner_weight(p.transpose(), c.transpose())
            for p in tableaux.partitions_of(n)
            for c in tableaux.corners(p)[0]
        ])
    return _sizes(bound, ok, first=0, label="|shape|")


@_check("transpose", "tableau-weight", THEOREM, 5)
def _tableau_weight_transpose(bound: int, store: _Store) -> SubResults:
    return _sizes(bound, lambda n: all(
        tableaux.tableau_weight(t).swap_qt()
        == tableaux.tableau_weight(t.transpose())
        for t in tableaux.standard_tableaux(n)
    ))


@_check("transpose", "tableau-sum-qt-symmetry", THEOREM, 4)
def _tableau_sum_symmetry(bound: int, store: _Store) -> SubResults:
    out: SubResults = []
    for n in range(1, bound + 1):
        for r in range(3):
            s = store.once(tableaux.tableau_sum, n, r)
            out.append((f"n={n},r={r}", s.swap_qt() == s, n))
    return out


# ---------------------------------------------------------------------------
# the tableau-sum conjecture


@_check("magic", "r1-matches-recursion", CONJECTURE, 4, verified_bound=8)
def _magic_r1(bound: int, store: _Store) -> SubResults:
    def ok(n: int) -> bool:
        s = store.once(tableaux.tableau_sum, n, 1)
        return s.is_polynomial and s.num == shuffle.poincare_poly("0" * n)
    return _sizes(bound, ok)


@_check("magic", "r0-envelope", CONJECTURE, 4)
def _magic_r0_envelope(bound: int, store: _Store) -> SubResults:
    return _sizes(bound, lambda n: store.once(tableaux.tableau_sum, n, 0)
                  == (ONE + A) ** n)


@_check("magic", "r0-sum-equals-one", CONJECTURE, 4)
def _magic_r0_literal(bound: int, store: _Store) -> SubResults:
    # Stated identity: the r = 0 tableau sum is 1.  False as written: the sum
    # is (1+a)^n (see r0-envelope); only its a-degree-zero part is 1, which
    # follows from the corner-sum identity.  Reported, not asserted.
    return _sizes(bound, lambda n: store.once(tableaux.tableau_sum, n, 0) == ONE)


@_check("magic", "r0-a-degree-zero-part", CONJECTURE, 4, verified_bound=8)
def _magic_r0_a0(bound: int, store: _Store) -> SubResults:
    def ok(n: int) -> bool:
        s = store.once(tableaux.tableau_sum, n, 0)
        return s.is_polynomial and s.num.coefficient_of_a(0) == ONE
    return _sizes(bound, ok)


# ---------------------------------------------------------------------------
# conjecture suites on the full twist


@_check("symmetry", "full-twist-qt-symmetry", CONJECTURE, 6, verified_bound=14)
def _qt_symmetry(bound: int, store: _Store) -> SubResults:
    def ok(n: int) -> bool:
        p = shuffle.poincare_poly("0" * n)
        return p.swap_qt() == p
    return _sizes(bound, ok)


@_check("submaximal", "submaximal-geometric-slice", CONJECTURE, 7, verified_bound=14)
def _submaximal(bound: int, store: _Store) -> SubResults:
    base = Q + T - Q * T
    def ok(n: int) -> bool:
        slice_ = shuffle.poincare_poly("0" * n).coefficient_of_a(n - 1)
        return slice_ == sum((base ** i for i in range(n)), Polynomial())
    return _sizes(bound, ok)


# ---------------------------------------------------------------------------
# link dataset and specializations


_DATASET_CHECKSUMS = {
    # key: (term count, coefficient sum, a-unit span)
    "unknot": (1, 1, (0, 0)),
    "T(2,3)": (3, 3, (4, 8)),
    "T(3,4)": (11, 11, (12, 20)),
    "T(3,5)": (16, 17, (16, 24)),
    "T(4,5)": (40, 45, (24, 36)),
}


@_check("dataset", "entry-qt-symmetry", THEOREM, 4)
def _dataset_symmetry(bound: int, store: _Store) -> SubResults:
    keys = ["T(3,4)", "T(3,5)", "T(4,5)"] + [
        f"T(2,{2 * k + 1})" for k in range(1, bound + 1)
    ]
    out: SubResults = []
    for key in keys:
        p = links.dataset_get(key).poly
        out.append((key, p.swap_qt() == p, 0))
    return out


@_check("dataset", "entry-round-trip", THEOREM, 4)
def _dataset_round_trip(bound: int, store: _Store) -> SubResults:
    out: SubResults = []
    for key in links.dataset_keys():
        p = links.dataset_get(key).poly
        ok = (
            parse_poly(dumps(p, "text")) == p
            and parse_poly(dumps(p, "json"), "json") == p
            and dumps(parse_poly(dumps(p, "text")), "text") == dumps(p, "text")
        )
        out.append((key, ok, 0))
    return out


@_check("dataset", "entry-checksums", THEOREM, 4)
def _dataset_checksums(bound: int, store: _Store) -> SubResults:
    out: SubResults = []
    for key, (count, csum, aspan) in _DATASET_CHECKSUMS.items():
        p = links.dataset_get(key).poly
        arange = p.unit_range("a")
        ok = len(p) == count and p.coefficient_sum() == csum and arange == aspan
        out.append((key, ok, 0))
    return out


@_check("catalan", "qt-catalan-symmetry", THEOREM, 6)
def _catalan_symmetry(bound: int, store: _Store) -> SubResults:
    def ok(n: int) -> bool:
        c = links.qt_catalan(n)
        return c.swap_qt() == c
    return _sizes(bound, ok)


@_check("catalan", "qt-catalan-count", THEOREM, 6)
def _catalan_count(bound: int, store: _Store) -> SubResults:
    def ok(n: int) -> bool:
        return links.qt_catalan(n).coefficient_sum() == comb(2 * n, n) // (n + 1)
    return _sizes(bound, ok)


@_check("catalan", "lowest-a-slice-matches", THEOREM, 4)
def _catalan_lowest_a(bound: int, store: _Store) -> SubResults:
    out: SubResults = []
    for n, key in [(2, "T(2,3)"), (3, "T(3,4)"), (4, "T(4,5)")]:
        if n > bound:
            continue
        slice_, _ = links.lowest_a_slice(links.dataset_get(key).poly)
        ratio = links.monomial_ratio(slice_, links.qt_catalan(n))
        out.append((key, ratio is not None, n))
    return out


@_check("specialize", "trefoil-decategorified", THEOREM, 1)
def _trefoil_decat(bound: int, store: _Store) -> SubResults:
    got = dumps(links.decategorify(links.two_strand_superpoly(1)))
    want = dumps(-(A * Q) - (A * A) - A.shifted((-UNIT, 0, 0)))
    return [("string match", got == want, 1)]


@_check("specialize", "two-strand-sl-family", THEOREM, 6)
def _sl_family(bound: int, store: _Store) -> SubResults:
    d = links.decategorify(links.two_strand_superpoly(1))
    def ok(n: int) -> bool:
        got = dumps(links.sl_specialization(d, n))
        want = dumps(Q ** (n - 1) + Q ** (n + 1) - Q ** (2 * n))
        return got == want
    return _sizes(bound, ok, label="N")


@_check("specialize", "t34-sl2", THEOREM, 1)
def _t34_sl2(bound: int, store: _Store) -> SubResults:
    p = links.dataset_get("T(3,4)").poly
    got = dumps(links.sl_specialization(links.decategorify(p), 2))
    return [("string match", got == "q^3 + q^5 - q^8", 1)]


@_check("specialize", "two-strand-jones-shape", THEOREM, 4)
def _jones_shape(bound: int, store: _Store) -> SubResults:
    def ok(k: int) -> bool:
        v = links.sl_specialization(
            links.decategorify(links.two_strand_superpoly(k)), 2
        )
        rng = v.unit_range("q")
        top = max(v.units())
        return (
            rng is not None
            and (rng[1] - rng[0]) == (2 * k + 1) * UNIT
            and v.units()[top] == -1
        )
    return _sizes(bound, ok, label="k")


# ---------------------------------------------------------------------------
# determinism


def _each_poly(words: list[str]) -> dict[str, Polynomial]:
    """{v: poincare_poly(v)}, one call per word, in the order of ``words``."""
    return {v: shuffle.poincare_poly(v) for v in words}


def _serial_polys(bound: int) -> dict[str, Polynomial]:
    """:func:`_each_poly` of every word of length <= ``bound``, shortest first."""
    return _each_poly(_words(bound))


# Asked in reverse, every value must be the same: the engine holds no state
# between calls, so none may make a value depend on call order.  The name is
# the memo tables' it once compared; verify's stdout prints it and is pinned.
@_check("determinism", "memo-order-independence", THEOREM, 6)
def _memo_order(bound: int, store: _Store) -> SubResults:
    forward = store.once(_serial_polys, bound)
    backward = _each_poly(_words(bound)[::-1])
    return [("forward vs backward", forward == backward, bound)]


@_check("determinism", "thread-schedule-independence", THEOREM, 6)
def _thread_schedule(bound: int, store: _Store) -> SubResults:
    # imported here, its one use: every CLI start would pay for it
    from concurrent.futures import ThreadPoolExecutor

    seqs = _words(bound)
    serial = store.once(_serial_polys, bound)
    # every worker asks for every word, in its own order, at once, and
    # compares each value with the serial one as it computes it
    chunks = [seqs, seqs[::-1], seqs[::2] + seqs[1::2], seqs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        ok = all(pool.map(lambda words: all(
            shuffle.poincare_poly(v) == serial[v] for v in words
        ), chunks))
    return [("pool vs serial", ok, bound)]


# ---------------------------------------------------------------------------
# runner


SUITES: dict[str, list[Check]] = {}
for c in _CHECKS:
    SUITES.setdefault(c.suite, []).append(c)


def suite_names() -> list[str]:
    return list(SUITES)


def _run(check: Check, max_n: int | None, store: _Store) -> CheckResult:
    try:
        subs = check.fn(check.bound(max_n), store)
    except ENGINE_ERRORS as e:
        return CheckResult(
            check.suite, check.name, check.kind, FAIL,
            f"raised {type(e).__name__}: {e}",
        )
    return _grade(check, subs)


def run_suites(names: Iterable[str], max_n: int | None = None) -> list[CheckResult]:
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be >= 1, not {max_n}")
    checks: list[Check] = []
    for name in names:
        if name not in SUITES:
            raise UnknownSuite(f"unknown suite {name!r}")
        checks.extend(SUITES[name])
    store = _Store()
    return [_run(c, max_n, store) for c in checks]


def render_results(results: list[CheckResult]) -> str:
    width = max(len(f"{r.suite}/{r.name}") for r in results) if results else 0
    lines = []
    for r in results:
        name = f"{r.suite}/{r.name}".ljust(width)
        lines.append(f"{r.status:<8}{r.kind:<12}{name}  {r.detail}")
    counts = {PASS: 0, FAIL: 0, FINDING: 0}
    for r in results:
        counts[r.status] += 1
    lines.append(
        f"{counts[PASS]} passed, {counts[FAIL]} failed, "
        f"{counts[FINDING]} findings"
    )
    return "\n".join(lines)


def exit_status(results: list[CheckResult]) -> int:
    """1 when any check FAILed, THEOREM or CONJECTURE; a FINDING is not a failure."""
    return int(any(r.status == FAIL for r in results))
