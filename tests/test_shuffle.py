import json
import os
import subprocess
import sys
import threading
from math import comb

import pytest

from tlh import closed_form, shuffle
from tlh.poly import A, ONE, ONE_MINUS_Q, Q, T, UNIT, FracPoly, Polynomial
from tlh.serialize import ParseError, dumps, parse_poly, poly_from_obj, poly_to_obj
from tlh.shuffle import (
    EntryOutOfBounds,
    IncompatiblePair,
    MemoDivergence,
    MemoryBudgetExceeded,
    MemoTable,
    all_sequences,
    crossings,
    full_twist_series,
    insert_into_zeros,
    insertion_series,
    insertion_weight,
    load_cache,
    poincare_poly,
    poincare_series,
    save_cache,
    zero_expansion_identity,
)

from test_serialize import BAD_TERMS

F000_A0 = parse_poly(
    "t^3 q^2 + q^3 t^2 - 2 t^2 q^2 - 2 t q^3 - 2 q t^3"
    " + t^3 + q^3 + t q^2 + q t^2 + t q"
)
F000_A1 = parse_poly("t^2 q^2 - 2 t q^2 - 2 q t^2 + t^2 + q^2 + t q + t + q")


@pytest.mark.parametrize("call", [
    lambda: poincare_poly("012"),
    lambda: insertion_series("012"),
    lambda: insert_into_zeros("012", "1"),
    lambda: insert_into_zeros("10", "2"),
])
def test_non_binary_sequence_rejected(call):
    with pytest.raises(ValueError, match="not a binary sequence"):
        call()


def test_insert_examples():
    assert insert_into_zeros("1101001", "001") == "1101011"
    assert insert_into_zeros("111", "") == "111"
    assert insert_into_zeros("0000", "1010") == "1010"
    with pytest.raises(IncompatiblePair):
        insert_into_zeros("10", "11")


def test_crossings_examples():
    assert crossings("1101000101", "10110") == 8
    assert crossings("00000", "11111") == 0
    assert crossings("10", "1") == 1
    with pytest.raises(IncompatiblePair):
        crossings("10", "")


def test_insertion_weight_examples():
    assert insertion_weight("10", "0") == ONE + A
    assert insertion_weight("10", "1") == T + A
    assert insertion_weight("0000", "1011") == ONE
    # all-ones sequence: product of (t^(i-1) + a)
    expect = (ONE + A) * (T + A) * (T * T + A)
    assert insertion_weight("111", "") == expect
    with pytest.raises(IncompatiblePair):
        insertion_weight("10", "")


def _positional_crossings(v, w):
    """crossings' former form: a running count of v's ones over the zeros."""
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


def _positional_insertion_weight(v, w):
    """insertion_weight's former form, from the positions w turns on."""
    inserted = []
    j = 0
    for i, bit in enumerate(v):
        if bit == "0":
            if w[j] == "1":
                inserted.append(i)
            j += 1
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


def test_weight_class_statistics_match_positional_references():
    pairs = 0
    for v in (v for n in range(8) for v in all_sequences(n)):
        for w in all_sequences(v.count("0")):
            assert crossings(v, w) == _positional_crossings(v, w), (v, w)
            assert insertion_weight(v, w) == _positional_insertion_weight(v, w), (v, w)
            pairs += 1
    assert pairs == (3 ** 8 - 1) // 2  # every compatible pair with |v| <= 7


def test_poincare_poly_golden():
    assert poincare_poly("") == ONE
    assert poincare_poly("0") == ONE + A
    assert poincare_poly("00") == (ONE + A) * (Q + T - Q * T + A)
    assert poincare_poly("11") == (ONE + A) * (T + A)
    assert poincare_poly("000") == (ONE + A) * (F000_A0 + F000_A1 * A + A * A)


def _general_product_poly(key, memo):
    """The recursion written with general products, (1-q) and (t^k + a)."""
    if key not in memo:
        if not key:
            value = ONE
        elif key.endswith("1"):
            body = key[:-1]
            weight = Polynomial.term(1, t=body.count("1")) + A
            value = weight * _general_product_poly(body, memo)
        elif "1" not in key:
            value = _general_product_poly("1" + key[1:], memo)
        else:
            body = key[:-1]
            value = Q * _general_product_poly("0" + body, memo) + (
                ONE - Q
            ) * _general_product_poly("1" + body, memo)
        memo[key] = value
    return memo[key]


def _add_shifted(p, r, exp, sign=1):
    """Term dict of p + sign * x^exp * r."""
    out = dict(p)
    dq, da, dt = exp
    for (eq, ea, et), c in r.items():
        key = (eq + dq, ea + da, et + dt)
        v = out.get(key, 0) + sign * c
        if v:
            out[key] = v
        else:
            del out[key]
    return out


def _shift_and_add_terms(key, memo):
    """The recursion's former dict step, shift-and-add over term dicts."""
    if key not in memo:
        if not key:
            value = {(0, 0, 0): 1}
        elif key.endswith("1"):
            body = key[:-1]
            p = _shift_and_add_terms(body, memo)
            value = _add_shifted(
                _add_shifted({}, p, (0, 0, UNIT * body.count("1"))), p, (0, UNIT, 0)
            )
        elif "1" not in key:
            value = _shift_and_add_terms("1" + key[1:], memo)
        else:
            body = key[:-1]
            p1 = _shift_and_add_terms("1" + body, memo)
            p0 = _shift_and_add_terms("0" + body, memo)
            value = _add_shifted(p1, _add_shifted(p0, p1, (0, 0, 0), -1), (UNIT, 0, 0))
        memo[key] = value
    return memo[key]


SEQS_UP_TO_8 = [v for n in range(9) for v in all_sequences(n)]


@pytest.fixture(scope="module")
def shift_and_add_reference():
    reference = {}
    for v in SEQS_UP_TO_8:
        _shift_and_add_terms(v, reference)
    return reference


def test_packed_kernel_one_shot_matches_reference(shift_and_add_reference):
    for v in SEQS_UP_TO_8:
        assert poincare_poly(v).units() == shift_and_add_reference[v], v


def test_packed_kernel_shared_memo_matches_reference(shift_and_add_reference):
    ascending = MemoTable()
    for v in sorted(SEQS_UP_TO_8, key=len):
        assert poincare_poly(v, ascending).units() == shift_and_add_reference[v], v
    descending = MemoTable()
    for v in sorted(SEQS_UP_TO_8, key=len, reverse=True):
        assert poincare_poly(v, descending).units() == shift_and_add_reference[v], v
    assert dict(ascending) == dict(descending)
    assert {k: p.units() for k, p in ascending.items()} == shift_and_add_reference


def test_packed_kernel_two_limb_fields():
    # L1 bound 2^64 needs a sign bit more than one 64-bit limb holds: a
    # 72-bit field, one whole limb and one of a byte
    assert shuffle._poly_bounds("1" * 64, {}) == (0, 2 ** 64)
    assert shuffle._Layout(64, 0, 2 ** 64).w == 72
    want = ONE
    for k in range(64):
        want = want * (Polynomial.term(1, t=k) + A)
    assert poincare_poly("1" * 64) == want


# the widest L1 bound of every field width of 1 to 17 bytes, and the two
# bounds just past a whole 64-bit limb
_WIDTHS = {2 ** (8 * b - 1) - 1: 8 * b for b in range(1, 18)}
_WIDTHS.update({2 ** 63: 72, 2 ** 130: 136})


@pytest.mark.parametrize("l1", list(_WIDTHS))
def test_pack_round_trip_at_the_bound(l1):
    layout = shuffle._Layout(2, 1, l1)  # q^0..1, a^0..2, t^0..1
    w = layout.w
    # l1 plus a sign bit, rounded up to whole bytes
    assert w == _WIDTHS[l1]
    half = l1 // 2
    for terms in (
        {(0, 0, 0): l1},
        {(UNIT, 2 * UNIT, UNIT): -l1},
        {(0, 0, 0): -half, (0, 0, UNIT): l1 - half - 1, (UNIT, UNIT, 0): 1},
    ):
        p = Polynomial(terms)
        # slot (i, j, k) at bit offset w ((i 3 + j) 2 + k), a signed field
        packed = sum(
            c << w * ((e0 // UNIT * 3 + e1 // UNIT) * 2 + e2 // UNIT)
            for (e0, e1, e2), c in terms.items()
        )
        assert layout.unpack(packed) == p
        assert layout.unpack(-packed) == -p


def _zeros_dq(n):
    return shuffle._poly_bounds("0" * n, {})[0]


@pytest.mark.parametrize("n", range(1, 13))
def test_truncated_full_twist_matches_whole_series(n):
    # the series route against whole P(0^n), through a memo up to n = 9; a
    # memo of every key's whole polynomial holds about 1.7 GB at n = 12
    series = poincare_series("0" * n, MemoTable() if n <= 9 else None)
    dq = _zeros_dq(n)
    qmaxes = {0, 1, 5, 10, dq - 1, dq, dq + 3, 40, 200} - {-1} if n <= 9 else {10}
    for qmax in sorted(qmaxes):
        assert full_twist_series(n, qmax) == series.series(qmax), qmax


@pytest.mark.parametrize("n", range(1, 13))
def test_series_route_a_free_part_matches_closed_form(n):
    for qmax in (5, 10) if n <= 7 else (5,):
        got = full_twist_series(n, qmax).coefficient_of_a(0)
        assert got == closed_form.hochschild_zero_series(n, qmax), qmax


@pytest.mark.parametrize("n", range(1, 10))
def test_row_mass_bound_holds_every_key(monkeypatch, n):
    # f(v)(q, 1, 1) = 2^|v| / (1 - q)^#0(v), so the largest row mass up to
    # q^qmax is that of 0^n in row qmax (the tlh.shuffle docstring)
    key = "0" * n
    plan = shuffle._plan(key, {}, shuffle._poly_deps)
    whole = MemoTable()
    if n <= 7:
        poincare_poly(key, whole)
    sized, series_pays = [], shuffle._series_pays

    def spy_series_pays(key, plan, bounds, qmax, mass):
        sized.append(mass)
        return series_pays(key, plan, bounds, qmax, mass)

    monkeypatch.setattr(shuffle, "_series_pays", spy_series_pays)
    for qmax in (0, 3, 10):
        bound = 2 ** n * comb(qmax + n - 1, n - 1)
        layout = shuffle._SeriesLayout(n, qmax, bound)
        # the fewest bytes that hold the bound with the top bit clear
        assert 2 ** (layout.w - 9) <= bound < 2 ** (layout.w - 1)
        values = MemoTable()
        shuffle._evaluate(
            key, values, shuffle._poly_deps, layout.step,
            store=layout.unpack, plan=(plan[0], dict(plan[1])),
        )
        assert values.keys() == plan[0].keys()
        masses = []
        for k, value in values.items():
            if whole:  # every key holds its own f(k) = P(k) / (1 - q)^#0(k)
                want = FracPoly(whole[k], [ONE_MINUS_Q] * k.count("0"))
                assert value == want.series(qmax), (k, qmax)
            assert max(value.units().values()) <= bound
            rows = [0] * (qmax + 1)
            for e, c in value.units().items():
                rows[e[0] // UNIT] += c
            masses += rows
        # the closed form is the largest row mass itself
        assert max(masses) == bound, qmax
        # and the full twist sizes its series fields by it
        sized.clear()
        full_twist_series(n, qmax)
        assert sized == ([bound] if qmax < _zeros_dq(n) else []), qmax


def test_poincare_poly_at_a_t_one_is_two_to_the_length():
    # P(v.1) = 2 P(v), P(0^m) = P(1 0^(m-1)), P(v.0) = P(1 v) at a = t = 1
    memo = MemoTable()
    poincare_poly("0" * 9, memo)
    assert len(memo) == 2 ** 10 - 1
    for v in (w for m in range(10) for w in all_sequences(m)):
        rows = {}
        for e, c in poincare_poly(v, memo).units().items():
            rows[e[0]] = rows.get(e[0], 0) + c
        assert {d: c for d, c in rows.items() if c} == {0: 2 ** len(v)}, v


@pytest.mark.parametrize(
    "n, qmax, route",
    [(8, 3, "series"), (8, 10, "whole"), (11, 10, "series"), (11, 20, "whole")]
    + [(n, qmax, "whole") for n in (1, 4, 8) for qmax in (_zeros_dq(n), 1000)],
)
def test_full_twist_takes_the_cheaper_route(monkeypatch, n, qmax, route):
    # the series route fills qmax + 1 q-rows on every key, so it loses once
    # qmax nears the q-degree bound; from the bound on it is never tried
    layouts, passes = [], []
    step_packed, evaluate = shuffle._step_packed, shuffle._evaluate

    def spy_step_packed(key, memo, layout, plan):
        layouts.append(type(layout))
        return step_packed(key, memo, layout, plan)

    def spy_evaluate(*args, **kwargs):
        passes.append(kwargs.get("value_bytes", 0))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(shuffle, "_step_packed", spy_step_packed)
    monkeypatch.setattr(shuffle, "_evaluate", spy_evaluate)
    want = poincare_series("0" * n).series(qmax)
    layouts.clear()
    passes.clear()
    assert full_twist_series(n, qmax) == want
    series = route == "series"
    assert layouts == [shuffle._SeriesLayout if series else shuffle._Layout]
    # the one pass is estimated before it steps
    assert all(passes)
    assert len(passes) == 1


def test_full_twist_memo_holds_whole_polynomials():
    memo = MemoTable()
    for n in range(1, 9):
        for qmax in (0, 3):
            assert full_twist_series(n, qmax, memo) == full_twist_series(n, qmax)
    assert len(memo) == 2 ** 9 - 1
    for key, value in memo.items():
        assert value == poincare_poly(key), key
    assert memo["0" * 8].unit_range("q")[1] == _zeros_dq(8) * UNIT > 3 * UNIT


def test_poincare_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    q, a, t = sympy.symbols("q a t")
    memo = {}

    def f(key):
        if key not in memo:
            if not key:
                memo[key] = sympy.Integer(1)
            elif key.endswith("1"):
                body = key[:-1]
                memo[key] = sympy.expand((t ** body.count("1") + a) * f(body))
            elif "1" not in key:
                memo[key] = f("1" + key[1:])
            else:
                body = key[:-1]
                memo[key] = sympy.expand(q * f("0" + body) + (1 - q) * f("1" + body))
        return memo[key]

    for key in ("0000", "0110", "10100", "00101", "111"):
        got = sum(
            c * q ** (eq // UNIT) * a ** (ea // UNIT) * t ** (et // UNIT)
            for (eq, ea, et), c in poincare_poly(key).terms()
        )
        assert sympy.expand(got - f(key)) == 0, key


def _per_word_insertion_step(key, work):
    """The insertion step's former form: one weight product per word w."""
    if not key:
        return ONE
    if "1" not in key:
        return work["1" + key[1:]]
    z = key.count("0")
    groups = [{} for _ in range(z + 1)]
    for w in all_sequences(z):
        k = w.count("1")
        group = groups[k]
        shift = UNIT * (z - k)
        for (s0, s1, s2), d in insertion_weight(key, w).units().items():
            for (e0, e1, e2), c in work[w].units().items():
                e = (e0 + s0 + shift, e1 + s1, e2 + s2)
                group[e] = group.get(e, 0) + c * d
    acc = {}
    for group in reversed(groups):
        for e, c in acc.items():
            group[e] = group.get(e, 0) + c
            e = (e[0] + UNIT, e[1], e[2])
            group[e] = group.get(e, 0) - c
        acc = group
    return Polynomial(acc)


def _ones_right_of_each_one(v, w):
    """Inserted ones to the right of each one of v, read off the overlay."""
    u = insert_into_zeros(v, w)
    return tuple(
        u[i + 1:].count("1") - v[i + 1:].count("1")
        for i, bit in enumerate(v)
        if bit == "1"
    )


def test_grouped_insertion_step_matches_per_word_step(
    shift_and_add_reference, monkeypatch
):
    work = {v: Polynomial(terms) for v, terms in shift_and_add_reference.items()}
    calls = []

    def counted(v, w):
        calls.append(w)
        return insertion_weight(v, w)

    monkeypatch.setattr(shuffle, "insertion_weight", counted)
    words = weights = 0
    for v in (v for v in SEQS_UP_TO_8 if len(v) <= 7):
        calls.clear()
        assert shuffle._insertion_step(v, work) == _per_word_insertion_step(v, work), v
        if "1" in v:
            ws = all_sequences(v.count("0"))
            # one weight per class of words that W(v, w) cannot tell apart
            assert len(calls) == len({_ones_right_of_each_one(v, w) for w in ws}), v
            words += len(ws)
            weights += len(calls)
    assert weights < words


def test_insertion_series_one_shot_matches_memoized_route():
    memo = MemoTable()
    for n in range(6):
        for v in all_sequences(n):
            assert insertion_series(v) == insertion_series(v, memo), v


def test_insertion_memo_holds_normalized_polynomials():
    memo = MemoTable()
    for n in range(8):
        for v in all_sequences(n):
            series = insertion_series(v, memo)
            assert memo[v] == poincare_poly(v), v
            assert dumps(series) == dumps(poincare_series(v)), v


def test_working_values_released_after_last_consumer(monkeypatch):
    live = []
    stepped = []
    step = shuffle._Layout.step

    def counting_step(layout, key, work):
        live.append(len(work) + 1)  # the inputs held, plus the new value
        stepped.append(key)
        return step(layout, key, work)

    monkeypatch.setattr(shuffle._Layout, "step", counting_step)
    memo = MemoTable()
    for v in all_sequences(7):
        poincare_poly(v, memo)
    for key in ("0" * 8, "0" * 8 + "1"):
        want = poincare_poly(key, MemoTable())
        needs, users = shuffle._plan(key, {}, shuffle._poly_deps)
        runs = []
        for hits in ({}, memo):
            live.clear()
            stepped.clear()
            assert poincare_poly(key, MemoTable(hits) if hits else None) == want
            assert len(live) == len(needs)
            assert stepped == list(needs)
            assert max(live) == shuffle._peak_live(needs, users) < len(needs) // 4
            runs.append(list(live))
        # a memo steps the same plan, with the same live counts, as no memo
        assert runs[0] == runs[1]


def test_memo_is_a_sink_never_a_source(monkeypatch):
    key = "0" * 6 + "1"
    needs, _ = shuffle._plan(key, {}, shuffle._poly_deps)
    deep = "0110"
    assert deep in needs
    # a wrong value, outside the layout's q-rows, under a key of the closure
    sentinel = Polynomial.term(7, q=40)
    memo = MemoTable({deep: sentinel})
    unpacked = []
    unpack = shuffle._Layout.unpack

    def counting_unpack(layout, packed):
        unpacked.append(packed)
        return unpack(layout, packed)

    monkeypatch.setattr(shuffle._Layout, "unpack", counting_unpack)
    want = poincare_poly(key)
    unpacked.clear()
    assert poincare_poly(key, memo) == want
    assert memo[deep] is sentinel
    # one unpack per key the memo lacked, none for the key it held
    assert len(unpacked) == len(needs) - 1
    assert set(memo) == set(needs)
    for k in needs.keys() - {deep}:
        assert memo[k] == poincare_poly(k), k


def test_memory_estimate_fails_by_name_before_any_step(monkeypatch):
    steps = []
    monkeypatch.setattr(shuffle._Layout, "step", lambda *args: steps.append(args))
    monkeypatch.setattr(shuffle, "_memory_budget", lambda: 8 * 2 ** 30)
    with pytest.raises(MemoryBudgetExceeded, match="evaluating '0{15}'") as err:
        poincare_poly("0" * 15)
    assert err.value.need > 8 * 2 ** 30
    assert steps == []
    needs, users = shuffle._plan("0" * 13, {}, shuffle._poly_deps)
    layout = shuffle._Layout(13, *shuffle._poly_bounds("0" * 13, {}))
    assert shuffle._peak_live(needs, users) == 2061
    assert shuffle._peak_live(needs, users) * layout.value_bytes < 2 * 2 ** 30


# Run in a fresh interpreter: each packed run's memory estimate, then the
# growth of the process's peak RSS over the run (ru_maxrss is in kB on Linux).
# ru_maxrss survives exec, so an interpreter spawned by a large process
# starts at its parent's peak; a fork of the fresh interpreter starts afresh.
_GROWTH_PROBE = """
import contextlib, io, os, resource, sys
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
from tlh import cli, shuffle
estimates = []
working_set = shuffle._working_set
shuffle._working_set = lambda *args: estimates.append(working_set(*args)) or estimates[-1]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.argv[1] == "fulltwist":
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fulltwist", "--n", sys.argv[2], "--qmax", "10"]) == 0
else:
    shuffle.poincare_poly("0" * int(sys.argv[2]))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
# the passes of one run are sequential, so the largest estimate is its peak
print(max(estimates), (after - before) * (1 if sys.platform == "darwin" else 1024))
"""


@pytest.mark.parametrize(
    "route, n",
    [("fulltwist", n) for n in range(9, 14)] + [("poly", n) for n in range(8, 12)],
)
def test_memory_estimate_covers_the_peak_rss_growth(route, n):
    src = os.path.dirname(os.path.dirname(shuffle.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _GROWTH_PROBE, route, str(n)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    estimate, grown = map(int, proc.stdout.split())
    assert estimate >= grown > 0


def test_closure_walk_stops_at_the_memory_budget(monkeypatch, tmp_path):
    cached = MemoTable()
    poincare_poly("0" + "1" * 30 + "0", cached)
    path = tmp_path / "cache.json"
    save_cache(str(path), cached)
    calls = []

    def counted(deps):
        def wrapped(key):
            calls.append(key)
            return deps(key)

        return wrapped

    budget = 2 ** 20  # 2,048 keys of walk state
    limit = budget // shuffle._WALK_BYTES_PER_KEY
    monkeypatch.setattr(shuffle, "_memory_budget", lambda: budget)
    monkeypatch.setattr(shuffle, "_poly_deps", counted(shuffle._poly_deps))
    monkeypatch.setattr(shuffle, "_insertion_deps", counted(shuffle._insertion_deps))
    # a long key with few zeros has a small closure and walks in any budget
    for key, size in [
        ("1" * 30 + "0", 64),
        ("0" + "1" * 30 + "0", 68),
        ("0" * 5 + "1" * 40 + "0", 208),
        ("1" * 64, 65),
    ]:
        assert len(shuffle._plan(key, {}, shuffle._poly_deps)[0]) == size
    # 0^16 has 2^17 - 1 keys; the walk is refused long before it ends
    calls.clear()
    with pytest.raises(MemoryBudgetExceeded, match="closure of '0{16}'") as err:
        poincare_poly("0" * 16)
    assert err.value.need > budget
    assert len(calls) < 2 * limit
    calls.clear()
    with pytest.raises(MemoryBudgetExceeded, match="closure of '0{16}'"):
        insertion_series("0" * 16)
    assert len(calls) < 2 * limit
    # a memo hit walks nothing; the memo holds normalized polynomials
    memo = MemoTable({"0" * 16: ONE})
    assert insertion_series("0" * 16, memo) == FracPoly(ONE, [ONE_MINUS_Q] * 16)
    # a cache holding a long key with few zeros loads, checks included
    assert load_cache(str(path)) == cached


@pytest.mark.parametrize("key", ["1" * 30 + "0", "0" + "1" * 30 + "0"])
def test_long_keys_with_few_zeros_match_reference(key):
    assert poincare_poly(key).units() == _shift_and_add_terms(key, {})


def test_shift_and_add_step_matches_general_products(shift_and_add_reference):
    reference = {}
    for v in SEQS_UP_TO_8:
        want = _general_product_poly(v, reference)
        assert shift_and_add_reference[v] == want.units(), v


def test_poincare_series():
    assert poincare_series("") == FracPoly(ONE)
    assert poincare_series("0") == FracPoly(ONE + A, [ONE_MINUS_Q])
    hand = FracPoly((ONE + A) * (Q + T + A - Q * T), [ONE_MINUS_Q])
    assert poincare_series("10") == hand


def test_insertion_series_examples():
    hand = FracPoly(Q * (ONE + A) * (ONE + A), [ONE_MINUS_Q]) + FracPoly(
        (T + A) * (ONE + A)
    )
    assert insertion_series("10") == hand
    assert insertion_series("11") == FracPoly((ONE + A) * (T + A))
    assert insertion_series("000") == poincare_series("000")


def test_dual_recursion_small():
    memo_a = MemoTable()
    memo_b = MemoTable()
    for n in range(6):
        for v in all_sequences(n):
            assert insertion_series(v, memo_b) == poincare_series(v, memo_a)


def test_zero_expansion_identity():
    assert zero_expansion_identity(1)
    assert zero_expansion_identity(2)
    assert zero_expansion_identity(4)
    with pytest.raises(ValueError):
        zero_expansion_identity(0)


def test_full_twist_series():
    assert full_twist_series(1, 3) == (ONE + A) * (ONE + Q + Q ** 2 + Q ** 3)
    # constant-in-q slice of the two-strand series
    s = full_twist_series(2, 1)
    q0 = Polynomial({e: c for e, c in s.units().items() if e[0] == 0})
    assert q0 == (T + A) * (ONE + A)
    # qmax=0 keeps exactly the q-free part of the normalized polynomial
    s0 = full_twist_series(3, 0)
    p = poincare_poly("000")
    assert s0 == Polynomial({e: c for e, c in p.units().items() if e[0] == 0})
    for memo in (None, MemoTable()):
        with pytest.raises(ValueError, match="qmax"):
            full_twist_series(3, -1, memo)


def test_top_a_coefficient():
    for n in range(7):
        for v in all_sequences(n):
            assert poincare_poly(v).coefficient_of_a(n) == ONE


def test_memo_idempotent_insertion():
    memo = MemoTable()
    memo.insert("0", ONE + A)
    memo.insert("0", ONE + A)
    with pytest.raises(MemoDivergence):
        memo.insert("0", ONE)


def test_memo_shared_across_threads():
    memo = MemoTable()
    seqs = [v for n in range(6) for v in all_sequences(n)]
    errors = []

    def worker(order):
        try:
            for v in order:
                poincare_poly(v, memo)
        except Exception as e:  # pragma: no cover
            errors.append(e)

    threads = [
        threading.Thread(target=worker, args=(order,))
        for order in (seqs, list(reversed(seqs)), seqs[::2] + seqs[1::2])
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    fresh = MemoTable()
    for v in seqs:
        assert poincare_poly(v, fresh) == memo[v]


def test_cache_round_trip(tmp_path):
    memo = MemoTable()
    for v in all_sequences(4):
        poincare_poly(v, memo)
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    loaded = load_cache(str(path))
    assert dict(loaded) == dict(memo)


def test_cache_spot_check_catches_tampering(tmp_path):
    memo = MemoTable()
    poincare_poly("01", memo)
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    data = json.loads(path.read_text())
    for key in data:
        data[key]["terms"] = [{"coeff": "7", "exp": [0, 0, 0]}]
    path.write_text(json.dumps(data))
    # the sample of the 4 keys is the empty key alone
    with pytest.raises(MemoDivergence, match="''"):
        load_cache(str(path))


def _tampered_cache(tmp_path, key, terms):
    memo = MemoTable()
    for v in all_sequences(4):
        poincare_poly(v, memo)
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    data = json.loads(path.read_text())
    data[key]["terms"] = [{"coeff": str(c), "exp": list(e)} for e, c in terms]
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("terms", [
    [((0, 0, 0), 1), ((UNIT, 2, 0), 1)],                    # a^(1/2): not whole
    [((0, 0, 0), 1), ((0, 0, 11 * UNIT), 1)],               # t^11 > 5*4/2
    [((0, 0, 0), 1), ((-UNIT, 0, 0), 1)],                   # negative q-degree
    [((0, 0, 0), 1), ((40 * UNIT, 0, 0), 1)],               # q-degree above bound
    [((0, 0, 0), 2 ** 70), ((0, UNIT, 0), -(2 ** 70))],     # L1 norm above bound
])
def test_cache_entry_out_of_bounds_fails_by_name(tmp_path, terms):
    path = _tampered_cache(tmp_path, "0110", terms)
    # the sample of the 31 keys is "" and "0111", so the bounds check
    # meets "0110"
    with pytest.raises(EntryOutOfBounds, match="'0110'"):
        load_cache(path)
    # unchecked, the entry is never read for another key
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    memo = MemoTable({k: poly_from_obj(obj) for k, obj in data.items()})
    loaded = memo["0110"]
    assert poincare_poly("01101", memo) == poincare_poly("01101")
    assert memo["0110"] is loaded


def test_save_cache_is_atomic(tmp_path, monkeypatch):
    memo = MemoTable()
    poincare_poly("010", memo)
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    before = path.read_bytes()

    calls = []

    def crash(obj):
        # the one dump of the whole map crashes after the temp file is open
        calls.append(sorted(os.listdir(tmp_path)))
        raise RuntimeError("crash mid-dump")

    poincare_poly("0110", memo)
    monkeypatch.setattr(json, "dumps", crash)
    with pytest.raises(RuntimeError, match="mid-dump"):
        save_cache(str(path), memo)
    [listing] = calls
    assert len(listing) == 2 and listing[1].endswith(".tmp")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.json"]
    monkeypatch.undo()
    save_cache(str(path), memo)
    assert os.listdir(tmp_path) == ["cache.json"]
    assert dict(load_cache(str(path))) == dict(memo)


def test_save_cache_golden_bytes(tmp_path):
    memo = MemoTable()
    poincare_poly("0" * 6, memo)
    assert len(memo) == 2 ** 7 - 1
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    want = json.dumps({k: poly_to_obj(memo[k]) for k in sorted(memo)}) + "\n"
    got = path.read_text(encoding="utf-8")
    # a plain flag: pytest's diff of two 700 KB one-line strings takes minutes
    same = got == want
    assert same, f"differs from char {len(os.path.commonprefix([got, want]))}"
    save_cache(str(path), MemoTable())
    assert path.read_text(encoding="utf-8") == "{}\n"


@pytest.mark.parametrize("term,message", BAD_TERMS)
def test_cache_with_non_integral_term_fails_to_load(tmp_path, term, message):
    memo = MemoTable()
    poincare_poly("0110", memo)
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    data = json.loads(path.read_text())
    data["0110"]["terms"][1] = term
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match=message):
        load_cache(str(path))
