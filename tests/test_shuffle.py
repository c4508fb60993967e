import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import product
from math import comb

import pytest

from tlh import closed_form, shuffle, verify
from tlh.poly import A, ONE, ONE_MINUS_Q, Q, T, UNIT, FracPoly, Polynomial
from tlh.serialize import ParseError, dumps, parse_poly, poly_to_obj
from tlh.shuffle import (
    EntryOutOfBounds,
    IncompatiblePair,
    MemoDivergence,
    MemoryBudgetExceeded,
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


def _words(n):
    """Every word of length <= n, shortest first."""
    return [v for m in range(n + 1) for v in all_sequences(m)]


SEQS_UP_TO_8 = _words(8)


def _one_plan(roots):
    """P of every key of ``roots``, stepped as one plan."""
    return shuffle._run(roots, shuffle._Layout)


def _insertion_one_plan(roots):
    """The insertion route's P of every key of ``roots``, as one plan."""
    return shuffle._run(roots, shuffle._InsertionLayout)


def _bounds(key):
    """The P route's (q-degree, L1 norm) bounds of ``key``."""
    return shuffle._Layout.bounds(shuffle._plan([key], shuffle._Layout.deps)[0])[key]


def _closure(key):
    """{k: P(k)} over the closure of ``key``, stepped as one plan."""
    return _one_plan(list(shuffle._plan([key], shuffle._Layout.deps)[0]))


def _every_key(key, layout):
    """Every key of the closure of ``key`` stepped on ``layout``, as roots."""
    roots = list(shuffle._plan([key], shuffle._Layout.deps)[0])
    plan = shuffle._plan(roots, shuffle._Layout.deps)
    return shuffle._evaluate(roots, plan, [layout], lambda k: layout.dq + 1)


@pytest.fixture(scope="module")
def shift_and_add_reference():
    reference = {}
    for v in SEQS_UP_TO_8:
        _shift_and_add_terms(v, reference)
    return reference


def test_packed_kernel_one_shot_matches_reference(shift_and_add_reference):
    for v in SEQS_UP_TO_8:
        assert poincare_poly(v).units() == shift_and_add_reference[v], v


def test_packed_kernel_two_limb_fields():
    # L1 bound 2^64 needs a sign bit more than one 64-bit limb holds: a
    # 72-bit field, one whole limb and one of a byte
    assert _bounds("1" * 64) == (0, 2 ** 64)
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
    layout.build()
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
        assert layout.unpack(packed, 2) == p
        assert layout.unpack(-packed, 2) == -p


def _spy_decoder(monkeypatch, row_fields):
    """Record the q-rows of every decode, and what one row fewer gives.

    One row fewer raises ``OverflowError`` where the value's top row holds
    a term, and otherwise reads the same value: the decoder never drops a
    term silently.
    """
    rows, short = [], []
    unpack = shuffle._unpack

    def spy(packed, b, fields, exps):
        exps = list(exps)
        value = unpack(packed, b, fields, exps)
        rows.append(fields // row_fields)
        try:
            short.append(unpack(packed, b, fields - row_fields, exps) == value)
        except OverflowError:
            short.append(None)
        return value

    monkeypatch.setattr(shuffle, "_unpack", spy)
    return rows, short


@pytest.mark.parametrize("route", ["P", "insertion"])
def test_each_root_decodes_its_own_q_rows(monkeypatch, route):
    # verify's every-word runs at bound 6: each root is read at its own
    # q-rows, dq_k + 1 by its route's bounds, not at the layout's height
    rows, short = _spy_decoder(monkeypatch, 7 * (comb(6, 2) + 1))
    if route == "P":
        layout, roots = shuffle._Layout, verify._words(6)[::-1]
        values = verify._poly_upto(6)
    else:
        layout, roots = shuffle._InsertionLayout, verify._words(6)
        values = shuffle._run(roots, layout)
    needs, _ = shuffle._plan(roots, layout.deps)
    bounds = layout.bounds(needs)
    order = [k for k in needs if k in values]  # roots unpack as they step
    assert rows == [bounds[k][0] + 1 for k in order]
    assert max(rows) == max(d for d, _ in bounds.values()) + 1 > min(rows)
    # decoding one row fewer loses a term of some root, and never silently
    assert None in short and False not in short
    monkeypatch.undo()
    assert sorted(values) == sorted(roots)
    assert all(values[v] == poincare_poly(v) for v in roots)


@pytest.mark.parametrize("qmax, passes", [(3, 2), (10, 1)])
def test_full_twist_root_decodes_its_whole_layout(monkeypatch, qmax, passes):
    # n = 6 takes the split f route below qmax 8 and whole P above it
    decoded, layouts = [], []
    unpack, evaluate = shuffle._unpack, shuffle._evaluate

    def spy_unpack(packed, b, fields, exps):
        decoded.append(fields)
        return unpack(packed, b, fields, exps)

    def spy_evaluate(roots, plan, run_layouts, size, extra=None):
        layouts.extend(run_layouts)
        return evaluate(roots, plan, run_layouts, size, extra)

    monkeypatch.setattr(shuffle, "_unpack", spy_unpack)
    monkeypatch.setattr(shuffle, "_evaluate", spy_evaluate)
    got = full_twist_series(6, qmax)
    assert len(layouts) == passes
    assert decoded == [layout.fields for layout in layouts]
    monkeypatch.undo()
    assert got == poincare_series("0" * 6).series(qmax)


def _zeros_dq(n):
    return _bounds("0" * n)[0]


@pytest.mark.parametrize("n", range(1, 13))
def test_truncated_full_twist_matches_whole_series(n):
    # the series route against whole P(0^n)
    series = poincare_series("0" * n)
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
    needs, _ = shuffle._plan([key], shuffle._Layout.deps)
    whole = _one_plan(list(needs)) if n <= 7 else {}
    l1 = _bounds(key)[1]
    sized, built = [], []
    field_bytes, series_layout = shuffle._field_bytes, shuffle._SeriesLayout

    def spy_field_bytes(bound):
        sized.append(bound)
        return field_bytes(bound)

    def spy_series_layout(n, qmax, mass, *geometry):
        built.append(mass)
        return series_layout(n, qmax, mass, *geometry)

    monkeypatch.setattr(shuffle, "_field_bytes", spy_field_bytes)
    monkeypatch.setattr(shuffle, "_SeriesLayout", spy_series_layout)
    for qmax in (0, 3, 10):
        bound = 2 ** n * comb(qmax + n - 1, n - 1)
        # every key of the closure read at all its q-rows, as a root
        layout = series_layout(n, qmax, bound, dict.fromkeys(needs, qmax))
        # the fewest bytes that hold the bound with the top bit clear
        assert 2 ** (layout.w - 9) <= bound < 2 ** (layout.w - 1)
        values = _every_key(key, layout)
        assert values.keys() == needs.keys()
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
        # and the full twist sizes every series layout it weighs by it, both
        # passes of each of the n splits, whichever route it then takes, the
        # whole layout by the L1 bound, and the layout whose fields count
        # the expansion's terms (_series_terms) by 1
        sized.clear()
        built.clear()
        full_twist_series(n, qmax)
        if qmax < _zeros_dq(n):
            assert built == [bound] * 2 * n, qmax
            assert sorted(b for b in sized if b > 1) == sorted([l1] + built), qmax
        else:  # only the whole layout and the expansion's are sized
            assert sized == [l1, 1] and built == [], qmax


def test_poincare_poly_at_a_t_one_is_two_to_the_length():
    # P(v.1) = 2 P(v), P(0^m) = P(1 0^(m-1)), P(v.0) = P(1 v) at a = t = 1
    values = _one_plan(_words(9))
    assert len(values) == 2 ** 10 - 1
    for v in _words(9):
        rows = {}
        for e, c in values[v].units().items():
            rows[e[0]] = rows.get(e[0], 0) + c
        assert {d: c for d, c in rows.items() if c} == {0: 2 ** len(v)}, v


def test_slice_t_degree_bound_holds_every_key():
    # the a^j slice of P(v) has t-degree at most C(|v|, 2) - C(j, 2) (the
    # tlh.shuffle docstring), and P(1^m) = prod (t^k + a) reaches it in each
    values = _one_plan(_words(9))
    assert len(values) == 2 ** 10 - 1
    for v, p in values.items():
        bound = [comb(len(v), 2) - comb(j, 2) for j in range(len(v) + 1)]
        top = [-1] * len(bound)
        for (_, ea, et), _ in p.terms():
            top[ea // UNIT] = max(top[ea // UNIT], et // UNIT)
        assert all(d <= b for d, b in zip(top, bound)), v
        if "0" not in v:
            assert top == bound, v


@pytest.fixture(scope="module")
def series_slices_up_to_8():
    # each key's f(k) cut at q^qmax, split into its a^0..a^|k| slices
    values = _one_plan(SEQS_UP_TO_8)
    slices = {}
    for k, qmax in product(values, (0, 3, 10)):
        by_a = slices[k, qmax] = [{} for _ in range(len(k) + 1)]
        series = FracPoly(values[k], [ONE_MINUS_Q] * k.count("0"))
        for e, c in series.series(qmax).terms():
            by_a[e[1] // UNIT][e] = c
    return slices


@pytest.mark.parametrize("n", range(1, 9))
def test_series_passes_hold_their_slices_of_every_key(series_slices_up_to_8, n):
    # both passes step the closure of 0^n, every word of length m <= n: the
    # low pass holds f's a-degrees 0..J, and the high pass f~'s rows
    # b = 0..n - 1 - J, f's a-degrees m - b, which its layout names n - b
    needs, _ = shuffle._plan(["0" * n], shuffle._Layout.deps)
    for qmax in (0, 3, 10):
        mass = 2 ** n * comb(qmax + n - 1, n - 1)
        for J in range(n):
            for high, geometry in enumerate(shuffle._split(n, J)):
                every = dict.fromkeys(needs, qmax)
                layout = shuffle._SeriesLayout(n, qmax, mass, every, *geometry)
                values = _every_key("0" * n, layout)
                assert values.keys() == needs.keys()
                for k, value in values.items():
                    m = len(k)
                    lo, hi = (m - (n - 1 - J), m) if high else (0, J)
                    shift = (n - m) * UNIT if high else 0
                    got = {(q, a - shift, t): c for (q, a, t), c in value.units().items()}
                    want = {}
                    for part in series_slices_up_to_8[k, qmax][max(lo, 0):hi + 1]:
                        want.update(part)
                    assert got == want, (k, qmax, J, high)


@pytest.mark.parametrize("n", range(1, 9))
def test_series_keys_hold_their_demand_rows(monkeypatch, series_slices_up_to_8, n):
    # the plan of 0^n alone on both passes of the two extreme splits and a
    # middle one: each key k holds f(k) cut at its demand row r(k) and no
    # q-row above it, and a key that no consumer reads holds 0; a value
    # longer than r(k) + 1 q-rows would change no output, so only its
    # length shows it
    key = "0" * n
    needs, _ = plan = shuffle._plan([key], shuffle._Layout.deps)
    stored = {}
    step = shuffle._SeriesLayout.step

    def spy_step(layout, k, ds, work):
        stored[k] = step(layout, k, ds, work)
        return stored[k]

    monkeypatch.setattr(shuffle._SeriesLayout, "step", spy_step)
    for qmax in (0, 3, 10):
        demand = shuffle._demand(needs, key, qmax)
        assert demand[key] == qmax
        mass = 2 ** n * comb(qmax + n - 1, n - 1)
        for J in sorted({0, n // 2, n - 1}):
            for high, geometry in enumerate(shuffle._split(n, J)):
                layout = shuffle._SeriesLayout(n, qmax, mass, demand, *geometry)
                stored.clear()
                shuffle._evaluate([key], plan, [layout], lambda k: demand[k] + 1)
                assert stored.keys() == needs.keys()
                for k, value in stored.items():
                    r, m = demand[k], len(k)
                    assert value.bit_length() <= (r + 1) * layout.sq, (k, qmax, J)
                    if r < 0:
                        continue
                    lo, hi = (m - (n - 1 - J), m) if high else (0, J)
                    shift = (n - m) * UNIT if high else 0
                    got = {
                        (q, a - shift, t): c
                        for (q, a, t), c in layout.unpack(value, r + 1).units().items()
                    }
                    want = {}
                    for part in series_slices_up_to_8[k, qmax][max(lo, 0):hi + 1]:
                        want.update((e, c) for e, c in part.items() if e[0] <= r * UNIT)
                    assert got == want, (k, qmax, J, high)


@pytest.mark.parametrize(
    "n, qmax, route",
    # per n: a low qmax, two below the crossover, the last of them just below,
    # and the crossover itself
    [(8, 3, "series"), (8, 11, "series"), (8, 12, "series"), (8, 13, "whole")]
    + [(11, 10, "series"), (11, 21, "series"), (11, 25, "series"), (11, 26, "whole")]
    + [(n, qmax, "whole") for n in (1, 4, 8) for qmax in (_zeros_dq(n), 1000)],
)
def test_full_twist_takes_the_cheaper_route(monkeypatch, n, qmax, route):
    # the series route fills up to qmax + 1 q-rows on the keys near the
    # target, so it loses once qmax nears the q-degree bound, though each of
    # its two passes holds about half the fields per q-row; from the bound on
    # it is never tried
    layouts, passes = [], []
    evaluate, room = shuffle._evaluate, shuffle._room

    def spy_evaluate(roots, plan, stepped, size, extra=None):
        layouts.extend(map(type, stepped))
        return evaluate(roots, plan, stepped, size, extra)

    def spy_room(what, parts):
        if not any(part.startswith("unpacked values") for part in parts):
            passes.append(sum(parts.values()))
        return room(what, parts)

    monkeypatch.setattr(shuffle, "_evaluate", spy_evaluate)
    monkeypatch.setattr(shuffle, "_room", spy_room)
    want = poincare_series("0" * n).series(qmax)
    layouts.clear()
    passes.clear()
    assert full_twist_series(n, qmax) == want
    series = route == "series"
    assert layouts == ([shuffle._SeriesLayout] * 2 if series else [shuffle._Layout])
    # each pass is estimated once before it steps
    assert all(passes)
    assert len(passes) == len(layouts)


class _Routed(Exception):
    """Raised in place of full_twist_series's first peak pass."""


# the qmax below which the full twist takes the series route, n = 1..15
_SERIES_CROSSOVER = [0, 1, 2, 4, 6, 8, 13, 13, 19, 22, 26, 30, 34, 40, 44]


def test_series_route_never_holds_more_at_once_than_whole_p(monkeypatch):
    # the route is chosen by the bytes stepped alone; wherever the series
    # route is taken, its larger pass's sized peak is at most whole P's, so
    # a memory test beside the byte test would decide no case
    plan_of, peak_live = shuffle._plan, shuffle._peak_live
    bounds_of, demand_of = shuffle._Layout.bounds, shuffle._demand
    plans, filled, tops = {}, {}, {}

    def shifted(needs, key, qmax):
        # r(k) = qmax - d(k), d(k) the fewest rows dropped on a path from
        # the root, d(k) <= dq - dq(k); so each r falls with qmax to -1
        top, dq = tops[key]
        return {k: r - dq + qmax if r >= dq - qmax else -1 for k, r in top.items()}

    def routed(needs, users, size):
        # the chosen route sizes 0^n by qmax + 1 q-rows (series) or dq + 1,
        # and each key by its own q-rows
        raise _Routed(size)

    # one closure walk, its bounds and its demand rows per n, not per case:
    # 560 of each would take a minute
    monkeypatch.setattr(shuffle, "_plan", lambda roots, deps: plans[roots[0]])
    monkeypatch.setattr(
        shuffle._Layout, "bounds", staticmethod(lambda needs: filled[id(needs)])
    )
    monkeypatch.setattr(shuffle, "_demand", shifted)
    monkeypatch.setattr(shuffle, "_peak_live", routed)
    for n, crossover in enumerate(_SERIES_CROSSOVER, 1):
        key = "0" * n
        needs, users = plans[key] = plan_of([key], shuffle._Layout.deps)
        bounds = filled[id(needs)] = bounds_of(needs)
        dq, l1 = bounds[key]
        tops[key] = demand_of(needs, key, dq), dq
        for qmax in {0, crossover, dq - 1} - {-1}:
            assert shifted(needs, key, qmax) == demand_of(needs, key, qmax)
        whole = peak_live(needs, users, lambda k: bounds[k][0] + 1)
        whole_bytes = whole * shuffle._field_bytes(l1) * (n + 1) * (comb(n, 2) + 1)
        # every series value holds r(k) + 1 <= qmax + 1 q-rows of the larger
        # pass's fields: the peak at qmax + 1 bounds the sized one from above
        values = peak_live(needs, users, lambda k: 1)
        fields = min(
            max(len(a) * t for a, t in shuffle._split(n, J)) for J in range(n)
        )
        taken = []
        for qmax in range(dq):
            with pytest.raises(_Routed) as routed_by:
                full_twist_series(n, qmax)
            size = routed_by.value.args[0]
            if size(key) == qmax + 1:
                taken.append(qmax)
                fb = shuffle._field_bytes(2 ** n * comb(qmax + n - 1, n - 1))
                rows = values * (qmax + 1)
                if rows * fb * fields > whole_bytes:
                    rows = peak_live(needs, users, size)
                assert rows * fb * fields <= whole_bytes, (n, qmax)
            else:
                assert size(key) == dq + 1, (n, qmax)
        # the series route serves every qmax below a crossover, none above
        assert taken == list(range(crossover)), n


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


def _grouped_insertion_step(key, work):
    """The insertion step's former form on term dicts: one weight per class.

    The P(w) sharing k = ones(w) and a weight class are added first, each
    sum is multiplied once by its weight, and the products go into one group
    G_k per k, folded Horner-style: acc <- acc (1 - q) + G_k.
    """
    if not key:
        return ONE
    if "1" not in key:
        return work["1" + key[1:]]
    z = key.count("0")
    classes = {}  # (ones(w), weight class) -> (first such w, sum of P(w))
    for w in all_sequences(z):
        cls = (w.count("1"), shuffle._weight_class(key, w))
        if cls in classes:
            first, total = classes[cls]
            classes[cls] = (first, total + work[w])
        else:
            classes[cls] = (w, work[w])
    groups = [{} for _ in range(z + 1)]
    for (k, _), (w, total) in classes.items():
        group = groups[k]
        shift = UNIT * (z - k)
        for (s0, s1, s2), d in insertion_weight(key, w).units().items():
            for (e0, e1, e2), c in total.units().items():
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


def _pack(layout, p):
    """``p`` packed on ``layout``: q^i a^j t^k at bit offset w ((i A + j) T + k).

    A is the layout's a-rows and T its t-width (the tlh.shuffle docstring).
    """
    rows, width = len(layout.a_rows), layout.sa // layout.w
    return sum(
        c << layout.w * ((e0 // UNIT * rows + e1 // UNIT) * width + e2 // UNIT)
        for (e0, e1, e2), c in p.units().items()
    )


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
    # the packed step and its term-dict form, one step each on the P
    # route's values, against one weight product per word
    work = {v: Polynomial(terms) for v, terms in shift_and_add_reference.items()}
    seqs = _words(7)
    bounds = shuffle._insertion_bounds(shuffle._plan(seqs, shuffle._insertion_deps)[0])
    layout = shuffle._InsertionLayout(7, *map(max, zip(*bounds.values())))
    layout.build()
    packed = {v: _pack(layout, work[v]) for v in seqs}
    applied = []
    weight_class = shuffle._weight_class

    class Recorded(tuple):
        """A weight class that records each weight applied from it."""

        def __reversed__(self):
            applied.append(self)
            return reversed(tuple(self))

    monkeypatch.setattr(
        shuffle, "_weight_class", lambda v, w: Recorded(weight_class(v, w))
    )
    words = weights = 0
    for v in seqs:
        want = _per_word_insertion_step(v, work)
        assert _grouped_insertion_step(v, work) == want, v
        applied.clear()
        step = layout.step(v, shuffle._InsertionLayout.deps(v), packed)
        assert layout.unpack(step, layout.dq + 1) == want, v
        if "1" in v:
            ws = all_sequences(v.count("0"))
            # one weight per class of words that the summand cannot tell apart
            classes = {(w.count("1"), _ones_right_of_each_one(v, w)) for w in ws}
            assert len(applied) == len(classes), v
            words += len(ws)
            weights += len(applied)
    assert weights < words


@pytest.fixture(scope="module")
def grouped_insertion_reference():
    # the term-dict insertion recursion over every key, 0^m after 1 0^(m-1)
    work = {}
    for v in sorted(SEQS_UP_TO_8, key=lambda v: (len(v), "1" not in v)):
        work[v] = _grouped_insertion_step(v, work)
    return work


def test_packed_insertion_route_matches_term_dict_reference(
    grouped_insertion_reference,
):
    upto = _insertion_one_plan(SEQS_UP_TO_8)
    assert upto.keys() == set(SEQS_UP_TO_8)
    for v in SEQS_UP_TO_8:
        want = FracPoly(grouped_insertion_reference[v], [ONE_MINUS_Q] * v.count("0"))
        assert dumps(insertion_series(v)) == dumps(want), v
        assert dumps(FracPoly(upto[v], want.den)) == dumps(want), v


def test_insertion_bounds_hold_every_key():
    # dq(v) = max dq(w) + #0(v) and L1(v) = 2^#1(v) sum 2^#1(w) L1(w) over
    # the words w of length #0(v) (the tlh.shuffle docstring)
    roots = _words(9)
    memo = _one_plan(roots)
    needs, _ = shuffle._plan(roots, shuffle._insertion_deps)
    assert needs.keys() == memo.keys()
    bounds = shuffle._insertion_bounds(needs)
    for v, ds in needs.items():
        dq, l1 = bounds[v]
        q_top = memo[v].unit_range("q")[1]
        assert q_top <= dq * UNIT and sum(map(abs, memo[v].units().values())) <= l1, v
        # so the largest bounds of a plan are its roots'
        assert all(bounds[d][0] <= dq and bounds[d][1] <= l1 for d in ds), v
    # the P route's q-degree bound, and three more bits of L1
    for n in (8, 9):
        dq, l1 = _bounds("0" * n)
        assert bounds["0" * n][0] == dq
        assert bounds["0" * n][1].bit_length() == l1.bit_length() + 3


def test_insertion_series_one_shot_matches_memoized_route():
    # one call per word against one plan over every word
    values = _insertion_one_plan(_words(5))
    for v in _words(5):
        want = FracPoly(values[v], [ONE_MINUS_Q] * v.count("0"))
        assert insertion_series(v) == want, v


def test_insertion_memo_holds_normalized_polynomials():
    # the values of the insertion route's runs are normalized polynomials
    values = _insertion_one_plan(_words(7))
    for v in _words(7):
        series = insertion_series(v)
        assert values[v] == poincare_poly(v), v
        assert dumps(series) == dumps(poincare_series(v)), v


def test_working_values_released_after_last_consumer(monkeypatch):
    live = []
    stepped = []
    step = shuffle._Layout.step

    def counting_step(layout, key, ds, work):
        live.append(len(work) + 1)  # the inputs held, plus the new value
        stepped.append(key)
        return step(layout, key, ds, work)

    monkeypatch.setattr(shuffle._Layout, "step", counting_step)
    for key in ("0" * 8, "0" * 8 + "1"):
        needs, users = shuffle._plan([key], shuffle._Layout.deps)
        live.clear()
        stepped.clear()
        assert poincare_poly(key).units() == _shift_and_add_terms(key, {})
        assert len(live) == len(needs)
        assert stepped == list(needs)
        peak = shuffle._peak_live(needs, users, lambda k: 1)
        assert max(live) == peak < len(needs) // 4


@pytest.mark.parametrize("route, layout_cls, peak", [
    ("P", "_Layout", 65), ("insertion", "_InsertionLayout", 129),
])
def test_unconsumed_roots_released_as_the_estimate_counts(
    monkeypatch, route, layout_cls, peak
):
    # every word of length <= 7 in one plan: a root that no key reads is
    # released as soon as it is stepped, by the driver and its estimate
    # alike; that is each word of length 7 on the insertion route, whose
    # words read shorter ones, and 0^7 alone on P's (kept, they would hold
    # 160 insertion values at once)
    live = []
    cls = getattr(shuffle, layout_cls)
    step = cls.step

    def counting_step(layout, key, ds, work):
        live.append(len(work) + 1)  # the values held, plus the new one
        return step(layout, key, ds, work)

    run = _one_plan if route == "P" else _insertion_one_plan
    roots = _words(7)
    needs, users = shuffle._plan(roots, cls.deps)
    monkeypatch.setattr(cls, "step", counting_step)
    values = run(roots)
    assert values.keys() == set(roots) and len(live) == len(needs)
    assert max(live) == shuffle._peak_live(needs, users, lambda k: 1) == peak


def test_memory_estimate_fails_by_name_before_any_step(monkeypatch):
    steps = []
    monkeypatch.setattr(shuffle._Layout, "step", lambda *args: steps.append(args))
    monkeypatch.setattr(shuffle, "_memory_budget", lambda: 8 * 2 ** 30)
    with pytest.raises(MemoryBudgetExceeded, match="evaluating '0{16}'") as err:
        poincare_poly("0" * 16)
    assert err.value.need > 8 * 2 ** 30
    assert steps == []
    needs, users = shuffle._plan(["0" * 13], shuffle._Layout.deps)
    bounds = shuffle._Layout.bounds(needs)
    layout = shuffle._Layout(13, *bounds["0" * 13])
    assert shuffle._peak_live(needs, users, lambda k: 1) == 2061
    peak = shuffle._peak_live(needs, users, lambda k: bounds[k][0] + 1)
    assert sum(shuffle._working_set(needs, peak, layout).values()) < 2 * 2 ** 30


def test_series_route_checks_every_pass_once_before_any_step(monkeypatch):
    # n = 11, qmax = 10 takes the series route in two passes; each pass's
    # estimate is checked against memory exactly once, all before the first
    # step of either
    events = []
    room, step = shuffle._room, shuffle._SeriesLayout.step

    def spy_room(what, parts):
        events.append(sum(parts.values()))
        return room(what, parts)

    def spy_step(layout, key, ds, work):
        events.append("step")
        return step(layout, key, ds, work)

    monkeypatch.setattr(shuffle, "_room", spy_room)
    monkeypatch.setattr(shuffle._SeriesLayout, "step", spy_step)
    full_twist_series(11, 10)
    estimates = events[:2]
    assert "step" not in estimates
    assert events[2:] == ["step"] * (len(events) - 2) and len(events) > 2
    # a budget between the two estimates refuses the call before any step
    low, high = sorted(estimates)
    assert low < high
    monkeypatch.setattr(shuffle, "_memory_budget", lambda: (low + high) // 2)
    events.clear()
    with pytest.raises(MemoryBudgetExceeded, match="evaluating '0{11}' ") as err:
        full_twist_series(11, 10)
    assert err.value.need == high
    assert "step" not in events


def test_no_slot_table_outlives_its_run():
    # each layout builds its own slot table, which is freed with the run:
    # long keys with few zeros have tables of 49,203 and 287,595 fields
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in ("0" + "1" * 30 + "0", "00" + "1" * 60):
            value = poincare_poly(key)
            assert value
            del value
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
            assert held < 2 ** 19, key
    finally:
        tracemalloc.stop()


def test_refused_run_builds_no_table(monkeypatch):
    # 0 1^60 0 has a closure of 128 keys but a layout of 357,588 fields:
    # the pre-flight refuses it from the layout's geometry alone
    monkeypatch.setattr(shuffle, "_memory_budget", lambda: 10 * 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceeded, match="MiB of slot table"):
            poincare_poly("0" + "1" * 60 + "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("run, name", [
    (lambda: insertion_series("0" * 10), "'0{10}'"),
    (lambda: _insertion_one_plan(_words(9)), "1023 keys, '' to '1{9}'"),
])
def test_insertion_estimate_fails_by_name_before_any_step(monkeypatch, run, name):
    steps = []
    monkeypatch.setattr(
        shuffle._InsertionLayout, "step", lambda *args: steps.append(args)
    )
    monkeypatch.setattr(shuffle, "_memory_budget", lambda: 16 * 2 ** 20)
    with pytest.raises(MemoryBudgetExceeded, match=f"evaluating {name} ") as err:
        run()
    assert "MiB of live values on the insertion route, a-degrees 0.." in str(err.value)
    assert err.value.need > 16 * 2 ** 20
    assert steps == []


# Run in a fresh interpreter: the memory estimate of the larger pass that
# steps, plus what the run's check adds for the values it unpacks and
# returns, then the growth of the process's peak RSS over the run (ru_maxrss
# is in kB on Linux).  ru_maxrss survives exec, so an interpreter spawned
# by a large process starts at its parent's peak; a fork of the fresh
# interpreter starts afresh, at its current RSS.  The heap that importing
# tlh freed is handed back first: where no bytecode is cached, compiling it
# leaves about a megabyte that a small run would reuse unseen.  And the
# child runs a few small calls before it measures, to fault back in the
# code pages that a fork does not copy.
_GROWTH_PROBE = """
import contextlib, ctypes, gc, io, os, resource, sys
from tlh import cli, shuffle
gc.collect()
if sys.platform.startswith("linux"):
    trim = ctypes.CDLL(None).malloc_trim
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
with contextlib.redirect_stdout(io.StringIO()):
    for qmax in ("2", "20"):  # the f route and whole P
        assert cli.main(["fulltwist", "--n", "5", "--qmax", qmax]) == 0
shuffle.poincare_poly("0" * 5)
shuffle.insertion_series("0" * 5)
estimates = []
room = shuffle._room

def recording(what, parts):
    # each pass's estimate, not the re-check of the values it unpacks
    if not any(part.startswith("unpacked values") for part in parts):
        estimates.append(sum(parts.values()))
    return room(what, parts)

shuffle._room = recording
route = sys.argv[1]
held = {}
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if route == "fulltwist":
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fulltwist", "--n", sys.argv[2], "--qmax", sys.argv[3]]) == 0
elif route == "insertion":
    shuffle.insertion_series(sys.argv[2])
elif route == "poly":
    shuffle.poincare_poly(sys.argv[2])
else:  # every word of length <= argv[2] in one plan, holding every value
    words = [v for n in range(int(sys.argv[2]) + 1) for v in shuffle.all_sequences(n)]
    layouts = {"poly-upto": shuffle._Layout, "insertion-upto": shuffle._InsertionLayout}
    held = shuffle._run(words, layouts[route])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert len(estimates) in (1, 2)
unpacked = sum(map(len, held.values())) * shuffle._UNPACKED_BYTES_PER_TERM
print(max(estimates) + unpacked, (after - before) * (1 if sys.platform == "darwin" else 1024))
"""


@pytest.mark.parametrize(
    "argv, tight",
    [pytest.param(("fulltwist", n, 10), n >= 10, id=f"fulltwist-{n}") for n in range(9, 14)]
    # the whole route and its expansion
    + [pytest.param(("fulltwist", 11, 55), True, id="fulltwist-11-55")]
    + [pytest.param(("poly", "0" * n), n >= 10, id=f"poly-{n}") for n in range(8, 12)]
    # a long key with few zeros: its layout's slot table outweighs its values
    + [pytest.param(("poly", "0" + "1" * 30 + "0"), False, id="poly-0-1x30-0")]
    # every word of length <= 9 in one plan, on each route, and one key's
    # insertion route
    + [pytest.param(("poly-upto", 9), True, id="poly-upto-9")]
    + [pytest.param(("insertion", "0" * 10), True, id="insertion-10")]
    + [pytest.param(("insertion-upto", 9), True, id="insertion-upto-9")],
)
def test_memory_estimate_covers_the_peak_rss_growth(argv, tight):
    src = os.path.dirname(os.path.dirname(shuffle.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _GROWTH_PROBE, *map(str, argv)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    estimate, grown = map(int, proc.stdout.split())
    assert estimate >= grown > 0
    if tight:  # each value sized by its own q-rows
        assert estimate <= 2 * grown


def test_memo_sink_fails_by_name_before_memory_runs_out(monkeypatch):
    # the live values of every word of length <= 10 fit 64 MiB, the 3.2
    # million terms of the values unpacked for them do not
    monkeypatch.setattr(shuffle, "_memory_budget", lambda: 64 * 2 ** 20)
    unpacked = []
    unpack = shuffle._Layout.unpack

    def counting_unpack(layout, packed, rows):
        unpacked.append(packed)
        return unpack(layout, packed, rows)

    monkeypatch.setattr(shuffle._Layout, "unpack", counting_unpack)
    name = "evaluating 2047 keys, '' to '1{10}'"
    with pytest.raises(MemoryBudgetExceeded, match=name) as err:
        _one_plan(_words(10))
    assert re.search("of unpacked values up to '[01]+'$", str(err.value))
    assert err.value.need > 64 * 2 ** 20
    assert 0 < len(unpacked) < 2 ** 11 - 1
    # a smaller run fits
    assert _one_plan(SEQS_UP_TO_8)["0" * 8] == poincare_poly("0" * 8)


def test_closure_walk_stops_at_the_memory_budget(monkeypatch, tmp_path):
    key = "0" + "1" * 30 + "0"
    cached = {key: poincare_poly(key)}
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
    for route in (shuffle._Layout, shuffle._InsertionLayout):
        monkeypatch.setattr(route, "deps", staticmethod(counted(route.deps)))
    # a long key with few zeros has a small closure and walks in any budget
    for key, size in [
        ("1" * 30 + "0", 64),
        ("0" + "1" * 30 + "0", 68),
        ("0" * 5 + "1" * 40 + "0", 208),
        ("1" * 64, 65),
    ]:
        assert len(shuffle._plan([key], shuffle._Layout.deps)[0]) == size
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
    # the full twist walks by P's rules, _Layout.deps, as every run does
    calls.clear()
    with pytest.raises(MemoryBudgetExceeded, match="closure of '0{16}'"):
        full_twist_series(16, 10)
    assert 1 <= len(calls) < 2 * limit
    # a cache holding a long key with few zeros loads, checks included, in a
    # budget that covers the slot table of the layout it recomputes; that
    # of 0 1^30 0, 49,203 slots, alone holds about 7 MiB
    with pytest.raises(MemoryBudgetExceeded, match="MiB of slot table"):
        load_cache(str(path))
    monkeypatch.setattr(shuffle, "_memory_budget", lambda: 16 * 2 ** 20)
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
    for n in range(6):
        for v in all_sequences(n):
            assert insertion_series(v) == poincare_series(v)


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
    with pytest.raises(ValueError, match="qmax"):
        full_twist_series(3, -1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        full_twist_series(0, 3)


def test_top_a_coefficient():
    for n in range(7):
        for v in all_sequences(n):
            assert poincare_poly(v).coefficient_of_a(n) == ONE


def test_cache_round_trip(tmp_path):
    memo = _closure("0000")
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    assert load_cache(str(path)) == memo


def test_cache_spot_check_catches_tampering(tmp_path):
    memo = _closure("01")
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    data = json.loads(path.read_text())
    for key in data:
        data[key]["terms"] = [{"coeff": "7", "exp": [0, 0, 0]}]
    path.write_text(json.dumps(data))
    # the sample of the 4 keys is the empty key alone
    with pytest.raises(MemoDivergence, match="''"):
        load_cache(str(path))


def _tampered_cache(tmp_path, memo, key, terms):
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    data = json.loads(path.read_text())
    data[key]["terms"] = [{"coeff": str(c), "exp": list(e)} for e, c in terms]
    path.write_text(json.dumps(data))
    return str(path)


_OUTSIDE = "'0110' has a term at q,a,t exponent"


@pytest.mark.parametrize("terms, message", [
    ([((0, 0, 0), 1), ((UNIT, 2, 0), 1)], _OUTSIDE),        # a^(1/2): not whole
    ([((0, 0, 0), 1), ((0, 0, 11 * UNIT), 1)], _OUTSIDE),   # t^11 > 5*4/2
    ([((0, 0, 0), 1), ((-UNIT, 0, 0), 1)], _OUTSIDE),       # negative q-degree
    ([((0, 0, 0), 1), ((40 * UNIT, 0, 0), 1)],
     "'0110' has a q-degree above its bound 2"),
    ([((0, 0, 0), 2 ** 70), ((0, UNIT, 0), -(2 ** 70))], "'0110' has an L1 norm"),
    ([((0, 0, 0), 1), ((3 * UNIT, 0, 0), 1)],
     "'0110' has a q-degree above its bound 2"),
], ids=[f"terms{i}" for i in range(6)])
def test_cache_entry_out_of_bounds_fails_by_name(tmp_path, terms, message):
    # the sample of 2 keys is "", that of the 31 keys "" and "0111", so the
    # bounds check meets "0110"; which other keys share the file does not
    # change its message
    messages = []
    for memo in ({"": ONE, "0110": poincare_poly("0110")}, _closure("0000")):
        path = _tampered_cache(tmp_path, memo, "0110", terms)
        with pytest.raises(EntryOutOfBounds, match=message) as err:
            load_cache(path)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_cache_entry_check_holds_memory_in_proportion_to_the_entry(tmp_path):
    # the closure of 00 1^100 has 104 keys, and its packed layout over a
    # million fields; the one-term entry is checked against its bounds
    # without it
    key = "00" + "1" * 100
    path = tmp_path / "cache.json"
    save_cache(str(path), {"": ONE, key: ONE})
    tracemalloc.start()
    try:
        assert load_cache(str(path)) == {"": ONE, key: ONE}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_save_cache_is_atomic(tmp_path, monkeypatch):
    memo = _closure("010")
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    before = path.read_bytes()

    calls = []

    def crash(obj):
        # the one dump of the whole map crashes after the temp file is open
        calls.append(sorted(os.listdir(tmp_path)))
        raise RuntimeError("crash mid-dump")

    memo.update(_closure("0110"))
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
    assert load_cache(str(path)) == memo


def test_save_cache_golden_bytes(tmp_path):
    memo = _closure("0" * 6)
    assert len(memo) == 2 ** 7 - 1
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    want = json.dumps({k: poly_to_obj(memo[k]) for k in sorted(memo)}) + "\n"
    got = path.read_text(encoding="utf-8")
    # a plain flag: pytest's diff of two 700 KB one-line strings takes minutes
    same = got == want
    assert same, f"differs from char {len(os.path.commonprefix([got, want]))}"
    save_cache(str(path), {})
    assert path.read_text(encoding="utf-8") == "{}\n"


@pytest.mark.parametrize("text, message", [
    ("[]", "cache must be a JSON object"),
    ('{"0": %s, "012": %s}' % ((json.dumps(poly_to_obj(ONE + A)),) * 2),
     "bad cache key '012'"),
], ids=["array", "bad-key"])
def test_cache_that_is_not_a_key_map_fails_to_load(tmp_path, text, message):
    path = tmp_path / "cache.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_cache(str(path))


@pytest.mark.parametrize("term,message", BAD_TERMS)
def test_cache_with_non_integral_term_fails_to_load(tmp_path, term, message):
    path = tmp_path / "cache.json"
    save_cache(str(path), {"0110": poincare_poly("0110")})
    data = json.loads(path.read_text())
    data["0110"]["terms"][1] = term
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match=message):
        load_cache(str(path))
