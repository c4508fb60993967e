import gc
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from math import comb

import pytest

from tlh import budget, closed_form, shuffle, verify
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


def _one_plan(roots, route=shuffle._Layout):
    """{k: P(k)} over ``roots``, stepped as one run of ints by ``route``.

    The run's estimate is checked first, as a reader checks what it holds,
    and each root is decoded here at its own q-rows, from fields of the
    whole bytes that hold the plan's largest L1 bound plus a sign.
    """
    bounds = route.bounds(shuffle._plan(roots, route.deps)[0])
    n = max(map(len, roots))
    w = shuffle._byte_width(max(l1 for _, l1 in bounds.values()))
    layout = shuffle._Layout(n, max(dq for dq, _ in bounds.values()), w)
    slots = layout.slots(layout.dq + 1)
    parts, run = shuffle._run(roots, route, (n, layout.dq, w))
    budget._room(shuffle._name(roots), parts)
    return {
        k: shuffle._unpack(packed, w // 8, (bounds[k][0] + 1) * layout.row_fields, slots)
        for k, packed in run
    }


def _insertion_one_plan(roots):
    """The insertion route's {k: P(k)} over ``roots``, as one plan."""
    return _one_plan(roots, shuffle._InsertionLayout)


def _bounds(key):
    """The P route's (q-degree, L1 norm) bounds of ``key``."""
    return shuffle._Layout.bounds(shuffle._plan([key], shuffle._Layout.deps)[0])[key]


def _closure(key):
    """{k: P(k)} over the closure of ``key``, stepped as one plan."""
    return _one_plan(list(shuffle._plan([key], shuffle._Layout.deps)[0]))


def _every_key(key, layout):
    """Every key of the closure of ``key`` stepped on ``layout``, as roots: their ints."""
    roots = list(shuffle._plan([key], shuffle._Layout.deps)[0])
    plan = shuffle._plan(roots, shuffle._Layout.deps)
    return dict(shuffle._evaluate(roots, plan, layout))


def _digit_rows(slices, w):
    """f(k)'s a-slices as {(q-row, a-degree): the w-bit fields of its t^0..}.

    Each row's binary digits, t^0 last, as an unsigned packed value holds
    them, so that :func:`_packed` lays them out on any layout of width w.
    """
    terms = {}
    for j, part in enumerate(slices):
        for (q, _, t), c in part.items():
            terms.setdefault((q // UNIT, j), {})[t // UNIT] = c
    return {
        cell: "".join(format(ts.get(t, 0), f"0{w}b") for t in range(max(ts), -1, -1))
        for cell, ts in terms.items()
    }


def _packed(layout, rows, degree=lambda i: i, top=None):
    """The int on ``layout`` whose q-row q <= ``top``, a-row i holds rows[q, degree(i)].

    ``rows`` are :func:`_digit_rows`; a row that it lacks is 0, as is every
    q-row above ``top`` (by default the layout's top).
    """
    width = layout.w * layout.t_width
    a_rows = range(len(layout.a_rows) - 1, -1, -1)
    digits = [
        rows.get((q, degree(i)), "").zfill(width)
        for q in range(layout.dq if top is None else top, -1, -1)
        for i in a_rows
    ]
    return int("".join(digits) or "0", 2)


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
    assert shuffle._byte_width(2 ** 64) == 72
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
    # l1 plus a sign bit, rounded up to whole bytes
    w = shuffle._byte_width(l1)
    assert w == _WIDTHS[l1]
    layout = shuffle._Layout(2, 1, w)  # q^0..1, a^0..2, t^0..1
    slots = layout.slots(2)
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
        assert shuffle._unpack(packed, w // 8, layout.fields, slots) == p
        assert shuffle._unpack(-packed, w // 8, layout.fields, slots) == -p


@pytest.mark.parametrize("n, qmax", [(1, 0), (3, 0), (6, 3), (9, 10)])
def test_series_fields_round_trip_at_the_slice_mass(n, qmax):
    # each f pass's unsigned fields take the fewest bits that hold its
    # slice mass: every field at that bound, or a different value in each,
    # decodes exactly through the bit decoder, and a term above the fields
    # is refused
    needs, _ = shuffle._plan(["0" * n], shuffle._Layout.deps)
    demand = shuffle._demand(needs, {"0" * n: qmax})
    for J in range(n):
        for a, t in shuffle._split(n, J):
            mass = shuffle._slice_mass(n, qmax, a)
            w = mass.bit_length()
            layout = shuffle._SeriesLayout(n, qmax, w, demand, a, t)
            fields, slots = layout.fields, layout.slots(qmax + 1)
            assert 2 ** (w - 1) <= mass < 2 ** w
            for coeffs in ([mass] * fields, [max(mass - i, 0) for i in range(fields)]):
                # field i at bit offset w i, low to high
                packed = int("".join(format(c, f"0{w}b") for c in reversed(coeffs)), 2)
                want = Polynomial(dict(zip(slots, coeffs)))
                assert shuffle._unpack_bits(packed, w, fields, slots) == want, (J, a)
            with pytest.raises(OverflowError):
                shuffle._unpack_bits(packed + (1 << w * fields), w, fields, slots)


@pytest.mark.parametrize("count", range(10))
def test_tile_repeats_its_unit(count):
    for unit, stride in ((1, 1), (0b101, 3), (0b11, 7), ((1 << 40) - 1, 40)):
        want = sum(unit << stride * i for i in range(count))
        assert shuffle._tile(unit, stride, count) == want


def _spy_decoder(monkeypatch):
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
        row_fields = sum(q == 0 for q, _, _ in exps)  # the slots of q-row 0
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
    # the words of verify's runs at bound 6, every word of length 6 on P's
    # route and every word up to 6 on the insertion route's, each asked
    # alone: each is read at its own q-rows, dq_k + 1 by its route's bounds
    rows, short = _spy_decoder(monkeypatch)
    if route == "P":
        layout, roots, value_of = shuffle._Layout, all_sequences(6), poincare_poly
    else:
        layout, roots = shuffle._InsertionLayout, verify._words(6)
        value_of = insertion_series
    values = {v: value_of(v) for v in roots}
    bounds = layout.bounds(shuffle._plan(roots, layout.deps)[0])
    assert rows == [bounds[k][0] + 1 for k in roots]
    assert max(rows) == max(bounds[k][0] for k in roots) + 1 > min(rows)
    # decoding one row fewer loses a term of some root, and never silently
    assert None in short and False not in short
    monkeypatch.undo()
    want = poincare_poly if route == "P" else poincare_series
    assert all(values[v] == want(v) for v in roots)


@pytest.mark.parametrize("qmax, passes", [(3, 2), (10, 1)])
def test_full_twist_root_decodes_its_whole_layout(monkeypatch, qmax, passes):
    # n = 5 takes the split f route below qmax 7 and whole P from it on:
    # each f pass decodes its w-bit fields bit by bit, whole P its whole
    # bytes by byte slices
    decoded, layouts = [], []
    unpack, unpack_bits = shuffle._unpack, shuffle._unpack_bits
    evaluate = shuffle._evaluate

    def spy_unpack(packed, b, fields, exps):
        decoded.append(("bytes", 8 * b, fields))
        return unpack(packed, b, fields, exps)

    def spy_unpack_bits(packed, w, fields, exps):
        decoded.append(("bits", w, fields))
        return unpack_bits(packed, w, fields, exps)

    def spy_evaluate(roots, plan, layout):
        layouts.append(layout)
        return evaluate(roots, plan, layout)

    monkeypatch.setattr(shuffle, "_unpack", spy_unpack)
    monkeypatch.setattr(shuffle, "_unpack_bits", spy_unpack_bits)
    monkeypatch.setattr(shuffle, "_evaluate", spy_evaluate)
    got = full_twist_series(5, qmax)
    assert len(layouts) == passes
    assert decoded == [
        ("bits" if layout.route == "f" else "bytes", layout.w, layout.fields)
        for layout in layouts
    ]
    monkeypatch.undo()
    assert got == poincare_series("0" * 5).series(qmax)


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
def test_row_mass_bound_holds_every_key(monkeypatch, series_slices_up_to_8, n):
    # f(v)(q, a, 1) = (1 + a)^|v| / (1 - q)^#0(v), so the largest row mass
    # up to q^qmax is that of 0^n in row qmax, and the largest a^j slice
    # mass C(n, j) C(qmax + n - 1, n - 1) (the tlh.shuffle docstring)
    key = "0" * n
    needs, _ = shuffle._plan([key], shuffle._Layout.deps)
    l1 = _bounds(key)[1]
    sized, built = [], []
    byte_width, series_layout = shuffle._byte_width, shuffle._SeriesLayout

    def spy_byte_width(bound):
        # P's layouts alone: the series layouts take their widths as given
        sized.append(bound)
        return byte_width(bound)

    def spy_series_layout(n, qmax, w, *geometry):
        built.append(w)
        return series_layout(n, qmax, w, *geometry)

    monkeypatch.setattr(shuffle, "_byte_width", spy_byte_width)
    monkeypatch.setattr(shuffle, "_SeriesLayout", spy_series_layout)
    for qmax in (0, 3, 10):
        bound = 2 ** n * comb(qmax + n - 1, n - 1)
        # every key of the closure read at all its q-rows, as a root, on
        # unsigned fields of the fewest bits that hold the bound
        layout = series_layout(n, qmax, bound.bit_length(), dict.fromkeys(needs, qmax))
        values = _every_key(key, layout)
        assert values.keys() == needs.keys()
        masses = []
        # per a-degree j, the largest slice mass of f, and of f~'s row
        # b = j, f's a-degree |k| - j, over every key and q-row
        slices, reversed_slices = [0] * (n + 1), [0] * (n + 1)
        for k, value in values.items():
            if len(k) <= 8:  # every key holds its own f(k), compared packed
                by_a = series_slices_up_to_8[k, qmax]
                terms = _joined(by_a, 0, len(k))
                assert value == _packed(layout, _digit_rows(by_a, layout.w)), (k, qmax)
            else:  # the longest keys of 0^9's closure, decoded
                slots = layout.slots(qmax + 1)
                terms = shuffle._unpack_bits(value, layout.w, layout.fields, slots).units()
            assert max(terms.values()) <= bound
            cells = {}  # (q-row d, a-degree j): its mass
            for e, c in terms.items():
                cell = e[0] // UNIT, e[1] // UNIT
                cells[cell] = cells.get(cell, 0) + c
            z = k.count("0")
            assert cells == {
                (d, j): comb(len(k), j) * (comb(d + z - 1, z - 1) if z else 1)
                for d in range(qmax + 1 if z else 1)
                for j in range(len(k) + 1)
            }, (k, qmax)
            rows = [0] * (qmax + 1)
            for (d, j), c in cells.items():
                rows[d] += c
                slices[j] = max(slices[j], c)
                reversed_slices[len(k) - j] = max(reversed_slices[len(k) - j], c)
            masses += rows
        # the closed forms are the largest row and slice masses themselves
        assert max(masses) == bound, qmax
        tall = comb(qmax + n - 1, n - 1)
        assert slices == reversed_slices == [comb(n, j) * tall for j in range(n + 1)]
        # and the full twist sizes both passes of each of the n splits,
        # whichever route it then takes, each by the largest slice mass of
        # its a-degrees (f's at the target) in the fewest bits that hold
        # it; only P's whole layout is sized in whole bytes, by its L1 bound
        sized.clear()
        built.clear()
        full_twist_series(n, qmax)
        if qmax < _zeros_dq(n):
            assert built == [
                max(slices[j] for j in a).bit_length()
                for J in range(n)
                for a, _ in shuffle._split(n, J)
            ], qmax
        else:  # only the whole layout is sized
            assert built == [], qmax
        assert set(sized) == {l1}, qmax


@pytest.fixture(scope="module")
def p_up_to_9():
    """{v: P(v)} for every word of length <= 9, stepped as one plan."""
    return _one_plan(_words(9))


def test_poincare_poly_at_a_t_one_is_two_to_the_length(p_up_to_9):
    # P(v.1) = (1 + a) P(v), P(0^m) = P(1 0^(m-1)), P(v.0) = P(1 v) at t = 1,
    # so P(v)(q, a, 1) = (1 + a)^|v|, and 2^|v| at a = 1
    values = p_up_to_9
    assert len(values) == 2 ** 10 - 1
    for v in _words(9):
        cells = {}
        for e, c in values[v].units().items():
            cells[e[:2]] = cells.get(e[:2], 0) + c
        want = {(0, j * UNIT): comb(len(v), j) for j in range(len(v) + 1)}
        assert {e: c for e, c in cells.items() if c} == want, v


def test_slice_t_degree_bound_holds_every_key(p_up_to_9):
    # the a^j slice of P(v) has t-degree at most C(|v|, 2) - C(j, 2) (the
    # tlh.shuffle docstring), and P(1^m) = prod (t^k + a) reaches it in each
    values = p_up_to_9
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


def _decoded_slices(layout, value, rows, m, high):
    """``value`` decoded at q-rows 0..rows - 1, with f's a-degrees, |k| = m.

    The high pass's layout names f~'s row b as a-degree n - b: f's a-degree
    m - b lies n - m lower.
    """
    shift = (layout.a_rows[0] - m) * UNIT if high else 0
    slots = layout.slots(rows)
    value = shuffle._unpack_bits(value, layout.w, rows * layout.row_fields, slots)
    return {(q, a - shift, t): c for (q, a, t), c in value.units().items()}


def _joined(slices, lo, hi):
    """f's a^lo..a^hi slices in one term dict."""
    return {e: c for part in slices[lo:hi + 1] for e, c in part.items()}


@pytest.mark.parametrize("n", range(1, 9))
def test_series_passes_hold_their_slices_of_every_key(series_slices_up_to_8, n):
    # both passes step the closure of 0^n, every word of length m <= n: the
    # low pass holds f's a-degrees 0..J, and the high pass f~'s rows
    # b = 0..n - 1 - J, f's a-degrees m - b; each key's int is its slices
    # packed on the pass's layout, and 0^n's is decoded too
    key = "0" * n
    needs, _ = shuffle._plan([key], shuffle._Layout.deps)
    for qmax in (0, 3, 10):
        w = (2 ** n * comb(qmax + n - 1, n - 1)).bit_length()
        rows = {k: _digit_rows(series_slices_up_to_8[k, qmax], w) for k in needs}
        for J in range(n):
            for high, geometry in enumerate(shuffle._split(n, J)):
                every = dict.fromkeys(needs, qmax)
                layout = shuffle._SeriesLayout(n, qmax, w, every, *geometry)
                values = _every_key(key, layout)
                assert values.keys() == needs.keys()
                for k, value in values.items():
                    # a-row i holds f's a-degree i, or f~'s row b = i, f's |k| - i
                    degree = (lambda i, m=len(k): m - i) if high else (lambda i: i)
                    assert value == _packed(layout, rows[k], degree), (k, qmax, J, high)
                lo, hi = (1 + J, n) if high else (0, J)
                got = _decoded_slices(layout, values[key], qmax + 1, n, high)
                assert got == _joined(series_slices_up_to_8[key, qmax], lo, hi)


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
        demand = shuffle._demand(needs, {key: qmax})
        assert demand[key] == qmax
        w = (2 ** n * comb(qmax + n - 1, n - 1)).bit_length()
        rows = {k: _digit_rows(series_slices_up_to_8[k, qmax], w) for k in needs}
        for J in sorted({0, n // 2, n - 1}):
            for high, geometry in enumerate(shuffle._split(n, J)):
                layout = shuffle._SeriesLayout(n, qmax, w, demand, *geometry)
                stored.clear()
                dict(shuffle._evaluate([key], plan, layout))
                assert stored.keys() == needs.keys()
                for k, value in stored.items():
                    r = demand[k]
                    assert value.bit_length() <= (r + 1) * layout.sq, (k, qmax, J)
                    if r < 0:
                        assert value == 0, (k, qmax, J)
                        continue
                    degree = (lambda i, m=len(k): m - i) if high else (lambda i: i)
                    want = _packed(layout, rows[k], degree, top=r)
                    assert value == want, (k, qmax, J, high)
                lo, hi = (1 + J, n) if high else (0, J)
                got = _decoded_slices(layout, stored[key], qmax + 1, n, high)
                assert got == _joined(series_slices_up_to_8[key, qmax], lo, hi)


def _a_pass(parts):
    """Whether a ``budget._room`` call checks a packed pass.

    Its estimate; not the charge of a closure or of a word list before it
    is built.
    """
    return any(part.startswith("live values") for part in parts)


@pytest.mark.parametrize(
    "n, qmax, route",
    # per n: a low qmax, three below the crossover, the last of them just
    # below, and the crossover itself
    [(8, 3, "series"), (8, 11, "series"), (8, 12, "series"), (8, 15, "series")]
    + [(8, 16, "whole")]
    + [(11, 10, "series"), (11, 21, "series"), (11, 25, "series"), (11, 27, "series")]
    + [(11, 28, "whole")]
    + [(n, qmax, "whole") for n in (1, 4, 8) for qmax in (_zeros_dq(n), 1000)],
)
def test_full_twist_takes_the_cheaper_route(monkeypatch, n, qmax, route):
    # the series route fills up to qmax + 1 q-rows on the keys near the
    # target, so it loses once qmax nears the q-degree bound, though each of
    # its two passes holds about half the fields per q-row; from the bound on
    # it is never tried
    layouts, passes = [], []
    evaluate, room = shuffle._evaluate, budget._room

    def spy_evaluate(roots, plan, layout):
        layouts.append(type(layout))
        return evaluate(roots, plan, layout)

    def spy_room(what, parts):
        if _a_pass(parts):
            passes.append(sum(parts.values()))
        return room(what, parts)

    monkeypatch.setattr(shuffle, "_evaluate", spy_evaluate)
    monkeypatch.setattr(budget, "_room", spy_room)
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
_SERIES_CROSSOVER = [0, 1, 3, 6, 7, 11, 14, 16, 21, 26, 28, 33, 39, 42, 48]


def _series_row_bytes(n, qmax):
    """The bytes of the larger f pass's q-row, at the split that least has.

    Each pass's fields take the fewest bits that hold the largest slice
    mass of its a-degrees, f's at the target: C(n, j) C(qmax + n - 1, n - 1).
    """
    tall = comb(qmax + n - 1, n - 1)
    return min(
        max(
            -(-(max(comb(n, j) for j in a) * tall).bit_length() * len(a) * t // 8)
            for a, t in shuffle._split(n, J)
        )
        for J in range(n)
    )


def test_series_route_never_holds_more_at_once_than_whole_p(monkeypatch):
    # the route is chosen by the bytes stepped alone; wherever the series
    # route is taken, its larger pass's sized peak is at most whole P's, so
    # a memory test beside the byte test would decide no case
    plan_of, peak_live = shuffle._plan, shuffle._peak_live
    bounds_of, demand_of = shuffle._Layout.bounds, shuffle._demand
    plans, filled, tops = {}, {}, {}

    def shifted(needs, read):
        # r(k) = qmax - d(k), d(k) the fewest rows dropped on a path from
        # the root, d(k) <= dq - dq(k); so each r falls with qmax to -1
        (key, qmax), = read.items()
        top, dq = tops[key]
        return {k: r - dq + qmax if r >= dq - qmax else -1 for k, r in top.items()}

    def routed(needs, frees, size):
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
        needs, frees = plans[key] = plan_of([key], shuffle._Layout.deps)
        bounds = filled[id(needs)] = bounds_of(needs)
        dq, l1 = bounds[key]
        tops[key] = demand_of(needs, {key: dq}), dq
        for qmax in {0, crossover, dq - 1} - {-1}:
            assert shifted(needs, {key: qmax}) == demand_of(needs, {key: qmax})
        whole = peak_live(needs, frees, lambda k: bounds[k][0] + 1)
        whole_bytes = whole * (l1.bit_length() + 8) // 8 * (n + 1) * (comb(n, 2) + 1)
        # every series value holds r(k) + 1 <= qmax + 1 q-rows of the larger
        # pass's row: the peak at qmax + 1 bounds the sized one from above
        values = peak_live(needs, frees, lambda k: 1)
        taken = []
        for qmax in range(dq):
            with pytest.raises(_Routed) as routed_by:
                full_twist_series(n, qmax)
            size = routed_by.value.args[0]
            if size(key) == qmax + 1:
                taken.append(qmax)
                row_bytes = _series_row_bytes(n, qmax)
                rows = values * (qmax + 1)
                if rows * row_bytes > whole_bytes:
                    rows = peak_live(needs, frees, size)
                assert rows * row_bytes <= whole_bytes, (n, qmax)
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
    dq, l1 = map(max, zip(*bounds.values()))
    layout = shuffle._InsertionLayout(7, dq, shuffle._byte_width(l1))
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
        assert step == _pack(layout, want), v
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


def test_insertion_bounds_hold_every_key(p_up_to_9):
    # dq(v) = max dq(w) + #0(v) and L1(v) = 2^#1(v) sum 2^#1(w) L1(w) over
    # the words w of length #0(v) (the tlh.shuffle docstring)
    roots = _words(9)
    memo = p_up_to_9
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


def _walked_insertion_bounds(needs):
    """The insertion route's bounds walked over a plan, dependencies first.

    The rules as the module docstring states them: dq(v) = max dq(w) + z
    and L1(v) = 2^o sum of 2^#1(w) L1(w) over the words w of length
    z = #0(v), o = #1(v); 0^m has the bounds of 1 0^(m - 1), and the empty
    word (0, 1).
    """
    bounds = {}
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


def test_insertion_bounds_closed_form_is_the_walked_rule():
    # each key's bounds are read from its zeros and ones alone, never from
    # the words it reads, and equal the rule walked over every key of
    # length <= 11
    needs, _ = shuffle._plan(_words(11), shuffle._insertion_deps)
    assert len(needs) == 2 ** 12 - 1
    walked = _walked_insertion_bounds(needs)
    assert shuffle._insertion_bounds(dict.fromkeys(needs)) == walked


def test_shared_geometry_keeps_its_field_widths():
    # the largest of P's L1 bound of 0^n, the insertion route's largest L1
    # bound and f's largest slice mass, read from closed forms: the widths
    # they gave as walked bounds and row masses, plus a sign bit
    widths = [2, 4, 8, 12, 17, 21, 27, 32, 38, 43, 49, 55, 61, 68]
    for n, width in enumerate(widths, 1):
        assert shuffle._shared_geometry(n)[2] == width + 1, n
    assert shuffle._shared_geometry(0) == (0, 0, 2)


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


def _traced_peak(consume, stream):
    """The tracemalloc peak, in bytes, of ``consume(stream)``."""
    tracemalloc.start()
    try:
        consume(stream)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_streamed_run_holds_one_value_at_a_time():
    # P's run over every word of length <= 8, its 511 ints dropped as they
    # arrive, against the same run kept as a map: 1.2 against 4.7 MiB
    # (Python 3.11), the rest being the packed working set
    geometry = shuffle._shared_geometry(8)

    def run():
        return shuffle._run(_words(8), shuffle._Layout, geometry)[1]

    streamed = _traced_peak(lambda stream: sum(1 for _ in stream), run())
    held = _traced_peak(dict, run())
    assert streamed < 0.4 * held


def test_a_run_steps_nothing_until_its_stream_is_read(monkeypatch):
    stepped = []
    step = shuffle._Layout.step

    def counting_step(layout, key, ds, work):
        stepped.append(key)
        return step(layout, key, ds, work)

    geometry = shuffle._shared_geometry(2)
    want = _pack(shuffle._Layout(*geometry), poincare_poly("0"))
    monkeypatch.setattr(shuffle._Layout, "step", counting_step)
    _, stream = shuffle._run(["0", "00", "01"], shuffle._Layout, geometry)
    assert stepped == []
    # each root is yielded as soon as it is stepped, in the plan's order
    assert next(stream) == ("0", want)
    assert stepped == ["", "1", "0"]
    assert [v for v, _ in stream] == ["01", "00"]  # 00 reads 10, a later key


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
        needs, frees = shuffle._plan([key], shuffle._Layout.deps)
        live.clear()
        stepped.clear()
        assert poincare_poly(key).units() == _shift_and_add_terms(key, {})
        assert len(live) == len(needs)
        assert stepped == list(needs)
        peak = shuffle._peak_live(needs, frees, lambda k: 1)
        assert max(live) == peak < len(needs) // 4


@pytest.mark.parametrize("route, layout_cls, peak", [
    ("P", "_Layout", 65), ("insertion", "_InsertionLayout", 129),
    ("normalized", "_SeriesLayout", 36), ("full-twist", "_SeriesLayout", 72),
])
def test_unconsumed_roots_released_as_the_estimate_counts(
    monkeypatch, route, layout_cls, peak
):
    # every word of length <= 7 in one plan: a root that no key reads is
    # released as soon as it is stepped, by the driver and its estimate
    # alike; that is each word of length 7 on the insertion route, whose
    # words read shorter ones, and 0^7 alone on P's (kept, they would hold
    # 160 insertion values at once).  The f routes share P's rules: every
    # word of length 7 as _normalized lists them, and 0^8 cut at q^5, whose
    # two passes each step the plan once
    live = []
    cls = getattr(shuffle, layout_cls)
    step = cls.step

    def counting_step(layout, key, ds, work):
        live.append(len(work) + 1)  # the values held, plus the new one
        return step(layout, key, ds, work)

    roots, run, passes = {
        "P": (_words(7), _one_plan, 1),
        "insertion": (_words(7), _insertion_one_plan, 1),
        "normalized": (
            all_sequences(7)[::-1],
            lambda roots: dict(shuffle._normalized(7, shuffle._shared_geometry(7))[1]),
            1,
        ),
        "full-twist": (["0" * 8], lambda roots: {"0" * 8: full_twist_series(8, 5)}, 2),
    }[route]
    needs, frees = shuffle._plan(roots, cls.deps)
    monkeypatch.setattr(cls, "step", counting_step)
    values = run(roots)
    assert values.keys() == set(roots) and len(live) == passes * len(needs)
    assert max(live) == shuffle._peak_live(needs, frees, lambda k: 1) == peak


def test_a_run_is_preflighted_when_it_is_made(monkeypatch):
    # making a run walks its closure and sizes it, but checks nothing and
    # steps nothing: P's run and the f route's over every word of length 6
    # each return their estimate beside an unstarted stream, and their
    # reader checks the two together, as verify reads them side by side
    geometry = shuffle._shared_geometry(6)
    estimates, steps = [], []
    room = budget._room

    def spy_room(what, parts):
        if _a_pass(parts):
            estimates.append(parts)
        return room(what, parts)

    monkeypatch.setattr(budget, "_room", spy_room)
    for route in (shuffle._Layout, shuffle._SeriesLayout):
        monkeypatch.setattr(route, "step", lambda *args: steps.append(args))
    (p_parts, _), (f_parts, _) = (
        shuffle._run(all_sequences(6)[::-1], shuffle._Layout, geometry),
        shuffle._normalized(6, geometry),
    )
    assert estimates == [] and steps == []
    assert "live values on the P route, a-degrees 0..6" in p_parts
    assert "live values on the f route, a-degrees 0..6" in f_parts
    monkeypatch.undo()
    monkeypatch.setattr(budget, "_room", spy_room)
    shuffle._agreement(6)
    assert estimates[-1] == {**p_parts, **f_parts}


@pytest.mark.parametrize("make, roots", [
    (lambda geometry: shuffle._run(_words(6), shuffle._Layout, geometry), 127),
    (lambda geometry: shuffle._run(_words(6), shuffle._InsertionLayout, geometry), 127),
    (lambda geometry: shuffle._normalized(6, geometry), 64),
], ids=["P", "insertion", "normalized"])
def test_reading_a_run_to_its_end_checks_no_memory(monkeypatch, make, roots):
    # a stream never checks: its reader checks the run's estimate before
    # reading, here at a budget of exactly that estimate, and reading every
    # int the run yields, all of them kept, calls budget._room no more
    parts, stream = make(shuffle._shared_geometry(6))
    monkeypatch.setattr(budget, "_memory_budget", lambda: sum(parts.values()))
    assert budget._room("the run", parts) == 0
    calls = []
    monkeypatch.setattr(budget, "_room", lambda *args: calls.append(args))
    assert len(dict(stream)) == roots
    assert calls == []


def test_both_f_passes_are_refused_before_either_steps(monkeypatch):
    # n = 11, qmax = 10 takes the f route: each pass's pre-flight counts its
    # slot table and the binary digits that _unpack_bits cuts its root
    # from, and a budget short of either pass's estimate refuses the call
    # before either pass steps or any slot table is built
    estimates, events = [], []
    room, slots, step = budget._room, shuffle._Layout.slots, shuffle._SeriesLayout.step

    def spy_room(what, parts):
        if _a_pass(parts):
            estimates.append(parts)
        return room(what, parts)

    def spy_slots(layout, rows):
        events.append(("slots", layout.fields, layout.w))
        return slots(layout, rows)

    def spy_step(layout, key, ds, work):
        events.append("step")
        return step(layout, key, ds, work)

    monkeypatch.setattr(budget, "_room", spy_room)
    monkeypatch.setattr(shuffle._Layout, "slots", spy_slots)
    monkeypatch.setattr(shuffle._SeriesLayout, "step", spy_step)
    assert len(full_twist_series(11, 10)) == 2030 + 1895
    decoded = [e for e in events if e != "step"]
    assert len(estimates) == len(decoded) == 2
    for parts, (_, fields, w) in zip(estimates, decoded):
        assert parts["slot table"] == fields * shuffle._SLOT_BYTES_PER_FIELD
        assert parts["binary digits"] == fields * w
    for need in sorted(sum(parts.values()) for parts in estimates):
        monkeypatch.setattr(budget, "_memory_budget", lambda: need - 1)
        events.clear()
        with pytest.raises(MemoryBudgetExceeded, match="evaluating '0{11}' .* of slot table"):
            full_twist_series(11, 10)
        assert events == []


@pytest.mark.parametrize("read", [
    lambda: poincare_poly("0" * 6),
    lambda: insertion_series("0" * 6),
    lambda: full_twist_series(6, 3),  # the f route's two passes
    lambda: full_twist_series(6, 20),  # whole P and its expansion
], ids=["P", "insertion", "fulltwist-f", "fulltwist-whole"])
def test_a_decoded_run_builds_its_slot_table_after_its_last_step(monkeypatch, read):
    events = []
    slots = shuffle._Layout.slots

    def spy_slots(layout, rows):
        events.append("slots")
        return slots(layout, rows)

    monkeypatch.setattr(shuffle._Layout, "slots", spy_slots)
    for route in (shuffle._Layout, shuffle._InsertionLayout, shuffle._SeriesLayout):
        def spy_step(layout, key, ds, work, step=route.step):
            events.append("step")
            return step(layout, key, ds, work)

        monkeypatch.setattr(route, "step", spy_step)
    read()
    first = events.index("slots")
    assert "step" in events[:first] and "step" not in events[first:]


def test_memory_estimate_fails_by_name_before_any_step(monkeypatch):
    steps = []
    monkeypatch.setattr(shuffle._Layout, "step", lambda *args: steps.append(args))
    monkeypatch.setattr(budget, "_memory_budget", lambda: 8 * 2 ** 30)
    with pytest.raises(MemoryBudgetExceeded, match="evaluating '0{16}'") as err:
        poincare_poly("0" * 16)
    assert err.value.need > 8 * 2 ** 30
    assert steps == []
    needs, frees = shuffle._plan(["0" * 13], shuffle._Layout.deps)
    bounds = shuffle._Layout.bounds(needs)
    dq, l1 = bounds["0" * 13]
    layout = shuffle._Layout(13, dq, shuffle._byte_width(l1))
    assert shuffle._peak_live(needs, frees, lambda k: 1) == 2061
    peak = shuffle._peak_live(needs, frees, lambda k: bounds[k][0] + 1)
    assert sum(shuffle._working_set(needs, peak, layout).values()) < 2 * 2 ** 30


def test_series_route_checks_every_pass_once_before_any_step(monkeypatch):
    # n = 11, qmax = 10 takes the series route in two passes; each pass's
    # estimate is checked against memory exactly once, all before the first
    # step of either
    events = []
    room, step = budget._room, shuffle._SeriesLayout.step

    def spy_room(what, parts):
        if _a_pass(parts):
            events.append(sum(parts.values()))
        return room(what, parts)

    def spy_step(layout, key, ds, work):
        events.append("step")
        return step(layout, key, ds, work)

    monkeypatch.setattr(budget, "_room", spy_room)
    monkeypatch.setattr(shuffle._SeriesLayout, "step", spy_step)
    full_twist_series(11, 10)
    estimates = events[:2]
    assert "step" not in estimates
    assert events[2:] == ["step"] * (len(events) - 2) and len(events) > 2
    # a budget between the two estimates refuses the call before any step
    low, high = sorted(estimates)
    assert low < high
    monkeypatch.setattr(budget, "_memory_budget", lambda: (low + high) // 2)
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
    monkeypatch.setattr(budget, "_memory_budget", lambda: 10 * 2 ** 20)
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
    monkeypatch.setattr(budget, "_memory_budget", lambda: 16 * 2 ** 20)
    with pytest.raises(MemoryBudgetExceeded, match=f"evaluating {name} ") as err:
        run()
    assert "MiB of live values on the insertion route, a-degrees 0.." in str(err.value)
    assert err.value.need > 16 * 2 ** 20
    assert steps == []


# Run in a fresh interpreter: the memory estimate of the larger pass that
# steps, plus the values the reader keeps, then the growth of the
# process's peak RSS over the run (ru_maxrss is in kB on Linux).
# ru_maxrss survives exec, so an interpreter spawned by a large process
# starts at its parent's peak; a fork of the fresh interpreter starts
# afresh, at its current RSS.  The heap that importing
# tlh freed is handed back first: where no bytecode is cached, compiling it
# leaves about a megabyte that a small run would reuse unseen.  And the
# child runs a few small calls before it measures, to fault back in the
# code pages that a fork does not copy.
_GROWTH_PROBE = """
import contextlib, ctypes, gc, io, os, resource, sys
from tlh import budget, cli, shuffle
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
room = budget._room

def recording(what, parts):
    # each pass's estimate, not the charge of a closure or a word list
    # before it is built
    if any(part.startswith("live values") for part in parts):
        estimates.append(sum(parts.values()))
    return room(what, parts)

budget._room = recording
route = sys.argv[1]
held = {}
if route in ("normalized", "poly-upto", "insertion-upto"):
    geometry = shuffle._shared_geometry(int(sys.argv[2]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if route == "fulltwist":
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fulltwist", "--n", sys.argv[2], "--qmax", sys.argv[3]]) == 0
elif route == "insertion":
    shuffle.insertion_series(sys.argv[2])
elif route == "poly":
    shuffle.poincare_poly(sys.argv[2])
else:  # a run of ints that this reader checks, then reads, keeping every int
    if route == "normalized":  # every word of length argv[2] on the f route
        parts, run = shuffle._normalized(int(sys.argv[2]), geometry)
    else:  # every word of length <= argv[2] in one plan
        words = [v for n in range(int(sys.argv[2]) + 1) for v in shuffle.all_sequences(n)]
        layouts = {"poly-upto": shuffle._Layout, "insertion-upto": shuffle._InsertionLayout}
        parts, run = shuffle._run(words, layouts[route], geometry)
    budget._room(route, parts)
    held = dict(run)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert len(estimates) in (1, 2)
yielded = sum(shuffle._packed_bytes(x.bit_length() // 8 + 1) for x in held.values())
print(max(estimates) + yielded, (after - before) * (1 if sys.platform == "darwin" else 1024))
"""


@pytest.mark.parametrize(
    "argv, tight",
    [pytest.param(("fulltwist", n, 10), n >= 10, id=f"fulltwist-{n}") for n in range(9, 14)]
    # the whole route and its expansion
    + [pytest.param(("fulltwist", 11, 55), True, id="fulltwist-11-55")]
    + [pytest.param(("poly", "0" * n), n >= 10, id=f"poly-{n}") for n in range(8, 12)]
    # a long key with few zeros: its layout's slot table outweighs its values
    + [pytest.param(("poly", "0" + "1" * 30 + "0"), False, id="poly-0-1x30-0")]
    # one key's insertion route, and every word of length <= 9 in one run of
    # ints on verify's geometry, on each route, its reader keeping every int
    # and counting each at 1.6 times its bytes (_packed_bytes) beside the
    # run's estimate: on the insertion route 2.1 times its growth
    + [pytest.param(("insertion", "0" * 10), True, id="insertion-10")]
    + [pytest.param(("poly-upto", 9), True, id="poly-ints-upto-9")]
    + [pytest.param(("insertion-upto", 9), False, id="insertion-ints-upto-9")]
    # the normalization check's f plan over every word of length 10
    + [pytest.param(("normalized", 10), True, id="normalized-10")],
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

    memory = 2 ** 20  # about 2,200 keys of P's walk state
    limit = memory // shuffle._WALK_BYTES_PER_KEY
    monkeypatch.setattr(budget, "_memory_budget", lambda: memory)
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
    assert err.value.need > memory
    assert len(calls) < 2 * limit
    # the insertion route's 1 0^15 reads every word of length 15, refused
    # before any is built
    calls.clear()
    with pytest.raises(MemoryBudgetExceeded, match="every word of length 15"):
        insertion_series("0" * 16)
    assert len(calls) < 2 * limit
    # the full twist's closure of 0^n is every word of length <= n, charged
    # before the walk takes a step
    calls.clear()
    with pytest.raises(
        MemoryBudgetExceeded, match=r"'0' \* 16 .* closure walk state, every word"
    ):
        full_twist_series(16, 10)
    assert len(calls) == 0
    # a cache holding a long key with few zeros loads, checks included, in a
    # budget that covers the slot table of the layout it recomputes; that
    # of 0 1^30 0, 49,203 slots, alone holds about 7 MiB
    with pytest.raises(MemoryBudgetExceeded, match="MiB of slot table"):
        load_cache(str(path))
    monkeypatch.setattr(budget, "_memory_budget", lambda: 16 * 2 ** 20)
    assert load_cache(str(path)) == cached


@pytest.mark.parametrize("n", range(9))
def test_zeros_closure_is_charged_as_the_walk_ends(monkeypatch, n):
    # every word of length <= n: 2^(n + 1) - 1 keys and 3 (2^n - 1) - n
    # entries, the state the walk of 0^n holds when it ends; so a budget
    # that lets the walk end lets the charge pass, and one byte less
    # refuses both
    needs, _ = shuffle._plan(["0" * n], shuffle._Layout.deps)
    assert len(needs) == 2 ** (n + 1) - 1
    assert sum(map(len, needs.values())) == 3 * (2**n - 1) - n
    state = (
        len(needs) * shuffle._WALK_BYTES_PER_KEY
        + sum(map(len, needs.values())) * shuffle._WALK_BYTES_PER_ENTRY
    )
    monkeypatch.setattr(budget, "_memory_budget", lambda: state)
    shuffle._zeros_closure(n)
    shuffle._plan(["0" * n], shuffle._Layout.deps)
    monkeypatch.setattr(budget, "_memory_budget", lambda: state - 1)
    with pytest.raises(MemoryBudgetExceeded, match="closure walk state"):
        shuffle._zeros_closure(n)
    with pytest.raises(MemoryBudgetExceeded, match="closure of"):
        shuffle._plan(["0" * n], shuffle._Layout.deps)


def test_word_lists_are_charged_before_they_are_built(monkeypatch):
    # 2^length words of 88 bytes each; a length of 21 digits is refused
    # without computing 2^length
    monkeypatch.setattr(budget, "_memory_budget", lambda: 2**10 * 88)
    assert len(all_sequences(10)) == 2**10
    with pytest.raises(MemoryBudgetExceeded, match="every word of length 11"):
        all_sequences(11)
    monkeypatch.undo()
    with pytest.raises(MemoryBudgetExceeded, match="every word of length 1" + "0" * 20):
        all_sequences(10**20)


def test_insertion_walk_counts_its_dependency_entries(monkeypatch):
    # the insertion route's key v reads 2^#0(v) words: its plan over every
    # word of length <= 11, as verify lists them, holds 261,636 entries in
    # 4,095 keys, about 17 MiB; the walk counts them, so it is refused by
    # name before it holds more than the budget
    roots = [v for m in range(12) for v in shuffle._step_order(m)]
    geometry = shuffle._shared_geometry(11)
    memory = 8 * 2 ** 20
    monkeypatch.setattr(budget, "_memory_budget", lambda: memory)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceeded, match="walking the closure of 4095 keys") as err:
            shuffle._run(roots, shuffle._InsertionLayout, geometry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < memory < err.value.need


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
