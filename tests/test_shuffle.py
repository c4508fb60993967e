import json
import os
import threading

import pytest

from tlh.poly import A, ONE, ONE_MINUS_Q, Q, T, FracPoly, Polynomial
from tlh.serialize import dumps, parse_poly
from tlh.shuffle import (
    IncompatiblePair,
    MemoDivergence,
    MemoTable,
    ShuffleSeq,
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

F000_A0 = parse_poly(
    "t^3 q^2 + q^3 t^2 - 2 t^2 q^2 - 2 t q^3 - 2 q t^3"
    " + t^3 + q^3 + t q^2 + q t^2 + t q"
)
F000_A1 = parse_poly("t^2 q^2 - 2 t q^2 - 2 q t^2 + t^2 + q^2 + t q + t + q")


def test_shuffle_seq_type():
    v = ShuffleSeq("0110")
    assert (v.ones, v.zeros, len(v)) == (2, 2, 4)
    assert str(v) == "0110"
    with pytest.raises(ValueError):
        ShuffleSeq("012")


def test_insert_examples():
    assert str(insert_into_zeros("1101001", "001")) == "1101011"
    assert str(insert_into_zeros("111", "")) == "111"
    assert str(insert_into_zeros("0000", "1010")) == "1010"
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


def test_shift_and_add_step_matches_general_products():
    memo = MemoTable()
    reference = {}
    for n in range(9):
        for v in all_sequences(n):
            got = poincare_poly(v, memo)
            want = _general_product_poly(v, reference)
            assert got.units() == want.units(), v
            assert dumps(got) == dumps(want)


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
    loaded = load_cache(str(path), spot_check_rate=0.25)
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
    with pytest.raises(MemoDivergence):
        load_cache(str(path), spot_check_rate=1.0)
    # rate 0 skips validation entirely
    loaded = load_cache(str(path), spot_check_rate=0.0)
    assert loaded[""] == Polynomial({(0, 0, 0): 7})


def test_save_cache_is_atomic(tmp_path, monkeypatch):
    memo = MemoTable()
    poincare_poly("010", memo)
    path = tmp_path / "cache.json"
    save_cache(str(path), memo)
    before = path.read_bytes()

    def dump_then_crash(data, fh):
        fh.write('{"0": ')
        raise RuntimeError("crash mid-dump")

    poincare_poly("0110", memo)
    monkeypatch.setattr(json, "dump", dump_then_crash)
    with pytest.raises(RuntimeError, match="mid-dump"):
        save_cache(str(path), memo)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.json"]
    monkeypatch.undo()
    save_cache(str(path), memo)
    assert os.listdir(tmp_path) == ["cache.json"]
    assert dict(load_cache(str(path), spot_check_rate=0.0)) == dict(memo)
