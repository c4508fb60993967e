import hashlib
import json
import os
from itertools import product
from pathlib import Path
import subprocess
import sys

import pytest

import tlh
from tlh import shuffle, verify
from tlh.cli import main
from tlh.poly import ONE, A, Q
from tlh.serialize import dumps, parse_frac, parse_poly
from tlh.shuffle import poincare_poly, poincare_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_f_command(capsys):
    code, out, _ = run_cli(capsys, "f", "--seq", "00")
    assert code == 0
    assert out.strip() == dumps(poincare_series("00"))


def test_f_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "f", "--seq", "010", "--format", "json")
    assert code == 0
    assert parse_frac(out.strip()) == poincare_series("010")


def test_tilde_command(capsys):
    code, out, _ = run_cli(capsys, "tilde", "--seq", "0110")
    assert code == 0
    assert parse_poly(out.strip()) == poincare_poly("0110")


def test_tilde_empty_sequence(capsys):
    code, out, _ = run_cli(capsys, "tilde", "--seq", "")
    assert code == 0
    assert out.strip() == "1"


def test_bad_sequence_is_engine_error(capsys):
    code, _, err = run_cli(capsys, "tilde", "--seq", "012")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["tilde"])  # missing --seq
    assert exc.value.code == 2


def test_fulltwist(capsys):
    code, out, _ = run_cli(capsys, "fulltwist", "--n", "1", "--qmax", "3")
    assert code == 0
    assert parse_poly(out.strip()) == (ONE + A) * (ONE + Q + Q ** 2 + Q ** 3)


def test_fulltwist_over_memory_budget_exits_1(capsys, monkeypatch):
    # an estimate of about 3.4 MiB at qmax 10, the closure walk fits
    monkeypatch.setattr(shuffle, "_memory_budget", lambda: 2 ** 20)
    code, out, err = run_cli(capsys, "fulltwist", "--n", "9")
    assert code == 1
    assert out == ""
    assert err.startswith("error: MemoryBudgetExceeded: evaluating '000000000'")


def test_hhh0(capsys):
    code, out, _ = run_cli(capsys, "hhh0", "--n", "2", "--qmax", "0")
    assert code == 0
    assert out.strip() == "t"


def test_magic(capsys):
    code, out, _ = run_cli(capsys, "magic", "--n", "2", "--r", "1")
    assert code == 0
    assert parse_poly(out.strip()) == poincare_poly("00")


def test_specialize_link(capsys):
    code, out, _ = run_cli(
        capsys, "specialize", "--link", "T(3,4)", "--to", "sl_n", "--N", "2"
    )
    assert code == 0
    assert out.strip() == "q^3 + q^5 - q^8"


def test_specialize_decat(capsys):
    code, out, _ = run_cli(capsys, "specialize", "--link", "T(2,3)", "--to", "decat")
    assert code == 0
    assert out.strip() == "-q^(-1) a - a^2 - q a"


def test_specialize_input_file(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("a t^(1/2) q^(-1/2) + a t^(-1/2) q^(1/2) + a^2 t^(-1/2) q^(-1/2)\n")
    code, out, _ = run_cli(
        capsys, "specialize", "--input", str(path), "--to", "sl_n", "--N", "2"
    )
    assert code == 0
    assert out.strip() == "q + q^3 - q^4"


def test_specialize_sl_requires_N(capsys):
    code, _, err = run_cli(capsys, "specialize", "--link", "T(2,3)", "--to", "sl_n")
    assert code == 1
    assert "requires --N" in err


def test_specialize_unknown_link(capsys):
    code, _, err = run_cli(capsys, "specialize", "--link", "T(9,9)", "--to", "decat")
    assert code == 1
    assert "UnknownLink" in err


def test_dataset_list_and_get(capsys):
    code, out, _ = run_cli(capsys, "dataset", "--list")
    assert code == 0
    assert "T(3,4)" in out
    code, out, _ = run_cli(capsys, "dataset", "--get", "T(3,4)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["key"] == "T(3,4)"
    assert obj["source"]
    assert obj["poly"]["variables"] == ["q", "a", "t"]


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "zeroseq", "--max-n", "4")
    assert code == 0
    assert "zeroseq/zero-expansion-identity" in out
    assert "PASS" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 1
    assert "unknown suite" in err


def test_verify_max_n_below_one_is_usage_error(capsys):
    # a bound below 1 would run every check on no cases and report PASS
    for bad in ("0", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "magic", "--max-n", bad])
        assert exc.value.code == 2
        assert "--max-n" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fulltwist", "--n", "0"],
    ["fulltwist", "--n", "3", "--qmax", "-1"],
    ["hhh0", "--n", "0", "--qmax", "3"],
    ["hhh0", "--n", "3", "--qmax", "-1"],
    ["magic", "--n", "0", "--r", "1"],
    ["magic", "--n", "2", "--r", "-1"],
    ["specialize", "--link", "T(3,4)", "--to", "sl_n", "--N", "0"],
    # int() alone would read these three
    ["hhh0", "--qmax", "1", "--n", "\u0663"],
    ["hhh0", "--qmax", "1", "--n", "1_0"],
    ["hhh0", "--qmax", "1", "--n", " 5"],
])
def test_out_of_range_number_is_usage_error(capsys, argv):
    # the bad option is the last one given
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("key", ["T(2,\u0665)", "T(2,5)\n"])
def test_dataset_key_digits_are_ascii(capsys, key):
    code, out, err = run_cli(capsys, "dataset", "--get", key)
    assert code == 1
    assert out == ""
    assert "UnknownLink" in err


def test_dataset_key_over_the_digit_limit_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "dataset", "--get", f"T(2,{'1' * 5000})")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError: an integer of 5000 digits")


@pytest.mark.parametrize("text", [
    '{"0": {"terms": [{"coeff": %s, "exp": [0, 0, 0]}]}}' % ("1" * 5000),
    '{"0": {"terms": [',
], ids=["integer-over-the-digit-limit", "truncated"])
def test_cache_file_that_is_not_json_is_a_parse_error(tmp_path, capsys, text):
    cache = tmp_path / "memo.json"
    cache.write_text(text)
    code, out, err = run_cli(capsys, "tilde", "--seq", "0", "--cache", str(cache))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError")


def test_conjecture_soft_reaches_the_exit_status(capsys, monkeypatch):
    failed = verify.CheckResult(
        "magic", "r1-matches-recursion", verify.CONJECTURE, verify.FAIL,
        "failed inside the verified range: n=2",
    )
    monkeypatch.setattr(verify, "run_suites", lambda names, max_n: [failed])
    assert run_cli(capsys, "verify", "--suite", "magic")[0] == 1
    assert run_cli(capsys, "verify", "--suite", "magic", "--conjecture-soft")[0] == 0


def test_bare_key_error_is_not_an_engine_error(monkeypatch):
    # only named errors exit 1; a KeyError from a bug must surface
    def broken(key):
        raise KeyError(key)

    monkeypatch.setattr(tlh.links, "dataset_get", broken)
    with pytest.raises(KeyError):
        main(["dataset", "--get", "T(3,4)"])


def test_verify_reports_a_raising_check_in_the_table(capsys, monkeypatch):
    def broken(n, memo=None):
        raise tlh.poly.NonExactDivision("no quotient")

    monkeypatch.setattr(shuffle, "zero_expansion_identity", broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "zeroseq", "--max-n", "3")
    assert code == 1
    assert err == ""
    assert "zero-equals-one-prefix" in out
    assert "raised NonExactDivision: no quotient" in out
    assert out.endswith("1 passed, 1 failed, 0 findings\n")


def test_verify_magic_reports_finding_not_error(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "magic", "--max-n", "2")
    assert code == 0
    assert "FINDING" in out
    assert "r0-sum-equals-one" in out


def test_cache_file(tmp_path, capsys):
    cache = tmp_path / "memo.json"
    code, first, _ = run_cli(
        capsys, "tilde", "--seq", "0101", "--cache", str(cache)
    )
    assert code == 0 and cache.exists()
    code, second, _ = run_cli(
        capsys, "tilde", "--seq", "0101", "--cache", str(cache)
    )
    assert code == 0
    assert first == second


def test_cache_rewritten_only_when_the_memo_grows(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "memo.json"
    saves = []
    save = shuffle.save_cache
    monkeypatch.setattr(shuffle, "save_cache", lambda *a: saves.append(a) or save(*a))
    # the file holds the answers asked for, not the recursion's closure
    code, _, _ = run_cli(capsys, "fulltwist", "--n", "6", "--cache", str(cache))
    assert code == 0 and set(json.loads(cache.read_text())) == {"000000"}
    code, out, _ = run_cli(capsys, "tilde", "--seq", "0101", "--cache", str(cache))
    assert code == 0 and set(json.loads(cache.read_text())) == {"000000", "0101"}
    assert out == dumps(poincare_poly("0101"), "text") + "\n"
    assert len(saves) == 2
    before, stat = cache.read_bytes(), cache.stat()
    # a key already in the file is a hit, whatever the command: no write
    for argv in (
        ["fulltwist", "--n", "6"],
        ["fulltwist", "--n", "6", "--qmax", "3"],
        ["tilde", "--seq", "0101"],
        ["f", "--seq", "0101"],
    ):
        code, out, _ = run_cli(capsys, *argv, "--cache", str(cache))
        assert code == 0
    assert out == dumps(poincare_series("0101"), "text") + "\n"
    assert len(saves) == 2
    assert cache.read_bytes() == before
    after = cache.stat()
    assert (after.st_mtime_ns, after.st_ino) == (stat.st_mtime_ns, stat.st_ino)


def test_cli_runs_the_engine_without_a_memo(tmp_path, capsys, monkeypatch):
    # with or without a cache, no memo reaches the recursion driver
    memos = []
    evaluate = shuffle._evaluate

    def recording(key, memo, *args, **kwargs):
        memos.append(memo)
        return evaluate(key, memo, *args, **kwargs)

    monkeypatch.setattr(shuffle, "_evaluate", recording)
    cache = str(tmp_path / "memo.json")
    for argv in (["f", "--seq", "0110"], ["tilde", "--seq", "0101"],
                 ["fulltwist", "--n", "4"]):
        outs = []
        for extra in ([], ["--cache", cache], ["--cache", cache]):  # miss, hit
            memos.clear()
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == 0
            outs.append(out)
            # a hit evaluates only the load's spot check
            assert memos and all(memo is None for memo in memos)
        assert outs[0] == outs[1] == outs[2]


def test_tlh_cache_env_var_is_ignored(tmp_path, capsys, monkeypatch):
    # only --cache names a cache file
    monkeypatch.setenv("TLH_CACHE", str(tmp_path / "memo.json"))
    code, out, _ = run_cli(capsys, "tilde", "--seq", "01")
    assert code == 0
    assert out == dumps(poincare_poly("01"), "text") + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["hhh0", "--n", "2", "--qmax", "0"],
    ["magic", "--n", "2", "--r", "1"],
    ["verify", "--suite", "zeroseq", "--max-n", "1"],
    ["specialize", "--link", "T(2,3)", "--to", "decat"],
    ["dataset", "--list"],
], ids=lambda argv: argv[0])
def test_cache_is_a_usage_error_where_nothing_reads_it(tmp_path, capsys, argv):
    cache = tmp_path / "memo.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cache", str(cache)])
    assert exc.value.code == 2
    assert "--cache" in capsys.readouterr().err
    assert not cache.exists()


def test_byte_identical_across_runs():
    argv = [sys.executable, "-m", "tlh.cli", "verify", "--suite", "corners",
            "--max-n", "4"]
    # run this tree's tlh, not an installed copy
    src = os.path.dirname(os.path.dirname(tlh.__file__))
    runs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, check=True, env=env)
        runs.append(proc.stdout)
    assert runs[0] == runs[1] == runs[2]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "corners", "--threads", "2"])
    assert exc.value.code == 2


# stdout digests recorded when the benchmark was added; every later version
# of the program must reproduce them byte for byte
_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
_FORMATS = ("text", "json", "latex")


def _reference_digests(select):
    digests = json.loads(_REFERENCE.read_text())
    return {key: digest for key, digest in digests.items() if select(key.split())}


def _check_digests(capsys, digests):
    wrong = []
    for key, digest in digests.items():
        code, out, _ = run_cli(capsys, *key.split())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            wrong.append(key)
    assert wrong == []


def test_specialize_stdout_matches_reference(capsys):
    digests = _reference_digests(lambda argv: argv[0] == "specialize")
    assert any("decat" in key for key in digests)
    assert any("sl_n" in key for key in digests)
    _check_digests(capsys, digests)


def test_verify_stdout_matches_reference(capsys):
    # the whole suite at its default bounds, as the benchmark runs it
    digests = _reference_digests(lambda argv: argv[0] == "verify")
    assert set(digests) == {
        "verify --suite all", "verify --suite polycore --max-n 2",
    }
    _check_digests(capsys, digests)


def test_fulltwist_stdout_matches_reference(capsys):
    def small(argv):
        return (
            argv[0] == "fulltwist"
            and int(argv[argv.index("--n") + 1]) <= 6
            and argv[argv.index("--qmax") + 1] in ("0", "5", "10")
        )

    digests = _reference_digests(small)
    assert set(digests) >= {
        f"fulltwist --n {n} --qmax {qmax} --format {fmt}"
        for n, qmax, fmt in product(range(1, 7), (0, 5, 10), _FORMATS)
    }
    _check_digests(capsys, digests)


def test_largest_fulltwist_stdout_matches_reference(capsys):
    # the benchmark's fulltwist call, whose layout stops at q-row 10 of 55
    digests = _reference_digests(lambda argv: argv == "fulltwist --n 11 --qmax 10".split())
    assert len(digests) == 1
    _check_digests(capsys, digests)


def test_fulltwist_13_stdout_is_pinned(capsys):
    # 5-byte fields on the series route; the digest was taken on the
    # whole-polynomial route that it replaced
    code, out, _ = run_cli(capsys, "fulltwist", "--n", "13", "--qmax", "10")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "4e6cc5842edcd76827d06958298e019875c51b641f3831230ba1516002d17ed3"


def _hhh0_small(argv):
    return argv[0] == "hhh0" and argv[argv.index("--qmax") + 1] in ("0", "5", "10")


@pytest.mark.parametrize("select,count", [
    (lambda argv: argv[0] in ("f", "tilde"), 756),
    (lambda argv: argv[0] == "magic", 45),
    (lambda argv: argv[0] == "dataset", 27),
    (_hhh0_small, 63),
], ids=["f-tilde", "magic", "dataset", "hhh0"])
def test_cheap_command_stdout_matches_reference(capsys, select, count):
    digests = _reference_digests(select)
    assert len(digests) == count
    _check_digests(capsys, digests)
