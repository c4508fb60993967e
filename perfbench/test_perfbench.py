"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from child import _import_tlh
from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_self_time_of_a_synthetic_span_tree():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 2 [2, 3]
    #   +- 3 [5, 9]
    #   4 [11, 12]        a second root
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0, 1.0]


def _bindings(mods) -> dict:
    """Every module and class attribute of the package, and the verify suites."""
    seen = {}
    for name, mod in mods.items():
        seen[name] = dict(vars(mod))
        for attr, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                seen[f"{name}.{attr}"] = dict(vars(obj))
    seen["verify.SUITES"] = {k: tuple(v) for k, v in mods["verify"].SUITES.items()}
    return seen


def test_wrappers_are_installed_on_aliases_and_restored(capsys):
    mods = _import_tlh()
    poly, serialize = mods["poly"], mods["serialize"]
    before = _bindings(mods)
    mul = vars(poly.Polynomial)["__mul__"]
    to_obj = vars(serialize)["poly_to_obj"]
    tracer = Tracer(mods)
    tracer.install()
    try:
        assert vars(poly.Polynomial)["__mul__"] is not mul
        assert vars(poly.Polynomial)["__rmul__"] is vars(poly.Polynomial)["__mul__"]
        assert serialize.poly_to_obj is not to_obj
        assert mods["shuffle"].poly_to_obj is serialize.poly_to_obj
        assert mods["cli"].dumps is serialize.dumps
        assert mods["cli"].main(["tilde", "--seq", "0110"]) == 0
        assert 3 * poly.Q == poly.Q * 3
    finally:
        tracer.uninstall()
    after = _bindings(mods)
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for attr, obj in attrs.items():
            assert after[key][attr] is obj or key == "verify.SUITES" and \
                after[key][attr] == obj, f"{key}.{attr} not restored"
    layers = tracer.layer_metrics()
    assert layers["cli.tilde.calls"] == 1
    assert layers["poly.mul.calls"] >= 2  # __rmul__ and __mul__ both counted
    assert layers["shuffle.poincare_poly.calls"] == 1
    assert all(v >= 0 for v in layers.values())


def test_reference_covers_every_call_a_seed_can_make():
    reference = json.loads((HERE / "reference.json").read_text())
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            for seed in range(20):
                for argv, _ in workloads.calls(workload, seed, size):
                    assert workloads.key(argv) in reference


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.05",
                "--trace", trace, "--size", "tiny")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in wanted:
        line = rf"^ +{re.escape(m['name'])} +\S+ {re.escape(m['unit'])}\b"
        assert re.search(line, proc.stdout, re.M), m["name"]
        if trace == "0":
            assert result["metrics"][m["name"]]["value"] > 0


def test_traced_counts_repeat_exactly():
    def counts():
        result = _result(_run("--workload", "cli-cached", "--seed", "3", "--trace", "1",
                              "--size", "tiny"))
        return {k: m["value"] for k, m in result["metrics"].items()
                if m["unit"] in ("count", "bytes")}

    first = counts()
    assert first["poly.mul.calls"] > 0 and first["shuffle.load_cache.calls"] > 0
    assert counts() == first


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _run("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
