"""The mutant table: each row breaks the engine in one place that tests must catch.

Run it from anywhere, all rows or the rows named:

    python tests/mutants.py [NAME ...]

For each row, ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a
temporary directory, the row's old text, which must occur exactly once in
its file, is replaced by its new text, and pytest runs the row's test ids
with ``-x``.  Pytest's exit status 1, a failed test, kills the mutant; 0
means it survived.  Any other status is an error, neither a kill nor a
survivor: 5 (no tests collected), say, or 4 (an id that does not exist).
One line is printed per row, naming the test that killed it, and the exit
status is 1 unless every mutant was killed.

A surviving mutant is a missing test, mended by a test and never by
weakening its row.  A row leaves the table only with the code it patches.
``tests/test_mutants.py`` checks, in the test suite, that every row still
applies and names tests that exist.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # the file it patches, from the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, from the repository root, one of which must fail


MUTANTS = [
    Mutant(
        "pair-check-p-alone",
        "src/tlh/shuffle.py",
        "budget._room(what, {**p_parts, **parts})",
        "budget._room(what, p_parts)",
        ("tests/test_verify.py::test_agreement_refuses_a_pair_of_runs_that_fit_only_alone",),
    ),
    Mutant(
        "insertion-dq-of-c-z-2",
        "src/tlh/shuffle.py",
        "bounds[k] = comb(z + 1, 2), s[z] << o",
        "bounds[k] = comb(z, 2), s[z] << o",
        (
            "tests/test_shuffle.py::test_insertion_bounds_closed_form_is_the_walked_rule",
            "tests/test_shuffle.py::test_insertion_series_examples",
        ),
    ),
    Mutant(
        "low-pass-keep-dropped",
        "src/tlh/shuffle.py",
        "return (p << s) + ((p & self.keep) << self.sa)",
        "return (p << s) + (p << self.sa)",
        (
            "tests/test_shuffle.py::test_full_twist_series",
            "tests/test_shuffle.py::test_truncated_full_twist_matches_whole_series",
        ),
    ),
    Mutant(
        "insertion-fold-one-1-minus-q-short",
        "src/tlh/shuffle.py",
        "acc = acc - (acc << self.sq) + (g << (z - k) * self.sq)",
        "acc = acc - (acc << self.sq) * (k > 0) + (g << (z - k) * self.sq)",
        (
            "tests/test_shuffle.py::test_insertion_series_examples",
            "tests/test_shuffle.py::test_insertion_memo_holds_normalized_polynomials",
        ),
    ),
    Mutant(
        "residue-one-zero-short",
        "src/tlh/shuffle.py",
        'for _ in range(key.count("0")):',
        'for _ in range(key.count("0") - 1):',
        ("tests/test_verify.py::test_the_insertion_run_ends_before_the_f_route_makes_a_plan",),
    ),
    Mutant(
        "slice-mass-of-c-n-minus-1-j",
        "src/tlh/shuffle.py",
        "return max(comb(n, j) for j in degrees) * comb(qmax + n - 1, n - 1)",
        "return max(comb(n - 1, j) for j in degrees) * comb(qmax + n - 1, n - 1)",
        ("tests/test_shuffle.py::test_row_mass_bound_holds_every_key",),
    ),
    Mutant(
        "fold-drops-an-odd-last-fraction",
        "src/tlh/poly.py",
        "items = pairs + items[len(pairs) * 2:]",
        "items = pairs",
        ("tests/test_poly.py::test_frac_sum_matches_scale_then_add",),
    ),
    Mutant(
        "step-order-reversed",
        "src/tlh/shuffle.py",
        "return [k for k in needs if len(k) == m]",
        "return [k for k in needs if len(k) == m][::-1]",
        ("tests/test_verify.py::test_the_three_streams_of_a_length_yield_the_same_words_in_order",),
    ),
    Mutant(
        "times-trail-sign-flipped",
        "src/tlh/poly.py",
        "v = get(e, 0) - c",
        "v = get(e, 0) + c",
        ("tests/test_poly.py::test_binomial_times_matches_general_product",),
    ),
    Mutant(
        "gap-fill-one-key-short",
        "src/tlh/poly.py",
        "_fill(row, carry, k - k0 - len(row) - 1, room)",
        "_fill(row, carry, k - k0 - len(row) - 2, room)",
        ("tests/test_poly.py::test_quotient_examples",),
    ),
    Mutant(
        "keep-clears-the-bottom-a-row",
        "src/tlh/shuffle.py",
        "self.keep = _tile((1 << self.sq - self.sa) - 1, self.sq, self.dq + 1)",
        "self.keep = _tile(((1 << self.sq - self.sa) - 1) << self.sa, self.sq, self.dq + 1)",
        ("tests/test_shuffle.py::test_full_twist_series",),
    ),
    Mutant(
        "prefix-sum-one-doubling-short",
        "src/tlh/shuffle.py",
        "self.strides[: r.bit_length()]",
        "self.strides[: r.bit_length() - 1]",
        ("tests/test_shuffle.py::test_truncated_full_twist_matches_whole_series",),
    ),
    Mutant(
        "top-a-bias-without-the-one",
        "src/tlh/shuffle.py",
        "one = (bias & mask) + (1 << j * self.sa)",
        "one = bias & mask",
        ("tests/test_verify.py::test_top_a_check_fails_if_its_mask_is_one_a_row_low",),
    ),
    Mutant(
        "low-pass-one-t-column-short",
        "src/tlh/shuffle.py",
        "return [(range(J + 1), comb(n, 2) + 1), high]",
        "return [(range(J + 1), comb(n, 2)), high]",
        ("tests/test_verify.py::test_closed_form_oracle_reads_the_split_f_route",),
    ),
    Mutant(
        "high-pass-without-the-low-root",
        "src/tlh/shuffle.py",
        """held = {"the low pass's root": _packed_bytes((layout.dq + 1) * layout.row_bytes)}""",
        "held = {}",
        ("tests/test_shuffle.py::test_the_high_pass_is_checked_with_the_low_pass_root",),
    ),
]


def _copy(into: Path) -> None:
    """``src/``, ``tests/`` and the pytest settings of the repository, into ``into``."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, into / tree, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into)


def run(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail): "killed", "survived" or "error", with the killer or the cause."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy(copy)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error", f"its old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=copy, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1"),
        )
    if proc.returncode == 1:
        failed = [line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith("FAILED ")]
        return "killed", f"by {', '.join(failed)}"
    if proc.returncode == 0:
        return "survived", f"{', '.join(mutant.tests)} passed"
    return "error", f"pytest exited {proc.returncode}"


def main(names: list[str]) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in rows}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 1
    verdicts = []
    for mutant in rows:
        start = time.perf_counter()
        verdict, detail = run(mutant)
        verdicts.append(verdict)
        print(f"{mutant.name}: {verdict} {detail} ({time.perf_counter() - start:.1f} s)",
              flush=True)
    print(f"{verdicts.count('killed')} of {len(rows)} mutants killed")
    return 0 if verdicts.count("killed") == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
