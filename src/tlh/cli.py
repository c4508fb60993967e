"""Command-line interface.

    tlh f --seq 00                      rational series of a shuffle sequence
    tlh tilde --seq 0110                its normalized polynomial
    tlh fulltwist --n 3 --qmax 6        truncated full-twist series
    tlh hhh0 --n 4 --qmax 8             closed-form Hochschild-zero series
    tlh magic --n 3 --r 1               tableau sum over standard tableaux
    tlh verify --suite all              run verification suites
    tlh specialize --link "T(3,4)" --to sl_n --N 2
    tlh dataset --list | --get KEY      built-in reduced superpolynomials

Global option: --format text|json|latex.  f, tilde and fulltwist also take
--cache PATH, a file of the normalized polynomials they asked for; fulltwist
then expands whole P(0^n), where without it it may step the truncated
series.  Output is deterministic: identical invocations produce
byte-identical output.

Exit status: 0 on success, 1 on a failed check or engine error, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import budget, closed_form, links, shuffle, tableaux, verify
from .poly import ONE_MINUS_Q, FracPoly
from .serialize import ParseError, dumps, parse_int, parse_poly, poly_to_obj

DEFAULT_QMAX = 10

_ENGINE_ERRORS = verify.ENGINE_ERRORS + (
    verify.UnknownSuite,
    # only a --cache file's spot check raises it; no verify check can
    shuffle.MemoDivergence,
    # every argument check raises ValueError; a bare KeyError is a bug
    ValueError,
    OSError,
)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            n = parse_int(text)
        except ParseError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {n}")
        return n

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "latex"), default="text",
        help="output format (default: text)",
    )
    caching = argparse.ArgumentParser(add_help=False)
    caching.add_argument(
        "--cache", default=None, help="JSON file of answers to read and extend",
    )

    parser = argparse.ArgumentParser(
        prog="tlh",
        description="Exact q,a,t series for torus-link homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "f", parents=[common, caching], help="rational series of a sequence"
    )
    p.add_argument("--seq", required=True, help="binary sequence, e.g. 0110")

    p = sub.add_parser(
        "tilde", parents=[common, caching], help="normalized polynomial"
    )
    p.add_argument("--seq", required=True, help="binary sequence, e.g. 0110")

    p = sub.add_parser(
        "fulltwist", parents=[common, caching], help="full-twist series"
    )
    p.add_argument("--n", type=_positive_int, required=True, help="strand count")
    p.add_argument("--qmax", type=_nonnegative_int, default=DEFAULT_QMAX)

    p = sub.add_parser("hhh0", parents=[common], help="closed-form a=0 series")
    p.add_argument("--n", type=_positive_int, required=True, help="strand count")
    p.add_argument("--qmax", type=_nonnegative_int, required=True)

    p = sub.add_parser("magic", parents=[common], help="tableau sum")
    p.add_argument("--n", type=_positive_int, required=True, help="number of boxes")
    p.add_argument("--r", type=_nonnegative_int, required=True, help="full-twist power")

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument(
        "--suite", required=True,
        help="suite name or 'all' (see --suite list)",
    )
    p.add_argument("--max-n", type=_positive_int, default=None, dest="max_n")

    p = sub.add_parser("specialize", parents=[common], help="classical invariants")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--link", help="built-in dataset key, e.g. T(3,4)")
    src.add_argument("--input", help="file with a polynomial (text or json)")
    p.add_argument("--to", choices=("decat", "sl_n"), required=True)
    p.add_argument("--N", type=_positive_int, default=None, help="N for --to sl_n")

    p = sub.add_parser("dataset", parents=[common], help="built-in table")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--get", metavar="KEY")

    return parser


def _cached(args):
    """What f, tilde or fulltwist prints, from the cache file ``args.cache``.

    The file holds answers: the normalized polynomials of the sequences
    that commands asked about, the sequence itself for f and tilde and 0^n
    for fulltwist.  On a miss that one value is computed, added and written
    back; a repeated call finds the key and leaves the file untouched.  f
    puts the value over (1 - q)^#0; fulltwist expands it to q^qmax, checked
    against memory first.
    """
    if args.command == "fulltwist":
        shuffle._zeros_closure(args.n)  # before 0^n is built
    key = "0" * args.n if args.command == "fulltwist" else args.seq
    if args.command == "fulltwist":
        budget._room(repr(key), shuffle._series_terms(args.n, args.qmax))
    answers = shuffle.load_cache(args.cache) if os.path.exists(args.cache) else {}
    if key not in answers:
        answers[key] = shuffle.poincare_poly(key)
        shuffle.save_cache(args.cache, answers)
    p = answers[key]
    if args.command == "tilde":
        return p
    series = FracPoly(p, [ONE_MINUS_Q] * key.count("0"))
    return series.series(args.qmax) if args.command == "fulltwist" else series


def _emit(obj, fmt: str) -> int:
    print(dumps(obj, fmt))
    return 0


def _read_input_poly(path: str, fmt: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    if fmt == "latex":
        raise ValueError("latex is write-only; use --format text or json")
    return parse_poly(text, fmt)


def _run(args) -> int:
    if getattr(args, "cache", None):
        return _emit(_cached(args), args.format)

    if args.command == "f":
        return _emit(shuffle.poincare_series(args.seq), args.format)

    if args.command == "tilde":
        return _emit(shuffle.poincare_poly(args.seq), args.format)

    if args.command == "fulltwist":
        return _emit(shuffle.full_twist_series(args.n, args.qmax), args.format)

    if args.command == "hhh0":
        return _emit(
            closed_form.hochschild_zero_series(args.n, args.qmax), args.format
        )

    if args.command == "magic":
        return _emit(tableaux.tableau_sum(args.n, args.r), args.format)

    if args.command == "verify":
        if args.suite == "list":
            for name in verify.suite_names():
                print(name)
            return 0
        names = verify.suite_names() if args.suite == "all" else [args.suite]
        results = verify.run_suites(names, max_n=args.max_n)
        print(verify.render_results(results))
        return verify.exit_status(results)

    if args.command == "specialize":
        if args.link is not None:
            poly = links.dataset_get(args.link).poly
        else:
            poly = _read_input_poly(args.input, args.format)
        if args.to == "decat":
            return _emit(links.decategorify(poly), args.format)
        decat = links.decategorify(poly)
        return _emit(links.sl_specialization(decat, args.N), args.format)

    if args.command == "dataset":
        if args.list:
            for key in links.dataset_keys():
                print(key)
            print("# any T(2,m) with odd m >= 3 resolves via the closed family")
            return 0
        entry = links.dataset_get(args.get)
        if args.format == "json":
            print(json.dumps(
                {"key": entry.key, "source": entry.source,
                 "poly": poly_to_obj(entry.poly)}
            ))
        else:
            print(f"key: {entry.key}")
            print(f"source: {entry.source}")
            print(f"poly: {dumps(entry.poly, args.format)}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status; a usage error exits 2.

    The parser is built once per process, on the first call, and reused by
    every later one: building it costs some thirty times what parsing one
    command line does, and argparse keeps no state of a parse in the
    parser.  It is not built at import, so a process that imports the
    module without calling ``main`` does not pay for it.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "specialize" and (args.N is None) == (args.to == "sl_n"):
        parser.error(f"--to {args.to} {'requires' if args.N is None else 'takes no'} --N")
    try:
        return _run(args)
    except _ENGINE_ERRORS as e:
        name = type(e).__name__
        print(f"error: {name}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
