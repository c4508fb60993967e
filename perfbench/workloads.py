"""What each workload sends to ``tlh.cli.main``, generated from a seed.

A call is ``(argv, cached)``: ``argv`` is the command line without any
``--cache`` option, and ``cached`` says whether the call is run against the
workload's private cache file.  The reference digest of a call's stdout is
keyed by ``" ".join(argv)``, because stdout must be byte-identical with and
without a cache.

All three workloads are closed loop with one client and one thread: each
call starts after the previous one returns.
"""

from __future__ import annotations

import random

WORKLOADS = ("fulltwist", "verify", "cli-cached")

# Workload parameters per size.  "full" is what the benchmark measures;
# "tiny" is a seconds-long smoke run of the same code paths.
SIZES = {
    "full": {
        "twist": ["fulltwist", "--n", "11", "--qmax", "10"],
        "verify": ["verify", "--suite", "all"],
        "cli_calls": 100,
        "cache_n": 6,
    },
    "tiny": {
        "twist": ["fulltwist", "--n", "5", "--qmax", "10"],
        "verify": ["verify", "--suite", "polycore", "--max-n", "2"],
        "cli_calls": 12,
        "cache_n": 4,
    },
}

# Fewest passes in a run.  The speed correction (see speedometer.py) leaves
# the most residual spread on the two single-call workloads, so they take
# the median of two passes; cli-cached already has a hundred calls.
MIN_PASSES = {"fulltwist": 2, "verify": 2}

# Choice spaces of the cli-cached stream.  The reference pool enumerates
# exactly these, so every call a seed can produce has a recorded digest.
FORMATS = ("text", "json", "latex")
QMAX = range(0, 11)
MAX_SEQ_LEN = 6
HHH0_N = range(1, 8)
MAGIC_N = range(1, 6)
MAGIC_R = range(0, 3)
SL_N = range(1, 5)
LINKS = ("unknot", "T(2,3)", "T(2,5)", "T(2,7)", "T(2,9)", "T(3,4)", "T(3,5)",
         "T(4,5)")


def key(argv: list[str]) -> str:
    return " ".join(argv)


def calls(workload: str, seed: int, size: str = "full") -> list[tuple[list[str], bool]]:
    """The call stream of one pass of a workload."""
    p = SIZES[size]
    if workload == "fulltwist":
        return [(list(p["twist"]), False)]
    if workload == "verify":
        return [(list(p["verify"]), False)]
    if workload == "cli-cached":
        return _cli_cached(random.Random(seed), p["cli_calls"], p["cache_n"])
    raise ValueError(f"unknown workload {workload!r}")


def _balanced(rng: random.Random, options, count: int) -> list:
    """``count`` picks from ``options``, each as often as ``count`` allows."""
    picks = [options[i % len(options)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def _cli_cached(rng: random.Random, count: int, cache_n: int):
    # The first call writes the cache cold with every sequence up to
    # cache_n.  Exactly two thirds of the rest use the cache, and commands
    # and formats come in fixed proportions, so the mix, and with it the
    # latency percentiles, does not drift with the seed; the seed draws the
    # order and each call's parameters.
    out = [(["fulltwist", "--n", str(cache_n), "--qmax", "10"], True)]
    rest = count - 1
    cached = round(rest * 2 / 3)
    kinds = [(cmd, True) for cmd in _balanced(rng, ("f", "tilde", "fulltwist"), cached)]
    kinds += [(cmd, False) for cmd in
              _balanced(rng, ("hhh0", "magic", "specialize", "dataset"), rest - cached)]
    rng.shuffle(kinds)
    for (cmd, use_cache), fmt in zip(kinds, _balanced(rng, FORMATS, rest)):
        argv = _cached_call(rng, cmd, cache_n) if use_cache else _free_call(rng, cmd)
        out.append((argv + ["--format", fmt], use_cache))
    return out


def _cached_call(rng: random.Random, cmd: str, cache_n: int) -> list[str]:
    if cmd == "fulltwist":
        return [cmd, "--n", str(rng.randint(1, cache_n)), "--qmax",
                str(rng.choice(QMAX))]
    bits = "".join(rng.choice("01") for _ in range(rng.randint(1, cache_n)))
    return [cmd, "--seq", bits]


def _free_call(rng: random.Random, cmd: str) -> list[str]:
    if cmd == "hhh0":
        return [cmd, "--n", str(rng.choice(HHH0_N)), "--qmax", str(rng.choice(QMAX))]
    if cmd == "magic":
        return [cmd, "--n", str(rng.choice(MAGIC_N)), "--r", str(rng.choice(MAGIC_R))]
    if cmd == "specialize":
        argv = [cmd, "--link", rng.choice(LINKS)]
        n = rng.choice((None,) + tuple(SL_N))
        return argv + (["--to", "decat"] if n is None else ["--to", "sl_n", "--N", str(n)])
    get = rng.choice((None,) + LINKS)
    return [cmd, "--list"] if get is None else [cmd, "--get", get]


def reference_pool() -> list[list[str]]:
    """Every argv any workload of any size can send."""
    pool = []
    for p in SIZES.values():
        pool += [p["twist"], p["verify"]]
    for fmt in FORMATS:
        tail = ["--format", fmt]
        for length in range(1, MAX_SEQ_LEN + 1):
            for n in range(2 ** length):
                bits = format(n, f"0{length}b")
                pool += [["f", "--seq", bits] + tail, ["tilde", "--seq", bits] + tail]
        for qmax in QMAX:
            pool += [["fulltwist", "--n", str(n), "--qmax", str(qmax)] + tail
                     for n in range(1, MAX_SEQ_LEN + 1)]
            pool += [["hhh0", "--n", str(n), "--qmax", str(qmax)] + tail for n in HHH0_N]
        pool += [["magic", "--n", str(n), "--r", str(r)] + tail
                 for n in MAGIC_N for r in MAGIC_R]
        for link in LINKS:
            pool.append(["specialize", "--link", link, "--to", "decat"] + tail)
            pool += [["specialize", "--link", link, "--to", "sl_n", "--N", str(n)] + tail
                     for n in SL_N]
            pool.append(["dataset", "--get", link] + tail)
        pool.append(["dataset", "--list"] + tail)
    pool.append(["fulltwist", "--n", str(SIZES["full"]["cache_n"]), "--qmax", "10"])
    pool.append(["fulltwist", "--n", str(SIZES["tiny"]["cache_n"]), "--qmax", "10"])
    return pool
