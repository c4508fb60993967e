"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/child.py WORKLOAD SEED SIZE MODE [--check-a0]

MODE is ``probe`` (set up, then stop where timing would start), ``run``
(untraced pass) or ``trace`` (traced pass, spans written under
``perfbench/results``).  ``--check-a0`` also checks, after the timed calls,
the a = 0 slice of every ``fulltwist`` output against the closed form.
``run.py`` starts this script; the ``ready_at`` it reports is a
CLOCK_MONOTONIC stamp, which the parent compares with its spawn time, and
``setup_factor`` is the speed correction (see ``speedometer.py``) to apply
to that set-up time.  Call times are reported raw and corrected.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from speedometer import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"


def _import_tlh():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tlh.cli  # the program's entry point and, through it, every layer

    if not Path(tlh.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported tlh from {tlh.__file__}, not from {src}")
    names = ("poly", "shuffle", "serialize", "closed_form", "tableaux", "links",
             "verify", "cli")
    mods = {"tlh": tlh}
    mods.update({n: sys.modules[f"tlh.{n}"] for n in names})
    return mods


def _call(main, argv: list[str]) -> tuple[float, float, object, str]:
    """Run one command line in-process: (start, end, exit status, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a crash is a failed call, not a dead run
            rc = f"raised {type(e).__name__}: {e}"
    return t0, time.perf_counter(), rc, out.getvalue()


def _a0_matches(mods, argv: list[str], stdout: str) -> bool:
    """The a = 0 slice of a fulltwist output equals the closed-form series."""
    n = int(argv[argv.index("--n") + 1])
    qmax = int(argv[argv.index("--qmax") + 1])
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if fmt == "latex":
        return True  # write-only form; its digest is still checked
    got = mods["serialize"].parse_poly(stdout.strip(), fmt).coefficient_of_a(0)
    return got == mods["closed_form"].hochschild_zero_series(n, qmax)


def main(argv: list[str]) -> int:
    workload, seed, size, mode = argv[:4]
    check_a0 = "--check-a0" in argv[4:]
    mods = _import_tlh()
    import workloads

    stream = workloads.calls(workload, int(seed), size)
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    speed = Speedometer()
    setup_factor = speed.probe()
    if mode == "probe":
        print(json.dumps({"ready_at": ready_at, "setup_factor": setup_factor}))
        return 0

    WORK.mkdir(exist_ok=True)
    cache = WORK / f"cache-{os.getpid()}.json"
    cache.unlink(missing_ok=True)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(mods)
        tracer.install()
        # Run threads one at a time while traced, so the work that
        # verify's thread-schedule check duplicates, and so every count,
        # repeats exactly between traced runs.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1000.0)
    main_fn = mods["cli"].main  # looked up after install: the traced alias
    results = []
    speed.start()
    try:
        for args, cached in stream:
            full = args + ["--cache", str(cache)] if cached else args
            results.append((args,) + _call(main_fn, full))
    finally:
        speed.stop()
        if tracer is not None:
            tracer.uninstall()
            sys.setswitchinterval(switch)
        cache.unlink(missing_ok=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below is outside the timed region.
    reference = json.loads((HERE / "reference.json").read_text())
    calls = []
    for args, t0, t1, rc, stdout in results:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        problem = None
        if rc != 0:
            problem = f"exit status {rc}"
        elif reference.get(workloads.key(args)) != digest:
            problem = "stdout differs from the reference"
        elif check_a0 and args[0] == "fulltwist" and not _a0_matches(mods, args, stdout):
            problem = "a=0 slice differs from closed_form.hochschild_zero_series"
        calls.append({"argv": workloads.key(args), "raw_ms": (t1 - t0) * 1e3,
                      "ms": speed.corrected(t0, t1) * 1e3, "problem": problem})
    out = {"ready_at": ready_at, "setup_factor": setup_factor,
           "wall_s": sum(c["ms"] for c in calls) / 1e3,
           "raw_wall_s": sum(c["raw_ms"] for c in calls) / 1e3,
           "peak_rss_mb": peak_rss_mb, "calls": calls}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = len(tracer.start)
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans-{workload}-seed{seed}-{size}.tsv.gz"
        tracer.write_spans(str(spans))
        out["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
