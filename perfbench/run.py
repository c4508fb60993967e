"""Benchmark of the tlh engine: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

Run from the root of a source checkout; the program is imported from
``src/``, so nothing needs installing.  Without ``--workload`` the three
workloads run one after another.  Every pass runs in a fresh child process
(``child.py``), so peak RSS is per pass and nothing is shared between
passes.

With ``--trace 0`` the run repeats untraced passes until their timed calls
add up to ``--seconds`` (and at least ``MIN_PASSES`` of them), and reports
the end-to-end metrics named in ``BENCHMARK.json``.  With ``--trace 1`` it
makes one untraced and one traced pass and reports the per-layer metrics of
the traced one, plus ``trace.overhead_ratio``.  Either way it checks every
call's stdout against ``reference.json`` and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Per-run details (environment, samples, raw times, failures) go to
``perfbench/results/``.

Reported times are corrected for the speed changes of a shared machine
(``speedometer.py``); the raw times are printed beside them.  A workload's
error rate is ``failed / attempted``: a call fails if it raises, exits
non-zero, or its stdout differs from the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import MIN_PASSES, SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_PROBES = 5  # extra start-ups per run, so setup_s is a median of several
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child(workload: str, seed: int, size: str, mode: str, check_a0: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), size, mode]
    if check_a0:
        cmd.append("--check-a0")
    # TLH_CACHE would override the workload's own choice of cache file
    env = {k: v for k, v in os.environ.items() if k != "TLH_CACHE"}
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} pass took over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["raw_setup_s"] = out["ready_at"] - spawned
    out["setup_s"] = out["raw_setup_s"] * out["setup_factor"]
    return out


def _percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _environment(args, workload: str) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None  # a source checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tlh").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "parameters": SIZES[args.size],
    }


def run_workload(args, workload: str, bench: dict) -> dict:
    passes = []
    if args.trace:
        passes.append(_child(workload, args.seed, args.size, "run", check_a0=True))
        passes.append(_child(workload, args.seed, args.size, "trace"))
    else:
        while (len(passes) < MIN_PASSES.get(workload, 1)
               or sum(p["wall_s"] for p in passes) < args.seconds):
            passes.append(_child(workload, args.seed, args.size, "run",
                                 check_a0=not passes))
    probes = [_child(workload, args.seed, args.size, "probe") for _ in range(SETUP_PROBES)]

    calls = [c for p in passes for c in p["calls"]]
    failures = [c for c in calls if c["problem"]]
    latencies = [c["ms"] for c in calls]
    if args.trace:
        wanted = bench["per_layer"]
        measured = dict(passes[1]["layers"])
        measured["trace.overhead_ratio"] = passes[1]["wall_s"] / passes[0]["wall_s"]
    else:
        wanted = bench["end_to_end"]
        measured = {
            "setup_s": statistics.median(p["setup_s"] for p in passes + probes),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "query_p50_ms": _percentile(latencies, 0.5),
            "query_p90_ms": _percentile(latencies, 0.9),
        }
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    detail = {
        "environment": _environment(args, workload),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_samples_s": [p["setup_s"] for p in passes + probes],
        "raw_setup_samples_s": [p["raw_setup_s"] for p in passes + probes],
        "call_samples": len(latencies),
        "attempted": len(calls),
        "failed": len(failures),
        "error_rate": len(failures) / len(calls),
        "failures": failures[:20],
        "metrics": metrics,
    }
    if args.trace:
        detail["spans"] = passes[1]["spans"]
        detail["spans_file"] = passes[1]["spans_file"]
    RESULTS.mkdir(exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1) + "\n")
    return detail


def _report(workload: str, d: dict) -> None:
    print(f"== {workload}: {d['passes']} pass(es), {d['attempted']} call(s), "
          f"seed {d['environment']['seed']}")
    print(f"   error_rate {d['error_rate']:.4f} ({d['failed']} of {d['attempted']} "
          f"calls failed)")
    for c in d["failures"]:
        print(f"   FAILED {c['argv']}: {c['problem']}")
    for name, m in d["metrics"].items():
        note = ""
        if name.startswith("query_"):
            note = f"  ({d['call_samples']} call samples)"
        elif name == "setup_s":
            note = f"  (median of {len(d['setup_samples_s'])} start-ups)"
        elif name == "wall_s":
            raw = statistics.median(d["pass_raw_wall_s"])
            note = f"  (median of {d['passes']} passes; raw {raw:.6g} s)"
        print(f"   {name:<40} {m['value']:.6g} {m['unit']}{note}")
    env = {k: d["environment"][k] for k in ("python", "nproc", "cpu_model", "git_sha")}
    print(f"   environment {json.dumps(env)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all three, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tlh" / "cli.py").is_file():
        print(f"error: no tlh source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        results = {w: run_workload(args, w, bench)
                   for w in ([args.workload] if args.workload else WORKLOADS)}
    except (BenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for workload, d in results.items():
        _report(workload, d)
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, d in results.items()
                   for name, m in d["metrics"].items()}
    attempted = sum(d["attempted"] for d in results.values())
    failed = sum(d["failed"] for d in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
