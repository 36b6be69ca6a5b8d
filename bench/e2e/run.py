#!/usr/bin/env python3
"""Runner for the repo benchmark (bench/e2e/README.md).

Builds bench_e2e in a Release tree (build-bench/ at the repository
root) and runs each grid workload in its own process.

  run.py --workload W --seed N --seconds S --trace 0|1
      One measurement.  The last stdout line is one JSON object with
      `correct`, `attempted`, `failed` and `metrics`: the end-to-end
      metrics of BENCHMARK.json with --trace 0, its per-layer metrics
      with --trace 1 (which also writes build-bench/traces/W-N.json).
  run.py --repeat N [--workload W ...] [--seed N] [--seconds S] [--out FILE]
      N measurements per workload (same seed); prints the median and
      quartiles of every metric and saves the result set as JSON.
  run.py --compare A.json B.json
      Compares two result sets against the BENCHMARK.json bounds.
  run.py --smoke
      Every workload at 1% size: correctness, replay, trace invariance.

A run that outlives 5x its expected time is killed and counted failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "bench_e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}

# Host seconds a run needs beyond its measurement window (set-up,
# teardown, the last run overshooting the window); the watchdog allows
# 5x the expected total.
OVERHEAD_S = 6.0
WATCHDOG_FACTOR = 5


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build bench_e2e; returns False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"run.py: no padico source tree at {ROOT}")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed:", " ".join(cmd))
            return False
    return True


def run_once(workload, seed, seconds, trace):
    """One bench_e2e process.  Returns a dict with `ok`, `correct`,
    `digest`, `attempted`, `failed` and `metrics` ({name: (value, unit)})."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd.append(f"--trace={traces / f'{workload}-{seed}.json'}")
    limit = WATCHDOG_FACTOR * (seconds + OVERHEAD_S)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run.py: {workload} seed {seed} killed after {limit:.0f} s")
        return {"ok": False, "correct": False, "metrics": {}}
    fields = {}  # name -> (text, unit); unit "-" marks a non-numeric field
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3:
            fields[parts[0]] = (parts[1], parts[2])
    metrics = {k: (float(v), u) for k, (v, u) in fields.items() if u != "-"}
    return {
        "ok": proc.returncode in (0, 1) and "correct" in fields,
        "correct": proc.returncode == 0 and fields.get("correct", ("0",))[0] == "1",
        "digest": fields.get("digest", ("",))[0],
        "attempted": int(metrics.get("attempted", (0,))[0]),
        "failed": int(metrics.get("failed", (0,))[0]),
        "metrics": metrics,
    }


def contract_run(args):
    if not build():
        return 2
    r = run_once(args.workload, args.seed, args.seconds, args.trace)
    if not r["ok"]:
        return 1
    wanted = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in r["metrics"]]
    if missing:
        log("run.py: bench_e2e did not report", ", ".join(missing))
        return 1
    result = {
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {m["name"]: {"value": r["metrics"][m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if r["correct"] else 1


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def repeat(args):
    if not build():
        return 2
    workloads = args.workload or WORKLOADS
    result = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    bad = False
    for w in workloads:
        runs = []
        for i in range(args.repeat):
            t0 = time.monotonic()
            r = run_once(w, args.seed, args.seconds, False)
            log(f"{w} run {i + 1}/{args.repeat}: "
                f"{'ok' if r['correct'] else 'FAILED'} "
                f"({time.monotonic() - t0:.1f} s)")
            runs.append({"correct": r["correct"], "digest": r.get("digest", ""),
                         "metrics": {k: v[0] for k, v in r["metrics"].items()}})
        result["workloads"][w] = runs
        good = [r for r in runs if r["correct"]]
        digests = {r["digest"] for r in good}
        print(f"\n{w}: {len(good)}/{len(runs)} correct, "
              f"digest {'stable' if len(digests) == 1 else 'UNSTABLE'}")
        bad = bad or len(good) != len(runs) or len(digests) != 1
        if not good:
            continue
        print(f"  {'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'iqr/med':>8s}")
        for name in sorted(good[0]["metrics"]):
            med, q1, q3, rel = spread([r["metrics"][name] for r in good])
            mark = "*" if name in BOUNDS else " "
            print(f" {mark}{name:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{rel:8.4f}")
    out = Path(args.out) if args.out else BUILD / f"results-{int(time.time())}.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"\nresult set: {out}  (* = end-to-end metric)")
    return 1 if bad else 0


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressions = 0
    print(f"{'workload':11s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for w in [w for w in WORKLOADS if w in a and w in b]:
        ra = [r["metrics"] for r in a[w] if r["correct"]]
        rb = [r["metrics"] for r in b[w] if r["correct"]]
        for name, m in BOUNDS.items():
            va = [r[name] for r in ra if name in r]
            vb = [r[name] for r in rb if name in r]
            if not va or not vb:
                print(f"{w:11s} {name:20s} missing in a result set")
                regressions += 1
                continue
            med_a, _, _, rel_a = spread(va)
            med_b, _, _, rel_b = spread(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (med_b - med_a) / med_a if med_a else 0.0
            b_wins = (max(vb) < min(va)) if sign == 1 else (min(vb) > max(va))
            if max(rel_a, rel_b) > m["bound"] and not b_wins:
                verdict = "unresolved (spread wider than bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif -worse > max(rel_a, rel_b):
                verdict = "better"
            else:
                verdict = "ok"
            print(f"{w:11s} {name:20s} {med_a:12.6g} {med_b:12.6g} "
                  f"{worse:+9.2%} {m['bound']:6.0%}  {verdict}")
    return 1 if regressions else 0


def smoke():
    if not build():
        return 2
    return subprocess.run([str(BINARY), "--smoke"], timeout=120).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke()
    if args.repeat:
        return repeat(args)
    if not args.workload or len(args.workload) != 1:
        p.error("give exactly one --workload (or --repeat / --compare / --smoke)")
    args.workload = args.workload[0]
    return contract_run(args)


if __name__ == "__main__":
    sys.exit(main())
