#!/usr/bin/env python3
"""Gate bench results against checked-in baselines, and sanity-check traces.

Baseline mode (default):

    check_bench_json.py --baseline bench/baselines/BENCH_table1.json \
                        --got bench-out/BENCH_table1.json [--tolerance 0.05]

  Fails when either file is missing/invalid, when a baseline metric is
  absent from the new results, when a mean drifted outside the
  relative tolerance band, or when a metric in either file has n > 1
  samples and a 95% CI that does not contain its mean (the CI must
  resample the headline's own estimator).  Metrics present only in the
  new results are reported but don't fail (they become baseline on the
  next refresh).

  Each baseline metric may carry a "gate" field choosing how it is
  compared (the freshly emitted files never carry gates — policy lives
  in the checked-in baseline):

    "band" (default) — mean must stay within ±tolerance of baseline.
        Right for deterministic virtual-time figures, which reproduce
        exactly.
    "min" — mean must be >= the metric's "min" field (falls back to
        the baseline mean).  Right for in-process speedup ratios,
        which are machine-portable but improve over time.
    "max" — mean must be <= the metric's "max" field (falls back to
        the baseline mean); the mirror of "min".  Right for host-work
        counts such as allocations per session, which are deterministic
        for a toolchain but should only ever fall.
    "info" — recorded and printed, never gated.  Right for wall-clock
        absolutes, which depend on the machine running the job.

History mode (composable with baseline mode):

    check_bench_json.py --baseline ... --got bench-out/BENCH_engine.json \
                        --history bench/history/BENCH_history.jsonl

  Looks up the most recent history record carrying this bench's
  metrics and prints the %-delta of every fresh mean against it —
  trajectory context for the reviewer, never a gate (the baseline
  bands/floors do the gating).  Missing history or a bench with no
  prior record just notes the fact.

Trace mode:

    check_bench_json.py --trace trace.json \
                        --require-categories vlink,madio,arbitration,personality

  Fails when the Chrome trace-event file is missing/empty or any
  required category never appears in its events.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(f"error: {path}: file not found")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path}: invalid JSON: {e}")


def check_bench(baseline_path, got_path, tolerance):
    baseline = load(baseline_path)
    got = load(got_path)
    for doc, path in ((baseline, baseline_path), (got, got_path)):
        if doc.get("schema") != 1 or "metrics" not in doc:
            sys.exit(f"error: {path}: not a schema-1 bench report")

    base_metrics = baseline["metrics"]
    got_metrics = got["metrics"]
    failures = []
    for doc, path in ((baseline, baseline_path), (got, got_path)):
        for name, m in sorted(doc["metrics"].items()):
            if m.get("n", 0) > 1 and not m["ci_lo"] <= m["mean"] <= m["ci_hi"]:
                msg = (f"{name}: 95% CI [{m['ci_lo']:g}, {m['ci_hi']:g}] "
                       f"excludes its mean {m['mean']:g} in {path}")
                print(f"FAIL {msg}")
                failures.append(msg)
    gated = 0
    for name, base in sorted(base_metrics.items()):
        if name not in got_metrics:
            failures.append(f"{name}: missing from {got_path}")
            continue
        b, g = base["mean"], got_metrics[name]["mean"]
        gate = base.get("gate", "band")
        rel = (g - b) / b * 100 if b else float("inf")
        if gate == "info":
            print(f"info {name}: baseline {b:g}, got {g:g} ({rel:+.2f}%)")
            continue
        gated += 1
        if gate == "min":
            floor = base.get("min", b)
            status = "ok" if g >= floor else "FAIL"
            print(f"{status:4} {name}: floor {floor:g}, got {g:g} "
                  f"(baseline {b:g})")
            if status == "FAIL":
                failures.append(f"{name}: {g:g} below required minimum "
                                f"{floor:g}")
            continue
        if gate == "max":
            ceiling = base.get("max", b)
            status = "ok" if g <= ceiling else "FAIL"
            print(f"{status:4} {name}: ceiling {ceiling:g}, got {g:g} "
                  f"(baseline {b:g})")
            if status == "FAIL":
                failures.append(f"{name}: {g:g} above allowed maximum "
                                f"{ceiling:g}")
            continue
        if gate != "band":
            sys.exit(f"error: {baseline_path}: {name}: unknown gate "
                     f"{gate!r} (want band, min, max or info)")
        band = tolerance * max(abs(b), 1e-12)
        drift = g - b
        status = "ok" if abs(drift) <= band else "FAIL"
        print(f"{status:4} {name}: baseline {b:g}, got {g:g} ({rel:+.2f}%)")
        if status == "FAIL":
            failures.append(f"{name}: {b:g} -> {g:g} ({rel:+.2f}%, "
                            f"tolerance ±{tolerance * 100:g}%)")
    for name in sorted(set(got_metrics) - set(base_metrics)):
        print(f"new  {name}: {got_metrics[name]['mean']:g} (no baseline)")

    if failures:
        print(f"\n{len(failures)} regression(s) vs {baseline_path}:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nall {gated} gated baseline metrics pass vs {baseline_path}")
    return 0


def report_history(history_path, got_path):
    """Print %-delta of every fresh mean vs the last history record."""
    got = load(got_path)
    bench = got.get("bench")
    if not bench or "metrics" not in got:
        sys.exit(f"error: {got_path}: not a bench report (no bench/metrics)")
    try:
        with open(history_path) as f:
            records = [json.loads(line) for line in f if line.strip()]
    except FileNotFoundError:
        print(f"history: {history_path} not found; no trajectory to report")
        return
    except json.JSONDecodeError as e:
        sys.exit(f"error: {history_path}: invalid JSONL: {e}")

    prev = None
    for record in reversed(records):
        if bench in record.get("benches", {}):
            prev = record
            break
    if prev is None:
        print(f"history: no prior '{bench}' record in {history_path}")
        return

    when = prev.get("ts", "?")
    commit = prev.get("commit", "?")
    print(f"history: vs '{bench}' record at {when} (commit {commit})")
    prev_means = prev["benches"][bench]
    for name, metric in sorted(got["metrics"].items()):
        g = metric["mean"]
        if name not in prev_means:
            print(f"  new  {name}: {g:g} (no previous entry)")
            continue
        p = prev_means[name]
        rel = (g - p) / p * 100 if p else float("inf")
        print(f"  hist {name}: {p:g} -> {g:g} ({rel:+.2f}%)")


def check_trace(trace_path, required):
    doc = load(trace_path)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not events:
        sys.exit(f"error: {trace_path}: no trace events")
    seen = {e.get("cat") for e in events}
    missing = [c for c in required if c not in seen]
    print(f"{trace_path}: {len(events)} events, categories: "
          f"{', '.join(sorted(c for c in seen if c))}")
    if missing:
        print(f"error: missing required categories: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="checked-in BENCH_*.json")
    ap.add_argument("--got", help="freshly emitted BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="relative band around each baseline mean "
                         "(default 0.05 = ±5%%)")
    ap.add_argument("--trace", help="Chrome trace-event JSON to check")
    ap.add_argument("--require-categories", default="",
                    help="comma-separated categories the trace must contain")
    ap.add_argument("--history",
                    help="BENCH_history.jsonl to report %%-deltas against "
                         "(informational, never gates)")
    args = ap.parse_args()

    if args.trace:
        required = [c for c in args.require_categories.split(",") if c]
        sys.exit(check_trace(args.trace, required))
    if args.history and args.got and not args.baseline:
        report_history(args.history, args.got)
        sys.exit(0)
    if not args.baseline or not args.got:
        ap.error("need --baseline and --got (or --trace, or --history)")
    if args.history:
        report_history(args.history, args.got)
    sys.exit(check_bench(args.baseline, args.got, args.tolerance))


if __name__ == "__main__":
    main()
