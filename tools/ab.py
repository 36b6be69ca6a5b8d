#!/usr/bin/env python3
"""Paired A/B runs of two benchmark commands, alternating which goes first.

    ab.py --a CMD --b CMD --pairs N [--metric NAME] [--seed S] [--out FILE]
          [--markdown]
    ab.py --self-test

Each command is run N times per side, as N pairs; pair i runs A first
when i is even and B first when it is odd, so a drift in the host's
speed lands on both sides.  A command prints one `name value unit` line
per metric, as `bench/e2e/bench_e2e` does; other lines are ignored.

Report (JSON on stdout, a short table on stderr):
  * per side and per numeric metric: median, first and third quartile;
  * for --metric (default sessions_per_wall_s): the median of the
    paired ratios B/A, a 95% bootstrap interval around it (the median
    of resampled medians, seeded by --seed), the pairs B won (ties count
    for neither; the metric's direction comes from BENCHMARK.json, else
    higher is better) and whether the medians differ by more than A's
    interquartile range;
  * a behaviour-change flag when any run's connect_p50_vus,
    connect_p999_vus, vmakespan_s or digest differs from A's first run:
    those are virtual-time results, identical in every run of a change
    that only makes the host faster.

--markdown prints, instead of the JSON, a Markdown table to paste into
CHANGES.md: one row per end-to-end metric of BENCHMARK.json that both
sides printed (each side's median and interquartile range, and the
ratio of the medians B/A), then the paired verdict on --metric and the
behaviour flag.

Exit status: 0 on success, 1 if a run failed or printed no --metric,
2 if the behaviour-change flag is raised.

--self-test checks the statistics on fixed synthetic pairs, the parser
on a fixed bench_e2e output and the Markdown table, without running
anything.
"""

import argparse
import json
import random
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BEHAVIOUR = ("connect_p50_vus", "connect_p999_vus", "vmakespan_s", "digest")
RESAMPLES = 10000


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def parse(text):
    """{name: value} from `name value unit` lines; a value that is not
    a number (a digest, a workload name) stays a string."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 3:
            continue
        name, value, _unit = parts
        try:
            out[name] = float(value)
        except ValueError:
            out[name] = value
    return out


def quartiles(values):
    """(median, q1, q3) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def bootstrap_median(values, seed, resamples=RESAMPLES):
    """(center, lo, hi): the median of `resamples` medians of samples
    drawn with replacement, and their 2.5% and 97.5% quantiles."""
    rng = random.Random(seed)
    n = len(values)
    medians = sorted(statistics.median(rng.choices(values, k=n))
                     for _ in range(resamples))
    lo = medians[int(0.025 * (resamples - 1))]
    hi = medians[int(0.975 * (resamples - 1))]
    return statistics.median(medians), lo, hi


def benchmark_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}


def higher_is_better(metric):
    spec = benchmark_spec()
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        if m.get("name") == metric:
            return m.get("better", "higher") == "higher"
    return True


def end_to_end_names():
    return [m["name"] for m in benchmark_spec().get("end_to_end", [])
            if "name" in m]


def number(v):
    """A table cell: whole numbers from 1,000 up, 4 significant digits
    below."""
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def markdown(report, names):
    """The report as a Markdown table: one row per metric of `names`
    that both sides printed, then the paired verdict on the metric."""
    sides = report["sides"]
    lines = ["| metric | A median | A IQR | B median | B IQR | B/A |",
             "|---|---:|---:|---:|---:|---:|"]
    for name in names:
        a = sides["a"].get(name)
        b = sides["b"].get(name)
        if a is None or b is None:
            continue
        ratio = f"{b['median'] / a['median']:.3f}" if a["median"] else "-"
        lines.append(f"| {name} | {number(a['median'])} | "
                     f"{number(a['q3'] - a['q1'])} | "
                     f"{number(b['median'])} | "
                     f"{number(b['q3'] - b['q1'])} | {ratio} |")
    p = report["paired"]
    differs = ", ".join(report["behaviour_differs"]) or "none"
    lines.append("")
    lines.append(
        f"{report['metric']}: paired B/A median "
        f"{p['median_ratio_b_over_a']:.3f}, 95% bootstrap interval "
        f"[{p['ci95'][0]:.3f}, {p['ci95'][1]:.3f}], B better in "
        f"{p['b_wins']} of {report['pairs']} pairs, gap beyond A's IQR: "
        f"{'yes' if p['median_gap_exceeds_a_iqr'] else 'no'}; behaviour "
        f"change: {differs}.")
    return "\n".join(lines)


def analyse(runs_a, runs_b, metric, seed, higher=True):
    """The report for two lists of parsed runs, index i being pair i."""
    report = {"pairs": len(runs_a), "metric": metric, "sides": {}}
    for side, runs in (("a", runs_a), ("b", runs_b)):
        names = sorted({k for r in runs for k, v in r.items()
                        if isinstance(v, float)})
        stats = {}
        for name in names:
            values = [r[name] for r in runs if isinstance(r.get(name), float)]
            med, q1, q3 = quartiles(values)
            stats[name] = {"median": med, "q1": q1, "q3": q3}
        report["sides"][side] = stats

    a = [r[metric] for r in runs_a]
    b = [r[metric] for r in runs_b]
    ratios = [y / x for x, y in zip(a, b)]
    center, lo, hi = bootstrap_median(ratios, seed)
    wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
    med_a, q1_a, q3_a = quartiles(a)
    med_b = statistics.median(b)
    report["paired"] = {
        "higher_is_better": higher,
        "median_ratio_b_over_a": statistics.median(ratios),
        "bootstrap_center": center,
        "ci95": [lo, hi],
        "b_wins": wins,
        "median_gap_exceeds_a_iqr": abs(med_b - med_a) > (q3_a - q1_a),
        "ratios": ratios,
    }

    reference = runs_a[0] if runs_a else {}
    changed = sorted({name for name in BEHAVIOUR for r in runs_a + runs_b
                      if r.get(name) != reference.get(name)})
    report["behaviour_change"] = bool(changed)
    report["behaviour_differs"] = changed
    return report


def run(cmd):
    proc = subprocess.run(shlex.split(cmd), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        log(f"ab.py: exit {proc.returncode}: {cmd}")
        return None
    return parse(proc.stdout)


def self_test():
    ok = True

    def check(cond, what):
        nonlocal ok
        if not cond:
            log(f"self-test FAILED: {what}")
            ok = False

    med, q1, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    check((med, q1, q3) == (4.5, 2.25, 6.75), "quartiles of 1..8")

    base = [100.0, 104.0, 97.0, 101.0, 99.0, 110.0, 95.0, 102.0, 98.0, 100.0]
    gain = [1.25, 1.22, 1.28, 1.24, 1.26, 1.21, 1.30, 1.23, 1.27, 0.99]
    faster = [{"sessions_per_wall_s": x * g, "digest": "d"}
              for x, g in zip(base, gain)]
    slow = [{"sessions_per_wall_s": x, "digest": "d"} for x in base]
    r = analyse(slow, faster, "sessions_per_wall_s", seed=1)
    p = r["paired"]
    check(abs(p["median_ratio_b_over_a"] - 1.245) < 1e-12, "median ratio")
    check(p["b_wins"] == 9, "win count with one loss")
    check(p["ci95"][0] <= p["bootstrap_center"] <= p["ci95"][1],
          "bootstrap interval holds its center")
    check(1.0 < p["ci95"][0] and p["ci95"][1] < 1.3, "interval excludes 1")
    check(p["median_gap_exceeds_a_iqr"], "gap beyond the parent's IQR")
    check(not r["behaviour_change"], "no behaviour change")
    check(r == analyse(slow, faster, "sessions_per_wall_s", seed=1),
          "seeded bootstrap repeats")

    lower = analyse(slow, faster, "sessions_per_wall_s", seed=1, higher=False)
    check(lower["paired"]["b_wins"] == 1, "win count when lower is better")

    same = analyse(slow, slow, "sessions_per_wall_s", seed=1)
    check(same["paired"]["ci95"] == [1.0, 1.0], "A/A interval is [1, 1]")
    check(same["paired"]["b_wins"] == 0, "A/A ties win nothing")
    check(not same["paired"]["median_gap_exceeds_a_iqr"], "A/A gap")

    moved = [dict(run, digest="e") if i == 3 else run
             for i, run in enumerate(faster)]
    r = analyse(slow, moved, "sessions_per_wall_s", seed=1)
    check(r["behaviour_differs"] == ["digest"], "a moved digest is flagged")

    table = markdown(r, ["sessions_per_wall_s", "peak_rss_mb"]).splitlines()
    check(table[0].startswith("| metric | A median | A IQR | B median"),
          "table header")
    check(len(table) == 5, "one row per metric both sides printed")
    check(table[2] == "| sessions_per_wall_s | 100 | 4.75 | 124.9 | 1.82 "
          "| 1.249 |", "table row: medians, IQRs and B/A")
    check(number(123012.4) == "123,012" and number(0.0014138) == "0.001414",
          "table numbers")
    check(table[4].startswith("sessions_per_wall_s: paired B/A median "
                              "1.245, 95% bootstrap interval [")
          and "B better in 9 of 10 pairs" in table[4]
          and table[4].endswith("behaviour change: digest."),
          "paired verdict and behaviour flag")

    out = parse("workload churn_soap -\ndigest 4e1cf6fa06db5245 -\n"
                "sessions_per_wall_s 167692.5 1/s\ncorrect 1 -\n"
                "# a comment line\nsmoke ok\n")
    check(out == {"workload": "churn_soap", "digest": "4e1cf6fa06db5245",
                  "sessions_per_wall_s": 167692.5, "correct": 1.0},
          "parse of bench_e2e lines")
    log("self-test", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--a", help="command of side A (the parent)")
    ap.add_argument("--b", help="command of side B (the change)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--metric", default="sessions_per_wall_s")
    ap.add_argument("--seed", type=int, default=2026,
                    help="bootstrap seed")
    ap.add_argument("--out", help="also write the JSON report here")
    ap.add_argument("--markdown", action="store_true",
                    help="print a Markdown table instead of the JSON")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.a or not args.b or args.pairs < 1:
        ap.error("--a, --b and --pairs >= 1 are required")

    runs = {"a": [], "b": []}
    for i in range(args.pairs):
        for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
            result = run(getattr(args, side))
            if result is None or not isinstance(result.get(args.metric),
                                                float):
                log(f"ab.py: pair {i}: side {side} gave no {args.metric}")
                return 1
            runs[side].append(result)
            log(f"pair {i} {side}: {args.metric} {result[args.metric]:.6g}")

    report = analyse(runs["a"], runs["b"], args.metric, args.seed,
                     higher_is_better(args.metric))
    report["commands"] = {"a": args.a, "b": args.b}
    report["runs"] = runs
    text = json.dumps(report, indent=2, sort_keys=True)
    print(markdown(report, end_to_end_names()) if args.markdown else text)
    if args.out:
        Path(args.out).write_text(text + "\n")

    log(f"{'metric':28s} {'A median':>12s} {'A q1-q3':>25s} "
        f"{'B median':>12s} {'B q1-q3':>25s}")
    for name, a in report["sides"]["a"].items():
        b = report["sides"]["b"].get(name)
        if b is None:
            continue
        log(f"{name:28s} {a['median']:12.6g} "
            f"{a['q1']:12.6g}-{a['q3']:<12.6g} {b['median']:12.6g} "
            f"{b['q1']:12.6g}-{b['q3']:<12.6g}")
    p = report["paired"]
    log(f"{args.metric}: B/A median {p['median_ratio_b_over_a']:.4f}, "
        f"95% CI [{p['ci95'][0]:.4f}, {p['ci95'][1]:.4f}], "
        f"B better in {p['b_wins']} of {report['pairs']}, gap beyond A's "
        f"IQR: {'yes' if p['median_gap_exceeds_a_iqr'] else 'no'}")
    if report["behaviour_change"]:
        log("BEHAVIOUR CHANGE:", ", ".join(report["behaviour_differs"]))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
