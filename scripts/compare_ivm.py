#!/usr/bin/env python3
"""Gate incremental view maintenance against the recompute baseline.

Takes one Google-Benchmark JSON report from bench/bench_e12_ivm (which
contains paired BM_E12_Maintain* / BM_E12_Recompute* entries driven by
identical workloads and delta sequences), matches each Maintain entry with
its Recompute twin, and fails unless maintenance is at least --min-speedup
times faster on every gated point.

Gated points are the low-churn rows (churn per-mille <= --churn-le, default
10 = 1%) at the largest database size present for each family: that is the
E12 claim — at small churn on a big database, maintaining the materialized
view must beat recomputing it by >= 5x. High-churn rows are reported but
not gated; past the crossover the engine falls back to recompute anyway
(ApplyDeltaOptions::recompute_fraction), so losing there is expected.

  usage: compare_ivm.py e12.json [--min-speedup 5.0] [--churn-le 10]
             [--all-sizes] [--out comparison.json]

Exit codes: 0 = all gated points pass, 1 = speedup shortfall, 2 = bad input.
"""

import argparse
import json
import re
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# BM_E12_MaintainJoin2/4096/10 -> family Join2, size 4096, churn 10.
_NAME_RE = re.compile(r"^BM_E12_(Maintain|Recompute)(\w+)/(\d+)/(\d+)$")


def load_benchmarks(path):
    """Returns {name: real_time_ns}, min over repetitions: noise on a
    shared runner only ever adds time, so the fastest repetition is the
    least disturbed one."""
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write("error: cannot read %s: %s\n" % (path, e))
        sys.exit(2)
    times = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        real_time = bench.get("real_time")
        if name is None or real_time is None:
            continue
        ns = real_time * _UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
        if name not in times or ns < times[name]:
            times[name] = ns
    return times


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("report_json")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required maintain-vs-recompute speedup on "
                             "gated points (default 5.0)")
    parser.add_argument("--churn-le", type=int, default=10,
                        help="gate only rows with churn per-mille <= this "
                             "(default 10 = 1%%)")
    parser.add_argument("--all-sizes", action="store_true",
                        help="gate every size, not just the largest per family")
    parser.add_argument("--out", help="write the comparison table as JSON")
    args = parser.parse_args()

    times = load_benchmarks(args.report_json)
    rows = []
    for name, maintain_ns in sorted(times.items()):
        m = _NAME_RE.match(name)
        if not m or m.group(1) != "Maintain":
            continue
        twin = name.replace("Maintain", "Recompute", 1)
        if twin not in times:
            sys.stderr.write("error: %s has no %s twin\n" % (name, twin))
            sys.exit(2)
        recompute_ns = times[twin]
        rows.append({
            "family": m.group(2),
            "size": int(m.group(3)),
            "churn_per_mille": int(m.group(4)),
            "maintain_ns": maintain_ns,
            "recompute_ns": recompute_ns,
            "speedup": round(recompute_ns / maintain_ns, 3)
            if maintain_ns > 0 else float("inf"),
        })
    if not rows:
        sys.stderr.write("error: no BM_E12_Maintain*/Recompute* pairs in %s\n"
                         % args.report_json)
        sys.exit(2)

    largest = {}
    for r in rows:
        largest[r["family"]] = max(largest.get(r["family"], 0), r["size"])
    failures = []
    for r in rows:
        r["gated"] = (r["churn_per_mille"] <= args.churn_le and
                      (args.all_sizes or r["size"] == largest[r["family"]]))
        if r["gated"] and r["speedup"] < args.min_speedup:
            failures.append(r)

    print("%-10s %8s %7s  %12s  %12s  %8s  %s"
          % ("family", "size", "churn", "maintain", "recompute", "speedup",
             "gate"))
    for r in rows:
        print("%-10s %8d %6.1f%%  %10.0fns  %10.0fns  %7.2fx  %s"
              % (r["family"], r["size"], r["churn_per_mille"] / 10.0,
                 r["maintain_ns"], r["recompute_ns"], r["speedup"],
                 ("FAIL" if r["speedup"] < args.min_speedup else "pass")
                 if r["gated"] else "-"))

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"min_speedup": args.min_speedup,
                       "churn_le_per_mille": args.churn_le,
                       "rows": rows,
                       "failures": [r["family"] for r in failures]},
                      f, indent=2)
            f.write("\n")

    if failures:
        sys.stderr.write(
            "error: maintenance under %.1fx recompute on %d gated point(s)\n"
            % (args.min_speedup, len(failures)))
        sys.exit(1)
    gated = sum(1 for r in rows if r["gated"])
    print("ok: maintenance >= %.1fx recompute on all %d gated points"
          % (args.min_speedup, gated))


if __name__ == "__main__":
    main()
