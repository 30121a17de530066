#!/usr/bin/env python3
"""Builds and runs the sqod wire-level benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the repository's
libraries, the shipped sqo_server and the load generator (perfbench/*.cc)
with CMake into .bench_build/perfbench; later calls rebuild only what
changed. The load generator then starts sqo_server, drives it and prints
its report; its last stdout line is the result JSON, and this script exits
with its exit code. Reports, span files and server logs land in
.bench_build/perfbench-out.

--self-test runs every workload briefly on small inputs and checks that
every metric of BENCHMARK.json is printed with its unit, that error_rate is
0, that engine.prepare_hit_ratio reads 0 on cold-optimize and 1 elsewhere,
and that one seed repeats its operation sequence and work counts exactly.
See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BUILD_LOG = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
WORKLOADS = ["cold-optimize", "oneshot-eval", "view-churn"]
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds; returns True on success."""
    os.makedirs(os.path.dirname(BUILD_LOG), exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return True
    with open(BUILD_LOG) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    sys.stderr.write("perfbench: build failed (log: %s)\n" % BUILD_LOG)
    return False


def source_digest():
    """sha256 over the sources the benchmark builds, as run context."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), BENCH_DIR,
             os.path.join(ROOT, "examples", "sqo_server.cpp")]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
        for dirpath, _, names in os.walk(r):
            files.extend(os.path.join(dirpath, n) for n in names)
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def loadgen_command(workload, seed, seconds, trace, extra=()):
    os.makedirs(OUT_DIR, exist_ok=True)
    return [os.path.join(BUILD_DIR, "perfbench"),
            "--server", os.path.join(BUILD_DIR, "sqo_server"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", OUT_DIR, "--git-sha", git_sha(),
            "--source-digest", source_digest()] + list(extra)


def run_once(workload, seed, seconds, trace, extra=()):
    """Runs the load generator, capturing stdout; returns (rc, stdout)."""
    proc = subprocess.run(loadgen_command(workload, seed, seconds, trace, extra),
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def parse_report(stdout):
    """Returns ({metric: (value, unit)}, context dict, result dict)."""
    metrics, context = {}, {}
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("metric "):
            parts = line.split()
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif line.startswith("context "):
            context = json.loads(line[len("context "):])
    return metrics, context, json.loads(lines[-1])


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expected.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    problems = []
    for workload in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            rc, out = run_once(workload, 7, 1, trace, ["--small", "--setups", "1"])
            where = "%s trace=%d" % (workload, trace)
            try:
                metrics, context, result = parse_report(out)
            except (ValueError, IndexError) as e:
                problems.append("%s: unreadable output (%s)" % (where, e))
                continue
            if rc != 0 or not result.get("correct"):
                problems.append("%s: exit %d, correct=%s" %
                                (where, rc, result.get("correct")))
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            listed = spec["end_to_end"] if trace == 0 else spec["per_layer"]
            for m in listed:
                got = result.get("metrics", {}).get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s: result lacks %s [%s]" %
                                    (where, m["name"], m["unit"]))
            if trace == 1:
                for name, unit in expected.items():
                    if name not in metrics or metrics[name][1] != unit:
                        problems.append("%s: report lacks %s [%s]" %
                                        (where, name, unit))
                counts.append((context.get("op_sequence_digest"),
                               {k: v for k, v in metrics.items()
                                if v[1] == "count"}))
            if metrics.get("error_rate", (1, ""))[0] != 0:
                problems.append("%s: error_rate %s" %
                                (where, metrics.get("error_rate")))
            want = 0.0 if workload == "cold-optimize" else 1.0
            hit = metrics.get("engine.prepare_hit_ratio", (None, ""))[0]
            if hit != want:
                problems.append("%s: engine.prepare_hit_ratio %s, want %s" %
                                (where, hit, want))
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append("%s: one seed gave different op sequences or "
                            "counts: %s vs %s" % (workload, counts[0], counts[1]))
    for p in problems:
        print("FAIL " + p)
    print("self-test: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="flip one expected answer; the run must fail")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    extra = ["--corrupt-oracle"] if args.corrupt_oracle else []
    try:
        proc = subprocess.run(
            loadgen_command(args.workload, args.seed, args.seconds, args.trace,
                            extra),
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
