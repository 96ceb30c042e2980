#!/usr/bin/env python3
"""Repository benchmark: build the harness from source, run one workload,
check it, print one JSON result line.

    python3 perfbench/run.py --workload ic3-push --seed 1 --seconds 28 --trace 0

Run it from the root of a checkout.  The harness (perfbench/harness.cpp) is
built with CMake into $CARGO_TARGET_DIR (default .bench_build) the first
time, and again whenever a file under src/ or perfbench/ changes.  The last
stdout line is {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.

On top of the harness's own checks this script makes the exact-count check
across processes: the per-pass work counters of one source tree, workload
and seed are stored under the build directory, and a later run that reads
different counters is reported as incorrect.

    python3 perfbench/run.py --record-baseline

re-measures perfbench/baseline.json (default-seed case lists, counts and the
traced layer shares); see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
WORKLOADS = ("ic3-push", "ic3-generalize", "bmc-kind", "serve-mixed")
DEFAULT_SEED = 1
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def source_fingerprint(out_dir):
    """sha256 over every file of the program and the benchmark that the
    build or a run reads (the docs and baseline.json are left out)."""
    h = hashlib.sha256()
    for top in (SRC_DIR, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(
                d for d in dirnames
                if not os.path.abspath(os.path.join(dirpath, d)).startswith(out_dir))
            for name in sorted(filenames):
                if name.endswith((".pyc", ".md")) or name == "baseline.json":
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(out_dir, fingerprint):
    """Configure and build the harness unless this source tree is built."""
    binary = os.path.join(out_dir, "perfbench-harness")
    stamp = os.path.join(out_dir, "perfbench.stamp")
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == fingerprint:
                return binary
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "perfbench-harness", "-j", jobs],
    ]
    for cmd in steps:
        log("building: " + " ".join(cmd))
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    with open(stamp, "w") as f:
        f.write(fingerprint + "\n")
    return binary


def run_harness(binary, out_dir, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", os.path.relpath(out_dir)]
    if trace:
        cmd += ["--spans", os.path.join(out_dir, "spans-%s-%d.tsv" % (workload, seed))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=seconds + 120)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("harness exited with code %d" % done.returncode)
    return json.loads(lines[-1])


def check_counts(result, out_dir, fingerprint, workload, seed):
    """Exact-count check across processes of one source tree and seed.

    `counts` holds one entry per draw the run reached (per warm-up for
    serve-mixed); runs reach different numbers of draws, so the check
    compares the draws both runs reached and keeps the longest list."""
    counts_dir = os.path.join(out_dir, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    path = os.path.join(counts_dir, "%s-%s-%d.json" % (fingerprint, workload, seed))
    counts = result["counts"]
    known = []
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    for k, (first, now) in enumerate(zip(known, counts)):
        if first != now:
            log("exact counts of draw %d differ from an earlier run of this "
                "tree and seed: %s vs %s" % (k, first, now))
            result["correct"] = False
    if len(counts) > len(known):
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)


def report_baseline_delta(result, workload, seed):
    """Default-seed runs print their count deltas against baseline.json."""
    path = os.path.join(BENCH_DIR, "baseline.json")
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return
    with open(path) as f:
        recorded = json.load(f).get("workloads", {}).get(workload, {}).get("counts")
    if not recorded:
        return
    for k, (old, new) in enumerate(zip(recorded, result["counts"])):
        deltas = {name: v - old.get(name, 0) for name, v in new.items()}
        log("draw %d count deltas vs baseline.json: %s"
            % (k, json.dumps(deltas, sort_keys=True)))


def run_one(workload, seed, seconds, trace):
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    fingerprint = source_fingerprint(out_dir)
    binary = build(out_dir, fingerprint)
    result = run_harness(binary, out_dir, workload, seed, seconds, trace)
    check_counts(result, out_dir, fingerprint, workload, seed)
    report_baseline_delta(result, workload, seed)
    for flag in result["flags"]:
        log("guard " + flag)
    log("notes: " + json.dumps(result["notes"], sort_keys=True))
    return result


def record_baseline(seconds):
    """Re-measures baseline.json at the default seed, keeping the rationale."""
    path = os.path.join(BENCH_DIR, "baseline.json")
    with open(path) as f:
        baseline = json.load(f)
    for workload in WORKLOADS:
        entry = baseline["workloads"][workload]
        traced = run_one(workload, DEFAULT_SEED, seconds, True)
        entry["pairs"] = traced["pairs"]
        entry["counts"] = traced["counts"]
        metrics = traced["metrics"]
        entry["traced_shares"] = {
            k: round(metrics["share." + k]["value"], 4)
            for k in ("propagate", "generalize", "unroll", "revalidate")}
        entry["guard_flags"] = traced["flags"]
    with open(path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    log("wrote " + path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-baseline", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        log("program sources not found at %s; run from a full checkout" % SRC_DIR)
        return 1
    try:
        if args.record_baseline:
            record_baseline(args.seconds)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = run_one(args.workload, args.seed, args.seconds, args.trace == 1)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps({k: result[k] for k in RESULT_KEYS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
