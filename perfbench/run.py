#!/usr/bin/env python3
"""Build and run the VEAL repository benchmark (see perfbench/README.md).

One run of one workload (the form BENCHMARK.json's command uses):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
Every workload, one summary row each (exits 1 if any output check fails):
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
Run-to-run spread over consecutive seeds, against BENCHMARK.json's bounds:
    python3 perfbench/run.py --workload NAME|all --repeat 10 [--seed FIRST]
The benchmark's own self-tests:
    python3 perfbench/run.py --self-test

Run from anywhere; paths resolve against the repository root, and the
build, fixtures and scratch files live under $CARGO_TARGET_DIR (default
.bench_build) in that root.  The last stdout line of a single run is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm-reuse", "cold-churn", "warm-restart", "dse-grid"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_digest():
    """sha256 over the program and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(bdir):
    """Configure (once) and build the benchmark; exits 2 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "veal", "veal.h")):
        log("perfbench: the VEAL sources (src/) are missing; nothing to build")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "veal-perfbench",
                  "perfbench-selftest", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(step))
            sys.exit(2)
    return os.path.join(bdir, "veal-perfbench")


def fixture(binary, bdir, digest, seed):
    """The warm-restart store for @seed, written once by its own process."""
    final = os.path.join(bdir, "fixtures", digest, "seed-%d" % seed)
    if os.path.isdir(final):
        return final
    partial = final + ".partial-%d" % os.getpid()
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(os.path.dirname(final), exist_ok=True)
    result = subprocess.run([binary, "--make-fixture", partial, "--seed",
                             str(seed)], stdout=sys.stderr, stderr=sys.stderr,
                            timeout=RUN_TIMEOUT_S)
    if result.returncode != 0:
        shutil.rmtree(partial, ignore_errors=True)
        log("perfbench: writing the warm-restart fixture failed")
        sys.exit(2)
    os.rename(partial, final)
    return final


def load_json(name):
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE, name)) as f:
        return json.load(f)


def run_once(binary, bdir, workload, seed, seconds, trace):
    """One benchmark process; returns (exit code, stdout text, result)."""
    digest = source_digest()
    fingerprints = load_json("fingerprints.json")
    work = os.path.join(bdir, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work, "--commit", commit_sha(),
               "--source-digest", digest]
    expected = fingerprints["workloads"].get(workload)
    if expected:
        command += ["--expect-fingerprint", expected]
    if workload == "warm-restart":
        command += ["--fixture", fixture(binary, bdir, digest, seed),
                    "--canonical-fixture",
                    fixture(binary, bdir, digest, fingerprints["seed"])]
    if trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--spans-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if proc.returncode in (0, 1):
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None:
        kind = "per_layer" if trace else "end_to_end"
        want = [m["name"] for m in load_json("BENCHMARK.json")[kind]]
        if sorted(result["metrics"]) != sorted(want):
            log("perfbench: metrics do not match BENCHMARK.json %s" % kind)
            result = None
    if result is None:
        log("perfbench: %s run failed (exit %d)" % (workload, proc.returncode))
        return 2, "\n".join(lines[:-1]), None
    return proc.returncode, proc.stdout, result


def summary_table(results, trace):
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in load_json("BENCHMARK.json")[kind]]
    if trace:
        print("%-40s %s" % ("metric", " ".join("%16s" % w for w in results)))
        for name in names:
            unit = next(iter(results.values()))["metrics"][name]["unit"]
            print("%-40s %s" % (name + " [" + unit + "]", " ".join(
                "%16.4f" % r["metrics"][name]["value"] for r in results.values())))
        return
    header = ["workload"] + ["%s[%s]" % (n, next(iter(results.values()))
                                         ["metrics"][n]["unit"]) for n in names]
    header += ["failed_share", "correct"]
    print(" ".join("%-14s" % h if i == 0 else "%18s" % h
                   for i, h in enumerate(header)))
    for workload, r in results.items():
        cells = ["%-14s" % workload]
        cells += ["%18.6g" % r["metrics"][n]["value"] for n in names]
        cells += ["%18.6g" % (r["failed"] / r["attempted"]), "%18s" % r["correct"]]
        print(" ".join(cells))
    print("throughput_per_s is requests_per_s on the service workloads and "
          "cells_per_s on dse-grid; latency is per tick (service) or per "
          "row of 4 design points (dse-grid).")


def spread(binary, bdir, workloads, first_seed, repeat, seconds):
    """Median, quartiles and IQR share per end-to-end metric."""
    bounds = {m["name"]: m["bound"] for m in load_json("BENCHMARK.json")["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(first_seed, first_seed + repeat):
            code, stdout, result = run_once(binary, bdir, workload, seed,
                                            seconds, 0)
            for line in stdout.split("\n"):
                if line.startswith(("checks:", "character:", "fingerprint:")):
                    log("%s seed %d %s" % (workload, seed, line))
            if result is None or code != 0:
                log("perfbench: %s seed %d failed" % (workload, seed))
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            log("%s seed %d: %s" % (workload, seed, json.dumps(
                {n: round(v[-1], 6) for n, v in values.items()})))
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / q2 if q2 else float("inf")
            verdict = "ok" if share < bounds[name] / 3 else (
                "within bound" if share <= bounds[name] else "TOO WIDE")
            if name == "setup_s":
                verdict = "(not gated)"
            elif share > bounds[name]:
                ok = False
            print("%-12s %-18s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %6.2f%% bound %4.0f%% %s" % (
                      workload, name, q2, q1, q3, share * 100,
                      bounds[name] * 100, verdict), flush=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = args.seconds or load_json("BENCHMARK.json")["run_seconds"]
    bdir = build_root()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")
    binary = build(bdir)

    if args.self_test:
        work = os.path.join(bdir, "selftest")
        shutil.rmtree(work, ignore_errors=True)
        code = subprocess.run([os.path.join(bdir, "perfbench-selftest"),
                               work]).returncode
        shutil.rmtree(work, ignore_errors=True)
        return code

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.repeat:
        return spread(binary, bdir, workloads, args.seed, args.repeat, seconds)
    if len(workloads) == 1:
        code, stdout, result = run_once(binary, bdir, workloads[0], args.seed,
                                        seconds, args.trace)
        sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")
        return code
    results = {}
    worst = 0
    for workload in workloads:
        code, stdout, result = run_once(binary, bdir, workload, args.seed,
                                        seconds, args.trace)
        sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")
        worst = max(worst, code)
        if result is None:
            return 2
        results[workload] = result
    print()
    summary_table(results, args.trace)
    return worst


if __name__ == "__main__":
    sys.exit(main())
