#!/usr/bin/env python3
"""Full-stack tap-to-verdict benchmark for 6G-XSec.

Builds perfbench/ (the repo's libraries plus perfbench/main.cpp) into
.bench_build/ of the checkout, runs one workload and prints the result:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics,
--trace 1 the per-layer ones. Every result is also written, with a host
fingerprint, to .bench_build/results/<workload>-seed<seed>-trace<t>.json.

    python3 perfbench/run.py compare A.json [A2.json ...] -- B.json [...]

prints per-metric medians of two result sets and refuses sets whose host
fingerprints differ.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "xsec_perfbench")
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a checkout of the repo")
    run_quiet(["cmake", "-S", HERE, "-B", BUILD,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target",
               "xsec_perfbench"], "build")


def read_first(path, pattern):
    try:
        with open(path) as f:
            for line in f:
                m = re.match(pattern, line)
                if m:
                    return m.group(1).strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    """Host and build identity; results from different ones do not compare."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    compiler = read_first(cache, r"CMAKE_CXX_COMPILER:\w+=(.*)")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    flags = " ".join(
        read_first(cache, rf"{key}:\w+=(.*)")
        for key in ("CMAKE_CXX_FLAGS",
                    f"CMAKE_CXX_FLAGS_{BUILD_TYPE.upper()}"))
    return {
        "cpu": read_first("/proc/cpuinfo", r"model name\s*:(.*)"),
        "nproc": os.cpu_count(),
        "compiler": version,
        "flags": flags.strip(),
        "build_type": read_first(cache, r"CMAKE_BUILD_TYPE:\w+=(.*)"),
        "kernel": platform.release(),
    }


def bench(args):
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    stem = os.path.join(BUILD, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        cmd += ["--spans", stem + ".spans.tsv"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    host = fingerprint()
    print("fingerprint " + json.dumps(host, sort_keys=True))
    print(f"digest {result['digest']} ({time.monotonic() - started:.1f} s)")

    out = {"correct": result["correct"], "attempted": int(result["attempted"]),
           "failed": int(result["failed"]), "metrics": result["metrics"]}
    with open(stem + ".json", "w") as f:
        json.dump(dict(out, workload=args.workload, seed=args.seed,
                       trace=args.trace, digest=result["digest"],
                       report=result["report"], fingerprint=host), f,
                  indent=1, sort_keys=True)
    print(json.dumps(out))


def compare(paths):
    if "--" not in paths:
        fail("usage: run.py compare A.json [...] -- B.json [...]")
    split = paths.index("--")
    sides = [paths[:split], paths[split + 1:]]
    loaded = [[json.load(open(p)) for p in side] for side in sides]
    if not loaded[0] or not loaded[1]:
        fail("both result sets need at least one file")
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for side in loaded for r in side}
    if len(prints) != 1:
        fail("host fingerprints differ; refusing to compare:\n  " +
             "\n  ".join(sorted(prints)))
    keys = {(r["workload"], r["trace"]) for side in loaded for r in side}
    if len(keys) != 1:
        fail(f"results mix workloads/trace modes: {sorted(keys)}")
    names = sorted(set.intersection(
        *(set(r["metrics"]) for side in loaded for r in side)))
    print(f"{'metric':34} {'A median':>14} {'B median':>14} {'B/A':>8}")
    for name in names:
        a = statistics.median(r["metrics"][name]["value"] for r in loaded[0])
        b = statistics.median(r["metrics"][name]["value"] for r in loaded[1])
        rel = f"{b / a:8.3f}" if a else "       -"
        print(f"{name:34} {a:14.6g} {b:14.6g} {rel}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        compare(sys.argv[2:])
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet", "attack", "collect"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    bench(parser.parse_args())


if __name__ == "__main__":
    main()
