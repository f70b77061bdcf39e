#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark binary from source (perfbench/CMakeLists.txt, which
compiles the engine's libraries from src/), runs one workload, checks that
every metric named in BENCHMARK.json is present with its unit, and prints
the result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end set, with --trace 1 the
per-layer set (and a Chrome trace-event dump is written next to the build).
Host context (core count, pool threads, SIMD tier, compiler, build type,
commit) is printed on the line before the result.

Usage, from the repository root:

    python3 perfbench/run.py --workload closure_table5 --seed 1 \
        --seconds 20 --trace 0

Exit status is 0 when the workload ran and every correctness gate passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("closure_table5", "fit_eco_50k", "daemon_mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures and builds the e2e_bench target; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs, "--target", "e2e_bench"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "e2e_bench")


def source_digest():
    """SHA-256 over the engine and benchmark sources (stands in for the
    commit when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale workload sizes (the benchmark's own test)")
    parser.add_argument("--inject", default="",
                        help="feed this correctness gate a wrong expected answer")
    args = parser.parse_args()

    want = expected_metrics(args.trace)
    out_dir = build_dir()
    binary = build(out_dir)
    workdir = os.path.join(out_dir, "run")
    os.makedirs(workdir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.relpath(workdir, ROOT)]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("workload printed no result (exit %d)" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])

    context = dict(raw["context"])
    context["nproc"] = str(os.cpu_count())
    context["commit"] = commit()
    context["source_digest"] = source_digest()
    print("context: " + json.dumps(context, sort_keys=True))
    print("gates: " + json.dumps(raw["gates"], sort_keys=True))

    metrics = raw["metrics"]
    missing = [n for n, u in want.items()
               if n not in metrics or metrics[n]["unit"] != u]
    if missing:
        log("metrics missing or with the wrong unit: " + ", ".join(missing))
        return 1
    correct = (proc.returncode == 0 and raw["failed"] == 0
               and all(raw["gates"].values()))
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: metrics[n] for n in want},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        log("benchmark failed: %s" % exc)
        sys.exit(1)
