#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Run from the repository root. The library and the benchmark are built from
source into $CARGO_TARGET_DIR (default .bench_build) on the first run. The
last line of standard output is the run's JSON result; the exit code is
non-zero when the build fails or any output check fails.

  --workload all   runs every workload one after another
  --selftest       runs the unit tests of the benchmark's own arithmetic
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["interactive", "columnar", "stream", "analyze", "restart"]
# Seed kept out of development runs, for checking later gain claims.
HOLDOUT_SEED = 9001
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once and builds incrementally; False on failure."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            log("perfbench: configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", out, "-j", jobs,
         "--target", "pfbench", "pfbench_stats_test"],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        log("perfbench: build failed")
        return False
    return True


def source_digest():
    """SHA-1 over the library sources, naming the code measured when the
    checkout carries no git metadata."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:12]


def commit():
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return head.stdout.strip() if head.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload, args):
    scratch = os.path.join(build_dir(), "runs")
    os.makedirs(scratch, exist_ok=True)
    print("# seed=%d commit=%s src=%s cpu=%s" %
          (args.seed, commit(), source_digest(), cpu_model()), flush=True)
    cmd = [os.path.join(build_dir(), "pfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch]
    try:
        child = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1
    return child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (holdout seed: %d)" % HOLDOUT_SEED)
    # The run_seconds of BENCHMARK.json, which its bounds were set for.
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return subprocess.run(
            [os.path.join(build_dir(), "pfbench_stats_test")]).returncode
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = run_workload(workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
