#!/usr/bin/env python3
"""Build and run the DE-Sword audit benchmark.

Run from the repository root:

    python3 auditbench/run.py --workload cold_audit --seed 1 --seconds 30 --trace 0
    python3 auditbench/run.py --self-test

The first call configures and builds auditbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/auditbench, default .bench_build/auditbench; later
calls rebuild incrementally. Build output goes to stderr, so the last line
on stdout is the benchmark's JSON result. The exit status is the
benchmark's: 0 only when every query passed the output oracle.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_audit", "recall_campaign", "ingest_under_load")
# A run measures at most 60 s plus set-up; anything far beyond is a hang.
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("auditbench: no DE-Sword sources next to auditbench/ "
                 "(expected src/CMakeLists.txt); run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the harness-equivalence test instead")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "auditbench"))
    try:
        if args.self_test:
            binary = build(build_dir, "audit_bench_equivalence")
            return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode
        binary = build(build_dir, "audit_bench")
    except subprocess.CalledProcessError as e:
        sys.exit("auditbench: build failed: %s" % e)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("auditbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
