#!/usr/bin/env python3
"""Build and run the ruby-mapper end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (libruby from src/ plus the harness)
in Release mode under $CARGO_TARGET_DIR (default .bench_build) at the
repository root, then runs the workload in the build directory. The
last line of standard output is the run's JSON result (one per
workload with `all`); everything before it is commentary.
A traced run (--trace 1) also writes Chrome trace-event JSON into the
build directory. Build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resnet50-random", "certify-optimal", "serve-fleet")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then (re)build; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def workload_why(name):
    """The workload's reason from BENCHMARK.json, when present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    for w in spec.get("workloads", []):
        if w.get("name") == name:
            return w.get("why")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no libruby sources under " + ROOT, file=sys.stderr)
        return 1
    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        why = workload_why(name)
        if why:
            print("# why: " + why, flush=True)
        cmd = [os.path.join(bdir, "perfbench"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                bdir, "trace-%s-%d.json" % (name, args.seed))]
        # serve-fleet binds its unix sockets in the working directory.
        status = status or subprocess.run(cmd, cwd=bdir).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
