#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench driver (perfbench/CMakeLists.txt, which compiles
the library under src/) in the build directory, then runs one workload
and relays its report. The last line of stdout is the JSON result.

    python3 perfbench/run.py --workload kv-a-zipf --seed 1 --seconds 20 \
        --trace 0

The build directory is $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; relative paths are
taken from the repository root. Traced runs also write their spans to
<build dir>/traces/<workload>-seed<n>.json (Chrome trace-event format)
and the library's own obs::Tracer spans next to it (.lib.json).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("kv-a-zipf", "kv-b-uniform", "net-epoch", "stamp")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then (re)build the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s; run from a full "
                 "checkout" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except subprocess.CalledProcessError as err:
        sys.exit("perfbench: build failed (%s)" % err)

    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        command.append("--trace-out=" + os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed)))
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: %s failed with exit code %d"
                 % (args.workload, proc.returncode))

    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: %s reported incorrect output" % args.workload)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
