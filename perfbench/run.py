#!/usr/bin/env python3
"""Entry point of the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the avsec modules it drives, from ../src) into
$CARGO_TARGET_DIR or .bench_build at the repo root, then runs the
`perfbench` binary. With --trace 0 it also starts the binary in
--setup-only mode SETUP_PROCESSES more times, half before and half after
the measured run, and reports setup_s as the median of SETUP_GROUPS group
means over those fresh processes. The last line of stdout is the
JSON result; build output goes to stderr. Exits nonzero, without a result
line, when the build or the run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROCESSES = 48
# A single set-up runs at the speed of the host core it lands on, which
# flips between two speeds ~1.6x apart; a median over single processes
# jumps between the two as their shares move. Group g averages processes
# g, g + SETUP_GROUPS, ..., half of them before and half after the
# measured run, and setup_s is the median of the group means.
SETUP_GROUPS = 8
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20
BUILD_TIMEOUT_S = 850


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", "4"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, target)


def run(cmd, timeout):
    """Runs the binary from the repo root; returns its stdout lines."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("%s exited with %d" % (cmd[0], proc.returncode))
    return proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        return subprocess.run([build("perfbench_selftest")], cwd=ROOT).returncode
    if not args.workload or not os.path.isfile(
            os.path.join(HERE, "workloads", args.workload + ".txt")):
        print("run.py: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    binary = build("perfbench")
    common = [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--root", ROOT]

    setup_samples = []

    def sample_setup(n):
        for _ in range(n):
            line = run(common + ["--setup-only"], SETUP_TIMEOUT_S)[-1]
            setup_samples.append(json.loads(line)["setup_s"])

    if args.trace == 0:
        sample_setup(SETUP_PROCESSES // 2)

    cmd = common + ["--trace", str(args.trace)]
    if args.trace == 1:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    lines = run(cmd, RUN_TIMEOUT_S)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if args.trace == 0:
        sample_setup(SETUP_PROCESSES - SETUP_PROCESSES // 2)
        print("# setup_s of the measured run: %.6f s" %
              result["metrics"]["setup_s"]["value"])
        print("# setup_s samples (s, one per process): " +
              " ".join("%.6f" % s for s in setup_samples))
        groups = [statistics.mean(setup_samples[g::SETUP_GROUPS])
                  for g in range(SETUP_GROUPS)]
        result["metrics"]["setup_s"]["value"] = statistics.median(groups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        sys.exit(1)
