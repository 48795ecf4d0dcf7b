#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of the checkout.  The first run configures and builds
into $CARGO_TARGET_DIR (default .bench_build); later runs only check that
the build is current.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  The exit code is the benchmark's:
non-zero when an output check failed or the sources are missing.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_canonical", "sim_paper_scale", "figures_paper_scale", "ckpt_canonical")


def git_rev():
    # Only ask git inside a git checkout, so nothing outside it is read.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--preset", choices=("tiny",), help="shrink the workload (smoke test)")
    p.add_argument("--tamper", action="store_true",
                   help="plant a bad trace into the output check (smoke test)")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found next to perfbench/", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir, "--git-rev", git_rev()]
    if args.preset:
        cmd += ["--preset", args.preset]
    if args.tamper:
        cmd.append("--tamper")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
