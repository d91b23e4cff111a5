#!/usr/bin/env python3
"""Builds and runs the piperisk end-to-end benchmark.

    python3 e2ebench/run.py --workload compare-A|stream-1M|serve-1M|all \
        --seed N --seconds S --trace 0|1

Run from the root of a piperisk source tree. The first run configures and
builds a Release tree under $CARGO_TARGET_DIR (default .bench_build) and
every run checks the statistics helpers' tests before measuring. Generated
inputs live under .bench_work/ and are removed afterwards. Refuses to
measure a git checkout with uncommitted changes to tracked files.

The last line of stdout is the result object; its metrics must be exactly
the end-to-end (--trace 0) or per-layer (--trace 1) metrics that
BENCHMARK.json lists, with the same units, or nothing is printed and the
exit code is non-zero. `--workload all` runs every workload in turn and
prints each one's metrics under a `== name ==` header, then its lines.
e2ebench/main.cc documents the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def git_sha():
    """The checkout's commit, 'unversioned' outside git; None when dirty."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "unversioned"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unversioned"
    return None if dirty else sha


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "e2e_bench", "e2e_stats_test"],
                   stdout=sys.stderr, check=True)
    subprocess.run([os.path.join(build_dir, "e2e_stats_test"),
                    "--gtest_brief=1"], stdout=sys.stderr, check=True)


def measure(workload, args, spec, build_dir, sha):
    """Runs one workload; returns its stdout lines, or None on failure."""
    work_dir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work_dir)
    command = [os.path.join(build_dir, "e2e_bench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--git-sha", sha]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        log(f"{workload}: e2e_bench exited with {proc.returncode}")
        return None

    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    if got != want:
        log(f"{workload}: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}, units "
            f"{sorted(n for n in got if n in want and got[n] != want[n])}")
        return None
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log(f"unknown workload {args.workload}")
        return 2
    sha = git_sha()
    if sha is None:
        log("refusing to measure a checkout with uncommitted changes")
        return 3

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build or statistics tests failed: {error}")
        return 1

    if args.workload != "all":
        lines = measure(args.workload, args, spec, build_dir, sha)
        if lines is None:
            return 1
        print("\n".join(lines), flush=True)
        return 0
    for name in names:
        lines = measure(name, args, spec, build_dir, sha)
        if lines is None:
            return 1
        print(f"== {name} ==", flush=True)
        for metric, m in json.loads(lines[-1])["metrics"].items():
            print(f"{metric:34s} {m['value']:.6g} {m['unit']}")
        print("\n".join(lines), flush=True)
    return 0


def terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    sys.exit(main())
