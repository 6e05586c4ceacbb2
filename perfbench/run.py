#!/usr/bin/env python3
"""Paper-workload benchmark of the MichiCAN simulator.

Builds the simulator library and the perfbench binary from source into
.bench_build/ at the repository root, then runs one workload:

    python3 perfbench/run.py --workload paper-campaign --seed 1 \
        --seconds 10 --trace 0 [--base-seed N]

The last line of stdout is the JSON result.  The exit code is the binary's:
0 when every output check held, 1 when one did not; 2 when the build, the
arguments or the run fail (no result line then).

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own unit and smoke tests and checks that
BENCHMARK.json agrees with the binary's metric catalogue.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# runner::CampaignConfig::base_seed's default ("Mich").
DEFAULT_BASE_SEED = 0x4D696368
# A run is set-up plus --seconds of batches plus calibrations; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, **kwargs):
    """Run to completion with stdout sent to stderr; True on exit 0."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    return proc.returncode == 0


def build(targets):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_checked(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        *targets])


def run_binary(args):
    cmd = [os.path.join(BUILD, "perfbench"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 2


def self_test():
    if not build(["perfbench", "perfbench_tests"]):
        log("build failed")
        return 2
    ok = run_checked([os.path.join(BUILD, "perfbench_tests")], cwd=BUILD)
    ok &= run_checked([sys.executable,
                       os.path.join(HERE, "tests", "test_benchmark_json.py")])
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--base-seed", type=int, default=DEFAULT_BASE_SEED)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        return self_test()
    if None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not build(["perfbench"]):
        log("build failed")
        return 2
    return run_binary(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace),
                       "--base-seed", str(a.base_seed),
                       "--work-dir", BUILD])


if __name__ == "__main__":
    sys.exit(main())
