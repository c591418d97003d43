#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build lives in .bench_build/perfbench
(configured once, then brought up to date on every call); scratch files
of a run go to .bench_build/work and temporary files to .bench_build/tmp.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Exits
non-zero, without a result, when the repository sources are missing or
the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def environment():
    """The caller's environment with temporary files kept in the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("repository sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "3"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=environment())
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def run(command):
    """Runs `command`, passing its output through; returns its exit code."""
    child = subprocess.Popen(command, cwd=ROOT, env=environment())
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        child.kill()
        child.wait()
        return 1


def main(argv):
    if argv == ["--selftest"]:
        if not build("perfbench_tests"):
            return 1
        return run([os.path.join(BUILD, "perfbench_tests")])
    if not build("perfbench"):
        return 1
    os.makedirs(WORK, exist_ok=True)
    return run([os.path.join(BUILD, "perfbench")] + argv + ["--work-dir", WORK])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
