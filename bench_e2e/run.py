#!/usr/bin/env python3
"""Builds bench_e2e from the surrounding checkout, then runs it.

    python3 bench_e2e/run.py --workload W --seed S --seconds N --trace 0|1 \
        [--out R.json] [--trace-out T.json] [--work-dir D]

Run from the repository root. The build tree is .bench_build/ (configured
once, rebuilt incrementally on every call); the fixture checkpoint, session
journals and traces live in .bench_build/e2e_work unless --work-dir says
otherwise. All arguments are passed through to the bench_e2e binary, whose
last line of output is the result JSON.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("bench_e2e: no MetaDSE sources next to %s\n" % HERE)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("bench_e2e: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    exe = os.path.join(BUILD, "bench_e2e")
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", os.path.join(BUILD, "e2e_work")]
    sys.stdout.flush()
    os.execv(exe, [exe] + args)


if __name__ == "__main__":
    sys.exit(main())
