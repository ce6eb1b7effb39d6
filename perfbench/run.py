#!/usr/bin/env python3
"""Builds the benchmark program in Release and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr, so the last line of stdout is the program's JSON result.
Every argument is passed on to the program (see main.cpp for the options).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    # Socket paths must stay under the 108-byte Unix-domain limit, so the
    # distributed engine's scratch directory is given relative to here.
    tmp_dir = os.path.relpath(os.path.join(build_dir, "tmp"))
    # A child process, not exec: the program reads its children's peak RSS
    # (the forked ranks), which must not include the compiler's.
    program = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--tmp-dir", tmp_dir]
    return subprocess.run(program).returncode


if __name__ == "__main__":
    sys.exit(main())
