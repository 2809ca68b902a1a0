#!/usr/bin/env python3
"""Builds the FABIUS benchmark program from source and runs one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

fabbench and the FABIUS libraries are built with CMake (Release) into
$CARGO_TARGET_DIR, or .bench_build when it is unset, under the current
directory. Build output goes to stderr. fabbench's own output passes
through unchanged; its last line is the result JSON. Traced runs write their
spans under <build dir>/spans. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds fabbench; returns the build directory."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "fabbench",
         "perfbench_unit"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            sys.exit(f"perfbench: cannot run {cmd[0]}: {err}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out


def main():
    out = build()
    exe = os.path.join(out, "fabbench")
    args = [exe] + sys.argv[1:] + ["--spans", os.path.join(out, "spans")]
    sys.stdout.flush()
    os.execv(exe, args)


if __name__ == "__main__":
    main()
