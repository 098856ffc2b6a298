#!/usr/bin/env python3
"""Build the genfv benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_flows --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result, when
the genfv sources are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench", "genfv_cli"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "flow", "session.hpp")):
        print("perfbench: genfv sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    bench = os.path.join(build_dir, "perfbench")
    cli = os.path.join(build_dir, "genfv_cli")
    # Run from the repository root: the benchmark reads tests/corpus/ there.
    return subprocess.run([bench, "--cli", cli] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
