#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve_repeat --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the simulator libraries from src/
plus the perfbench program) into .bench_build/perfbench -- a no-op when
the build is up to date -- then runs perfbench with the same
arguments.  Build output goes to stderr; perfbench's last line on
stdout is the JSON result.  With --trace 1 the spans are also written
to .bench_build/perfbench/trace_<workload>.json.  Exits nonzero, with
no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_SUBDIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configure (once) and build; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"),
               "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def option(args, name):
    """Value following flag `name` in args, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, BUILD_SUBDIR)
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if option(args, "--trace") == "1" and option(args, "--trace-out") is None:
        workload = option(args, "--workload") or "unknown"
        args += ["--trace-out",
                 os.path.join(build_dir, "trace_%s.json" % workload)]
    try:
        return subprocess.run([os.path.join(build_dir, "perfbench")] + args,
                              cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
