#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>
  python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the current directory. Build output goes to stderr, so the driver's
JSON result stays the last line of stdout. Traced runs also write their
Chrome trace to <build dir>/traces/<workload>-seed<n>.json.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(proc.returncode or 1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"perfbench: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", out, *gen,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    return os.path.join(out, "perfbench")


def main(argv):
    binary = build()
    args = list(argv)
    if "--self-test" not in args and "--trace-out" not in args:
        opts = dict(zip(args[::2], args[1::2]))
        if opts.get("--trace", "0") != "0":
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            name = (f"{opts.get('--workload', 'run')}"
                    f"-seed{opts.get('--seed', '0')}.json")
            args += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.run([binary, *args]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
