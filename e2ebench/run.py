#!/usr/bin/env python3
"""Builds and runs the rvss end-to-end benchmark.

    python3 e2ebench/run.py --rate 300 --max-lag-ms 50 \
        --workload gui-step --seed 1 --seconds 30 --trace 0

Run from the root of the repository. The first run configures and builds
the repository's `rvss` binary and library plus the e2ebench binary with
CMake, in $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
later runs rebuild only what changed. Build output goes to stderr; the
binary's last stdout line is the JSON result. All arguments are passed
to the e2ebench binary unchanged; BENCHMARK.json holds the command, with
the --rate and --max-lag-ms to use.
"""
import fcntl
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "e2ebench",
             "-j", str(os.cpu_count() or 1)],
            stdout=sys.stderr, check=True)


def main():
    os.chdir(ROOT)
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        print("e2ebench: the rvss sources (CMakeLists.txt, src/) are not here",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "e2ebench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 2
    command = [os.path.join(build_dir, "e2ebench"),
               "--rvss", os.path.join(build_dir, "rvss", "rvss"),
               "--run-dir", ".bench_run",
               "--pins", os.path.join("e2ebench", "pins.json")] + sys.argv[1:]
    # The e2ebench binary and the fleet it starts share a fresh process group, so
    # that nothing outlives this script, even if the binary dies.
    bench = subprocess.Popen(command, start_new_session=True)
    try:
        return bench.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: no result within {TIMEOUT_S} s", file=sys.stderr)
        return 4
    finally:
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except OSError:
            pass
        bench.wait()


if __name__ == "__main__":
    sys.exit(main())
