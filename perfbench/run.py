#!/usr/bin/env python3
"""Build and run the wall-clock pipeline benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the repository's libraries from src/ plus the benchmark
binary, Release) under $CARGO_TARGET_DIR (default .bench_build); later
calls only rebuild what changed. Build output goes to stderr, so the
benchmark's own stdout ends with its one-line JSON result. A traced run
(--trace 1) also writes its spans as chrome://tracing JSON next to the
build.
"""
import os
import subprocess
import sys

WORKLOADS = ("city_kpm", "fleet_attack_kpm", "spectrogram_cnn",
             "attack_campaign")


def option(argv, name):
    """Value following `name` in argv, or None."""
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no source tree at %s/src" % root)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workload = option(argv, "--workload")
    if workload not in WORKLOADS:
        sys.exit("perfbench: --workload must be one of %s" % ", ".join(WORKLOADS))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    args = [binary] + argv
    if option(argv, "--trace") not in (None, "0") and "--trace-out" not in argv:
        args += ["--trace-out", os.path.join(build_dir, "trace-%s.json" % workload)]
    sys.stdout.flush()
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
