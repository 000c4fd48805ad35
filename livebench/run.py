#!/usr/bin/env python3
"""Build and run the live-feed benchmark.

    python3 livebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
benchmark (and the vqoe libraries it drives) from source into
$CARGO_TARGET_DIR/livebench (default .bench_build/livebench); later calls
rebuild incrementally. The benchmark's self-tests run before every
measurement. Only optimized builds are timed: a Debug or sanitizer build
directory is refused. The last line of standard output is the JSON result.

    python3 livebench/run.py --self-test     # build and run the self-tests only
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sessions_shadow", "windows_paced", "transport")
TIMED_BUILD_TYPES = ("Release", "RelWithDebInfo")


def fail(message):
    print(f"livebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "livebench"


def check_cache(build):
    """Refuses a build directory configured for Debug or a sanitizer."""
    cache = build / "CMakeCache.txt"
    if not cache.exists():
        return
    text = cache.read_text()
    match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", text, re.MULTILINE)
    build_type = match.group(1).strip() if match else ""
    if build_type not in TIMED_BUILD_TYPES:
        fail(f"refusing to time a '{build_type or 'unset'}' build in {build}")
    if "-fsanitize" in text:
        fail(f"refusing to time a sanitizer build in {build}")


def build(build_path):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"vqoe sources not found under {ROOT}")
    check_cache(build_path)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_path / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_path),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_path), "-j", jobs,
                  "--target", "livebench", "livebench_selftest"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    check_cache(build_path)


def self_test(build_path):
    result = subprocess.run([str(build_path / "livebench_selftest")],
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("self-tests failed")


def source_digest():
    """sha256 over the benchmark's and the system's sources, so a result
    names the code it measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=None,
                        help="override the offered rate in rec/s (calibration; 0 = unthrottled)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_path = build_dir()
    build(build_path)
    self_test(build_path)
    if args.self_test:
        return 0

    sha = git_sha()
    print(f"provenance source_sha256={source_digest()} git_sha={sha}", flush=True)
    command = [str(build_path / "livebench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--state-dir", str(build_path / "state"),
               "--git-sha", sha]
    if args.rate is not None:
        command += ["--rate", str(args.rate)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
