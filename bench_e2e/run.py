#!/usr/bin/env python3
"""End-to-end benchmark runner for stripack.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness (and the library, from the checkout's sources) as a
Release build in `$CARGO_TARGET_DIR/bench_e2e` (default `.bench_build`),
runs the harness self-test, then runs one measurement. The harness's
standard output passes through unchanged, so its last line is the JSON
result. Exits nonzero when the build, the self-test or any output check
fails. See bench_e2e/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("served_mix", "service_classes", "solve_deep", "solve_parallel")
HARNESS_TIMEOUT_S = 170


def fail(message: str, code: int = 2) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "bench_e2e"


def commit_id() -> str:
    """The git commit when there is one, else a hash of the sources."""
    if shutil.which("git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10)
            lines = out.stdout.split()
            # Only this checkout's own repository, not one enclosing it.
            if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
                return lines[1]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def cached_build_type(build: Path) -> str:
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        return ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1].strip()
    return ""


def run_quiet(cmd: list) -> None:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"'{' '.join(map(str, cmd))}' failed with {proc.returncode}")


def build(build: Path) -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no stripack sources next to {HERE.name}/ (expected "
             f"{ROOT / 'CMakeLists.txt'} and {ROOT / 'src'})")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if cached_build_type(build) != "Release":
        run_quiet(["cmake", "-S", str(HERE), "-B", str(build),
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(build), "-j", str(os.cpu_count() or 1),
               "--target", "stripack_e2e", "stripack_e2e_selftest"])
    build_type = cached_build_type(build)
    if build_type != "Release":
        fail(f"refusing to measure a '{build_type}' build")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_path = build_dir()
    build(build_path)
    selftest = subprocess.run([str(build_path / "stripack_e2e_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("harness self-test failed", 1)

    cmd = [str(build_path / "stripack_e2e"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        cmd += ["--trace-out", str(build_path / f"spans-{args.workload}.jsonl")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s", 1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
