#!/usr/bin/env python3
"""Build the rtlock benchmark from source and run one workload.

usage (from the repository root):
  python3 perfbench/run.py --workload fig6_r1000|fig6_r100|serve_lock \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and the rtlock library from
src/) into the build directory: $CARGO_TARGET_DIR if set, else .bench_build.
Each workload then runs in its own process; its stdout ends with the result
line {"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig6_r1000", "fig6_r100", "serve_lock")
TARGETS = ("rtlock_perfbench", "perfbench_selftest")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (a no-op when nothing changed) and build incrementally.

    Build output goes to stderr; stdout stays for the benchmark's lines.
    """
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", *TARGETS],
                   check=True, stdout=sys.stderr)
    return out


def source_digest():
    """SHA-256 over the library sources the benchmark was built from."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, env=env)
    return result.stdout.strip() if result.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")]).returncode

    command = [
        str(out / "rtlock_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(out / "work"),
        "--commit", git_commit(),
        "--src-digest", source_digest(),
    ]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
