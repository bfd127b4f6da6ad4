#!/usr/bin/env python3
"""Build the CRUSADE benchmark program from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-small|serve-mix \
        --seed N --seconds S --trace 0|1

The program is built (Release) under .bench_build/ on first use.  Build
output goes to stderr; the last line of stdout is the program's JSON result.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper-small", "serve-mix")


def source_digest():
    """sha256 over src/ and perfbench/: identifies the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "none"


def build():
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "crusade_perfbench"],
                   stdout=sys.stderr, check=True)
    return BUILD / "crusade_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no CRUSADE sources at %s/src" % ROOT,
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    print("source commit=%s src_sha256=%s" % (commit(), source_digest()),
          flush=True)
    work = ROOT / ".bench_build" / ("work-%d" % os.getpid())
    try:
        return subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--golden", str(HERE / "golden.txt"),
             "--work-dir", str(work),
             "--trace-out", str(ROOT / ".bench_build" / "traces" /
                                ("%s-seed%d.json" % (args.workload,
                                                     args.seed)))],
            cwd=ROOT).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
