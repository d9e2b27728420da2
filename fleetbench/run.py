#!/usr/bin/env python3
"""Firmware-fleet benchmark entry point.

Builds the benchmark binary and asteria-serve from this checkout (CMake,
into .bench_build/fleetbench), runs one workload, appends the run to
fleetbench/history.jsonl, and prints the result JSON as the last line:

  python3 fleetbench/run.py --workload serve-topk --seed 1 --seconds 10 --trace 0

Workloads: serve-topk, ingest-under-query, cve-sweep (README.md in this
directory describes them and every metric). --trace 1 prints the per-layer
metrics and the waterfalls instead of the end-to-end metrics.
"""
import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fleetbench")
BINARY = os.path.join(BUILD_DIR, "fleetbench")
SERVE = os.path.join(BUILD_DIR, "asteria", "tools", "asteria-serve")
HISTORY = os.path.join(HERE, "history.jsonl")
WORKLOADS = ("serve-topk", "ingest-under-query", "cve-sweep")
RECORD_PREFIX = "fleetbench-record "
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False if either fails."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fleetbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("fleetbench: build step failed: " + " ".join(step))
            return False
    return True


def git_sha():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest():
    """sha256 over the sources the build reads: identifies the program
    version when the checkout is not a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "fleetbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(base, f) for f in sorted(files)
                         if f.endswith((".cpp", ".h", ".txt")))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def run(args, extra):
    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    command = [BINARY, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%s" % args.seconds,
               "--trace=%d" % args.trace, "--serve_bin=" + SERVE,
               "--work_dir=" + work] + extra
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
        return result.returncode, result.stdout
    except subprocess.TimeoutExpired:
        log("fleetbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: a tiny fleet, not recorded")
    args = parser.parse_args()
    if not build():
        return 1
    code, out = run(args, ["--tiny"] if args.tiny else [])
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        log("fleetbench: the run failed (exit code %d)" % code)
        return 1
    result_line = lines[-1]
    for line in lines[:-1]:
        if line.startswith(RECORD_PREFIX):
            record = json.loads(line[len(RECORD_PREFIX):])
            record["utc"] = datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds")
            record["git_sha"] = git_sha()
            record["source_digest"] = source_digest()
            if not args.tiny:
                with open(HISTORY, "a") as f:
                    f.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            print(line)
    print(result_line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
