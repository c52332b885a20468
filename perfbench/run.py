#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload federated --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

BENCHMARK.json lists the workloads the benchmark gates on (federated,
ingest); online is built and self-tested too and runs the same way.

The first call configures and builds perfbench and dice_cli (Release) into
.bench_build/ from the checkout's sources; later calls only rebuild what
changed. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Working files (sockets, corpus, snapshot
directories, span files) live under .bench_run/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
WORKLOADS = ("online", "federated", "ingest")
# Inputs of the build whose digest identifies the measured code when the
# checkout is not a git repository.
SOURCE_PATHS = ("CMakeLists.txt", "cmake", "src", "tools", "bench", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isfile("src/CMakeLists.txt")):
        fail("no DiCE source tree (CMakeLists.txt, src/) at " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "dice_cli",
                      "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
                fail("build step failed: " + " ".join(step))
    return (os.path.join(BUILD_DIR, "perfbench"),
            os.path.join(BUILD_DIR, "dice", "tools", "dice_cli"))


def provenance():
    commit = "none"
    if os.path.exists(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown"
    digest = hashlib.sha256()
    for top in SOURCE_PATHS:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in sorted(paths):
            if os.path.isfile(path) and not os.path.islink(path):
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def selftest(binary, dice_cli):
    """Unit tests and smoke runs of every workload, plus BENCHMARK.json
    against the benchmark's metric registry."""
    listed = json.loads(subprocess.run([binary, "--list-metrics"], capture_output=True,
                                       text=True, check=True).stdout)
    failures = 0
    try:
        with open("BENCHMARK.json") as f:
            declared = json.load(f)
    except OSError:
        declared = None
    if declared is not None:
        for key in ("end_to_end", "per_layer"):
            want = [(m["name"], m["unit"], m["better"]) for m in listed[key]]
            have = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
            if want != have:
                print("FAIL BENCHMARK.json %s differs from the registry" % key)
                failures += 1
        names = [w["name"] for w in declared["workloads"]]
        if not set(names) <= set(WORKLOADS):
            print("FAIL BENCHMARK.json workloads %s" % names)
            failures += 1
    code = subprocess.call([binary, "--selftest", "--dice_cli=" + dice_cli,
                            "--run_dir=" + RUN_DIR])
    return 1 if failures or code else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.selftest and (args.seed < 0 or not 1 <= args.seconds <= 60):
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    os.chdir(ROOT)
    binary, dice_cli = build()
    if args.selftest:
        sys.exit(selftest(binary, dice_cli))
    commit, source_digest = provenance()
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
                      "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
                      "--dice_cli=" + dice_cli, "--run_dir=" + RUN_DIR,
                      "--commit=" + commit, "--source_digest=" + source_digest])


if __name__ == "__main__":
    main()
