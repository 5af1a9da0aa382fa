#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <cnn-paper|cnn-sparse|mlp-serve> \
        --seed <n> --seconds <s> --trace <0|1> [--threads <n>]

Run from the repository root (any directory works; paths are resolved
from this file).  The first call configures and builds the library and
the driver under .bench_build/perfbench (later calls only rebuild what
changed), then runs the driver.  Stdout carries a provenance line, the
driver's summary and digest, and as its last line the result JSON.  A
traced run (--trace 1) also writes Chrome trace-event JSON to
.bench_build/traces/<workload>-seed<n>.json.  See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("cnn-paper", "cnn-sparse", "mlp-serve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(jobs):
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs)], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def git_commit():
    """HEAD of the checkout, read from git now; None outside a git repo."""
    if not shutil.which("git"):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except subprocess.SubprocessError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the library sources, root build file and perfbench."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--threads", type=int, default=0,
                        help="threads the workload may use (default: 1 for "
                             "cnn-*, min(4, nproc) for mlp-serve)")
    args = parser.parse_args()

    nproc = len(os.sched_getaffinity(0))
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if args.threads < 0 or args.threads > nproc:
        fail("--threads %d: must be between 1 and nproc (%d)"
             % (args.threads, nproc))
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("no %s next to perfbench/: run from a full checkout"
                 % required)

    try:
        binary = build(nproc)
    except (subprocess.SubprocessError, OSError) as e:
        fail("build failed: %s" % e)

    commit = git_commit()
    print('{"provenance": {"commit": %s, "source_sha256": "%s"}}'
          % ('"%s"' % commit if commit else "null", source_digest()),
          flush=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.threads:
        command += ["--threads", str(args.threads)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code = subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S),
             3)
    sys.exit(code)


if __name__ == "__main__":
    main()
