#!/usr/bin/env python3
"""Build and run one cloudcr benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cloudcr checkout. The first call configures and
builds perfbench/ (which pulls in the repository's own library build) into
.bench_build/ (or $CARGO_TARGET_DIR when set); later calls reuse it. Stdout
carries a machine fingerprint line, the workload's human-readable table, and
as its last line one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when the build succeeded and every output
check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ("month_stream", "trace_sched", "repro_matrix", "service_mix")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, configured)


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no cloudcr sources next to perfbench/ (expected CMakeLists.txt and src/ in %s)" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs(), "--target", "cloudcr_perfbench"])
    for cmd in steps:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build step failed: " + " ".join(cmd), 1)
    binary = os.path.join(out_dir, "cloudcr_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no binary at " + binary, 1)
    return binary


SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".py", ".txt", ".cmake")


def source_digest():
    """sha256 over the sources the benchmark measures (the checkout need not
    be a git repository, so this stands in for the commit id). Byte code,
    results and documentation are left out, so running the tests or adding
    a results file does not change it."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "bench/REPRO_expected.baseline.json", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d not in ("results", "__pycache__"))
                files += [os.path.join(dirpath, f) for f in sorted(filenames)
                          if f.endswith(SOURCE_SUFFIXES)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cache_value(out_dir, key):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def fingerprint(out_dir):
    compiler = cache_value(out_dir, "CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        proc = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        version = proc.stdout.splitlines()[0] if proc.stdout else None
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version or compiler,
        "build_type": cache_value(out_dir, "CMAKE_BUILD_TYPE"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    tmp = os.path.join(out_dir, "tmp-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stderr.write(proc.stdout[-4000:])
        fail("the benchmark binary printed no result line (exit %d)" % proc.returncode, 1)

    print("# fingerprint " + json.dumps(fingerprint(out_dir), sort_keys=True))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
