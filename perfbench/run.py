#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/METRICS.md).

    python3 perfbench/run.py --workload <chat|prefix|offline|sim> \
        --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the benchmark and the aptserve library from this source tree into
.bench_build/perfbench (CMake, Release), runs one benchmark run and prints
the run's report line followed, as the last line, by the result object
{"correct", "attempted", "failed", "metrics"}. --selftest builds and runs
the probes' bit-identity test instead. Build output goes to stderr; any
build or run failure exits non-zero without printing a result.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
RUN_TIMEOUT_S = 170
WORKLOADS = ("chat", "prefix", "offline", "sim")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd):
    """Runs a build step with its output on stderr."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", BUILD, "--target", target,
                "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD, target)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_sha256():
    """Digest of the sources the benchmark builds (works without git)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            rel = os.path.relpath(f, ROOT)
            if rel.endswith(".pyc"):
                continue
            digest.update(rel.encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("result object has unexpected keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise BenchError("result attempted must be a positive integer")
    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}, or units differ")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise BenchError(f"metric {name} is not a number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_test")
        return subprocess.run([test]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S}s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise BenchError(f"perfbench exited with {done.returncode}")
    report = json.loads(lines[-2])
    result = json.loads(lines[-1])
    check_result(result, args.trace)

    report["report"]["stamp"]["git_sha"] = git_sha()
    report["report"]["stamp"]["source_sha256"] = source_sha256()
    report["report"]["correct"] = result["correct"]
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as err:
        log(f"perfbench: {err}")
        sys.exit(2)
