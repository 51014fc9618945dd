#!/usr/bin/env python3
"""gbpol benchmark: builds the benchmark program from source, runs one
workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build when unset. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it
holds the run's context (SIMD dispatch, tile budget, nproc, source
revision, seed). With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones; BENCHMARK.json lists both, and README.md says
what each workload is for.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("cold_serial", "parallel_routes", "serving_mix")
# A run is held to 180 s once the program is built; this leaves room for the
# no-op build check and the metric code. The first run in a fresh checkout
# also builds, before this clock starts.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the benchmark program (both near no-ops once built);
    returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "gbpol_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "gbpol_perfbench")


def source_revision():
    """The git commit when there is one, and always a digest of the library
    sources, so a result can be matched to the code that produced it."""
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return commit, digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        return 1

    out = os.path.join(build_root, "perfbench", "last_%s_%d_%d.json"
                       % (args.workload, args.seed, args.trace))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cache", os.path.join(build_root, "naive_cache"), "--out", out]
    try:
        subprocess.run(command, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("perfbench: run failed:", e)
        return 1
    with open(out) as f:
        record = json.load(f)

    commit, digest = source_revision()
    ctx = metrics.context(record, args.workload)
    ctx.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "nproc": os.cpu_count(), "commit": commit, "source_sha256": digest})
    print(json.dumps({"context": ctx}))
    print(json.dumps(metrics.result(record, args.workload, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
