#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload olap_cube --seed 1 --seconds 15 --trace 0

The first run configures and builds perfbench/ (the library sources under
src/ plus the perfbench binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Every run then starts the binary as its own process;
the last stdout line is the result JSON. A traced run (--trace 1) also
prints the tracing overhead: its own end-to-end figures minus those of the
last untraced run of the same workload and seed, when one exists.
Exit status: 0 when every answer check passed, non-zero otherwise (a failed
build prints no result line).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("olap_cube", "serve_mix", "stream_ingest")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then lets the build tool bring the binary up to date."""
    try:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, check=True,
                timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: build failed: {e}")
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's self-test")
    ap.add_argument("--inject-wrong-answer", action="store_true",
                    help="perturb one expected answer; the run must fail")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", results]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")
    # The program's process-wide switches (legacy core, scalar kernels,
    # budgets, thread count, slow-query log) would measure another program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DATACUBE_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: no result line (exit {proc.returncode})")
        return proc.returncode or 4
    for line in lines[:-1]:
        print(line)

    tag = f"{args.workload}-seed{args.seed}"
    if args.tiny:
        tag += "-tiny"
    if args.trace == 0:
        with open(os.path.join(results, f"untraced-{tag}.json"), "w") as f:
            json.dump(result, f)
    else:
        traced = next((json.loads(l.split(" ", 1)[1]) for l in lines
                       if l.startswith("traced_end_to_end ")), None)
        path = os.path.join(results, f"untraced-{tag}.json")
        if traced is not None and os.path.exists(path):
            with open(path) as f:
                base = json.load(f)["metrics"]
            overhead = {k: traced[k] - v["value"] for k, v in base.items()
                        if k in traced}
            print("tracing_overhead " + json.dumps(overhead, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
