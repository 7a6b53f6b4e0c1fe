#!/usr/bin/env python3
"""Self-test of the benchmark: determinism, metric names and answer checks.

Run from the repository root: python3 perfbench/selftest.py

For each workload, at a tiny size:
  - two traced runs with one seed report identical work counts (output
    cells, hash probes, cells updated, late rows, deltas per read, windows
    compacted and dropped, requests per class, ...);
  - every metric in BENCHMARK.json is printed, by name, with its unit;
  - a second seed changes the inputs (some count differs);
  - a wrong expected answer makes the command fail.
Exits non-zero on the first failed assertion.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("olap_cube", "serve_mix", "stream_ingest")
# Per-layer metrics that are counts or ratios of counts: they must repeat
# exactly for a seed.
COUNT_METRICS = (
    "cube.output_cells", "cube.hash_probes_per_row", "cube.iter_calls_per_row",
    "cube.arena_bytes", "cube.late_row_share", "cube.cells_updated_per_row",
    "cube.windows_compacted", "cube.compaction_aborts", "cube.windows_dropped",
    "cube.deltas_per_read", "cube.unchanged_window_share", "cube.prune_ratio",
    "expr.where_selectivity", "table.csv_bytes", "server.shed_ratio",
)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if rest.startswith("{"):
            tagged[tag] = json.loads(rest)
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, tagged, proc.stderr


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the three workloads")

    for w in WORKLOADS:
        code, res, _, err = run(w, 7, 0)
        check(code == 0 and res["correct"] and res["failed"] == 0,
              f"{w}: untraced tiny run passes its answer checks")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == names[0], f"{w}: every end-to-end metric with its unit")
        check(all(v["value"] > 0 for v in res["metrics"].values()),
              f"{w}: no end-to-end metric reads 0")

        runs = [run(w, 7, 1) for _ in range(2)]
        for code, res, _, err in runs:
            check(code == 0 and res["correct"],
                  f"{w}: traced tiny run passes its answer checks")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == names[1], f"{w}: every per-layer metric with its unit")
        (_, a, ta, _), (_, b, tb, _) = runs
        check(ta["counts"] == tb["counts"],
              f"{w}: counts repeat exactly for one seed")
        same = all(a["metrics"][m]["value"] == b["metrics"][m]["value"]
                   for m in COUNT_METRICS)
        check(same, f"{w}: per-layer counts repeat exactly for one seed")
        check(a["attempted"] == b["attempted"],
              f"{w}: attempted operations repeat for one seed")

        _, c, tc, _ = run(w, 8, 1)
        check(tc["counts"] != ta["counts"] or any(
            c["metrics"][m]["value"] != a["metrics"][m]["value"]
            for m in COUNT_METRICS), f"{w}: a second seed changes the inputs")

        code, res, _, err = run(w, 7, 0, "--inject-wrong-answer")
        check(code != 0 and res is not None and not res["correct"]
              and res["failed"] >= 1,
              f"{w}: a wrong expected answer fails the command")
    print("selftest passed")


if __name__ == "__main__":
    main()
