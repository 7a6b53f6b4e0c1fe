#!/usr/bin/env bash
# Runs every benchmark binary with machine-readable output.
#
# For each google-benchmark binary this writes
#   <out_dir>/BENCH_<name>.json          google-benchmark JSON results
#   <out_dir>/BENCH_<name>.txt           the binary's human-readable stdout
#                                        (exhibit tables, claim banners)
#   <out_dir>/BENCH_<name>.metrics.json  engine metrics snapshot (the /varz
#                                        JSON view) taken after the run
# bench_exhibits has no google-benchmark timings (it prints the paper's
# tables), so it only produces the .txt capture.
#
# Usage: bench/run_all.sh [build_dir] [out_dir] [extra benchmark args...]
#   build_dir  defaults to "build"
#   out_dir    defaults to "."
# Extra args are forwarded to every benchmark binary, e.g.
#   bench/run_all.sh build . --benchmark_min_time=0.1
#   bench/run_all.sh build . --benchmark_filter=BM_FromCore
# Without extra args every binary reports the mean, median and spread of 5
# repetitions. A host line (nproc, kernel release, load average) comes
# first: compare runs only from the same host under the same load.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
if [ "$#" -ge 2 ]; then shift 2; elif [ "$#" -ge 1 ]; then shift 1; fi

BENCH_DIR="$BUILD_DIR/bench"
if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found; build first (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi
mkdir -p "$OUT_DIR"
if [ "$#" -eq 0 ]; then
  set -- --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
fi
echo "host: nproc=$(nproc) kernel=$(uname -r) loadavg=$(cut -d' ' -f1-3 /proc/loadavg)"

GBENCH_BINARIES=(
  bench_table2_benchmark_survey
  bench_figure4_cardinality
  bench_figure5_compound
  bench_union_vs_cube
  bench_2n_vs_core
  bench_aggregate_classes
  bench_rollup_vs_cube
  bench_sparse_vs_dense
  bench_parallel_cube
  bench_parallel_scaling
  bench_smallest_parent
  bench_maintenance
  bench_partitioned_ingest
  bench_uda_overhead
  bench_tpcd_6d
  bench_hash_cube
  bench_view_selection
  bench_lattice_selection
  bench_csv_write
  bench_fold
)

failures=0

echo "== bench_exhibits (tables only)"
if ! "$BENCH_DIR/bench_exhibits" > "$OUT_DIR/BENCH_exhibits.txt"; then
  echo "   FAILED: bench_exhibits" >&2
  failures=$((failures + 1))
fi

for name in "${GBENCH_BINARIES[@]}"; do
  echo "== $name"
  if ! DATACUBE_METRICS_SNAPSHOT="$OUT_DIR/BENCH_${name#bench_}.metrics.json" \
      "$BENCH_DIR/$name" \
      --benchmark_out="$OUT_DIR/BENCH_${name#bench_}.json" \
      --benchmark_out_format=json \
      "$@" > "$OUT_DIR/BENCH_${name#bench_}.txt"; then
    echo "   FAILED: $name" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "$failures benchmark binaries failed" >&2
  exit 1
fi
echo "wrote BENCH_*.json / BENCH_*.txt to $OUT_DIR"
