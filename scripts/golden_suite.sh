#!/usr/bin/env bash
# Simulated-result suite for the golden gate: runs every bench binary's
# --quick workload at posted-pipeline depths 1 and 16 and writes one JSON
# report per run, <binary>-p<depth>.json, into the output directory.
# scripts/bench_compare.py --golden then compares the reports with the
# committed bench/golden_quick.json, ignoring host and provenance fields:
#
#   scripts/golden_suite.sh --build build --out build/golden
#   python3 scripts/bench_compare.py --golden bench/golden_quick.json build/golden
#
# A change that moves a simulated value on purpose regenerates the file
# (add --update to the compare) and tabulates the move in EXPERIMENTS.md.
#
# Usage: scripts/golden_suite.sh [--build <dir>] [--out <dir>]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="build"
OUT=""
while [ $# -gt 0 ]; do
  case "$1" in
    --build) BUILD="$2"; shift ;;
    --out) OUT="$2"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done
OUT="${OUT:-$BUILD/golden}"

BENCHES="ablation_handlers chaos_recovery fig01_trends fig07_bandwidth
fig08_classification fig09_writebuffer fig10_writebacks fig11_locks_node
fig12_locks_dsm fig13a_lu fig13b_nbody fig13c_blackscholes fig13d_mm
fig13e_ep fig13f_cg microbench_engine table1_classification"

mkdir -p "$OUT"
rm -f "$OUT"/*.json
for bench in $BENCHES; do
  if [ ! -x "$BUILD/bench/$bench" ]; then
    echo "$BUILD/bench/$bench not built; run: cmake --build $BUILD -j" >&2
    exit 1
  fi
  for depth in 1 16; do
    "$BUILD/bench/$bench" --quick --pipeline "$depth" \
      --json "$OUT/$bench-p$depth.json" > "$OUT/$bench-p$depth.log" 2>&1 \
      || { echo "FAIL: $bench --quick --pipeline $depth" >&2
           cat "$OUT/$bench-p$depth.log" >&2; exit 1; }
  done
done
echo "wrote $(ls "$OUT"/*.json | wc -l) reports to $OUT"
