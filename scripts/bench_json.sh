#!/usr/bin/env bash
# Pipeline-depth benchmark sweep: runs the RDMA-bound figures at posted
# send-queue depths 1 / 4 / 16, plus (full mode) the fig08 classification
# figure and the 64/128-node full-scale legs of fig13a/fig08, and merges
# the per-run JSON into one file (BENCH_pipeline.json by default).
#
# Usage: scripts/bench_json.sh [--quick] [--chaos] [--out <path>] [--build <dir>]
#   --quick   reduced sweep (fig09 only, small sizes) for CI smoke runs
#   --chaos   crash-recovery sweep instead: runs bench/chaos_recovery
#             (heartbeat-interval sweep with one mid-run node crash) and
#             writes BENCH_recovery.json
#
# Depth 1 is the paper's serialized-NIC behaviour (one blocking MPI/verbs
# op at a time); higher depths overlap wire latency across in-flight ops.
set -euo pipefail
cd "$(dirname "$0")/.."

# Provenance stamp for benchutil::JsonReport rows (bench/report.hpp).
ARGO_GIT_COMMIT="${ARGO_GIT_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export ARGO_GIT_COMMIT

OUT=""
BUILD="build"
QUICK=0
CHAOS=0
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --chaos) CHAOS=1 ;;
    --out) OUT="$2"; shift ;;
    --build) BUILD="$2"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done
if [ -z "$OUT" ]; then
  if [ "$CHAOS" = 1 ]; then OUT="BENCH_recovery.json"; else OUT="BENCH_pipeline.json"; fi
fi

if [ ! -x "$BUILD/bench/fig09_writebuffer" ]; then
  echo "benches not built; run: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 1
fi

if [ "$CHAOS" = 1 ]; then
  # Crash-recovery mode: a single run of the chaos bench (it sweeps the
  # heartbeat interval internally; one node crash-stops mid-run each time).
  EXTRA=()
  [ "$QUICK" = 1 ] && EXTRA+=(--quick)
  "$BUILD/bench/chaos_recovery" --json "$OUT" ${EXTRA[@]+"${EXTRA[@]}"}
  exit 0
fi

TMPDIR_JSON="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_JSON"' EXIT

run() { # run <binary> <tag> <depth> [extra args...]
  local bin="$1" tag="$2" depth="$3"
  shift 3
  echo "-- $tag pipeline=$depth"
  "$BUILD/bench/$bin" --json "$TMPDIR_JSON/$tag-p$depth.json" \
    --pipeline "$depth" "$@" > "$TMPDIR_JSON/$tag-p$depth.log"
}

DEPTHS="1 4 16"
for d in $DEPTHS; do
  if [ "$QUICK" = 1 ]; then
    run fig09_writebuffer fig09 "$d" --quick
    run microbench_engine microbench "$d" --quick
  else
    run fig07_bandwidth fig07 "$d"
    run fig09_writebuffer fig09 "$d"
    run fig13a_lu fig13a "$d"
    run microbench_engine microbench "$d"
  fi
done

# Full-scale legs (full mode only): the classification figure at its
# default 4 nodes, then fig13a's scaling curve and fig08's comparison at
# the paper's 64/128-node points — the multi-word directory range. Every
# row carries its "nodes" stamp, so one merged file holds all the curves.
if [ "$QUICK" != 1 ]; then
  run fig08_classification fig08 1
  run fig13a_lu fig13a-scale 1 --nodes 64,128
  run fig08_classification fig08-scale 1 --nodes 64,128
fi

# Merge the per-run arrays (one object per line) into a single array.
{
  echo "["
  for f in "$TMPDIR_JSON"/*.json; do
    # Strip the array brackets, keep the row lines, normalize commas.
    sed -e '/^\[$/d' -e '/^\]$/d' -e 's/,$//' "$f" | while IFS= read -r row; do
      [ -z "$row" ] && continue
      echo "$row,"
    done
  done | sed '$ s/,$//'
  echo "]"
} > "$OUT"

ROWS=$(grep -c '^{' "$OUT" || true)
echo "wrote $ROWS rows to $OUT"
