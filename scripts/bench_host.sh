#!/usr/bin/env bash
# Host-side (wall-clock) performance of the simulator itself: runs the
# fig13 quick suite plus the fig09 write-buffer sweep and records wall time
# and peak RSS per run (mode "fast": the host fast paths are the only
# implementation, and the rows keep the mode name so they stay keyed
# against the committed BENCH_host.json and BENCH_host_round2.json, which
# scripts/bench_compare.py gates on).
#
# A second sweep ("scale" mode) runs fig13a and fig08 at the paper's full
# node counts (--scale-nodes, default "64 128" — the multi-word directory
# range) and records host wall time per count, each row stamped with its
# "nodes" so scripts/bench_compare.py --nodes can filter.
#
# A third sweep ("adapt" mode) runs the fig13 quick suite twice — fixed
# knobs and all adaptive runtime-tuning policies on (--adaptive) — and
# records, besides wall time, the summed simulated virtual_ms of the
# argo-series rows and the adapt bitmask those rows ran with, both from
# each bench's own JSON report. Virtual time is deterministic, so scripts/bench_compare.py
# --adapt-gate can require the adaptive build to win the geomean without
# any host-noise margin.
#
# Usage: scripts/bench_host.sh [--build <dir>] [--out <path>]
#                              [--scale-nodes "64 128"]
#
# Output: a JSON array (one object per line, like the other BENCH files)
# of rows {"schema", "commit", "date", "bench", "mode", "threads",
# "host_cpus", "adapt", "wall_s", "max_rss_kb"} — plus "nodes"
# on the scale rows that pin one cluster size and "virtual_ms" on the
# adapt rows — the same provenance stamp benchutil::JsonReport puts on
# every row (bench/report.hpp kBenchSchemaVersion; "threads" is always 1).
set -euo pipefail
cd "$(dirname "$0")/.."

SCHEMA=5
ARGO_GIT_COMMIT="${ARGO_GIT_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export ARGO_GIT_COMMIT
RUN_DATE="$(date -u +%Y-%m-%d)"
HOST_CPUS="$(nproc)"

OUT="BENCH_host.json"
BUILD="build"
SCALE_NODES="64 128"
while [ $# -gt 0 ]; do
  case "$1" in
    --out) OUT="$2"; shift ;;
    --build) BUILD="$2"; shift ;;
    --scale-nodes) SCALE_NODES="$2"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

if [ ! -x "$BUILD/bench/fig13a_lu" ]; then
  echo "benches not built; run: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 1
fi

# measure <cmd...>: prints "<wall_s> <max_rss_kb>". python3 instead of
# /usr/bin/time (not present in minimal containers); RUSAGE_CHILDREN is
# exact because each measurement python runs exactly one child.
measure() {
  python3 - "$@" <<'EOF'
import resource, subprocess, sys, time
t0 = time.monotonic()
r = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
wall = time.monotonic() - t0
if r.returncode != 0:
    sys.exit(r.returncode)
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"{wall:.3f} {rss}")
EOF
}

BENCHES="fig13a_lu fig13b_nbody fig13c_blackscholes fig13d_mm fig13e_ep fig13f_cg fig09_writebuffer"

ROWS=""
TOTAL=0
for bench in $BENCHES; do
  read -r wall rss < <(measure "$BUILD/bench/$bench" --quick)
  echo "-- $bench [fast] ${wall}s rss=${rss}kB"
  ROWS="$ROWS{\"schema\":$SCHEMA,\"commit\":\"$ARGO_GIT_COMMIT\",\"date\":\"$RUN_DATE\",\"bench\":\"$bench\",\"mode\":\"fast\",\"threads\":1,\"host_cpus\":$HOST_CPUS,\"adapt\":0,\"wall_s\":$wall,\"max_rss_kb\":$rss},\n"
  TOTAL=$(awk -v a="$TOTAL" -v b="$wall" 'BEGIN { printf "%.3f", a + b }')
done

# Full-scale sweep: the paper's 64/128-node points (the multi-word
# directory range), quick workloads — one row per (bench, node count) so
# the host cost of wide entries is tracked over time.
SCALE_BENCHES="fig13a_lu fig08_classification"
for N in $SCALE_NODES; do
  for bench in $SCALE_BENCHES; do
    read -r wall rss < <(measure "$BUILD/bench/$bench" --quick --nodes "$N")
    echo "-- $bench [scale nodes=$N] ${wall}s rss=${rss}kB"
    ROWS="$ROWS{\"schema\":$SCHEMA,\"commit\":\"$ARGO_GIT_COMMIT\",\"date\":\"$RUN_DATE\",\"bench\":\"$bench\",\"mode\":\"scale\",\"threads\":1,\"host_cpus\":$HOST_CPUS,\"adapt\":0,\"nodes\":$N,\"wall_s\":$wall,\"max_rss_kb\":$rss},\n"
  done
done

# Adaptive-tuning sweep: the fig13 quick suite with fixed knobs and with
# every adaptive policy on (--adaptive). Each bench writes its own JSON
# report; the summed virtual_ms of the argo-series rows (the only series
# adaptation touches) goes on the host row so scripts/bench_compare.py
# --adapt-gate can judge the deterministic simulated-time win without host
# noise. The host row's "adapt" is the bitmask the bench stamped on those
# rows, so it always names the policies that actually ran.
ADAPT_BENCHES="fig13a_lu fig13b_nbody fig13c_blackscholes fig13d_mm fig13e_ep fig13f_cg"
for FLAG in "" "--adaptive"; do
  for bench in $ADAPT_BENCHES; do
    TMP_JSON="$(mktemp)"
    # shellcheck disable=SC2086  # FLAG is intentionally word-split
    read -r wall rss < <(measure "$BUILD/bench/$bench" --quick $FLAG --json "$TMP_JSON")
    stamp="$(python3 - "$TMP_JSON" <<'EOF'
import json, sys
rows = [r for r in json.load(open(sys.argv[1])) if r['series'].startswith('argo')]
masks = {r['adapt'] for r in rows}
if len(masks) != 1:
    sys.exit(f"{sys.argv[1]}: argo rows carry adapt masks {sorted(masks)}")
print(f"{sum(r['virtual_ms'] for r in rows):.6f} {masks.pop()}")
EOF
)"
    read -r vms A <<< "$stamp"
    rm -f "$TMP_JSON"
    echo "-- $bench [adapt=$A] ${wall}s virtual=${vms}ms"
    ROWS="$ROWS{\"schema\":$SCHEMA,\"commit\":\"$ARGO_GIT_COMMIT\",\"date\":\"$RUN_DATE\",\"bench\":\"$bench\",\"mode\":\"adapt\",\"threads\":1,\"host_cpus\":$HOST_CPUS,\"adapt\":$A,\"virtual_ms\":$vms,\"wall_s\":$wall,\"max_rss_kb\":$rss},\n"
  done
done

{
  echo "["
  printf '%b' "$ROWS" | sed '$ s/,$//'
  echo "]"
} > "$OUT"

echo "fast total: ${TOTAL}s"
echo "wrote $OUT"
