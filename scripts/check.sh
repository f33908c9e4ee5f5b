#!/usr/bin/env bash
# Build and test both configurations: the normal optimized build and the
# ARGO_SANITIZE build (ASan + UBSan, with the fiber-switch annotations in
# sim/engine.cpp keeping ASan's stack bookkeeping coherent across
# swapcontext). Intended as the pre-merge gate.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "=== public-API include gate ==="
# examples/ and bench/ must consume only the public argo/*.hpp umbrella
# headers — any direct #include of an internal src/ subtree is a layering
# break.
if grep -rnE '#include "(core|dir|mem|net|sim|sync|apps|baseline|obs)/' \
     examples bench; then
  echo "FAIL: examples/ and bench/ may only include argo/*.hpp" >&2
  exit 1
fi
echo "  OK: examples/ and bench/ include only argo/*.hpp"

echo "=== directory-capacity constant gate ==="
# kMaxNodes is the directory encoding's build-time ceiling and belongs to
# src/dir/ alone. Everything else must go through argodir::max_nodes() (or
# better, ClusterConfig::validate()), so a future re-encoding only touches
# the directory layer.
if grep -rn "kMaxNodes" src bench examples tests --include='*.hpp' \
     --include='*.cpp' | grep -v '^src/dir/'; then
  echo "FAIL: kMaxNodes referenced outside src/dir/ — use argodir::max_nodes()" >&2
  exit 1
fi
echo "  OK: kMaxNodes referenced only under src/dir/"

echo "=== one-engine gate ==="
# The engine has one scheduler: every run uses the per-node shard
# scheduler, so no engine-mode query, helper or toggle may come back
# anywhere (the bracketed characters keep this line from matching itself).
if grep -rnE 'sharded(_engine)?\(\)|seq[_]engine|ARGO_SEQ[_]ENGINE' \
     src bench examples tests scripts; then
  echo "FAIL: engine-mode switch found; there is one engine" >&2
  exit 1
fi
# Pipeline depth is an interconnect property: at depth 1 every post is the
# blocking verb, so protocol code posts unconditionally and never reads it.
if grep -rnE 'config\(\)\.pipeline|pipelined\(\)' src bench examples \
     --include='*.hpp' --include='*.cpp' | grep -vE '^src/net/'; then
  echo "FAIL: pipeline-depth read outside src/net/" >&2
  exit 1
fi
echo "  OK: no engine-mode switch; pipeline-depth reads confined to src/net/"

echo "=== default build ==="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== scheduler bit-identity: calendar vs heap, fcontext vs ucontext ==="
# The scheduler fast paths (calendar run queue, fcontext switches, pooled
# effect/record objects) must be invisible to the simulation. First pin
# which backends each mode actually selects, then rerun two bench legs
# with ARGO_SLOW_PATHS=1 — the seed's heap + ucontext + per-op allocation
# — and require byte-identical JSON rows modulo the provenance stamp.
build/bench/microbench_engine --quick \
  | grep -q "run queue: calendar" \
  || { echo "FAIL: fast mode did not select the calendar queue"; exit 1; }
ARGO_SLOW_PATHS=1 build/bench/microbench_engine --quick \
  | grep -q "context backend: ucontext, run queue: heap" \
  || { echo "FAIL: ARGO_SLOW_PATHS=1 did not select ucontext + heap"; exit 1; }
for leg in "fig09_writebuffer --quick" "fig13a_lu --quick --pipeline 16"; do
  echo "--- $leg (fast vs ARGO_SLOW_PATHS=1)"
  ARGO_SLOW_PATHS=0 build/bench/$leg --json build/identity_fast.json > /dev/null
  ARGO_SLOW_PATHS=1 build/bench/$leg --json build/identity_slow.json > /dev/null
  python3 - <<'EOF'
import json
def rows(path):
    out = []
    for r in json.load(open(path)):
        for k in ("commit", "date"):  # provenance may differ, nothing else
            r.pop(k, None)
        out.append(r)
    return out
fast, slow = rows("build/identity_fast.json"), rows("build/identity_slow.json")
assert fast == slow, "fast vs ARGO_SLOW_PATHS=1 JSON rows diverged"
print(f"  OK: {len(fast)} JSON rows bit-identical fast vs slow")
EOF
done

echo "=== sanitizer build (ASan + UBSan) ==="
cmake -B build-sanitize -S . -DARGO_SANITIZE=ON
cmake --build build-sanitize -j "$JOBS"
ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"

echo "=== sanitizer build (TSan, parallel engine) ==="
# ThreadSanitizer checks the parallel engine's worker pool (fiber switches
# are annotated with __tsan_switch_to_fiber). The parallel identity suite
# is the interesting load; the rest of the tests run single-threaded and
# double as an annotation smoke test.
cmake -B build-tsan -S . -DARGO_TSAN=ON
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS"

echo "=== crash-recovery suite (explicit, both configs) ==="
# The crash tests exercise teardown paths (fiber unwind, mid-RPC node
# death, forced lock recovery) that are the likeliest to regress silently;
# run them by name so a ctest filter change can never drop them.
for dir in build build-sanitize; do
  echo "--- $dir"
  "$dir/tests/test_faults" \
    --gtest_filter='CrashRecovery*:CrashTimeouts*:ChaosApps*' --gtest_brief=1
done

echo "=== examples smoke (each must exit 0) ==="
# Run in a scratch dir: quickstart drops trace files next to the cwd.
EX_DIR="$(mktemp -d)"
trap 'rm -rf "$EX_DIR"' EXIT
for ex in quickstart producer_consumer stencil pqueue_server; do
  echo "--- examples/$ex"
  (cd "$EX_DIR" && "$OLDPWD/build/examples/$ex" > "$ex.out") \
    || { echo "FAIL: examples/$ex"; cat "$EX_DIR/$ex.out"; exit 1; }
done
echo "--- trace_query over quickstart's binary trace"
scripts/trace_query summary "$EX_DIR/quickstart_trace.bin"
scripts/trace_query json "$EX_DIR/quickstart_trace.bin" > /dev/null

echo "=== perf smoke: pipelined SD-fence drains ==="
# Reduced fig09 sweep at posted-queue depths 1/4/16; the pipelined drain
# must not be slower than the blocking one where the buffer is large
# enough (>= 512 pages) for the fence to batch work.
scripts/bench_json.sh --quick --out build/BENCH_smoke.json
awk '
  /"fig":"fig09"/ {
    wb = 0; p = 0; sd = 0
    if (match($0, /"wb":[0-9]+/))        wb = substr($0, RSTART+5,  RLENGTH-5)  + 0
    if (match($0, /"pipeline":[0-9]+/))  p  = substr($0, RSTART+11, RLENGTH-11) + 0
    if (match($0, /"sd_fence_total_ms":[0-9.]+/))
                                         sd = substr($0, RSTART+20, RLENGTH-20) + 0
    if (wb >= 512) { tot[p] += sd; n[p]++ }
  }
  END {
    if (n[1] == 0 || n[16] == 0) { print "perf smoke: missing depth rows"; exit 1 }
    printf "  depth-1  SD-fence total: %.3f ms (%d points)\n", tot[1], n[1]
    printf "  depth-16 SD-fence total: %.3f ms (%d points)\n", tot[16], n[16]
    if (tot[16] >= tot[1]) {
      print "FAIL: depth-16 SD-fence time regressed above depth-1"
      exit 1
    }
    printf "  OK: depth 16 cuts SD-fence time by %.1f%%\n", 100 * (1 - tot[16] / tot[1])
  }
' build/BENCH_smoke.json

echo "=== perf smoke: host fast paths ==="
# fig13 quick suite + fig09 with the host fast paths on vs ARGO_SLOW_PATHS=1.
# The two modes are bit-identical in simulated behaviour (the determinism
# tests pin that); the gate fails unless the fast paths actually pay for
# themselves in wall clock (fast <= 0.95 * slow).
scripts/bench_host.sh --gate --out build/BENCH_host.json

echo "=== perf smoke: peak RSS vs the committed BENCH_host.json ==="
# Peak RSS repeats to within 0.05% run to run, so unlike wall time it is
# gated per bench: no fast-mode row may grow more than 10%.
python3 scripts/bench_compare.py BENCH_host.json build/BENCH_host.json \
  --max-rss-regress 0.10

echo "=== perf smoke: parallel engine speedup ==="
# 8 engine workers vs the sequential reference on the fig13 quick suite
# at 32 nodes (rows written by bench_host.sh above). Required speedup is
# capped at host_cpus/2 and skipped on single-core hosts.
python3 scripts/bench_compare.py --par-gate build/BENCH_host.json \
  --par-threads 8 --min-par-speedup 2.0

echo "=== adaptive ablation smoke ==="
# Each adaptive runtime-tuning policy toggled individually (DESIGN.md §6)
# must complete the quick LU leg — the bench the policies move most — and
# ARGO_NO_ADAPT=1 must neutralize the full mask without error. The
# bit-identity of the forced-off run is pinned by tests/test_adapt.cpp;
# this smoke only guards the CLI plumbing end-to-end.
for flag in --adapt-wb --adapt-diff --adapt-stride --adaptive; do
  echo "--- fig13a_lu --quick $flag"
  build/bench/fig13a_lu --quick "$flag" > /dev/null
done
ARGO_NO_ADAPT=1 build/bench/fig13a_lu --quick --adaptive > /dev/null
echo "  OK: per-policy toggles and ARGO_NO_ADAPT all ran"

echo "=== perf smoke: adaptive tuning gate ==="
# Adaptive-on (bitmask 7) vs fixed knobs on the fig13 quick suite, judged
# on deterministic simulated virtual_ms (rows written by bench_host.sh
# above): geomean must not lose and no bench may regress more than 2%.
python3 scripts/bench_compare.py --adapt-gate build/BENCH_host.json

echo "all checks passed"
