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
# Each host fast path is the only implementation: no runtime toggle back
# to a reference twin, and no second run-queue structure.
if grep -rnE 'slow[_]paths|ARGO_SLOW[_]PATHS|CalQ[u]eue' \
     src bench examples tests scripts; then
  echo "FAIL: host fast-path toggle or twin found; each path has one" \
       "implementation" >&2
  exit 1
fi
# The run queue holds one entry per fiber (a re-queue replaces it), so the
# stale-entry machinery it replaced (wake tokens, dead-entry counting and
# heap compaction) may not come back.
if grep -rnE 'wake[_]token_|runq[_]purged|compact[(]' \
     src bench examples tests scripts; then
  echo "FAIL: stale run-queue entry machinery found; the run queue keeps" \
       "one entry per fiber" >&2
  exit 1
fi
# The simulator runs on one host thread: no host worker pool, worker-count
# knob, ThreadSanitizer leg or parallel-speedup gate may come back.
if grep -rnE 'std::[t]hread|ARGO_[T]HREADS|engine_[t]hreads|sim/par[.]hpp|ARGO_[T]SAN|__tsan[_]|par[-]gate' \
     src bench examples tests scripts; then
  echo "FAIL: host worker pool, worker-count knob or TSan/par gate found;" \
       "the simulator runs on one host thread" >&2
  exit 1
fi
# Pipeline depth is an interconnect property: at depth 1 every post is the
# blocking verb, so protocol code posts unconditionally and never reads it.
if grep -rnE 'config\(\)\.pipeline|pipelined\(\)' src bench examples \
     --include='*.hpp' --include='*.cpp' | grep -vE '^src/net/'; then
  echo "FAIL: pipeline-depth read outside src/net/" >&2
  exit 1
fi
echo "  OK: no engine-mode switch, fast-path toggle, stale run-queue entry" \
     "or host worker pool; pipeline-depth reads confined to src/net/"

echo "=== default build ==="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== golden simulated results ==="
# Every --quick row of every bench at pipeline depths 1 and 16 must match
# bench/golden_quick.json in all simulated fields (virtual times, rates,
# counters, checksums): host fast paths may change wall time only. A
# change that moves a value on purpose regenerates the file and tabulates
# the move in EXPERIMENTS.md.
scripts/golden_suite.sh --build build --out build/golden
python3 scripts/bench_compare.py --golden bench/golden_quick.json build/golden

echo "=== sanitizer build (ASan + UBSan) ==="
cmake -B build-sanitize -S . -DARGO_SANITIZE=ON
cmake --build build-sanitize -j "$JOBS"
ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"
echo "--- golden simulated results under ASan + UBSan"
scripts/golden_suite.sh --build build-sanitize --out build-sanitize/golden
python3 scripts/bench_compare.py --golden bench/golden_quick.json \
  build-sanitize/golden

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

echo "=== pcprof smoke: the SIGPROF sampler resolves symbols ==="
# scripts/pcprof must build its preload library, sample a real run and map
# the samples to named functions (it exits 1 when none resolves). One
# --quick run is a few ms of CPU, worth about 0.1 to 0.3 samples at a
# 4 ms tick, so 200 runs (about 3 s) give 20 or more.
scripts/pcprof/pcprof --top 5 --lines 5 --repeat 200 --out build/pcprof/engine \
  -- build/bench/microbench_engine --quick

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

echo "=== perf smoke: host wall clock and peak RSS ==="
# fig13 quick suite + fig09 wall time and peak RSS per bench, plus the
# scale and adaptive sweeps the gates below read.
scripts/bench_host.sh --out build/BENCH_host.json

echo "=== perf smoke: peak RSS vs the committed BENCH_host.json ==="
# Peak RSS repeats to within 0.05% run to run, so unlike wall time it is
# gated per bench: no fast-mode row may grow more than 10%.
python3 scripts/bench_compare.py BENCH_host.json build/BENCH_host.json \
  --max-rss-regress 0.10

echo "=== adaptive ablation smoke ==="
# Each adaptive runtime-tuning policy toggled individually (DESIGN.md §6)
# must complete the quick LU leg — the bench the policies move most. The
# bit-identity of the policies-off run is pinned by tests/test_adapt.cpp;
# this smoke only guards the CLI plumbing end-to-end.
for flag in --adapt-wb --adapt-diff --adaptive; do
  echo "--- fig13a_lu --quick $flag"
  build/bench/fig13a_lu --quick "$flag" > /dev/null
done
echo "  OK: per-policy toggles all ran"

echo "=== perf smoke: adaptive tuning gate ==="
# Adaptive-on (--adaptive) vs fixed knobs on the fig13 quick suite, judged
# on deterministic simulated virtual_ms (rows written by bench_host.sh
# above): geomean must not lose and no bench may regress more than 2%.
python3 scripts/bench_compare.py --adapt-gate build/BENCH_host.json

echo "all checks passed"
