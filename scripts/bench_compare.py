#!/usr/bin/env python3
"""Compare two BENCH_host.json files (baseline vs fresh) on fast-mode wall
time and gate on the geometric-mean ratio.

Usage:
  scripts/bench_compare.py BASELINE FRESH [--max-regress 0.10]
                                          [--min-speedup 1.25]
                                          [--max-rss-regress 0.10]
                                          [--mode fast]
                                          [--nodes 64]
  scripts/bench_compare.py --par-gate FILE [--min-par-speedup 2.0]
                                           [--par-threads 8]
  scripts/bench_compare.py --adapt-gate FILE [--min-adapt-geomean 1.0]
                                             [--max-adapt-regress 0.02]

Per bench the script reports ratio = baseline_wall / fresh_wall (> 1 means
the fresh build is faster). Gates:
  --max-regress R   fail when the geomean ratio < 1 - R (fresh build is
                    more than R slower than the baseline) — the CI
                    perf-smoke setting.
  --min-speedup S   fail when the geomean ratio < S — used by perf PRs
                    that must demonstrate a wall-clock win.
  --max-rss-regress R
                    fail when any row's peak RSS (max_rss_kb) exceeds the
                    baseline row's by more than R. Per row, not geomean:
                    RSS repeats to within 0.05% run to run, so one bench
                    growing is a real regression, not noise.
  --par-gate FILE   single-file mode: compare the parallel-engine sweep
                    rows (mode "par", written by scripts/bench_host.sh)
                    at --par-threads workers against their threads=1
                    sequential reference and fail when the geomean
                    speedup < --min-par-speedup. The required speedup is
                    capped at half the recorded host_cpus (a host cannot
                    exceed its core count), and the gate is skipped with
                    a notice on single-core hosts where any parallel
                    speedup is physically impossible.
  --adapt-gate FILE single-file mode: compare the adaptive-tuning sweep
                    rows (mode "adapt", written by scripts/bench_host.sh)
                    pairing each bench's fixed-knob run (adapt bitmask 0)
                    against its adaptive run (bitmask != 0) on simulated
                    virtual_ms — deterministic, so no host-noise margin is
                    needed. Fails when the geomean fixed/adaptive ratio <
                    --min-adapt-geomean (adaptation must not lose overall)
                    or any single bench regresses more than
                    --max-adapt-regress (default 2%).

Rows carry the provenance stamp written by bench/report.hpp and
scripts/bench_host.sh ({"schema", "commit", "date", ...}); schema 2
(pre-parallel-engine), 3, 4 (per-row "nodes" stamp), and 5 (per-row
"adapt" policy bitmask) are accepted, others are an error, missing stamps
(schema-1 files) a warning, and a single file mixing two schema versions
is an error — it means two different runs were concatenated and the rows
are not comparable. Comparison rows are keyed by (bench, mode, threads,
nodes) so multi-configuration files (parallel sweeps, node scaling,
adaptive pairs) never collapse distinct measurements onto one key.
Stdlib only — runs in the CI container.
"""

import argparse
import json
import math
import sys

SCHEMAS = (2, 3, 4, 5)


def check_schema(path, row, warned, seen):
    schema = row.get("schema")
    if schema is not None and schema not in SCHEMAS:
        sys.exit(f"{path}: schema {schema} not in supported {SCHEMAS}")
    if schema is not None:
        seen.add(schema)
        if len(seen) > 1:
            sys.exit(f"{path}: mixed schema versions {sorted(seen)} in one "
                     f"file — rows from different runs are not comparable; "
                     f"regenerate the file in one pass")
    if schema is None and not warned:
        print(f"warning: {path}: rows carry no provenance stamp "
              f"(pre-schema-{SCHEMAS[0]} file)", file=sys.stderr)
        return True
    return warned


def row_key(row):
    """(bench, threads, nodes) — mode is already fixed by the caller's
    filter. Absent stamps (older schemas) key as None so old baselines
    stay comparable with themselves."""
    t = row.get("threads")
    n = row.get("nodes")
    return (row["bench"],
            int(t) if t is not None else None,
            int(n) if n is not None else None)


def key_label(key):
    bench, t, n = key
    label = bench
    if t is not None and t != 1:
        label += f"@t{t}"
    if n is not None:
        label += f"@n{n}"
    return label


def load_rows(path, mode, nodes=None):
    """Rows of one mode keyed by row_key: ({key: wall_s}, {key:
    max_rss_kb}, provenance stamp)."""
    with open(path) as f:
        rows = json.load(f)
    out = {}
    rss = {}
    stamp = None
    warned = False
    seen = set()
    for row in rows:
        warned = check_schema(path, row, warned, seen)
        if stamp is None and row.get("schema") is not None:
            stamp = (row.get("commit", "unknown"), row.get("date", "unknown"))
        if row.get("mode") != mode:
            continue
        # --nodes filter: drop rows measured at a different node count.
        # Rows without the stamp (schema <= 3 files) are kept so old
        # baselines remain comparable.
        if nodes is not None and row.get("nodes") is not None \
                and int(row["nodes"]) != nodes:
            continue
        out[row_key(row)] = float(row["wall_s"])
        if row.get("max_rss_kb") is not None:
            rss[row_key(row)] = int(row["max_rss_kb"])
    if not out:
        sys.exit(f"{path}: no rows with mode={mode!r}"
                 + (f" and nodes={nodes}" if nodes is not None else ""))
    return out, rss, stamp or ("unknown", "unknown")


def geomean_ratios(pairs):
    return math.exp(sum(math.log(r) for r in pairs) / len(pairs))


def par_gate(path, want_threads, min_speedup):
    """Gate the parallel-engine sweep in one file: wall(threads=1) /
    wall(threads=want_threads) per bench, geomean >= the (host-capped)
    required speedup."""
    with open(path) as f:
        rows = json.load(f)
    seq, par = {}, {}
    host_cpus = None
    warned = False
    seen = set()
    for row in rows:
        warned = check_schema(path, row, warned, seen)
        if row.get("mode") != "par":
            continue
        if host_cpus is None and "host_cpus" in row:
            host_cpus = int(row["host_cpus"])
        t = int(row.get("threads", 0))
        if t == 1:
            seq[row["bench"]] = float(row["wall_s"])
        elif t == want_threads:
            par[row["bench"]] = float(row["wall_s"])
    if not seq or not par:
        sys.exit(f"{path}: no parallel sweep rows (mode 'par') at threads 1 "
                 f"and {want_threads}; run scripts/bench_host.sh")

    common = sorted(set(seq) & set(par))
    if not common:
        sys.exit("no benches with both sequential and parallel rows")
    print(f"parallel gate: {path} ({want_threads} workers vs sequential, "
          f"host_cpus={host_cpus})")
    print(f"{'bench':<24} {'seq_s':>8} {'par_s':>8} {'speedup':>8}")
    ratios = []
    for bench in common:
        ratio = seq[bench] / par[bench]
        ratios.append(ratio)
        print(f"{bench:<24} {seq[bench]:>8.3f} {par[bench]:>8.3f} "
              f"{ratio:>7.2f}x")
    geomean = geomean_ratios(ratios)
    print(f"{'geomean':<24} {'':>8} {'':>8} {geomean:>7.2f}x")

    if host_cpus is not None and host_cpus < 2:
        print(f"SKIP: host has {host_cpus} CPU(s); a wall-clock parallel "
              f"speedup is physically impossible — gate not enforced")
        return
    required = min_speedup
    if host_cpus is not None and host_cpus / 2.0 < required:
        required = host_cpus / 2.0
        print(f"note: required speedup capped at {required:.2f}x "
              f"(host has only {host_cpus} cores)")
    if geomean < required:
        sys.exit(f"FAIL: {want_threads}-worker geomean {geomean:.3f}x < "
                 f"required {required:.2f}x over the sequential engine")
    print(f"OK: {geomean:.2f}x >= {required:.2f}x")


def adapt_gate(path, min_geomean, max_regress):
    """Gate the adaptive-tuning sweep in one file: per (bench, threads,
    nodes), simulated virtual_ms of the fixed-knob run (adapt bitmask 0)
    over the adaptive run (bitmask != 0). Virtual time is deterministic,
    so the gate needs no host-noise margin: geomean must reach min_geomean
    and no single bench may regress more than max_regress."""
    with open(path) as f:
        rows = json.load(f)
    fixed, adaptive = {}, {}
    warned = False
    seen = set()
    for row in rows:
        warned = check_schema(path, row, warned, seen)
        if row.get("mode") != "adapt":
            continue
        if row.get("adapt") is None or row.get("virtual_ms") is None:
            sys.exit(f"{path}: adapt-mode row without 'adapt'/'virtual_ms' "
                     f"stamps (needs schema >= 5; regenerate with "
                     f"scripts/bench_host.sh)")
        bucket = fixed if int(row["adapt"]) == 0 else adaptive
        bucket[row_key(row)] = float(row["virtual_ms"])
    if not fixed or not adaptive:
        sys.exit(f"{path}: no adaptive sweep rows (mode 'adapt') with both "
                 f"adapt=0 and adapt!=0; run scripts/bench_host.sh")

    common = sorted(set(fixed) & set(adaptive), key=key_label)
    if not common:
        sys.exit("no benches with both fixed and adaptive rows")
    print(f"adaptive gate: {path} (fixed knobs vs adaptive policies, "
          f"simulated virtual time)")
    print(f"{'bench':<24} {'fixed_ms':>9} {'adapt_ms':>9} {'ratio':>7}")
    ratios = []
    worst = None
    for key in common:
        ratio = fixed[key] / adaptive[key]
        ratios.append(ratio)
        if worst is None or ratio < worst[0]:
            worst = (ratio, key)
        print(f"{key_label(key):<24} {fixed[key]:>9.3f} "
              f"{adaptive[key]:>9.3f} {ratio:>6.3f}x")
    geomean = geomean_ratios(ratios)
    print(f"{'geomean':<24} {'':>9} {'':>9} {geomean:>6.3f}x")

    if geomean < min_geomean:
        sys.exit(f"FAIL: adaptive geomean {geomean:.4f}x < required "
                 f"{min_geomean:.2f}x — adaptation loses overall")
    if worst[0] < 1.0 - max_regress:
        sys.exit(f"FAIL: {key_label(worst[1])} regresses to "
                 f"{worst[0]:.4f}x under adaptation (allowed floor "
                 f"{1.0 - max_regress:.2f}x)")
    print(f"OK: geomean {geomean:.3f}x >= {min_geomean:.2f}x, worst bench "
          f"{key_label(worst[1])} {worst[0]:.3f}x >= "
          f"{1.0 - max_regress:.2f}x")


def rss_gate(base, fresh, max_regress):
    """Per-row peak-RSS gate: fresh max_rss_kb / baseline max_rss_kb must
    stay at or below 1 + max_regress for every row both files carry."""
    common = sorted(set(base) & set(fresh), key=key_label)
    if not common:
        sys.exit("no rows with max_rss_kb in common between the two files")
    print(f"{'bench':<24} {'base_MB':>8} {'fresh_MB':>8} {'ratio':>7}")
    worst = None
    for key in common:
        ratio = fresh[key] / base[key]
        if worst is None or ratio > worst[0]:
            worst = (ratio, key)
        print(f"{key_label(key):<24} {base[key] / 1024:>8.1f} "
              f"{fresh[key] / 1024:>8.1f} {ratio:>6.3f}x")
    if worst[0] > 1.0 + max_regress:
        sys.exit(f"FAIL: {key_label(worst[1])} peak RSS grew to "
                 f"{worst[0]:.3f}x the baseline (allowed "
                 f"{1.0 + max_regress:.2f}x)")
    print(f"OK: worst peak RSS {key_label(worst[1])} {worst[0]:.3f}x <= "
          f"{1.0 + max_regress:.2f}x")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("--max-regress", type=float, default=None,
                    help="fail when geomean ratio < 1 - R")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail when geomean ratio < S")
    ap.add_argument("--max-rss-regress", type=float, default=None,
                    help="fail when any row's max_rss_kb exceeds the "
                         "baseline's by more than R")
    ap.add_argument("--mode", default="fast",
                    help="which rows to compare (default: fast)")
    ap.add_argument("--nodes", type=int, default=None,
                    help="keep only rows measured on this cluster node "
                         "count (rows without a 'nodes' stamp are kept)")
    ap.add_argument("--par-gate", metavar="FILE", default=None,
                    help="gate the parallel-engine sweep in FILE")
    ap.add_argument("--par-threads", type=int, default=8,
                    help="worker count the parallel gate judges (default 8)")
    ap.add_argument("--min-par-speedup", type=float, default=2.0,
                    help="required parallel geomean speedup (default 2.0)")
    ap.add_argument("--adapt-gate", metavar="FILE", default=None,
                    help="gate the adaptive-tuning sweep in FILE")
    ap.add_argument("--min-adapt-geomean", type=float, default=1.0,
                    help="required fixed/adaptive virtual-time geomean "
                         "(default 1.0: adaptation must not lose)")
    ap.add_argument("--max-adapt-regress", type=float, default=0.02,
                    help="worst single-bench regression adaptation may "
                         "cause (default 0.02 = 2%%)")
    args = ap.parse_args()

    ran_gate = False
    if args.par_gate is not None:
        par_gate(args.par_gate, args.par_threads, args.min_par_speedup)
        ran_gate = True
    if args.adapt_gate is not None:
        adapt_gate(args.adapt_gate, args.min_adapt_geomean,
                   args.max_adapt_regress)
        ran_gate = True
    if ran_gate and args.baseline is None:
        return
    if args.baseline is None or args.fresh is None:
        ap.error("BASELINE and FRESH files are required unless --par-gate "
                 "or --adapt-gate is used alone")

    base, base_rss, base_stamp = load_rows(args.baseline, args.mode,
                                           args.nodes)
    fresh, fresh_rss, fresh_stamp = load_rows(args.fresh, args.mode,
                                              args.nodes)

    common = sorted(set(base) & set(fresh), key=key_label)
    if not common:
        sys.exit("no benches in common between the two files")
    for name, only in (("baseline", set(base) - set(fresh)),
                       ("fresh", set(fresh) - set(base))):
        if only:
            print(f"warning: benches only in {name}: "
                  f"{sorted(key_label(k) for k in only)}", file=sys.stderr)

    print(f"baseline: {args.baseline} (commit {base_stamp[0]}, "
          f"{base_stamp[1]})")
    print(f"fresh:    {args.fresh} (commit {fresh_stamp[0]}, "
          f"{fresh_stamp[1]})")
    print(f"mode:     {args.mode}")
    if args.nodes is not None:
        print(f"nodes:    {args.nodes}")
    print(f"{'bench':<24} {'base_s':>8} {'fresh_s':>8} {'ratio':>7}")
    log_sum = 0.0
    for bench in common:
        ratio = base[bench] / fresh[bench]
        log_sum += math.log(ratio)
        print(f"{key_label(bench):<24} {base[bench]:>8.3f} "
              f"{fresh[bench]:>8.3f} {ratio:>6.2f}x")
    geomean = math.exp(log_sum / len(common))
    print(f"{'geomean':<24} {'':>8} {'':>8} {geomean:>6.2f}x")

    if args.max_regress is not None and geomean < 1.0 - args.max_regress:
        sys.exit(f"FAIL: geomean {geomean:.3f}x is more than "
                 f"{args.max_regress:.0%} slower than the baseline")
    if args.min_speedup is not None and geomean < args.min_speedup:
        sys.exit(f"FAIL: geomean {geomean:.3f}x < required "
                 f"{args.min_speedup:.2f}x speedup")
    if args.max_rss_regress is not None:
        rss_gate(base_rss, fresh_rss, args.max_rss_regress)
    print("OK")


if __name__ == "__main__":
    main()
