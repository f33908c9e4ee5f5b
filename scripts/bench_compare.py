#!/usr/bin/env python3
"""Compare two BENCH_host.json files (baseline vs fresh) on fast-mode wall
time and gate on the geometric-mean ratio.

Usage:
  scripts/bench_compare.py BASELINE FRESH [--max-regress 0.10]
                                          [--min-speedup 1.25]
                                          [--max-rss-regress 0.10]
                                          [--mode fast]
                                          [--nodes 64]
  scripts/bench_compare.py --adapt-gate FILE [--min-adapt-geomean 1.0]
                                             [--max-adapt-regress 0.02]
  scripts/bench_compare.py --golden GOLDEN FRESH_DIR_OR_FILE [--update]

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
  --adapt-gate FILE single-file mode: compare the adaptive-tuning sweep
                    rows (mode "adapt", written by scripts/bench_host.sh)
                    pairing each bench's fixed-knob run (adapt bitmask 0)
                    against its adaptive run (bitmask != 0) on simulated
                    virtual_ms — deterministic, so no host-noise margin is
                    needed. Fails when the geomean fixed/adaptive ratio <
                    --min-adapt-geomean (adaptation must not lose overall)
                    or any single bench regresses more than
                    --max-adapt-regress (default 2%).
  --golden GOLDEN FRESH
                    simulated-result gate: FRESH (a directory of
                    <binary>-p<depth>.json files written by
                    scripts/golden_suite.sh, or a file in GOLDEN's format)
                    must match the committed GOLDEN (bench/golden_quick.json)
                    exactly once the host and provenance fields
                    (HOST_FIELDS) are dropped. Any difference exits
                    non-zero with a moved-row table. --update rewrites
                    GOLDEN from FRESH instead, for a change that moves a
                    simulated value on purpose.

Rows carry the provenance stamp written by bench/report.hpp and
scripts/bench_host.sh ({"schema", "commit", "date", ...}); schema 2
(pre-parallel-engine), 3, 4 (per-row "nodes" stamp), and 5 (per-row
"adapt" policy bitmask) are accepted, others are an error, missing stamps
(schema-1 files) a warning, and a single file mixing two schema versions
is an error — it means two different runs were concatenated and the rows
are not comparable. Comparison rows are keyed by (bench, mode, threads,
nodes) so multi-configuration files (node scaling, adaptive pairs, older
files' worker-count sweeps) never collapse distinct measurements onto one
key.
Stdlib only — runs in the CI container.
"""

import argparse
import json
import math
import os
import sys

SCHEMAS = (2, 3, 4, 5)

# Row fields that describe the host or the run, not the simulation: the
# golden gate drops them before comparing. Everything else a bench writes
# (virtual times, rates, counters, checksums) must match exactly.
HOST_FIELDS = ("commit", "date", "threads", "engine", "wall_ms", "ns_per_op",
               "ns_per_rtt", "ns_per_switch", "context_backend",
               "runq_backend", "resizes")
# Row parameters shown beside the string fields when naming a moved row.
ROW_PARAMS = ("pipeline", "nodes", "adapt", "x", "wb", "threads",
              "unit_bytes", "year", "spread_ns", "heartbeat_ns")


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


def simulated_fields(pairs):
    """json object hook: drop the host fields. A row leads with its
    provenance stamp, so only a key's first occurrence is dropped; a bench
    parameter repeating a stamp key (fig11's "threads") stays."""
    out, dropped = {}, set()
    for k, v in pairs:
        if k in HOST_FIELDS and k not in dropped:
            dropped.add(k)
            continue
        out[k] = v
    return out


def load_golden_runs(path):
    """{run: [row, ...]} from a golden-format file or a directory of
    <run>.json bench outputs (run = "<binary>-p<depth>")."""
    if not os.path.isdir(path):
        with open(path) as f:
            return json.load(f)  # already stripped
    runs = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name)) as f:
                runs[name[:-5]] = json.load(
                    f, object_pairs_hook=simulated_fields)
    if not runs:
        sys.exit(f"{path}: no <binary>-p<depth>.json files; run "
                 f"scripts/golden_suite.sh")
    return runs


def row_identity(index, row):
    parts = [f"#{index}"]
    parts += [f"{k}={v}" for k, v in row.items() if isinstance(v, str)]
    parts += [f"{k}={row[k]}" for k in ROW_PARAMS if k in row]
    return " ".join(parts)


def golden_gate(golden_path, fresh_path, update):
    """Exact comparison of every simulated field of every row; prints one
    line per moved field and fails on any difference."""
    fresh = load_golden_runs(fresh_path)
    if update:
        with open(golden_path, "w") as f:
            f.write("{\n")
            for i, run in enumerate(sorted(fresh)):
                rows = ",\n".join(json.dumps(r, separators=(",", ":"))
                                   for r in fresh[run])
                f.write(f"{json.dumps(run)}: [\n{rows}\n]"
                        f"{',' if i + 1 < len(fresh) else ''}\n")
            f.write("}\n")
        print(f"wrote {sum(map(len, fresh.values()))} rows of {len(fresh)} "
              f"runs to {golden_path}")
        return
    golden = load_golden_runs(golden_path)
    moved = []  # (run, identity, field, golden value, fresh value)
    for run in sorted(set(golden) | set(fresh)):
        g, f = golden.get(run), fresh.get(run)
        if g is None or f is None:
            moved.append((run, "-", "(run)", "present" if g else "missing",
                          "present" if f else "missing"))
            continue
        for i in range(max(len(g), len(f))):
            gr = g[i] if i < len(g) else {}
            fr = f[i] if i < len(f) else {}
            ident = row_identity(i, gr or fr)
            if not gr or not fr:
                moved.append((run, ident, "(row)",
                              "present" if gr else "missing",
                              "present" if fr else "missing"))
                continue
            for k in list(gr) + [k for k in fr if k not in gr]:
                if gr.get(k) != fr.get(k):
                    moved.append((run, ident, k, gr.get(k), fr.get(k)))
    rows = sum(map(len, golden.values()))
    if not moved:
        print(f"OK: {rows} rows of {len(golden)} runs match {golden_path}")
        return
    print(f"{'bench':<28} {'row':<44} {'field':<20} {'golden':>14} "
          f"{'fresh':>14} {'change':>9}")
    for run, ident, field, gv, fv in moved:
        change = ""
        if isinstance(gv, (int, float)) and isinstance(fv, (int, float)) \
                and not isinstance(gv, bool) and gv != 0:
            change = f"{(fv - gv) / abs(gv):+.4%}"
        print(f"{run:<28} {ident:<44} {field:<20} {str(gv):>14} "
              f"{str(fv):>14} {change:>9}")
    sys.exit(f"FAIL: {len(moved)} simulated field(s) moved against "
             f"{golden_path} ({rows} golden rows)")


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
    ap.add_argument("--adapt-gate", metavar="FILE", default=None,
                    help="gate the adaptive-tuning sweep in FILE")
    ap.add_argument("--golden", metavar="GOLDEN", default=None,
                    help="compare FRESH's simulated fields with GOLDEN")
    ap.add_argument("--update", action="store_true",
                    help="with --golden: rewrite GOLDEN from FRESH")
    ap.add_argument("--min-adapt-geomean", type=float, default=1.0,
                    help="required fixed/adaptive virtual-time geomean "
                         "(default 1.0: adaptation must not lose)")
    ap.add_argument("--max-adapt-regress", type=float, default=0.02,
                    help="worst single-bench regression adaptation may "
                         "cause (default 0.02 = 2%%)")
    args = ap.parse_args()

    if args.golden is not None:
        if args.baseline is None or args.fresh is not None:
            ap.error("--golden takes exactly one FRESH directory or file")
        golden_gate(args.golden, args.baseline, args.update)
        return
    if args.adapt_gate is not None:
        adapt_gate(args.adapt_gate, args.min_adapt_geomean,
                   args.max_adapt_regress)
        if args.baseline is None:
            return
    if args.baseline is None or args.fresh is None:
        ap.error("BASELINE and FRESH files are required unless --adapt-gate "
                 "is used alone")

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
