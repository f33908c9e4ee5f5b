#!/usr/bin/env python3
"""Benchmark of the Argo DSM simulator: one workload, many fresh processes.

Usage (from the repository root):

  python3 perfbench/run.py --workload lu|cg|pq_hqdl --seed N --seconds S \
                           --trace 0|1

Builds perfbench_driver from source (CMake, into $CARGO_TARGET_DIR or
.bench_build/), then, for S seconds, runs the workload once per fresh
process and reports medians. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

  --trace 0  timed runs, tracing off: the end-to-end metrics.
  --trace 1  the per-layer metrics: untraced and ARGOTRC1-traced runs in
             turn (the counters must agree), the layer probes, fence spans
             summarised by scripts/trace_query, and the driver's own spans.

Every sample is checked: lu/cg outputs against the sequential reference,
pq_hqdl's critical-section log against a std::multiset replay, and every
simulated quantity (virtual time, counters, outputs) against the run's
first sample, since the same seed must reproduce them exactly.

--size tiny and --corrupt-reference exist for perfbench/test_perfbench.py.
See perfbench/README.md for the metrics and the workloads.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("lu", "cg", "pq_hqdl")
PINNED_ENV = ("ARGO_SLOW_PATHS", "ARGO_THREADS", "ARGO_SEQ_ENGINE",
              "ARGO_NO_ADAPT")
CHILD_TIMEOUT_S = 120

# name -> unit. The order is the order printed.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ops_per_us": "ops/sim_us",
}
PER_LAYER = {
    # engine (src/sim)
    "sim.context_switches": "count",
    "sim.runq_pops": "count",
    "sim.host_ns_per_switch": "ns",
    "sim.virtual_ms": "sim_ms",
    "probe.sim.switch_ns": "ns",
    # interconnect (src/net)
    "net.rdma_reads": "count",
    "net.bytes_read": "B",
    "net.rdma_writes": "count",
    "net.bytes_written": "B",
    "net.rdma_atomics": "count",
    "net.nic_busy_ns": "sim_ns",
    "probe.net.read_rtt_ns": "ns",
    # Pyxis (src/dir)
    "carina.dir_ops": "count",
    "carina.transitions_caused": "count",
    # Carina reads (src/core)
    "carina.read_hits": "count",
    "carina.read_misses": "count",
    "carina.hit_ratio": "ratio",
    "carina.line_fetches": "count",
    "carina.si_fences": "count",
    "carina.si_invalidations": "count",
    "carina.si_fence_ns.p50": "sim_ns",
    "carina.si_fence_ns.max": "sim_ns",
    "probe.carina.hit_ns": "ns",
    "probe.carina.miss_ns": "ns",
    # Carina writes (src/core)
    "carina.writebacks": "count",
    "carina.writeback_bytes": "B",
    "carina.diffs_built": "count",
    "carina.sd_fences": "count",
    "carina.sd_fence_ns.p50": "sim_ns",
    "carina.sd_fence_ns.max": "sim_ns",
    "probe.carina.sd_fence_ns": "ns",
    # Vela (src/sync)
    "vela.hqdl.batches": "count",
    "vela.hqdl.executed": "count",
    "vela.hqdl.delegated": "count",
    "vela.hqdl.cs_per_batch": "ratio",
    "vela.atomics_per_cs": "ratio",
    "probe.vela.hqdl_execute_ns": "ns",
    "probe.vela.barrier_ns": "ns",
    # app kernels (src/apps)
    "apps.reference_s": "s",
    # tracing (src/obs) and the driver's own spans
    "trace.emitted": "count",
    "trace.dropped": "count",
    "trace.si_fence_spans": "count",
    "trace.sd_fence_spans": "count",
    "obs.trace_overhead": "ratio",
    "span.cluster_s": "s",
    "span.workload_s": "s",
    "span.stats_s": "s",
    "span.check_s": "s",
    "bench.check_failures": "count",
}
# Per-layer metrics read from Cluster::stats() counters under their own names.
STAT_COUNTERS = (
    "sim.context_switches", "sim.runq_pops", "net.rdma_reads",
    "net.bytes_read", "net.rdma_writes", "net.bytes_written",
    "net.rdma_atomics", "net.nic_busy_ns", "carina.dir_ops",
    "carina.transitions_caused", "carina.read_hits", "carina.read_misses",
    "carina.line_fetches", "carina.si_fences", "carina.si_invalidations",
    "carina.writebacks", "carina.writeback_bytes", "carina.diffs_built",
    "carina.sd_fences", "trace.emitted", "trace.dropped")
PROBES = tuple(n for n in PER_LAYER if n.startswith("probe."))


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (REPO / target / "perfbench").resolve()


def build():
    """Configure and build perfbench_driver; return its path."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(out), "-j", jobs]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "perfbench_driver"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for p in sorted((REPO / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(REPO)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (REPO / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() or None


# --- driver processes -------------------------------------------------------

def call(driver, *args):
    """Run one driver process; return its JSON line."""
    r = subprocess.run([str(driver), *args], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("driver %s exited %d: %s"
                         % (args[0], r.returncode, r.stderr.strip()[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def fingerprint(sample):
    """Everything a sample simulated; equal across runs of one seed."""
    return json.dumps({
        "virtual_ns": sample["virtual_ns"],
        "ops": sample["ops"],
        "outputs": sample["outputs"],
        "hqdl": sample["hqdl"],
        "counters": {k: v for k, v in sample["counters"].items()
                     if not k.startswith("trace.")},
        "hists": sample["hists"],
    }, sort_keys=True)


class Runner:
    def __init__(self, driver, args):
        self.driver = driver
        self.args = args
        self.samples = []
        self.failed = 0
        self.expect = []
        self.reference_s = None
        self._fingerprint0 = None

    def reference(self):
        if self.args.workload == "pq_hqdl":
            return  # checked in-process by the log replay
        ref = call(self.driver, "reference", *self.common())
        self.reference_s = ref["reference_s"]
        for name, value in ref["outputs"].items():
            self.expect += ["--expect", "%s=%r" % (name, value)]

    def common(self):
        return ["--workload", self.args.workload, "--seed", str(self.args.seed),
                "--size", self.args.size]

    def sample(self, trace_file=None):
        extra = list(self.expect)
        if self.args.corrupt_reference:
            extra.append("--corrupt-reference")
        if trace_file is not None:
            extra += ["--trace-file", str(trace_file)]
        s = call(self.driver, "run", *self.common(), *extra)
        fp = fingerprint(s)
        if self._fingerprint0 is None:
            self._fingerprint0 = fp
        bad = s["check_failures"] > 0 or fp != self._fingerprint0
        if fp != self._fingerprint0:
            log("sample %d: simulated results differ from sample 0 "
                "(same seed must repeat exactly)" % len(self.samples))
        if s["check_failures"] > 0:
            log("sample %d: %d output check(s) failed"
                % (len(self.samples), s["check_failures"]))
        self.failed += int(bad)
        self.samples.append(s)
        return s


def metric(unit, value):
    return {"value": value, "unit": unit}


def end_to_end(r):
    # Host quantities are medians over the samples; the simulated one is
    # identical in every sample (the fingerprint check).
    m = {name: median([x[name] for x in r.samples])
         for name in ("wall_s", "setup_s", "peak_rss_mb")}
    m["sim_ops_per_us"] = r.samples[0]["sim_ops_per_us"]
    return {name: metric(unit, m[name]) for name, unit in END_TO_END.items()}


def fence_spans(trace_file):
    """Complete SI/SD fence spans in the trace, as scripts/trace_query
    replays them."""
    tq = REPO / "scripts" / "trace_query"
    r = subprocess.run([sys.executable, str(tq), "fences", str(trace_file)],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("trace_query failed: " + r.stderr.strip()[-2000:])
    spans = {"si_fence": 0, "sd_fence": 0}
    for m in re.finditer(r"^(si_fence|sd_fence): (\d+) fences", r.stdout, re.M):
        spans[m.group(1)] = int(m.group(2))
    return spans


def per_layer(r, untraced, traced, probe, spans):
    t = traced[-1]
    c = t["counters"]
    h = t["hists"]
    m = {name: c[name] for name in STAT_COUNTERS}
    m.update({name: probe[name] for name in PROBES})
    wall_untraced = median([x["wall_s"] for x in untraced])
    switches = c["sim.context_switches"]
    m["sim.host_ns_per_switch"] = (wall_untraced * 1e9 / switches
                                   if switches else 0.0)
    m["sim.virtual_ms"] = t["virtual_ns"] / 1e6
    accesses = c["carina.read_hits"] + c["carina.read_misses"]
    m["carina.hit_ratio"] = c["carina.read_hits"] / accesses if accesses else 0.0
    for hist in ("carina.si_fence_ns", "carina.sd_fence_ns"):
        m[hist + ".p50"] = h[hist]["p50"]
        m[hist + ".max"] = h[hist]["max"]
    hq = t["hqdl"]
    m["vela.hqdl.batches"] = hq["batches"]
    m["vela.hqdl.executed"] = hq["executed"]
    m["vela.hqdl.delegated"] = hq["delegated"]
    m["vela.hqdl.cs_per_batch"] = (hq["executed"] / hq["batches"]
                                   if hq["batches"] else 0.0)
    m["vela.atomics_per_cs"] = (c["net.rdma_atomics"] / hq["executed"]
                                if hq["executed"] else 0.0)
    # The pq oracle replay is pq_hqdl's reference computation.
    m["apps.reference_s"] = (r.reference_s if r.reference_s is not None else
                             median([x["check_s"] for x in traced]))
    m["trace.si_fence_spans"] = spans["si_fence"]
    m["trace.sd_fence_spans"] = spans["sd_fence"]
    m["obs.trace_overhead"] = (median([x["wall_s"] for x in traced]) /
                               wall_untraced)
    for span in ("cluster", "workload", "stats", "check"):
        m["span.%s_s" % span] = median(
            [sp["end_s"] - sp["start_s"] for x in traced for sp in x["spans"]
             if sp["name"] == span])
    m["bench.check_failures"] = sum(x["check_failures"] for x in r.samples)
    return {name: metric(unit, m[name]) for name, unit in PER_LAYER.items()}


def run(args):
    bad_env = [v for v in PINNED_ENV if v in os.environ]
    if bad_env:
        raise BenchError("refusing to run with %s set: the benchmark measures "
                         "the default program" % ", ".join(bad_env))
    driver = build()
    r = Runner(driver, args)
    r.reference()
    start = time.monotonic()
    if args.trace == 0:
        while not r.samples or time.monotonic() - start < args.seconds:
            r.sample()
        metrics = end_to_end(r)
    else:
        trace_file = build_dir() / "traces" / ("%s-%d.bin"
                                               % (args.workload, args.seed))
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        untraced, traced = [], []
        while not traced or time.monotonic() - start < args.seconds:
            untraced.append(r.sample())
            traced.append(r.sample(trace_file))
        probe = call(driver, "probe")
        spans = fence_spans(trace_file)
        spans_file = trace_file.with_suffix(".spans.json")
        spans_file.write_text(json.dumps([x["spans"] for x in r.samples]))
        metrics = per_layer(r, untraced, traced, probe, spans)
    first = r.samples[0]
    stamp = {
        "commit": commit(),
        "source_digest": source_digest(),
        "context_backend": first["context_backend"],
        "engine_fallback_reason": first["engine_fallback_reason"],
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(r.samples),
        "wall_s": sorted(x["wall_s"] for x in r.samples),
        "setup_s": sorted(x["setup_s"] for x in r.samples),
    }
    print("perfbench stamp: " + json.dumps(stamp))
    return {
        "correct": r.failed == 0,
        "attempted": len(r.samples),
        "failed": r.failed,
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--corrupt-reference", action="store_true")
    args = p.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running driver process before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
