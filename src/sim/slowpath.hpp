// ARGO_SLOW_PATHS: a process-wide debug toggle that disables every
// host-side fast path (page-buffer pooling, the scheduler's same-fiber
// fast-forward, fiber stack recycling, and the per-thread soft-TLB hit
// path — src/core/tlb.hpp) and falls back to the straightforward
// reference implementations.
//
// The toggle exists to make the repo's central performance invariant
// checkable: host optimizations must never change *simulated* behaviour.
// Virtual times, statistics and ARGOTRC1 traces must be bit-identical with
// the toggle on and off — the determinism suites run both and compare
// (tests/test_hostperf.cpp), and scripts/bench_host.sh measures the two
// modes to quantify what the fast paths buy in wall-clock time.
//
// Initialized once from the ARGO_SLOW_PATHS environment variable (any
// value but "0"/"" enables it); tests flip it programmatically between
// runs. Never toggle while a simulation is executing — mixed-mode runs are
// still *correct* (every fast path is behaviour-preserving in isolation)
// but the A/B comparison would be meaningless.
#pragma once

#include <cstdlib>

namespace argosim {

namespace detail {
inline bool g_slow_paths = [] {
  const char* e = std::getenv("ARGO_SLOW_PATHS");
  return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
}();
}  // namespace detail

/// True when the reference (slow) host paths are selected.
inline bool slow_paths() { return detail::g_slow_paths; }

/// Select the reference paths (true) or the fast paths (false).
inline void set_slow_paths(bool v) { detail::g_slow_paths = v; }

}  // namespace argosim
