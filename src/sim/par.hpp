// ARGO_THREADS: the process-wide host worker count.
//
// The engine (sim/engine.hpp) advances its event shards under conservative
// lookahead windows; argo::Cluster gives every node its own shard. N host
// workers run the shards of one window concurrently and are bit-identical
// to one worker. ARGO_THREADS=N asks for N workers; unset, every cluster
// runs on one (ClusterConfig::engine_threads overrides it per cluster).
//
// Tests flip it programmatically between runs; never toggle while a
// simulation is executing.
#pragma once

#include <cstdlib>

namespace argosim {

namespace detail {
inline int g_engine_threads = [] {
  const char* e = std::getenv("ARGO_THREADS");
  if (e == nullptr || e[0] == '\0') return 0;
  int v = std::atoi(e);
  return v > 0 ? v : 0;
}();
}  // namespace detail

/// Worker count requested via ARGO_THREADS (0 = not requested).
inline int engine_threads() { return detail::g_engine_threads; }
inline void set_engine_threads(int n) { detail::g_engine_threads = n < 0 ? 0 : n; }

}  // namespace argosim
