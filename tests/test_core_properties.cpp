// Property-based tests for the Carina protocol: randomized data-race-free
// programs must observe exactly the values release/acquire ordering
// entitles them to, under every classification mode and cache geometry.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "sim/random.hpp"

namespace argo {
namespace {

using argomem::kPageSize;
using argosim::Rng;

struct WriteOp {
  std::uint64_t page;
  std::uint32_t off;
  std::uint8_t val;
};

struct ReadOp {
  std::uint64_t page;
  std::uint32_t off;
  std::uint8_t expect;
};

// A generated DRF schedule: epochs separated by barriers. In each epoch a
// page is either written by (thread 0 of) exactly one node, or read by any
// set of threads — never both, so every execution is data-race-free.
struct Schedule {
  int nodes, tpn, epochs;
  std::uint64_t first_page, num_pages;
  // writes[epoch][node] / reads[epoch][node][tid]
  std::vector<std::vector<std::vector<WriteOp>>> writes;
  std::vector<std::vector<std::vector<std::vector<ReadOp>>>> reads;
  std::vector<std::uint8_t> final_image;  // expected page bytes at the end
};

Schedule generate(std::uint64_t seed, int nodes, int tpn, int epochs,
                  std::uint64_t first_page, std::uint64_t num_pages) {
  Rng rng(seed);
  Schedule s;
  s.nodes = nodes;
  s.tpn = tpn;
  s.epochs = epochs;
  s.first_page = first_page;
  s.num_pages = num_pages;
  s.writes.assign(epochs, {});
  s.reads.assign(epochs, {});
  std::vector<std::uint8_t> shadow(num_pages * kPageSize, 0);

  for (int e = 0; e < epochs; ++e) {
    s.writes[e].assign(nodes, {});
    s.reads[e].assign(nodes, {});
    for (int n = 0; n < nodes; ++n) s.reads[e][n].assign(tpn, {});

    // Assign each page a role for this epoch.
    std::vector<int> writer_of(num_pages, -1);
    for (std::uint64_t p = 0; p < num_pages; ++p) {
      const double roll = rng.next_double();
      if (roll < 0.35)
        writer_of[p] = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nodes)));
    }

    // Reads first (they see the *pre-epoch* shadow)...
    for (std::uint64_t p = 0; p < num_pages; ++p) {
      if (writer_of[p] != -1) continue;
      for (int n = 0; n < nodes; ++n) {
        if (!rng.next_bool(0.5)) continue;
        for (int t = 0; t < tpn; ++t) {
          const int count = static_cast<int>(rng.next_below(4));
          for (int k = 0; k < count; ++k) {
            const auto off = static_cast<std::uint32_t>(rng.next_below(kPageSize));
            s.reads[e][n][t].push_back(
                ReadOp{p, off, shadow[p * kPageSize + off]});
          }
        }
      }
    }
    // ...then this epoch's writes update the shadow.
    for (std::uint64_t p = 0; p < num_pages; ++p) {
      if (writer_of[p] == -1) continue;
      const int n = writer_of[p];
      const int count = 1 + static_cast<int>(rng.next_below(24));
      for (int k = 0; k < count; ++k) {
        const auto off = static_cast<std::uint32_t>(rng.next_below(kPageSize));
        const auto val = static_cast<std::uint8_t>(1 + rng.next_below(255));
        s.writes[e][n].push_back(WriteOp{p, off, val});
        shadow[p * kPageSize + off] = val;
      }
    }
  }
  s.final_image = std::move(shadow);
  return s;
}

struct PropParam {
  Mode mode;
  std::size_t pages_per_line;
  std::size_t cache_lines;
  std::size_t write_buffer;
  std::uint64_t seed;
  int pipeline = 1;  ///< posted-verb send-queue depth (1 = blocking verbs)
};

std::string describe(const PropParam& p) {
  std::string m;
  switch (p.mode) {
    case Mode::S: m = "S"; break;
    case Mode::PSNaive: m = "PSNaive"; break;
    case Mode::PS: m = "PS"; break;
    case Mode::PS3: m = "PS3"; break;
  }
  return m + "_ppl" + std::to_string(p.pages_per_line) + "_lines" +
         std::to_string(p.cache_lines) + "_wb" + std::to_string(p.write_buffer) +
         "_seed" + std::to_string(p.seed) + "_p" + std::to_string(p.pipeline);
}

std::string param_name(const ::testing::TestParamInfo<PropParam>& info) {
  return describe(info.param);
}

// Without this gtest prints the struct's raw bytes (padding included) into
// each case's listed name, which then varies from build to build.
void PrintTo(const PropParam& p, std::ostream* os) { *os << describe(p); }

class RandomDrfPrograms : public ::testing::TestWithParam<PropParam> {};

TEST_P(RandomDrfPrograms, ObserveExactlyTheEntitledValues) {
  const PropParam param = GetParam();
  const int nodes = 4, tpn = 2, epochs = 10;
  const std::uint64_t num_pages = 20;

  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.threads_per_node = tpn;
  cfg.global_mem_bytes = static_cast<std::size_t>(nodes) * 16 * kPageSize;
  cfg.cache.classification = param.mode;
  cfg.cache.pages_per_line = param.pages_per_line;
  cfg.cache.cache_lines = param.cache_lines;
  cfg.cache.write_buffer_pages = param.write_buffer;
  cfg.net.pipeline = param.pipeline;
  Cluster cl(cfg);

  // Pages 8..27 span all four home nodes (16 pages per node).
  const std::uint64_t first_page = 8;
  const Schedule s =
      generate(param.seed, nodes, tpn, epochs, first_page, num_pages);

  std::vector<std::string> failures;
  cl.run([&](Thread& t) {
    for (int e = 0; e < s.epochs; ++e) {
      if (t.tid() == 0)
        for (const WriteOp& w : s.writes[e][t.node()]) {
          auto addr = gptr<std::uint8_t>((first_page + w.page) * kPageSize + w.off);
          t.store(addr, w.val);
          const std::uint8_t got = t.load(addr);
          if (got != w.val)
            failures.push_back("read-own-write epoch=" + std::to_string(e) +
                               " node=" + std::to_string(t.node()) +
                               " page=" + std::to_string(w.page) + " off=" +
                               std::to_string(w.off) + " expect=" +
                               std::to_string(w.val) + " got=" +
                               std::to_string(got));
        }
      for (const ReadOp& r : s.reads[e][t.node()][t.tid()]) {
        auto addr = gptr<std::uint8_t>((first_page + r.page) * kPageSize + r.off);
        const std::uint8_t got = t.load(addr);
        if (got != r.expect)
          failures.push_back("read epoch=" + std::to_string(e) + " node=" +
                             std::to_string(t.node()) + " tid=" +
                             std::to_string(t.tid()) + " page=" +
                             std::to_string(r.page) + " off=" +
                             std::to_string(r.off) + " expect=" +
                             std::to_string(r.expect) + " got=" +
                             std::to_string(got));
      }
      t.barrier();
    }
  });
  EXPECT_TRUE(failures.empty()) << failures.size() << " bad observations; first: "
                                << failures.front();

  // After the final barrier the home copies must equal the shadow image —
  // except under naive P/S, where still-private dirty pages legitimately
  // live only in their owner's checkpoint.
  if (param.mode != Mode::PSNaive) {
    const std::uint8_t* base =
        cl.host_ptr(gptr<std::uint8_t>(first_page * kPageSize));
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < num_pages * kPageSize; ++i)
      mismatches += (base[i] != s.final_image[i]) ? 1 : 0;
    EXPECT_EQ(mismatches, 0u);
    // And nothing may remain dirty.
    for (int n = 0; n < nodes; ++n)
      EXPECT_EQ(cl.node_cache(n).dirty_pages(), 0u) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Carina, RandomDrfPrograms,
    ::testing::Values(
        // Every mode under a roomy geometry.
        PropParam{Mode::S, 1, 64, 64, 1},
        PropParam{Mode::PSNaive, 1, 64, 64, 1},
        PropParam{Mode::PS, 1, 64, 64, 1},
        PropParam{Mode::PS3, 1, 64, 64, 1},
        // Prefetching lines.
        PropParam{Mode::S, 4, 16, 64, 2},
        PropParam{Mode::PSNaive, 4, 16, 64, 2},
        PropParam{Mode::PS, 4, 16, 64, 2},
        PropParam{Mode::PS3, 4, 16, 64, 2},
        // Conflict-heavy tiny cache.
        PropParam{Mode::S, 1, 4, 64, 3},
        PropParam{Mode::PSNaive, 1, 4, 64, 3},
        PropParam{Mode::PS, 1, 4, 64, 3},
        PropParam{Mode::PS3, 1, 4, 64, 3},
        // Tiny write buffer (constant draining).
        PropParam{Mode::S, 1, 64, 2, 4},
        PropParam{Mode::PSNaive, 1, 64, 2, 4},
        PropParam{Mode::PS, 1, 64, 2, 4},
        PropParam{Mode::PS3, 1, 64, 2, 4},
        // Everything at once, multiple seeds.
        PropParam{Mode::PS3, 4, 8, 4, 5},
        PropParam{Mode::PS3, 4, 8, 4, 6},
        PropParam{Mode::PSNaive, 4, 8, 4, 7},
        PropParam{Mode::S, 2, 8, 2, 8}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    CarinaPipelined, RandomDrfPrograms,
    ::testing::Values(
        // Every mode with the posted verbs engaged.
        PropParam{Mode::S, 1, 64, 64, 1, 4},
        PropParam{Mode::PSNaive, 1, 64, 64, 1, 4},
        PropParam{Mode::PS, 1, 64, 64, 1, 4},
        PropParam{Mode::PS3, 1, 64, 64, 1, 4},
        // Prefetching lines: fills post one read per home segment.
        PropParam{Mode::S, 4, 16, 64, 2, 4},
        PropParam{Mode::PSNaive, 4, 16, 64, 2, 4},
        PropParam{Mode::PS, 4, 16, 64, 2, 4},
        PropParam{Mode::PS3, 4, 16, 64, 2, 4},
        // Tiny write buffer: drains race the posted queue hard.
        PropParam{Mode::S, 1, 64, 2, 4, 4},
        PropParam{Mode::PSNaive, 1, 64, 2, 4, 4},
        PropParam{Mode::PS, 1, 64, 2, 4, 4},
        PropParam{Mode::PS3, 1, 64, 2, 4, 4},
        // Deep queue, conflict-heavy geometry.
        PropParam{Mode::PS3, 4, 8, 4, 5, 16},
        PropParam{Mode::PS, 4, 8, 4, 6, 16},
        PropParam{Mode::PSNaive, 4, 8, 4, 7, 16},
        PropParam{Mode::S, 2, 8, 2, 8, 16}),
    param_name);

}  // namespace
}  // namespace argo
