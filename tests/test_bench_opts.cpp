// The flags every bench binary shares (bench/report.hpp BenchOpts): the
// recognized ones set their fields, and anything else — a typo, a retired
// flag, a flag missing its value — stops the binary with status 2 instead
// of silently running the default configuration. fig07 alone forwards
// unknown arguments to google-benchmark.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench/report.hpp"

namespace {

using benchutil::BenchOpts;

// argv as the binaries receive it: argv[0] plus the given arguments.
struct Argv {
  std::vector<std::string> store;
  std::vector<char*> ptrs;
  explicit Argv(std::vector<std::string> args) : store(std::move(args)) {
    store.insert(store.begin(), "fig_test");
    for (std::string& a : store) ptrs.push_back(a.data());
  }
  int argc() { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
};

BenchOpts parse(std::vector<std::string> args) {
  Argv a(std::move(args));
  return BenchOpts::parse(a.argc(), a.argv());
}

TEST(BenchOpts, SharedFlagsSetTheirFields) {
  const BenchOpts o = parse({"--json", "out.json", "--pipeline", "16",
                             "--quick", "--nodes", "32,64"});
  EXPECT_EQ(o.json_path, "out.json");
  EXPECT_EQ(o.pipeline, 16);
  EXPECT_TRUE(o.quick);
  EXPECT_EQ(o.nodes, (std::vector<int>{32, 64}));
  EXPECT_EQ(o.adapt, 0);
  EXPECT_EQ(o.rest.size(), 1u);  // argv[0] only
}

TEST(BenchOpts, AdaptFlagsComposeTheTwoBitMask) {
  EXPECT_EQ(parse({"--adapt-wb"}).adapt, 1);
  EXPECT_EQ(parse({"--adapt-diff"}).adapt, 2);
  EXPECT_EQ(parse({"--adapt-wb", "--adapt-diff"}).adapt, 3);
  EXPECT_EQ(parse({"--adaptive"}).adapt, 3);
  argo::ClusterConfig c;
  parse({"--adaptive"}).apply_adapt(c);
  EXPECT_TRUE(c.adapt.write_buffer);
  EXPECT_TRUE(c.adapt.diff_granularity);
}

TEST(BenchOpts, UnrecognizedArgumentExitsWithStatusTwoAndNamesIt) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(parse({"--quick", "--adaptve"}), ::testing::ExitedWithCode(2),
              "unrecognized argument '--adaptve'");
  // A retired flag is just as unknown as a typo.
  EXPECT_EXIT(parse({"--adapt-stride"}), ::testing::ExitedWithCode(2),
              "unrecognized argument '--adapt-stride'");
  // So is a flag whose value is missing.
  EXPECT_EXIT(parse({"--json"}), ::testing::ExitedWithCode(2),
              "unrecognized argument '--json'");
}

TEST(BenchOpts, ForwardingModeKeepsUnknownArgumentsForTheHarness) {
  Argv a({"--benchmark_filter=BM_Argo", "--pipeline", "4"});
  const BenchOpts o =
      BenchOpts::parse(a.argc(), a.argv(), /*forward_unknown=*/true);
  EXPECT_EQ(o.pipeline, 4);
  ASSERT_EQ(o.rest.size(), 2u);
  EXPECT_STREQ(o.rest[1], "--benchmark_filter=BM_Argo");
}

}  // namespace
