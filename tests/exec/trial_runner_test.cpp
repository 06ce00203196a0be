#include "exec/trial_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "trace/sensing_pipeline.hpp"

namespace coreda::exec {
namespace {

TEST(TrialSeedTest, IsAPureFunctionOfThePair) {
  EXPECT_EQ(trial_seed(42, 7), trial_seed(42, 7));
  EXPECT_NE(trial_seed(42, 7), trial_seed(42, 8));
  EXPECT_NE(trial_seed(42, 7), trial_seed(43, 7));
}

// One SplitMix64: util::mix64 is the published SplitMix64 output, and
// trial_seed(base, i) is mix64 over the golden-ratio stride. The pinned
// values come from the written-out SplitMix64 formula, not from mix64.
TEST(TrialSeedTest, IsSplitMix64OverTheGoldenStride) {
  static_assert(util::mix64(0) == 0xe220a8397b1dcdafULL);
  EXPECT_EQ(trial_seed(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(trial_seed(42, 7), 0xccf635ee9e9e2fa4ULL);
  EXPECT_EQ(trial_seed(~0ULL, ~0ULL), 0xb4d055fcf2cbbd7bULL);
  EXPECT_EQ(trial_seed(515151, 23), 0xe968bf0257d99e0bULL);
  util::Rng rng(2024);
  for (int k = 0; k < 10000; ++k) {
    const std::uint64_t base = rng();
    const std::uint64_t index = rng();
    ASSERT_EQ(trial_seed(base, index),
              util::mix64(base + 0x9e3779b97f4a7c15ULL * index));
  }
  // Rng seeding runs the same mixer: Rng(42)'s first output.
  EXPECT_EQ(util::Rng(42)(), 0x15780b2e0c2ec716ULL);
}

TEST(TrialSeedTest, NeighboringIndicesGetDistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(trial_seed(1, i));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(TrialRunnerTest, ResultsLandInIndexOrder) {
  TrialRunner runner(4);
  const auto results = runner.run(
      64, 9, [](TrialContext& ctx) { return ctx.index * 10; });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * 10);
  }
}

TEST(TrialRunnerTest, SerialAndParallelRunsAreIdentical) {
  // The contract the experiment tables rely on: each trial's Rng stream is a
  // pure function of (base_seed, index), so results cannot depend on which
  // worker ran the trial or in what order trials finished.
  auto body = [](TrialContext& ctx) {
    std::vector<double> draws;
    for (int i = 0; i < 16; ++i) draws.push_back(ctx.rng.uniform());
    return draws;
  };
  TrialRunner serial(1);
  TrialRunner parallel(8);
  EXPECT_EQ(serial.run(64, 77, body), parallel.run(64, 77, body));
}

TEST(TrialRunnerTest, LowestIndexExceptionWinsAfterAllTrialsComplete) {
  TrialRunner runner(8);
  std::atomic<int> completed{0};
  try {
    runner.run(16, 1, [&completed](TrialContext& ctx) -> int {
      ++completed;
      if (ctx.index == 11) throw std::runtime_error("trial 11");
      if (ctx.index == 3) throw std::runtime_error("trial 3");
      return 0;
    });
    FAIL() << "expected a trial exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 3");
  }
  EXPECT_EQ(completed.load(), 16);
}

TEST(TrialRunnerTest, ZeroJobsMeansHardwareConcurrency) {
  TrialRunner runner(0);
  EXPECT_EQ(runner.jobs(), ThreadPool::hardware_workers());
}

TEST(TrialRunnerTest, JobsFromFlagsParsesAndValidates) {
  EXPECT_EQ(jobs_from_flags(util::Flags::parse({"--jobs=3"})), 3u);
  EXPECT_EQ(jobs_from_flags(util::Flags::parse({})),
            ThreadPool::hardware_workers());
  EXPECT_THROW(jobs_from_flags(util::Flags::parse({"--jobs=-1"})),
               std::invalid_argument);
}

// The acceptance check of the parallel layer: a 64-trial Table 3 style run
// (real sensing stacks, one per trial) rendered to a table is byte-identical
// at --jobs 1 and --jobs 8.
TEST(TrialRunnerTest, TableThreeStyleRunIsByteIdenticalAcrossJobCounts) {
  adl::AdlLibrary library;
  std::vector<adl::ToolId> tools;
  for (const char* name : {"Tooth-brushing", "Tea-making"}) {
    for (const auto& step : library.by_name(name).primary_routine().steps()) {
      tools.push_back(step.tool);
    }
  }
  ASSERT_EQ(tools.size(), 8u);

  auto trial = [&](TrialContext& ctx) {
    const adl::ToolId tool = tools[ctx.index % tools.size()];
    const adl::Tool& t = library.tools().at(tool);
    trace::SensingPipeline pipeline(library.tools(), {tool},
                                    1000 + tool + 17 * ctx.index);
    int extracted = 0;
    for (int i = 0; i < 4; ++i) {
      const double mean = t.typical_usage_mean.to_seconds();
      const double drawn =
          std::max(mean * 0.4,
                   ctx.rng.normal(mean, t.typical_usage_stddev.to_seconds()));
      extracted +=
          pipeline.single_tool_trial(tool, sim::Duration::seconds(drawn));
    }
    return extracted;
  };

  auto render = [&](std::size_t jobs) {
    TrialRunner runner(jobs);
    const std::vector<int> results = runner.run(64, 4242, trial);
    std::ostringstream table;
    for (std::size_t i = 0; i < results.size(); ++i) {
      table << i << '\t' << tools[i % tools.size()] << '\t' << results[i]
            << '\n';
    }
    return table.str();
  };

  EXPECT_EQ(render(1), render(8));
}

}  // namespace
}  // namespace coreda::exec
