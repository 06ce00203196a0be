// Regression guard for the Table 3 calibration: every instrumented tool's
// extract precision must stay inside its calibrated band. These bands are
// wide enough for sampling noise (n = 200) but tight enough to catch a
// sensor-model or detector regression that would silently bend the
// headline reproduction.

#include <gtest/gtest.h>

#include <cstdint>

#include "adl/library.hpp"
#include "trace/sensing_pipeline.hpp"
#include "util/stats.hpp"

namespace coreda::trace {
namespace {

// gtest names each case after the raw bytes of its parameter (ToolBand has
// no operator<<), so the struct must have no padding: padding bytes are
// indeterminate and would give the test a different name on every listing.
struct ToolBand {
  std::uint64_t tool;  // an adl::ToolId, widened to leave no padding
  double low;
  double high;

  adl::ToolId id() const { return static_cast<adl::ToolId>(tool); }
};
static_assert(sizeof(ToolBand) == sizeof(std::uint64_t) + 2 * sizeof(double));

struct Table3Band : ::testing::TestWithParam<ToolBand> {};

TEST_P(Table3Band, PrecisionInsideCalibratedBand) {
  const ToolBand band = GetParam();
  adl::AdlLibrary library;
  const adl::Tool& tool = library.tools().at(band.id());

  SensingPipeline pipeline(library.tools(), {tool.id}, 12000 + tool.id);
  util::Rng durations(13000 + tool.id);
  util::PrecisionCounter precision;
  constexpr int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    const double mean = tool.typical_usage_mean.to_seconds();
    const double drawn = std::max(
        mean * 0.4,
        durations.normal(mean, tool.typical_usage_stddev.to_seconds()));
    precision.record(pipeline.single_tool_trial(
        tool.id, sim::Duration::seconds(drawn)));
  }
  EXPECT_GE(precision.precision(), band.low) << tool.name;
  EXPECT_LE(precision.precision(), band.high) << tool.name;
}

// Bands: paper value +/- a generous-but-meaningful margin. The weak tools
// must stay weak (upper bounds below 1.0) — that asymmetry IS Table 3.
INSTANTIATE_TEST_SUITE_P(
    AllTools, Table3Band,
    ::testing::Values(
        ToolBand{adl::tools::kPasteTube, 0.80, 0.99},   // paper 90 %
        ToolBand{adl::tools::kToothbrush, 0.98, 1.00},  // paper 100 %
        ToolBand{adl::tools::kGargleCup, 0.98, 1.00},   // paper 100 %
        ToolBand{adl::tools::kTowel, 0.75, 0.96},       // paper 85 %
        ToolBand{adl::tools::kTeaBox, 0.98, 1.00},      // paper 100 %
        ToolBand{adl::tools::kElectricPot, 0.68, 0.92}, // paper 80 %
        ToolBand{adl::tools::kKettle, 0.98, 1.00},      // paper 100 %
        ToolBand{adl::tools::kTeaCup, 0.82, 0.99}),     // paper 90 %
    [](const auto& info) {
      adl::AdlLibrary library;
      std::string name = library.tools().at(info.param.id()).name;
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

// The structural inequality behind Table 3: within each ADL, the weak
// step extracts strictly worse than the strong ones.
TEST(Table3Shape, WeakStepsExtractWorst) {
  adl::AdlLibrary library;
  const auto precision_of = [&library](adl::ToolId id) {
    const adl::Tool& tool = library.tools().at(id);
    SensingPipeline pipeline(library.tools(), {id}, 14000 + id);
    util::Rng durations(15000 + id);
    util::PrecisionCounter counter;
    for (int i = 0; i < 300; ++i) {
      const double mean = tool.typical_usage_mean.to_seconds();
      const double drawn = std::max(
          mean * 0.4,
          durations.normal(mean, tool.typical_usage_stddev.to_seconds()));
      counter.record(pipeline.single_tool_trial(
          id, sim::Duration::seconds(drawn)));
    }
    return counter.precision();
  };
  EXPECT_LT(precision_of(adl::tools::kTowel),
            precision_of(adl::tools::kToothbrush));
  EXPECT_LT(precision_of(adl::tools::kElectricPot),
            precision_of(adl::tools::kKettle));
  EXPECT_LT(precision_of(adl::tools::kElectricPot),
            precision_of(adl::tools::kTeaBox));
}

}  // namespace
}  // namespace coreda::trace
