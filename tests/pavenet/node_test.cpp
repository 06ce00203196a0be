#include "pavenet/node.hpp"

#include <gtest/gtest.h>

#include "adl/library.hpp"
#include "pavenet/base_station.hpp"
#include "sim/scheduler.hpp"

namespace coreda::pavenet {
namespace {

using sim::Duration;
using sim::TimePoint;

struct NodeFixture : ::testing::Test {
  adl::AdlLibrary library;
  sim::Scheduler scheduler;
  sensors::ManipulationWorld world;
  RadioChannel channel{scheduler, util::Rng(1)};
  std::vector<Packet> uplink;

  NodeFixture() {
    channel.attach_receiver(
        0, [this](const Packet& p) { uplink.push_back(p); });
  }

  PavenetNode make_node(adl::ToolId tool) {
    return PavenetNode(library.tools().at(tool), scheduler, world, channel,
                       util::Rng(7));
  }
};

TEST_F(NodeFixture, IdleNodeStaysSilent) {
  PavenetNode node = make_node(adl::tools::kKettle);
  node.power_on();
  scheduler.run_until(TimePoint::from_seconds(20.0));
  EXPECT_TRUE(uplink.empty());
  EXPECT_EQ(node.announcements(), 0u);
}

TEST_F(NodeFixture, ManipulationTriggersAnnouncement) {
  PavenetNode node = make_node(adl::tools::kKettle);
  node.power_on();
  world.begin(adl::tools::kKettle, TimePoint::from_seconds(2.0),
              Duration::seconds(6.0));
  scheduler.run_until(TimePoint::from_seconds(12.0));
  ASSERT_FALSE(uplink.empty());
  EXPECT_EQ(uplink[0].source_uid, adl::tools::kKettle);
  EXPECT_EQ(uplink[0].kind, Packet::Kind::kToolUsage);
  EXPECT_GE(node.eeprom().size(), 1u);
}

TEST_F(NodeFixture, PowerOffStopsSampling) {
  PavenetNode node = make_node(adl::tools::kKettle);
  node.power_on();
  node.power_off();
  world.begin(adl::tools::kKettle, TimePoint::from_seconds(1.0),
              Duration::seconds(6.0));
  scheduler.run_until(TimePoint::from_seconds(10.0));
  EXPECT_TRUE(uplink.empty());
}

TEST_F(NodeFixture, PowerOnIsIdempotent) {
  PavenetNode node = make_node(adl::tools::kKettle);
  node.power_on();
  node.power_on();  // must not double the tick rate
  world.begin(adl::tools::kKettle, TimePoint::from_seconds(1.0),
              Duration::seconds(3.0));
  scheduler.run_until(TimePoint::from_seconds(6.0));
  // One manipulation: announcements throttled to ~1/second of usage.
  EXPECT_LE(node.announcements(), 4u);
}

TEST_F(NodeFixture, ReannounceThrottled) {
  PavenetNode node = make_node(adl::tools::kToothbrush);
  node.power_on();
  // A long vigorous manipulation: every window votes yes, but announcements
  // are rate-limited to one per reannounce_interval (1 s default).
  world.begin(adl::tools::kToothbrush, TimePoint::from_seconds(1.0),
              Duration::seconds(10.0));
  scheduler.run_until(TimePoint::from_seconds(15.0));
  EXPECT_LE(node.announcements(), 11u);
  EXPECT_GE(node.announcements(), 8u);
}

TEST_F(NodeFixture, DownlinkLedCommandBlinksGreen) {
  PavenetNode node = make_node(adl::tools::kTeaCup);
  node.power_on();
  Packet cmd;
  cmd.kind = Packet::Kind::kLedCommand;
  cmd.dest_uid = adl::tools::kTeaCup;
  cmd.led_color = LedColor::kGreen;
  cmd.blink_count = 3;
  channel.transmit(cmd);
  scheduler.run_until(TimePoint::from_seconds(5.0));
  EXPECT_EQ(node.led().blink_count(LedColor::kGreen), 3u);
}

TEST_F(NodeFixture, DownlinkZeroBlinksTurnsOff) {
  PavenetNode node = make_node(adl::tools::kTeaCup);
  node.power_on();
  node.led().blink(LedColor::kRed, 100);
  Packet cmd;
  cmd.kind = Packet::Kind::kLedCommand;
  cmd.dest_uid = adl::tools::kTeaCup;
  cmd.blink_count = 0;
  channel.transmit(cmd);
  scheduler.run_until(TimePoint::from_seconds(1.0));
  EXPECT_FALSE(node.led().is_on(LedColor::kRed));
}

TEST_F(NodeFixture, UsesRecommendedThresholdByDefault) {
  PavenetNode accel_node = make_node(adl::tools::kKettle);
  EXPECT_DOUBLE_EQ(accel_node.threshold(), 0.30);
  PavenetNode pressure_node = make_node(adl::tools::kElectricPot);
  EXPECT_DOUBLE_EQ(pressure_node.threshold(), 0.25);
}

TEST_F(NodeFixture, ExplicitThresholdOverrides) {
  FirmwareConfig config;
  config.excitation_threshold = 0.77;
  PavenetNode node(library.tools().at(adl::tools::kKettle), scheduler, world,
                   channel, util::Rng(7), config);
  EXPECT_DOUBLE_EQ(node.threshold(), 0.77);
}

TEST(NodeBatchingTest, BatchedSamplingMatchesPerTickBitExactly) {
  // The batched firmware task is a pure scheduling optimization: every
  // sampled value, EEPROM record, and announcement must be identical to the
  // literal per-tick loop, including partial windows flushed at power_off.
  // The per-tick loop decides each sample through sample(), the batched
  // one through hit_block(); both sensor kinds run at a low threshold
  // (most idle samples take the exact path), the accelerometer's default
  // and a high one. A 45-sample window spans two of the node's 32-sample
  // decision chunks.
  adl::AdlLibrary library;
  struct Observed {
    std::uint64_t samples;
    std::uint64_t announcements;
    std::size_t uplink;
    std::vector<std::pair<std::int64_t, int>> records;
    bool operator==(const Observed&) const = default;
  };
  auto run_one = [&](adl::ToolId tool, double threshold,
                     std::uint32_t window, bool batch) {
    sim::Scheduler scheduler;
    sensors::ManipulationWorld world;
    RadioChannel channel{scheduler, util::Rng(1)};
    std::size_t uplink = 0;
    channel.attach_receiver(0, [&](const Packet&) { ++uplink; });
    FirmwareConfig config;
    config.batch_sampling = batch;
    config.excitation_threshold = threshold;
    config.vote_window = window;
    config.vote_threshold = window * 3 / 10;
    PavenetNode node(library.tools().at(tool), scheduler, world, channel,
                     util::Rng(7), config);
    node.power_on();
    // Episodes that start, truncate, and restart mid-window.
    scheduler.schedule_at(TimePoint::from_seconds(1.23), [&] {
      world.begin(tool, scheduler.now(), Duration::seconds(4.0));
    });
    scheduler.schedule_at(TimePoint::from_seconds(3.07), [&] {
      world.end(tool, scheduler.now());
    });
    scheduler.schedule_at(TimePoint::from_seconds(3.55), [&] {
      world.begin(tool, scheduler.now(), Duration::seconds(5.0));
    });
    scheduler.run_until(TimePoint::from_seconds(9.35));  // mid-window stop
    node.power_off();
    Observed obs{node.samples(), node.announcements(), uplink, {}};
    for (const EepromRecord& r : node.eeprom().dump()) {
      obs.records.emplace_back(r.at.total_micros(), r.hits);
    }
    return obs;
  };
  for (const adl::ToolId tool :
       {adl::tools::kKettle, adl::tools::kElectricPot}) {
    std::size_t records = 0;
    for (const double threshold : {0.05, 0.30, 0.77}) {
      SCOPED_TRACE(testing::Message() << "tool " << tool << ", threshold "
                                      << threshold);
      const Observed per_tick = run_one(tool, threshold, 10, false);
      const Observed batched = run_one(tool, threshold, 10, true);
      EXPECT_EQ(per_tick.samples, 93u);  // 9.35 s at 10 Hz, flushed to tick
      EXPECT_TRUE(per_tick == batched);
      records += per_tick.records.size();
    }
    EXPECT_GT(records, 0u) << "tool " << tool;
  }
  const Observed per_tick = run_one(adl::tools::kKettle, 0.30, 45, false);
  EXPECT_EQ(per_tick.samples, 93u);
  EXPECT_GT(per_tick.records.size(), 0u);
  EXPECT_TRUE(per_tick == run_one(adl::tools::kKettle, 0.30, 45, true));
}

TEST_F(NodeFixture, UidMatchesTool) {
  PavenetNode node = make_node(adl::tools::kTeaBox);
  EXPECT_EQ(node.uid(), adl::tools::kTeaBox);
  EXPECT_EQ(node.tool().name, "tea box");
}

}  // namespace
}  // namespace coreda::pavenet
