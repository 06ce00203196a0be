#include "sensors/models.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace coreda::sensors {
namespace {

using sim::TimePoint;

TEST(Vec3Test, Magnitude) {
  EXPECT_DOUBLE_EQ((Vec3{3.0, 4.0, 0.0}).magnitude(), 5.0);
  EXPECT_DOUBLE_EQ((Vec3{}).magnitude(), 0.0);
}

TEST(AccelerometerModelTest, IdleExcitationIsLow) {
  AccelerometerModel model;
  util::Rng rng(1);
  util::RunningStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.add(model.sample(TimePoint::origin(), 0.0, 1.0, rng));
  }
  // Idle excitation is dominated by sensor noise, well under the 0.30
  // recommended threshold on average.
  EXPECT_LT(stats.mean(), 0.15);
}

TEST(AccelerometerModelTest, ActiveExcitationExceedsThreshold) {
  AccelerometerModel model;
  util::Rng rng(2);
  util::RunningStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.add(model.sample(TimePoint::origin(), 1.0, 1.2, rng));
  }
  EXPECT_GT(stats.mean(), model.recommended_threshold());
}

TEST(AccelerometerModelTest, ExcitationScalesWithIntensity) {
  AccelerometerModel model;
  util::Rng rng(3);
  util::RunningStats weak;
  util::RunningStats strong;
  for (int i = 0; i < 5000; ++i) {
    weak.add(model.sample(TimePoint::origin(), 1.0, 0.3, rng));
    strong.add(model.sample(TimePoint::origin(), 1.0, 1.3, rng));
  }
  EXPECT_LT(weak.mean(), strong.mean());
}

TEST(AccelerometerModelTest, IdleBumpsOccur) {
  AccelerometerModel::Params params;
  params.bump_probability = 0.05;
  AccelerometerModel model(params);
  util::Rng rng(4);
  int big = 0;
  for (int i = 0; i < 5000; ++i) {
    if (model.sample(TimePoint::origin(), 0.0, 1.0, rng) > 0.4) ++big;
  }
  EXPECT_GT(big, 50);  // bumps visible, but rare
  EXPECT_LT(big, 1000);
}

TEST(AccelerometerModelTest, LastReadingHasGravity) {
  AccelerometerModel model;
  util::Rng rng(5);
  util::RunningStats z;
  for (int i = 0; i < 2000; ++i) {
    model.sample(TimePoint::origin(), 0.0, 1.0, rng);
    z.add(model.last_reading().z);
  }
  EXPECT_NEAR(z.mean(), 1.0, 0.01);  // 1 g on the z axis at rest
}

// The idle-mixing script behind IdleFastPathIsBitExact: 64-sample segments
// cycling idle, bump-heavy idle (a second model with bump_probability 0.2),
// a ramp 0 < a < 1 and full activation, at a per-segment intensity.
constexpr std::size_t kScriptSegment = 64;
constexpr std::size_t kScriptSamples = 4096;

bool script_bumpy(std::size_t segment) { return segment % 4 == 1; }

double script_activation(std::size_t i) {
  const std::size_t k = i % kScriptSegment;
  switch ((i / kScriptSegment) % 4) {
    case 2:
      return static_cast<double>(k + 1) / (kScriptSegment + 1);
    case 3:
      return 1.0;
    default:
      return 0.0;
  }
}

double script_intensity(std::size_t segment) {
  return 0.4 + 0.1 * static_cast<double>(segment % 9);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over the bit patterns, so a sign flip of a zero changes it.
std::uint64_t fold(std::uint64_t h, double v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (bits(v) >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

AccelerometerModel::Params bumpy_params() {
  AccelerometerModel::Params p;
  p.bump_probability = 0.2;
  return p;
}

// Values recorded on the kernel that always evaluates the tilt products;
// the idle fast path (r == 0 skips sin/cos) must reproduce every one of
// them bit for bit, and leave the generator at the same state.
TEST(AccelerometerModelTest, IdleFastPathIsBitExact) {
  struct Row {
    std::size_t i;
    double excitation, x, y, z;
  };
  // First two samples of each regime in the first and the last cycle
  // (sample 64 is a bump).
  const Row rows[] = {
      {0, 0x1.955b242d7234p-5, -0x1.48e9730184488p-6, 0x1.08814b509777dp-6,
       0x1.e67c89d86837fp-1},
      {1, 0x1.6f7aea07c6p-7, -0x1.52229cbed9decp-6, 0x1.6f8aa57bd3f18p-8,
       0x1.02d02321cca7ep+0},
      {64, 0x1.5e4bb6756c45p-3, -0x1.e8c65eae9461p-3, 0x1.b7e1800acc178p-1,
       0x1.84aae1bdcaf05p-1},
      {65, 0x1.8bb3aec3014p-10, 0x1.a054682de8b8ap-7, 0x1.8499dfa9c4d82p-6,
       0x1.004b3bbf97fp+0},
      {128, 0x1.c0cdea946d7p-6, -0x1.58798bfecb49cp-5, -0x1.de2d87362ae47p-6,
       0x1.f148e6b983606p-1},
      {129, 0x1.6eedbde1a3ap-10, -0x1.9fc67ef5a9a7fp-8, 0x1.98dfb1f15d2a8p-9,
       0x1.ff454169dd732p-1},
      {192, 0x1.243f6a1989298p-3, 0x1.189b637e4ffeep-5, -0x1.2ce1ed558eb3dp-1,
       0x1.f5751c28ae586p-1},
      {193, 0x1.2f5a5cd0ca882p-1, 0x1.604909238bcep-7, -0x1.b3f5e91d10a2dp-7,
       0x1.97a7291bec229p+0},
      {3840, 0x1.3336c9bb2aap-6, 0x1.c1d5749c55609p-6, -0x1.4ad0f98aacc22p-6,
       0x1.04a77c602fbddp+0},
      {3841, 0x1.78c4ee75ab1ap-5, -0x1.501cc47bbc836p-5, 0x1.5b411fe14ef74p-7,
       0x1.0b8de05d96ebap+0},
      {3904, 0x1.534b0edadba4p-7, 0x1.550b1c7c2eb8p-7, -0x1.54623593bf225p-7,
       0x1.faa481edb300ep-1},
      {3905, 0x1.a1188917b0e2p-5, 0x1.51893a634090bp-5, 0x1.12b04361233d1p-7,
       0x1.e574533b0547ap-1},
      {3968, 0x1.0aab8cd12a2e8p-4, -0x1.ad898ae368ecap-5, 0x1.22c66a8635eccp-5,
       0x1.dd913079a59c7p-1},
      {3969, 0x1.1a9b88d894078p-4, 0x1.00c9781448c58p-4, -0x1.7ea8b8b63b3d6p-6,
       0x1.db71163d0c91bp-1},
      {4032, 0x1.58cd91dcb7798p-2, -0x1.dcf7fde8ccff6p-4, 0x1.1a25a2f578c64p-6,
       0x1.54df0e3b9a79dp+0},
      {4033, 0x1.8dbd9baf61fa4p-3, -0x1.5351439431e6cp-3,
       -0x1.e484c63bffc37p-3, 0x1.8126aaf6f978p-1},
  };
  // Every excitation and x/y/z of all 4096 samples, folded in order.
  constexpr std::uint64_t kDigest = 0xf05975fadf969762ULL;
  constexpr std::uint64_t kNextDraw = 0x7f3a69b06a68bedcULL;

  AccelerometerModel quiet;
  AccelerometerModel bumpy(bumpy_params());
  util::Rng rng(2024);
  std::vector<double> excitations(kScriptSamples);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t next_row = 0;
  for (std::size_t i = 0; i < kScriptSamples; ++i) {
    const std::size_t segment = i / kScriptSegment;
    AccelerometerModel& model = script_bumpy(segment) ? bumpy : quiet;
    excitations[i] = model.sample(TimePoint::origin(), script_activation(i),
                                  script_intensity(segment), rng);
    const Vec3 v = model.last_reading();
    digest = fold(fold(fold(fold(digest, excitations[i]), v.x), v.y), v.z);
    if (next_row < std::size(rows) && rows[next_row].i == i) {
      const Row& row = rows[next_row++];
      SCOPED_TRACE(i);
      EXPECT_EQ(bits(excitations[i]), bits(row.excitation));
      EXPECT_EQ(bits(v.x), bits(row.x));
      EXPECT_EQ(bits(v.y), bits(row.y));
      EXPECT_EQ(bits(v.z), bits(row.z));
    }
  }
  EXPECT_EQ(next_row, std::size(rows));
  EXPECT_EQ(digest, kDigest);
  EXPECT_EQ(rng(), kNextDraw);

  // The batched firmware path draws the same stream: hit_block over each
  // segment decides exactly excitation > threshold for the sample() loop
  // above, leaves the generator and the last reading where it did, at the
  // default threshold and at one that sends more samples down the exact
  // path.
  for (const double threshold : {0.30, 0.05}) {
    SCOPED_TRACE(threshold);
    AccelerometerModel quiet_block;
    AccelerometerModel bumpy_block(bumpy_params());
    util::Rng block_rng(2024);
    std::vector<std::uint8_t> hits(kScriptSamples);
    for (std::size_t first = 0; first < kScriptSamples;
         first += kScriptSegment) {
      const std::size_t segment = first / kScriptSegment;
      double activations[kScriptSegment];
      for (std::size_t k = 0; k < kScriptSegment; ++k) {
        activations[k] = script_activation(first + k);
      }
      AccelerometerModel& model =
          script_bumpy(segment) ? bumpy_block : quiet_block;
      model.hit_block(TimePoint::origin(), sim::Duration::millis(100),
                      activations, kScriptSegment, script_intensity(segment),
                      threshold, block_rng, hits.data() + first);
    }
    for (std::size_t i = 0; i < kScriptSamples; ++i) {
      ASSERT_EQ(hits[i] != 0, excitations[i] > threshold) << "sample " << i;
    }
    EXPECT_EQ(block_rng(), kNextDraw);
    for (const auto& [a, b] : {std::pair{&quiet, &quiet_block},
                               std::pair{&bumpy, &bumpy_block}}) {
      EXPECT_EQ(bits(a->last_reading().x), bits(b->last_reading().x));
      EXPECT_EQ(bits(a->last_reading().y), bits(b->last_reading().y));
      EXPECT_EQ(bits(a->last_reading().z), bits(b->last_reading().z));
    }
  }
}

// hit_block against the sample() loop on random windows: 1-12 samples
// that are idle, active or mixed, at thresholds 0.02-1.5, with default and
// frequent bumps, starting with and without a cached normal. Each window
// compares the hits, the last reading's bits and the draws that follow.
TEST(AccelerometerModelTest, HitBlockMatchesSampleLoop) {
  util::Rng script(99);
  for (const AccelerometerModel::Params params :
       {AccelerometerModel::Params{}, bumpy_params()}) {
    AccelerometerModel loop_model(params);
    AccelerometerModel block_model(params);
    util::Rng loop_rng(7);
    util::Rng block_rng(7);
    for (int window = 0; window < 20000; ++window) {
      SCOPED_TRACE(window);
      const std::size_t count =
          static_cast<std::size_t>(script.uniform_int(1, 12));
      const double threshold = script.uniform(0.02, 1.5);
      const double intensity = script.uniform(0.0, 1.3);
      const std::int64_t mode = script.uniform_int(0, 2);
      double activations[12];
      for (std::size_t k = 0; k < count; ++k) {
        activations[k] = mode == 0   ? 0.0
                         : mode == 1 ? script.uniform(0.05, 1.0)
                         : script.bernoulli(0.5) ? 0.0
                                                 : script.uniform();
      }
      std::uint8_t hits[12];
      block_model.hit_block(TimePoint::origin(), sim::Duration::millis(100),
                            activations, count, intensity, threshold,
                            block_rng, hits);
      for (std::size_t k = 0; k < count; ++k) {
        const double excitation = loop_model.sample(
            TimePoint::origin(), activations[k], intensity, loop_rng);
        ASSERT_EQ(hits[k] != 0, excitation > threshold) << "sample " << k;
      }
      const Vec3 a = loop_model.last_reading();
      const Vec3 b = block_model.last_reading();
      ASSERT_EQ(bits(a.x), bits(b.x));
      ASSERT_EQ(bits(a.y), bits(b.y));
      ASSERT_EQ(bits(a.z), bits(b.z));
      // Now and then consume a normal (flipping the cached-half parity the
      // next window starts with) or a raw draw, on both streams.
      switch (script.uniform_int(0, 3)) {
        case 0:
          ASSERT_EQ(bits(loop_rng.normal(0.0, 1.0)),
                    bits(block_rng.normal(0.0, 1.0)));
          break;
        case 1:
          ASSERT_EQ(loop_rng(), block_rng());
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(loop_rng(), block_rng());
  }
}

TEST(PressureModelTest, MonotoneInActivation) {
  PressureModel model;
  util::Rng rng(6);
  util::RunningStats idle;
  util::RunningStats active;
  for (int i = 0; i < 5000; ++i) {
    idle.add(model.sample(TimePoint::origin(), 0.0, 0.5, rng));
    active.add(model.sample(TimePoint::origin(), 1.0, 0.5, rng));
  }
  EXPECT_LT(idle.mean(), active.mean());
}

TEST(PressureModelTest, NeverNegative) {
  PressureModel model;
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(model.sample(TimePoint::origin(), 0.3, 0.4, rng), 0.0);
  }
}

TEST(MotionModelTest, BinaryOutput) {
  MotionModel model;
  util::Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = model.sample(TimePoint::origin(), 0.5, 1.0, rng);
    EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
}

TEST(MotionModelTest, DetectionRateTracksActivation) {
  MotionModel model;
  util::Rng rng(9);
  int idle_hits = 0;
  int active_hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    idle_hits += model.sample(TimePoint::origin(), 0.0, 1.0, rng) > 0.5;
    active_hits += model.sample(TimePoint::origin(), 1.0, 1.0, rng) > 0.5;
  }
  EXPECT_LT(idle_hits, n / 50);
  EXPECT_GT(active_hits, n * 3 / 4);
}

TEST(BrightnessModelTest, UsageRaisesDeviation) {
  BrightnessModel model;
  util::Rng rng(10);
  util::RunningStats idle;
  util::RunningStats active;
  for (int i = 0; i < 3000; ++i) {
    idle.add(model.sample(TimePoint::origin(), 0.0, 1.0, rng));
    active.add(model.sample(TimePoint::origin(), 1.0, 1.0, rng));
  }
  EXPECT_LT(idle.mean(), active.mean());
}

TEST(TemperatureModelTest, LagsTowardTarget) {
  TemperatureModel model;
  util::Rng rng(11);
  // Sustained usage drives the state up over successive samples.
  double early = model.sample(TimePoint::origin(), 1.0, 1.0, rng);
  double late = early;
  for (int i = 0; i < 50; ++i) {
    late = model.sample(TimePoint::origin(), 1.0, 1.0, rng);
  }
  EXPECT_GT(late, early);
}

TEST(TemperatureModelTest, DecaysAfterUsage) {
  TemperatureModel model;
  util::Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    model.sample(TimePoint::origin(), 1.0, 1.0, rng);
  }
  double v = 1.0;
  for (int i = 0; i < 100; ++i) {
    v = model.sample(TimePoint::origin(), 0.0, 1.0, rng);
  }
  EXPECT_LT(v, 0.1);
}

TEST(MakeSensorModelTest, CoversEveryKind) {
  using enum adl::SensorKind;
  for (auto kind : {kAccelerometer, kPressure, kBrightness, kTemperature,
                    kMotion}) {
    const auto model = make_sensor_model(kind);
    ASSERT_NE(model, nullptr);
    EXPECT_GT(model->recommended_threshold(), 0.0);
  }
}

}  // namespace
}  // namespace coreda::sensors
