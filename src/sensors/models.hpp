#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>

#include "adl/types.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace coreda::sensors {

/// A 3-axis acceleration sample in g.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  double magnitude() const noexcept;
};

/// Produces the *excitation* a PAVENET firmware compares against its
/// threshold: a non-negative scalar that is ~0 at rest and rises toward the
/// tool's usage intensity while the tool is manipulated.
///
/// `activation` is the instantaneous envelope value in [0, 1] (0 = tool at
/// rest) and `intensity` the tool's intrinsic vigor; both come from the
/// deployment model. Sampling consumes randomness, so models are stateful
/// per node and never shared.
class SensorModel {
 public:
  virtual ~SensorModel() = default;

  /// One raw excitation sample at virtual time `t`.
  virtual double sample(sim::TimePoint t, double activation,
                        double intensity, util::Rng& rng) = 0;

  /// Decides the threshold test for `count` consecutive samples at
  /// `first`, `first + step`, ..., reading the matching activation for each
  /// from `activations`: hits[i] = 1 when sample i's excitation exceeds
  /// `threshold`, else 0. RNG draw order and every state left behind are
  /// identical to calling sample() in a loop; hot models override this to
  /// hoist the virtual dispatch out of the batched firmware's sample loop
  /// and to skip work the decision does not need.
  virtual void hit_block(sim::TimePoint first, sim::Duration step,
                         const double* activations, std::size_t count,
                         double intensity, double threshold, util::Rng& rng,
                         std::uint8_t* hits);

  /// The threshold a node firmware should use with this model: chosen so a
  /// full-intensity manipulation comfortably exceeds it while idle noise
  /// (including accidental bumps) rarely does.
  virtual double recommended_threshold() const noexcept = 0;
};

/// 3-axis accelerometer. At rest the magnitude is 1 g plus noise; during
/// manipulation the deviation from 1 g scales with activation x intensity.
/// Idle periods occasionally see short accidental bumps (someone brushing
/// against the table) — the artifact the paper's 3-of-10 vote exists to
/// reject.
class AccelerometerModel final : public SensorModel {
 public:
  struct Params {
    double noise_g = 0.035;        ///< stddev of per-axis idle noise
    double usage_scale_g = 0.85;   ///< deviation at activation*intensity = 1
    double bump_probability = 0.004;  ///< per-sample chance of an idle bump
    double bump_magnitude_g = 0.9;    ///< excitation of an accidental bump
  };

  AccelerometerModel() = default;
  explicit AccelerometerModel(Params params) : params_(params) {}

  double sample(sim::TimePoint t, double activation, double intensity,
                util::Rng& rng) override;
  /// Decides quiet idle samples from the noise pairs' radii alone and
  /// clearly decided tilted samples from cos φ, sin φ and the noise,
  /// without the θ trigonometry (see DESIGN.md, "Decision kernel"); every
  /// other sample takes sample()'s exact path.
  void hit_block(sim::TimePoint first, sim::Duration step,
                 const double* activations, std::size_t count,
                 double intensity, double threshold, util::Rng& rng,
                 std::uint8_t* hits) override;
  double recommended_threshold() const noexcept override { return 0.30; }

  /// The full 3-axis reading behind the last sample, whether it came from
  /// sample() or hit_block(); useful for tests and trace export.
  Vec3 last_reading() const noexcept;

 private:
  /// The draws before the noise, in sample() order: the tilt radius r
  /// (drive plus any idle bump) and the tilt angles.
  struct Tilt {
    double r;
    double theta;
    double phi;
  };
  /// Squared-magnitude bounds of the tilted-sample decision for one
  /// threshold t: |a|² > above_hit or |a|² < below_hit is a hit, |a|²
  /// inside (inside_lo, inside_hi) a miss; each edge is (1 ± t ± slack)².
  struct TiltBand {
    double above_hit;
    double below_hit;
    double inside_lo;
    double inside_hi;
  };

  Tilt draw_tilt(double activation, double intensity, util::Rng& rng) const;
  Vec3 reading(const Tilt& tilt, double nx, double ny, double nz) const;
  static double excitation(const Vec3& a) noexcept;
  /// Whether a tilted sample's threshold test comes out the same
  /// whatever θ is; if so, `hit` is its outcome.
  bool decide_tilted(const Tilt& tilt, double nx, double ny, double nz,
                     bool& hit) const noexcept;
  void set_threshold(double threshold) noexcept;

  Params params_;
  Vec3 last_{};
  /// The last sample came from hit_block(), which keeps its tilt and noise
  /// draws and leaves the reading to last_reading().
  bool last_lazy_ = false;
  Tilt lazy_tilt_{};
  std::array<util::Rng::LazyNormal, 3> lazy_{};  ///< its x, y, z noise
  double threshold_ = std::numeric_limits<double>::quiet_NaN();
  double quiet_s_min_ = std::numeric_limits<double>::infinity();
  TiltBand band_{};
};

/// Pressure sensor (the electronic pot's dispense lever). Produces a small
/// signal: pressing the lever is a gentle, short action — the reason the
/// paper measures only 80 % extract precision for "pour hot water".
class PressureModel final : public SensorModel {
 public:
  struct Params {
    double noise = 0.05;
    double usage_scale = 0.75;
    double bump_probability = 0.002;
    double bump_magnitude = 0.5;
  };

  PressureModel() = default;
  explicit PressureModel(Params params) : params_(params) {}

  double sample(sim::TimePoint t, double activation, double intensity,
                util::Rng& rng) override;
  /// Decides samples whose drive alone clears the threshold, and quiet
  /// low-drive samples from the noise pair's radius, without the normal's
  /// log/sqrt (see DESIGN.md, "Decision kernel"); bumps and the rest take
  /// sample()'s exact path.
  void hit_block(sim::TimePoint first, sim::Duration step,
                 const double* activations, std::size_t count,
                 double intensity, double threshold, util::Rng& rng,
                 std::uint8_t* hits) override;
  double recommended_threshold() const noexcept override { return 0.25; }

 private:
  void set_threshold(double threshold) noexcept;

  Params params_;
  /// The threshold the decision bounds below were computed for.
  double threshold_ = std::numeric_limits<double>::quiet_NaN();
  double hit_drive_min_ = std::numeric_limits<double>::quiet_NaN();
  double quiet_drive_max_ = -std::numeric_limits<double>::infinity();
  double quiet_s_min_ = std::numeric_limits<double>::infinity();
};

/// Passive-infrared-style motion sensor: a stochastic detector that fires
/// with probability proportional to activation, plus a small false-positive
/// floor.
class MotionModel final : public SensorModel {
 public:
  struct Params {
    double detect_probability = 0.90;  ///< per-sample hit rate at full vigor
    double false_positive = 0.005;
  };

  MotionModel() = default;
  explicit MotionModel(Params params) : params_(params) {}

  double sample(sim::TimePoint t, double activation, double intensity,
                util::Rng& rng) override;
  double recommended_threshold() const noexcept override { return 0.5; }

 private:
  Params params_;
};

/// Brightness sensor: ambient light with slow diurnal drift; manipulation
/// (e.g. opening a cabinet) changes the level sharply.
class BrightnessModel final : public SensorModel {
 public:
  struct Params {
    double ambient = 0.4;
    double drift_amplitude = 0.1;
    double drift_period_s = 3600.0;
    double noise = 0.05;
    double usage_delta = 0.5;
  };

  BrightnessModel() = default;
  explicit BrightnessModel(Params params) : params_(params) {}

  double sample(sim::TimePoint t, double activation, double intensity,
                util::Rng& rng) override;
  double recommended_threshold() const noexcept override { return 0.30; }

 private:
  Params params_;
};

/// Temperature sensor: slow thermal response toward a usage-dependent
/// target (e.g. a kettle warming). First-order lag, so excitation outlives
/// the manipulation slightly.
class TemperatureModel final : public SensorModel {
 public:
  struct Params {
    double noise = 0.01;
    double usage_scale = 0.6;
    double lag_per_sample = 0.15;  ///< fraction of gap closed per sample
  };

  TemperatureModel() = default;
  explicit TemperatureModel(Params params) : params_(params) {}

  double sample(sim::TimePoint t, double activation, double intensity,
                util::Rng& rng) override;
  double recommended_threshold() const noexcept override { return 0.20; }

 private:
  Params params_;
  double state_ = 0.0;
};

/// Builds the default model for a sensor kind (paper Table 1's sensor
/// complement).
std::unique_ptr<SensorModel> make_sensor_model(adl::SensorKind kind);

}  // namespace coreda::sensors
