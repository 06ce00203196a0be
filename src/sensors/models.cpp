#include "sensors/models.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace coreda::sensors {

double Vec3::magnitude() const noexcept {
  return std::sqrt(x * x + y * y + z * z);
}

void SensorModel::sample_block(sim::TimePoint first, sim::Duration step,
                               const double* activations, std::size_t count,
                               double intensity, util::Rng& rng,
                               double* out) {
  sim::TimePoint at = first;
  for (std::size_t i = 0; i < count; ++i, at = at + step) {
    out[i] = sample(at, activations[i], intensity, rng);
  }
}

double AccelerometerModel::sample(sim::TimePoint /*t*/, double activation,
                                  double intensity, util::Rng& rng) {
  // Gravity on z at rest; manipulation tilts and shakes the node so the
  // deviation is split across axes with random direction.
  const double drive = activation * intensity * params_.usage_scale_g;
  double bump = 0.0;
  if (activation <= 0.0 && rng.bernoulli(params_.bump_probability)) {
    bump = params_.bump_magnitude_g * rng.uniform(0.6, 1.0);
  }
  // The tilt angles are drawn even when unused below, so the generator
  // stream does not depend on which branch runs.
  const double theta = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double phi = rng.uniform(0.0, std::numbers::pi);
  const double r = drive + bump;
  const double noise = params_.noise_g;
  if (r == 0.0) {
    // Idle tool, no bump — most samples of a session. Every tilt product
    // is then ±0, and ±0 + n == n for each noise draw n (normal() never
    // returns -0: its 0.0 + -0.0 rounds to +0.0), while 1.0 + ±0 == 1.0.
    // Skipping the four sin/cos evaluations is therefore bit-exact.
    last_.x = rng.normal(0.0, noise);
    last_.y = rng.normal(0.0, noise);
    last_.z = 1.0 + rng.normal(0.0, noise);
  } else {
    last_.x = r * std::sin(phi) * std::cos(theta) + rng.normal(0.0, noise);
    last_.y = r * std::sin(phi) * std::sin(theta) + rng.normal(0.0, noise);
    last_.z = 1.0 + r * std::cos(phi) + rng.normal(0.0, noise);
  }
  // The firmware's excitation metric: deviation of |a| from 1 g.
  return std::abs(last_.magnitude() - 1.0);
}

void AccelerometerModel::sample_block(sim::TimePoint first,
                                      sim::Duration step,
                                      const double* activations,
                                      std::size_t count, double intensity,
                                      util::Rng& rng, double* out) {
  // Qualified call = devirtualized; one dispatch per window, not per sample.
  sim::TimePoint at = first;
  for (std::size_t i = 0; i < count; ++i, at = at + step) {
    out[i] = AccelerometerModel::sample(at, activations[i], intensity, rng);
  }
}

double PressureModel::sample(sim::TimePoint /*t*/, double activation,
                             double intensity, util::Rng& rng) {
  double value = activation * intensity * params_.usage_scale +
                 std::abs(rng.normal(0.0, params_.noise));
  if (activation <= 0.0 && rng.bernoulli(params_.bump_probability)) {
    value += params_.bump_magnitude * rng.uniform(0.5, 1.0);
  }
  return std::max(0.0, value);
}

void PressureModel::sample_block(sim::TimePoint first, sim::Duration step,
                                 const double* activations,
                                 std::size_t count, double intensity,
                                 util::Rng& rng, double* out) {
  sim::TimePoint at = first;
  for (std::size_t i = 0; i < count; ++i, at = at + step) {
    out[i] = PressureModel::sample(at, activations[i], intensity, rng);
  }
}

double MotionModel::sample(sim::TimePoint /*t*/, double activation,
                           double intensity, util::Rng& rng) {
  const double p = activation > 0.0
                       ? std::clamp(params_.detect_probability * activation *
                                        intensity,
                                    0.0, 1.0)
                       : params_.false_positive;
  return rng.bernoulli(p) ? 1.0 : 0.0;
}

double BrightnessModel::sample(sim::TimePoint t, double activation,
                               double intensity, util::Rng& rng) {
  const double drift =
      params_.drift_amplitude *
      std::sin(2.0 * std::numbers::pi * t.to_seconds() /
               params_.drift_period_s);
  const double level = params_.ambient + drift +
                       activation * intensity * params_.usage_delta +
                       rng.normal(0.0, params_.noise);
  // Excitation = deviation from the (known) ambient set point.
  return std::abs(level - params_.ambient);
}

double TemperatureModel::sample(sim::TimePoint /*t*/, double activation,
                                double intensity, util::Rng& rng) {
  const double target = activation * intensity * params_.usage_scale;
  state_ += params_.lag_per_sample * (target - state_);
  return std::max(0.0, state_ + rng.normal(0.0, params_.noise));
}

std::unique_ptr<SensorModel> make_sensor_model(adl::SensorKind kind) {
  using enum adl::SensorKind;
  switch (kind) {
    case kAccelerometer:
      return std::make_unique<AccelerometerModel>();
    case kPressure:
      return std::make_unique<PressureModel>();
    case kMotion:
      return std::make_unique<MotionModel>();
    case kBrightness:
      return std::make_unique<BrightnessModel>();
    case kTemperature:
      return std::make_unique<TemperatureModel>();
  }
  return std::make_unique<AccelerometerModel>();
}

}  // namespace coreda::sensors
