#include "sensors/models.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace coreda::sensors {

double Vec3::magnitude() const noexcept {
  return std::sqrt(x * x + y * y + z * z);
}

void SensorModel::hit_block(sim::TimePoint first, sim::Duration step,
                            const double* activations, std::size_t count,
                            double intensity, double threshold, util::Rng& rng,
                            std::uint8_t* hits) {
  sim::TimePoint at = first;
  for (std::size_t i = 0; i < count; ++i, at = at + step) {
    hits[i] = sample(at, activations[i], intensity, rng) > threshold;
  }
}

AccelerometerModel::Tilt AccelerometerModel::draw_tilt(double activation,
                                                       double intensity,
                                                       util::Rng& rng) const {
  // Gravity on z at rest; manipulation tilts and shakes the node so the
  // deviation is split across axes with random direction.
  const double drive = activation * intensity * params_.usage_scale_g;
  double bump = 0.0;
  if (activation <= 0.0 && rng.bernoulli(params_.bump_probability)) {
    bump = params_.bump_magnitude_g * rng.uniform(0.6, 1.0);
  }
  // The tilt angles are drawn even when unused, so the generator stream
  // does not depend on which branch runs.
  const double theta = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double phi = rng.uniform(0.0, std::numbers::pi);
  return {drive + bump, theta, phi};
}

Vec3 AccelerometerModel::reading(const Tilt& tilt, double nx, double ny,
                                 double nz) const {
  if (tilt.r == 0.0) {
    // Idle tool, no bump — most samples of a session. Every tilt product
    // is then ±0, and ±0 + n == n for each noise draw n (normal() never
    // returns -0: its 0.0 + -0.0 rounds to +0.0), while 1.0 + ±0 == 1.0.
    // Skipping the four sin/cos evaluations is therefore bit-exact.
    return {nx, ny, 1.0 + nz};
  }
  const double r = tilt.r;
  return {r * std::sin(tilt.phi) * std::cos(tilt.theta) + nx,
          r * std::sin(tilt.phi) * std::sin(tilt.theta) + ny,
          1.0 + r * std::cos(tilt.phi) + nz};
}

double AccelerometerModel::sample(sim::TimePoint /*t*/, double activation,
                                  double intensity, util::Rng& rng) {
  const Tilt tilt = draw_tilt(activation, intensity, rng);
  const double noise = params_.noise_g;
  const double nx = rng.normal(0.0, noise);
  const double ny = rng.normal(0.0, noise);
  const double nz = rng.normal(0.0, noise);
  last_ = reading(tilt, nx, ny, nz);
  last_lazy_ = false;
  // The firmware's excitation metric: deviation of |a| from 1 g.
  return std::abs(last_.magnitude() - 1.0);
}

double AccelerometerModel::noise_value(const LazyNormal& n) const noexcept {
  const double f = n.factor();
  const double noise = params_.noise_g;
  // Rng::normal(0, σ)'s rounding order for each half of a pair.
  return n.v_half ? 0.0 + noise * (n.w * f) : 0.0 + noise * n.w * f;
}

void AccelerometerModel::set_quiet_threshold(double threshold) noexcept {
  quiet_threshold_ = threshold;
  // With every axis's noise |n| <= e, |a| lies in [1 - e, √(2e² + (1+e)²)],
  // so the excitation is at most `bound`, which is below 0.87·threshold
  // for every threshold > 0. The 1e-9 gap dwarfs the few-ulp rounding in
  // the noise values, |a| and the bound, so the decision holds bit for bit.
  const double e = threshold / 2.0;
  const double bound =
      std::max(e, std::sqrt(2.0 * e * e + (1.0 + e) * (1.0 + e)) - 1.0);
  // A pair's halves are |σ·u·f| <= |σ|·√(−2 ln s) since |u|, |v| <= √s,
  // so s >= exp(−(e/σ)²/2) bounds both by e. Disabled: no s passes.
  const double ratio = e / params_.noise_g;
  quiet_s_min_ = std::isfinite(threshold) && threshold - bound > 1e-9
                     ? std::exp(-0.5 * ratio * ratio)
                     : std::numeric_limits<double>::infinity();
}

void AccelerometerModel::hit_block(sim::TimePoint /*first*/,
                                   sim::Duration /*step*/,
                                   const double* activations,
                                   std::size_t count, double intensity,
                                   double threshold, util::Rng& rng,
                                   std::uint8_t* hits) {
  if (!(threshold == quiet_threshold_)) set_quiet_threshold(threshold);
  const double s_min = quiet_s_min_;
  // The v-half of the last polar pair while it is still unconsumed. A v·f
  // the generator had cached is adopted already scaled (f = 1), with s = 0
  // so it never passes the quiet bound.
  LazyNormal pending{};
  bool has_pending = rng.has_cached_normal();
  if (has_pending) pending = {rng.take_cached_normal(), 0.0, 1.0, true};
  std::array<LazyNormal, 3> n{};
  bool quiet = false;
  for (std::size_t i = 0; i < count; ++i) {
    const Tilt tilt = draw_tilt(activations[i], intensity, rng);
    // The three normals in Rng::normal order; only the uniform draws run.
    if (has_pending) {
      const util::Rng::Polar p = rng.polar();
      n[0] = pending;
      n[1] = {p.u, p.s, 0.0, false};
      n[2] = {p.v, p.s, 0.0, true};
    } else {
      const util::Rng::Polar p = rng.polar();
      const util::Rng::Polar q = rng.polar();
      n[0] = {p.u, p.s, 0.0, false};
      n[1] = {p.v, p.s, 0.0, true};
      n[2] = {q.u, q.s, 0.0, false};
      pending = {q.v, q.s, 0.0, true};
    }
    has_pending = !has_pending;
    quiet = tilt.r == 0.0 && n[0].s > s_min && n[1].s > s_min &&
            n[2].s > s_min;
    if (quiet) {
      // Idle, no bump, every axis's noise within e: below the threshold.
      hits[i] = 0;
      continue;
    }
    // Exact path, one factor per pair: x and y share a pair, then z and
    // the pending v-half; or the pending x, then y and z.
    if (has_pending) {
      n[0].f = n[1].f = util::Rng::polar_factor(n[0].s);
      n[2].f = pending.f = util::Rng::polar_factor(n[2].s);
    } else {
      if (n[0].f == 0.0) n[0].f = util::Rng::polar_factor(n[0].s);
      n[1].f = n[2].f = util::Rng::polar_factor(n[1].s);
    }
    last_ = reading(tilt, noise_value(n[0]), noise_value(n[1]),
                    noise_value(n[2]));
    hits[i] = std::abs(last_.magnitude() - 1.0) > threshold;
  }
  if (count > 0) {
    last_lazy_ = quiet;
    if (quiet) lazy_ = n;
  }
  if (has_pending) rng.cache_normal(pending.w * pending.factor());
}

Vec3 AccelerometerModel::last_reading() const noexcept {
  if (!last_lazy_) return last_;
  return {noise_value(lazy_[0]), noise_value(lazy_[1]),
          1.0 + noise_value(lazy_[2])};
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

void PressureModel::hit_block(sim::TimePoint first, sim::Duration step,
                              const double* activations, std::size_t count,
                              double intensity, double threshold,
                              util::Rng& rng, std::uint8_t* hits) {
  // Qualified call = devirtualized; one dispatch per window, not per sample.
  sim::TimePoint at = first;
  for (std::size_t i = 0; i < count; ++i, at = at + step) {
    hits[i] =
        PressureModel::sample(at, activations[i], intensity, rng) > threshold;
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
