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
  return excitation(last_);
}

namespace {

// The one slack of the tilted-sample decision, in |a|: every rounding and
// approximation error behind it stays below half of this (DESIGN.md).
constexpr double kTiltSlack = 1e-9;
// Above this |r| + ρ + |nz| the error budget is not proven; such samples
// take the exact path.
constexpr double kTiltScaleMax = 64.0;

// (−1)^k/(2k + offset)!, k = 0..8: Taylor coefficients of sin (offset 1)
// and cos (offset 0). Each factorial, at most 17!, is exact in a double.
constexpr std::array<double, 9> taylor_coefficients(int offset) {
  std::array<double, 9> c{};
  for (int k = 0; k < 9; ++k) {
    double factorial = 1.0;
    for (int m = 2; m <= 2 * k + offset; ++m) factorial *= m;
    c[k] = (k % 2 == 0 ? 1.0 : -1.0) / factorial;
  }
  return c;
}
constexpr auto kSinTaylor = taylor_coefficients(1);
constexpr auto kCosTaylor = taylor_coefficients(0);

struct CosSin {
  double c;
  double s;
};

// cos φ and sin φ for φ ∈ [0, π] as −sin x and cos x, x = φ − π/2, from
// the Taylor series to x¹⁷ and x¹⁶. On |x| ≤ π/2 both series alternate
// with falling terms, so truncation is below the first dropped term,
// (π/2)¹⁹/19! < 5e-14 and (π/2)¹⁸/18! < 6e-13; with rounding, each result
// is within 1e-12 of the true value.
CosSin cos_sin(double phi) noexcept {
  const double x = phi - std::numbers::pi / 2.0;
  const double y = x * x;
  const double y2 = y * y;
  const double y4 = y2 * y2;
  // Estrin's scheme in y = x²: a short dependency chain.
  const auto series = [&](const std::array<double, 9>& c) {
    return ((c[0] + c[1] * y) + (c[2] + c[3] * y) * y2) +
           ((c[4] + c[5] * y) + (c[6] + c[7] * y) * y2) * y4 +
           c[8] * (y4 * y4);
  };
  return {-series(kSinTaylor) * x, series(kCosTaylor)};
}

}  // namespace

double AccelerometerModel::excitation(const Vec3& a) noexcept {
  // The firmware's excitation metric: deviation of |a| from 1 g.
  return std::abs(a.magnitude() - 1.0);
}

void AccelerometerModel::set_threshold(double threshold) noexcept {
  threshold_ = threshold;
  // Quiet idle samples. With every axis's noise |n| <= e, |a| lies in
  // [1 - e, √(2e² + (1+e)²)], so the excitation is at most `bound`, which
  // is below 0.87·threshold for every threshold > 0. The 1e-9 gap dwarfs
  // the few-ulp rounding in the noise values, |a| and the bound, so the
  // decision holds bit for bit.
  const double e = threshold / 2.0;
  const double bound =
      std::max(e, std::sqrt(2.0 * e * e + (1.0 + e) * (1.0 + e)) - 1.0);
  // A pair's halves are |σ·u·f| <= |σ|·√(−2 ln s) since |u|, |v| <= √s,
  // so s >= exp(−(e/σ)²/2) bounds both by e. Disabled: no s passes.
  const double ratio = e / params_.noise_g;
  quiet_s_min_ = std::isfinite(threshold) && threshold - bound > 1e-9
                     ? std::exp(-0.5 * ratio * ratio)
                     : std::numeric_limits<double>::infinity();
  // Tilted samples: hit above 1 + t or below 1 − t, miss between them,
  // each edge moved outward by the slack. With t >= 1 no reading is low
  // enough to hit (the computed 1 − |a| is at most 1). Disabled: no
  // decision, for a non-finite, non-positive or huge t (the slack must
  // also dwarf t's own rounding, t·2⁻⁵³).
  constexpr double kNever = -1.0;
  band_ = {std::numeric_limits<double>::infinity(), kNever, 0.0, kNever};
  if (threshold > 0.0 && threshold < 1e6) {
    const double up = 1.0 + threshold;
    const double down = 1.0 - threshold;
    band_.above_hit = (up + kTiltSlack) * (up + kTiltSlack);
    band_.inside_hi = (up - kTiltSlack) * (up - kTiltSlack);
    band_.below_hit = down - kTiltSlack > 0.0
                          ? (down - kTiltSlack) * (down - kTiltSlack)
                          : kNever;
    band_.inside_lo =
        threshold >= 1.0 ? kNever : (down + kTiltSlack) * (down + kTiltSlack);
  }
}

bool AccelerometerModel::decide_tilted(const Tilt& tilt, double nx, double ny,
                                       double nz, bool& hit) const noexcept {
  // a = (r·sinφ·cosθ + nx, r·sinφ·sinθ + ny, 1 + r·cosφ + nz). Its xy part
  // is a vector of length |r|·sinφ at angle θ plus (nx, ny), so its length
  // lies in [| |r|·sinφ − ρ |, |r|·sinφ + ρ] with ρ = √(nx² + ny²),
  // whatever θ is; z does not involve θ.
  const double rho = std::sqrt(nx * nx + ny * ny);
  const double r = std::abs(tilt.r);
  if (!(r + rho + std::abs(nz) <= kTiltScaleMax)) return false;
  const CosSin phi = cos_sin(tilt.phi);
  const double z = 1.0 + nz + tilt.r * phi.c;
  const double xy_lo = r * phi.s - rho;
  const double xy_hi = r * phi.s + rho;
  const double lo2 = z * z + xy_lo * xy_lo;
  const double hi2 = z * z + xy_hi * xy_hi;
  // Branch-free: which side a sample falls on is a coin flip, while
  // whether it is decided at all is nearly always yes.
  hit = (lo2 > band_.above_hit) | (hi2 < band_.below_hit);
  return hit | ((lo2 > band_.inside_lo) & (hi2 < band_.inside_hi));
}

void AccelerometerModel::hit_block(sim::TimePoint /*first*/,
                                   sim::Duration /*step*/,
                                   const double* activations,
                                   std::size_t count, double intensity,
                                   double threshold, util::Rng& rng,
                                   std::uint8_t* hits) {
  if (!(threshold == threshold_)) set_threshold(threshold);
  const double s_min = quiet_s_min_;
  const double noise = params_.noise_g;
  // The v-half of the last polar pair while it is still unconsumed. A v·f
  // the generator had cached is adopted already scaled (f = 1), with s = 0
  // so it never passes the quiet bound.
  util::Rng::LazyNormal pending{};
  bool has_pending = rng.has_cached_normal();
  if (has_pending) pending = {rng.take_cached_normal(), 0.0, 1.0, true};
  Tilt tilt{};
  std::array<util::Rng::LazyNormal, 3> n{};
  for (std::size_t i = 0; i < count; ++i) {
    tilt = draw_tilt(activations[i], intensity, rng);
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
    if (tilt.r == 0.0 && n[0].s > s_min && n[1].s > s_min &&
        n[2].s > s_min) {
      // Idle, no bump, every axis's noise within e: below the threshold.
      hits[i] = 0;
      continue;
    }
    // The noise, one factor per pair: x and y share a pair, then z and
    // the pending v-half; or the pending x, then y and z.
    if (has_pending) {
      n[0].f = n[1].f = util::Rng::polar_factor(n[0].s);
      n[2].f = pending.f = util::Rng::polar_factor(n[2].s);
    } else {
      if (n[0].f == 0.0) n[0].f = util::Rng::polar_factor(n[0].s);
      n[1].f = n[2].f = util::Rng::polar_factor(n[1].s);
    }
    const double nx = n[0].normal(noise);
    const double ny = n[1].normal(noise);
    const double nz = n[2].normal(noise);
    bool hit = false;
    if (tilt.r != 0.0 && decide_tilted(tilt, nx, ny, nz, hit)) {
      hits[i] = hit;
      continue;
    }
    hits[i] = excitation(reading(tilt, nx, ny, nz)) > threshold;
  }
  if (count > 0) {
    last_lazy_ = true;
    lazy_tilt_ = tilt;
    lazy_ = n;
  }
  if (has_pending) rng.cache_normal(pending.w * pending.factor());
}

Vec3 AccelerometerModel::last_reading() const noexcept {
  if (!last_lazy_) return last_;
  const double noise = params_.noise_g;
  return reading(lazy_tilt_, lazy_[0].normal(noise), lazy_[1].normal(noise),
                 lazy_[2].normal(noise));
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

void PressureModel::set_threshold(double threshold) noexcept {
  threshold_ = threshold;
  const double noise = params_.noise;
  const bool finite_noise = std::isfinite(noise);
  // A bump-free value is drive + |n| rounded, never below drive for a
  // finite |n| >= 0 (rounding is monotone), and max(0, ·) only raises it:
  // drive > t is a hit. A non-finite σ can make |n| NaN.
  hit_drive_min_ =
      finite_noise ? threshold : std::numeric_limits<double>::quiet_NaN();
  // A half |σ·w·f| <= |σ|·√(−2 ln s) <= e = 7t/8 when s >= exp(−(e/σ)²/2);
  // with drive <= t/16 the value stays below 15t/16 plus rounding: a miss.
  // The t/16 margin absorbs the rounding of the bound, the noise and the
  // sum, given e/σ > 1e-3 (below that, hardly any pair passes anyway).
  const double ratio = 0.875 * threshold / noise;
  const bool quiet = finite_noise && std::isfinite(threshold) &&
                     threshold > 0.0 && std::abs(ratio) > 1e-3;
  quiet_s_min_ = quiet ? std::exp(-0.5 * ratio * ratio)
                       : std::numeric_limits<double>::infinity();
  quiet_drive_max_ =
      quiet ? threshold / 16.0 : -std::numeric_limits<double>::infinity();
}

void PressureModel::hit_block(sim::TimePoint /*first*/, sim::Duration /*step*/,
                              const double* activations, std::size_t count,
                              double intensity, double threshold,
                              util::Rng& rng, std::uint8_t* hits) {
  if (!(threshold == threshold_)) set_threshold(threshold);
  const double noise = params_.noise;
  // One normal per sample: the u-half of a fresh pair, then its v-half
  // (pending), which a v·f cached at entry stands in for as in the
  // accelerometer kernel.
  util::Rng::LazyNormal pending{};
  bool has_pending = rng.has_cached_normal();
  if (has_pending) pending = {rng.take_cached_normal(), 0.0, 1.0, true};
  for (std::size_t i = 0; i < count; ++i) {
    const double activation = activations[i];
    const double drive = activation * intensity * params_.usage_scale;
    util::Rng::LazyNormal n = pending;
    if (!has_pending) {
      const util::Rng::Polar p = rng.polar();
      n = {p.u, p.s, 0.0, false};
      pending = {p.v, p.s, 0.0, true};
    }
    has_pending = !has_pending;
    const bool bump =
        activation <= 0.0 && rng.bernoulli(params_.bump_probability);
    if (!bump) {
      if (drive > hit_drive_min_) {
        hits[i] = 1;
        continue;
      }
      if (drive <= quiet_drive_max_ && n.s > quiet_s_min_) {
        hits[i] = 0;
        continue;
      }
    }
    // Exact path, sample()'s arithmetic; a u-half's factor is its
    // pending v-half's too.
    if (n.f == 0.0) {
      n.f = util::Rng::polar_factor(n.s);
      if (has_pending) pending.f = n.f;
    }
    double value = drive + std::abs(n.normal(noise));
    if (bump) value += params_.bump_magnitude * rng.uniform(0.5, 1.0);
    hits[i] = std::max(0.0, value) > threshold;
  }
  if (has_pending) rng.cache_normal(pending.w * pending.factor());
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
