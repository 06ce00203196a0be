#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace coreda::util {

/// SplitMix64 increment: the 64-bit golden ratio.
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 output for state `x`: advance by kSplitMixGamma, then the
/// avalanche finalizer. The one mixer behind Rng seeding, exec::trial_seed,
/// fault decision streams, scenario digests and the fleet user-index probe.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every stochastic component in CoReDA draws from an explicitly seeded Rng
/// so that experiments are reproducible bit-for-bit. The generator satisfies
/// the C++ UniformRandomBitGenerator concept and additionally offers the
/// distribution helpers the simulators need (uniform, normal, bernoulli,
/// exponential, pick).
///
/// The draw methods on the closed-loop serving hot path (raw output,
/// uniform, bernoulli, normal) are defined inline: the sensor synthesis
/// stack calls them tens of millions of times per simulated fleet session
/// and the cross-TU call overhead dominates otherwise.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from a single seed via SplitMix64 (lane i
  /// = mix64(seed + i·kSplitMixGamma)).
  explicit Rng(std::uint64_t seed = kSplitMixGamma) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Normal deviate with the given mean and standard deviation.
  ///
  /// Marsaglia polar method: one polar() pair yields two deviates. The
  /// u-half is returned as mean + (stddev·u)·f and the v-half's unit value
  /// v·f is cached for the next call, which returns mean + stddev·(v·f).
  double normal(double mean, double stddev) noexcept {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return mean + stddev * cached_normal_;
    }
    const Polar p = polar();
    const double factor = polar_factor(p.s);
    cached_normal_ = p.v * factor;
    has_cached_normal_ = true;
    return mean + stddev * p.u * factor;
  }

  /// A point drawn uniformly from the open unit disc minus the origin, and
  /// its squared radius s = u² + v² ∈ (0, 1).
  struct Polar {
    double u;
    double v;
    double s;
  };

  /// The uniform draws of one normal() pair, without its log/sqrt.
  Polar polar() noexcept {
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    return {u, v, s};
  }

  /// The factor f = √(−2 ln s / s) that turns a polar() pair into two unit
  /// normals u·f and v·f. Positive for every s polar() returns.
  static double polar_factor(double s) noexcept {
    return std::sqrt(-2.0 * std::log(s) / s);
  }

  /// The v-half unit value v·f the next normal() call returns (scaled),
  /// if one is cached. Code that draws polar() pairs itself takes the
  /// cache over with take_cached_normal() and hands its own unconsumed
  /// v-half back with cache_normal(), keeping the stream normal() sees.
  bool has_cached_normal() const noexcept { return has_cached_normal_; }
  double take_cached_normal() noexcept {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  void cache_normal(double unit) noexcept {
    cached_normal_ = unit;
    has_cached_normal_ = true;
  }

  /// Exponential deviate with the given mean (mean = 1 / rate).
  double exponential(double mean) noexcept;

  /// Uniformly picks an index in [0, size). Requires size > 0.
  std::size_t pick_index(std::size_t size) noexcept;

  /// Picks an index with probability proportional to weights[i].
  /// Requires a non-empty weight vector with a positive sum.
  std::size_t pick_weighted(const std::vector<double>& weights) noexcept;

  /// Derives an independent child generator (for per-component streams).
  Rng fork() noexcept;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace coreda::util
