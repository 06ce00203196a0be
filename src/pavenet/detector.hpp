#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace coreda::pavenet {

/// The paper's k-of-n usage vote: a sample "hits" when its excitation
/// surpasses the threshold, and the tool is considered in use when at least
/// `vote_threshold` of the last `vote_window` samples hit.
///
/// The window is evaluated per full batch (the firmware buffers one second
/// of samples at 10 Hz, then votes), matching "if three of these 10 samples
/// surpass a pre-defined threshold".
class ThresholdDetector {
 public:
  /// Throws std::invalid_argument when window is 0 or votes > window.
  ThresholdDetector(double excitation_threshold, std::uint32_t vote_window,
                    std::uint32_t vote_threshold);

  /// Feeds one sample's threshold decision (excitation > threshold()).
  /// Returns true when this sample completed a window whose vote passed
  /// (i.e. "tool is in use" was decided now). Inline: the firmware path
  /// calls this once per synthesized sample.
  bool add_hit(bool hit) noexcept {
    if (hit) ++hits_;
    ++filled_;
    if (filled_ < window_) return false;
    const bool in_use = hits_ >= votes_;
    filled_ = 0;
    hits_ = 0;
    return in_use;
  }

  /// Feeds one excitation sample; see add_hit().
  bool add_sample(double excitation) noexcept {
    return add_hit(excitation > threshold_);
  }

  /// Hits in the current (incomplete) window.
  std::uint32_t pending_hits() const noexcept { return hits_; }
  std::uint32_t samples_in_window() const noexcept { return filled_; }

  double threshold() const noexcept { return threshold_; }
  std::uint32_t window() const noexcept { return window_; }
  std::uint32_t votes_needed() const noexcept { return votes_; }

  /// Discards the current partial window.
  void reset() noexcept;

 private:
  double threshold_;
  std::uint32_t window_;
  std::uint32_t votes_;
  std::uint32_t filled_ = 0;
  std::uint32_t hits_ = 0;
};

}  // namespace coreda::pavenet
