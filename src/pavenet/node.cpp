#include "pavenet/node.hpp"

#include <algorithm>

namespace coreda::pavenet {

namespace {

ThresholdDetector make_detector(const adl::Tool& tool,
                                const sensors::SensorModel& model,
                                const FirmwareConfig& config) {
  const double threshold = config.excitation_threshold > 0.0
                               ? config.excitation_threshold
                               : model.recommended_threshold();
  (void)tool;
  return ThresholdDetector(threshold, config.vote_window,
                           config.vote_threshold);
}

}  // namespace

PavenetNode::PavenetNode(const adl::Tool& tool, sim::Scheduler& scheduler,
                         sensors::ManipulationWorld& world,
                         RadioChannel& channel, util::Rng rng,
                         FirmwareConfig config)
    : tool_(tool),
      scheduler_(&scheduler),
      world_(&world),
      channel_(&channel),
      rng_(rng),
      config_(config),
      sensor_(sensors::make_sensor_model(tool.sensor)),
      detector_(make_detector(tool, *sensor_, config)),
      led_(scheduler),
      eeprom_(kPavenetHardware.eeprom_bytes) {
  channel_->attach_receiver(
      uid(), [this](const Packet& p) { handle_downlink(p); });
}

void PavenetNode::power_on() {
  if (powered_) return;
  powered_ = true;
  const sim::Duration period = sample_period();
  if (config_.batch_sampling) {
    // Wake once per full vote window; the detector tumbles, so the only
    // instants firmware-visible behavior can change are window boundaries —
    // exactly the wake times. Samples inside the window are synthesized
    // retroactively at their true tick times from the world's history.
    next_sample_time_ = scheduler_->now() + period;
    const sim::Duration batch = sim::Duration::micros(
        period.total_micros() * static_cast<std::int64_t>(config_.vote_window));
    tick_ = scheduler_->schedule_periodic(batch, [this] { firmware_batch(); });
  } else {
    tick_ = scheduler_->schedule_periodic(period, [this] { firmware_tick(); });
  }
}

void PavenetNode::power_off() {
  if (!powered_) return;
  powered_ = false;
  tick_.cancel();
  if (config_.batch_sampling) {
    // Take the partial window the cancelled wake-up would have covered, so
    // samples() and energy accounting match the per-tick loop exactly.
    synthesize_until(scheduler_->now());
  }
  detector_.reset();
}

void PavenetNode::firmware_tick() {
  const sim::TimePoint now = scheduler_->now();
  process_sample(now, world_->activation(tool_.id, now));
}

void PavenetNode::firmware_batch() { synthesize_until(scheduler_->now()); }

void PavenetNode::synthesize_until(sim::TimePoint limit) {
  if (next_sample_time_ > limit) return;
  const sim::Duration period = sample_period();
  std::size_t left =
      static_cast<std::size_t>((limit - next_sample_time_).total_micros() /
                               period.total_micros()) +
      1;
  // Stack scratch, so a node owns no heap buffer; a window fits in one
  // chunk unless vote_window exceeds kChunk. One virtual dispatch per
  // chunk, and only the decisions the detector reads: hit_block draws
  // exactly what sample() would, in chunks or not.
  constexpr std::size_t kChunk = 32;
  double activations[kChunk] = {};
  std::uint8_t hits[kChunk] = {};
  sim::TimePoint at = next_sample_time_;
  while (left > 0) {
    const std::size_t count = std::min(left, kChunk);
    world_->activation_block(tool_.id, at, period, count, activations);
    sensor_->hit_block(at, period, activations, count, tool_.usage_intensity,
                       detector_.threshold(), rng_, hits);
    for (std::size_t i = 0; i < count; ++i, at = at + period) {
      ++samples_;
      process_hit(at, hits[i] != 0);
    }
    left -= count;
  }
  next_sample_time_ = at;
}

void PavenetNode::process_sample(sim::TimePoint at, double activation) {
  ++samples_;
  process_hit(at, sensor_->sample(at, activation, tool_.usage_intensity,
                                  rng_) > detector_.threshold());
}

void PavenetNode::process_hit(sim::TimePoint at, bool hit) {
  const std::uint32_t hits_before = detector_.pending_hits();
  if (!detector_.add_hit(hit)) return;

  // A window voted "in use". In batch mode this can only happen on the last
  // sample of a wake-up, i.e. `at` == the current scheduler time.
  eeprom_.append(EepromRecord{
      at, uid(), static_cast<std::uint8_t>(hits_before + (hit ? 1 : 0))});

  if (announced_once_ && at - last_announce_ < config_.reannounce_interval) {
    return;
  }
  announced_once_ = true;
  last_announce_ = at;
  ++announcements_;

  Packet packet;
  packet.kind = Packet::Kind::kToolUsage;
  packet.source_uid = uid();
  packet.dest_uid = 0;  // base station
  packet.vote_hits = eeprom_.last()->hits;
  channel_->transmit(packet);
}

void PavenetNode::handle_downlink(const Packet& packet) {
  if (packet.kind != Packet::Kind::kLedCommand) return;
  if (packet.blink_count == 0) {
    led_.all_off();
    return;
  }
  led_.blink(packet.led_color, packet.blink_count);
}

}  // namespace coreda::pavenet
