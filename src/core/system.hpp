#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "patient/actor.hpp"
#include "patient/profile.hpp"
#include "pavenet/base_station.hpp"
#include "pavenet/node.hpp"
#include "planning/learner.hpp"
#include "reminding/reminder.hpp"
#include "reminding/trigger.hpp"
#include "sensors/world.hpp"
#include "sim/scheduler.hpp"
#include "trace/episode.hpp"

namespace coreda::core {

/// Everything that parameterizes a CoReDA deployment.
struct SystemConfig {
  std::string user_name = "Tanaka";
  std::uint64_t seed = 42;
  pavenet::FirmwareConfig firmware{};
  pavenet::RadioChannel::Params radio{};
  pavenet::BaseStation::Params station{};
  planning::LearnerConfig learner{};
  reminding::TriggerMonitor::Params trigger{};
  reminding::RemindingSubsystem::Params reminding{};
  /// When true, every completed closed-loop session is fed back into the
  /// learner so the policy keeps tracking the user (the always-learning
  /// mode §3.2 mentions and rejects for worsening dementia; off by
  /// default, like the paper).
  bool learn_from_sessions = false;
  /// When a prompt goes unanswered and the trigger fires again, escalate
  /// the re-prompt to the specific level (long personalized message, more
  /// blinks). The converged policy prefers minimal prompts — the paper's
  /// "exercise their brains" principle — but a user who did not react to a
  /// minimal prompt needs the stronger one.
  bool escalate_reprompts = true;
};

/// Provisioning bound on recorded steps per session: run_session_inplace
/// pre-sizes SessionResult::observed_steps to this capacity so a warm
/// session records allocation-free, and the serving tier's per-user
/// transcript rings size their fixed slots to the same bound — a transcript
/// that fits a session result always fits its ring slot.
inline constexpr std::size_t kMaxSessionSteps = 256;

/// Outcome of one closed-loop session (one attempt at one ADL).
struct SessionResult {
  bool completed = false;
  sim::Duration elapsed;
  std::size_t steps_completed = 0;
  std::size_t prompts_total = 0;
  std::size_t prompts_idle = 0;
  std::size_t prompts_wrong_tool = 0;
  std::size_t prompts_minimal = 0;
  std::size_t prompts_specific = 0;
  std::size_t praises = 0;
  std::vector<adl::StepId> observed_steps;
};

/// The full CoReDA loop of Figure 2: sensing subsystem (PAVENET nodes ->
/// radio -> base station), planning subsystem (TD(λ) Q-Learning), and
/// reminding subsystem (display + LEDs), wired on one discrete-event
/// scheduler, closed by a simulated patient.
///
/// The system is a *serving engine*: one construction serves any number of
/// back-to-back sessions. run_session resets component state (station
/// episode table, reminder log, trigger, actor) instead of rebuilding the
/// stack, and run_session_inplace reuses a caller-owned SessionResult so a
/// warm system serves a whole session without allocating.
class CoredaSystem {
 public:
  /// Deploys nodes on every tool of `adl`. `library` and `adl` must outlive
  /// the system.
  CoredaSystem(const adl::AdlLibrary& library, const adl::Adl& adl,
               SystemConfig config = SystemConfig());

  /// Offline training from recorded StepId sequences (the 120-sample
  /// training phase of §3.2).
  void pretrain(std::span<const std::vector<adl::StepId>> episodes);

  /// Adopts a pre-trained policy (Q-table) wholesale — the serving-side
  /// half of a train-once / deploy-many split: train one learner offline,
  /// then stamp its table into every serving system.
  void import_policy(const rl::QTable& q);

  /// Runs one closed-loop session with a patient of the given profile:
  /// the patient attempts the ADL's primary routine; CoReDA watches,
  /// prompts on the two trigger situations, and praises correct steps.
  SessionResult run_session(const patient::PatientProfile& profile,
                            sim::Duration max_duration);

  /// Like run_session(), but calls `setup` on the fresh actor before the
  /// session starts — the hook the deterministic scenario player uses to
  /// queue forced decisions (Figure 1 replay).
  SessionResult run_session(
      const patient::PatientProfile& profile, sim::Duration max_duration,
      const std::function<void(patient::PatientActor&)>& setup);

  /// The allocation-free serving entry point: like run_session(), but the
  /// outcome lands in the caller-owned `result`, whose buffers (notably
  /// observed_steps) are reused across calls. At steady state a session
  /// runs with zero heap allocations.
  void run_session_inplace(
      const patient::PatientProfile& profile, sim::Duration max_duration,
      const std::function<void(patient::PatientActor&)>& setup,
      SessionResult& result);

  /// The actor of the most recent session (constructed warm at startup;
  /// meaningful only after a session has run).
  const patient::PatientActor* last_actor() const noexcept {
    return actor_.get();
  }

  const planning::RoutineLearner& learner() const noexcept {
    return *learner_;
  }
  const reminding::RemindingSubsystem& reminder() const noexcept {
    return *reminder_;
  }
  const pavenet::RadioChannel& channel() const noexcept { return *channel_; }
  /// Mutable channel access for the fault-injection layer: the channel
  /// persists across reset-don't-rebuild sessions, so an armed burst chain
  /// keeps its state for the slot's whole lifetime.
  pavenet::RadioChannel& channel_mut() noexcept { return *channel_; }
  const pavenet::BaseStation& station() const noexcept { return *station_; }
  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  const adl::Adl& adl() const noexcept { return *adl_; }
  const SystemConfig& config() const noexcept { return config_; }

  /// The node attached to `tool`; throws std::out_of_range when absent.
  const pavenet::PavenetNode& node(adl::ToolId tool) const;
  /// Sensor samples all nodes have taken since construction (monotonic
  /// across sessions; an exact work counter).
  std::uint64_t samples_taken() const noexcept;

 private:
  void on_usage(adl::ToolId tool, sim::TimePoint at);
  void on_trigger(reminding::Trigger trigger, adl::ToolId observed);
  void issue_prompt(reminding::Trigger trigger,
                    std::optional<adl::ToolId> wrong_tool);
  void arm_for_next();

  const adl::AdlLibrary* library_;
  const adl::Adl* adl_;
  SystemConfig config_;
  util::Rng rng_;

  sim::Scheduler scheduler_;
  sensors::ManipulationWorld world_;
  std::unique_ptr<pavenet::RadioChannel> channel_;
  std::unique_ptr<pavenet::BaseStation> station_;
  std::vector<std::unique_ptr<pavenet::PavenetNode>> nodes_;
  std::unique_ptr<planning::RoutineLearner> learner_;
  std::unique_ptr<reminding::RemindingSubsystem> reminder_;
  std::unique_ptr<reminding::TriggerMonitor> trigger_;
  std::unique_ptr<patient::PatientActor> actor_;

  // Per-session state.
  adl::StepId prev_ = adl::kIdleStep;
  adl::StepId cur_ = adl::kIdleStep;
  bool session_active_ = false;
  bool prompt_outstanding_ = false;
  SessionResult* result_ = nullptr;
  /// Reused by the by-value run_session overloads so their sessions also
  /// run against warm buffers (the return itself still copies).
  SessionResult scratch_result_;
};

}  // namespace coreda::core
