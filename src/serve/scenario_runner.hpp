#pragma once

#include <cstdint>

#include "core/home.hpp"
#include "serve/home_pool.hpp"
#include "sim/scenario_dsl.hpp"

namespace coreda::serve {

/// Compiles a scenario plan's part list into the SessionScript every served
/// session plays through (1:1 part mapping; the plan's hint becomes the
/// script hint). Pure data transformation — ADL names are validated later
/// by run_script against the live library.
core::SessionScript compile_script(const sim::ScenarioPlan& plan);

/// Aggregate outcome of one scenario run, summed over every session of
/// every round. All fields are exact integers (plus one order-independent
/// digest), so the regression corpus can gate them with equality.
struct ScenarioSummary {
  std::uint64_t sessions = 0;
  std::uint64_t completed_sessions = 0;
  std::uint64_t segments = 0;
  std::uint64_t segments_completed = 0;
  std::uint64_t prompts = 0;
  std::uint64_t praises = 0;
  std::uint64_t wrong_tool_recoveries = 0;
  std::uint64_t segment_switches = 0;
  std::uint64_t idle_episodes = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_swaps = 0;
  std::uint64_t rejected_bundles = 0;
  /// Wrapping sum of per-session digests (user, round, and every counter
  /// above plus elapsed time mixed through SplitMix64) — order-independent,
  /// so identical at any --jobs, yet sensitive to any behavioural change in
  /// any session.
  std::uint64_t checksum = 0;

  double completion_rate() const noexcept {
    return sessions == 0
               ? 0.0
               : static_cast<double>(completed_sessions) /
                     static_cast<double>(sessions);
  }
  double prompts_per_session() const noexcept {
    return sessions == 0 ? 0.0
                         : static_cast<double>(prompts) /
                               static_cast<double>(sessions);
  }
};

/// Executes a scenario plan against a HomePool: `plan.users` users play the
/// compiled script for `plan.rounds` rounds, with per-round severity drift,
/// compliance decay, and the plan's arrival pattern. Policies persist
/// across rounds in the pool's per-user bundle records, so round r+1 serves
/// the policies round r staged — drift meets adaptation, as in the paper's
/// multi-week deployments.
///
/// Determinism: one exec trial per pool slot; slot s serves exactly the
/// users with u % slots == s in (round, arrival-order) order, and every
/// source of variation — per-user severity offset, per-session actor
/// randomness — derives from plan.seed. run(plan, 1) and run(plan, 8)
/// return identical summaries, bit for bit.
class ScenarioRunner {
 public:
  /// Every pool built by run() uses `params`, except that the plan
  /// supplies the seed (HomePoolParams::seed is ignored). Users shard to
  /// slot = user % params.slots; one exec trial per slot keeps any --jobs
  /// byte-identical.
  explicit ScenarioRunner(HomePoolParams params = {});

  ScenarioSummary run(const sim::ScenarioPlan& plan,
                      std::size_t jobs = 1) const;

 private:
  HomePoolParams params_;
};

/// The per-scenario metric block printed by bench_scenario_corpus, `coreda
/// scenario run`, and golden-compared by the corpus regression test. Exact
/// integers plus hexfloat derived rates (every bit gates) and the hex
/// checksum — byte-identical at any --jobs by the runner's contract.
std::string format_scenario_report(std::string_view name,
                                   const sim::ScenarioPlan& plan,
                                   const ScenarioSummary& sum);

}  // namespace coreda::serve
