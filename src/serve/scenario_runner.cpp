#include "serve/scenario_runner.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/trial_runner.hpp"
#include "patient/profile.hpp"
#include "util/rng.hpp"

namespace coreda::serve {
namespace {

using util::mix64;

double unit_interval(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Users arriving in round `r`, in arrival order.
std::vector<UserId> arrivals_for_round(const sim::ScenarioPlan& plan,
                                       std::uint64_t r) {
  const auto users = static_cast<UserId>(plan.users);
  std::vector<UserId> out;
  if (plan.arrivals == "roundrobin") {
    const std::uint64_t active =
        plan.active == 0 ? plan.users : std::min(plan.active, plan.users);
    out.reserve(active);
    const std::uint64_t start = (r * active) % plan.users;
    for (std::uint64_t k = 0; k < active; ++k) {
      out.push_back(static_cast<UserId>((start + k) % plan.users));
    }
  } else {  // "all"
    out.reserve(users);
    for (UserId u = 0; u < users; ++u) out.push_back(u);
  }
  return out;
}

/// Profile of user `u` in round `r`: plan severity plus a deterministic
/// per-user offset in [-0.1, 0.1) and `r` rounds of drift, compliance
/// decayed multiplicatively per round.
patient::PatientProfile profile_for(const sim::ScenarioPlan& plan,
                                    const std::string& name, UserId u,
                                    std::uint64_t r) {
  const double offset =
      unit_interval(mix64(plan.seed ^ (0xC0FFEEULL + u))) * 0.2 - 0.1;
  const double severity =
      std::clamp(plan.severity + offset +
                     static_cast<double>(r) * plan.severity_drift,
                 0.0, 1.0);
  patient::PatientProfile profile =
      patient::PatientProfile::with_severity(name, severity);
  const double keep = 1.0 - plan.compliance_decay;
  for (std::uint64_t i = 0; i < r; ++i) {
    profile.comply_minimal *= keep;
    profile.comply_specific *= keep;
  }
  return profile;
}

struct SlotOutcome {
  ScenarioSummary sum;
};

void fold_session(ScenarioSummary& sum, const sim::ScenarioPlan& plan,
                  UserId user, std::uint64_t round,
                  const core::HomeScriptResult& r) {
  ++sum.sessions;
  if (r.completed) ++sum.completed_sessions;
  sum.segments += r.segments;
  sum.segments_completed += r.segments_completed;
  sum.prompts += r.session.prompts_total;
  sum.praises += r.session.praises;
  sum.wrong_tool_recoveries += r.session.wrong_tool_recoveries;
  sum.segment_switches += r.session.segment_switches;
  sum.idle_episodes += r.idle_episodes;

  std::uint64_t digest = mix64(plan.seed ^ mix64(user) ^ (round << 32));
  const auto fold = [&digest](std::uint64_t v) { digest = mix64(digest ^ v); };
  fold(r.session.prompts_total);
  fold(r.session.praises);
  fold(r.session.wrong_tool_recoveries);
  fold(r.session.segment_switches);
  fold(r.segments_completed);
  fold(r.idle_episodes);
  fold(r.completed ? 1 : 0);
  fold(std::bit_cast<std::uint64_t>(
      static_cast<std::int64_t>(r.session.elapsed.total_micros())));
  sum.checksum += digest;  // wrapping: order-independent across slots
}

}  // namespace

core::SessionScript compile_script(const sim::ScenarioPlan& plan) {
  core::SessionScript script;
  script.hint = plan.hint;
  script.parts.reserve(plan.parts.size());
  for (const sim::ScenarioPart& part : plan.parts) {
    core::ScriptPart compiled;
    compiled.adl = part.adl;
    compiled.steps = static_cast<std::size_t>(part.steps);
    compiled.resume = part.resume;
    compiled.freeze = static_cast<std::size_t>(part.freeze);
    compiled.wrong_tool = static_cast<std::size_t>(part.wrong_tool);
    compiled.wrong_tool_id = adl::kNoTool;
    compiled.pause = sim::Duration::seconds(part.pause_s);
    script.parts.push_back(std::move(compiled));
  }
  return script;
}

ScenarioRunner::ScenarioRunner(HomePoolParams params)
    : params_(std::move(params)) {}

ScenarioSummary ScenarioRunner::run(const sim::ScenarioPlan& plan,
                                    std::size_t jobs) const {
  const adl::AdlLibrary library;
  HomePoolParams pool_params = params_;
  pool_params.seed = plan.seed;
  HomePool pool(library, pool_params);
  for (std::uint64_t u = 0; u < plan.users; ++u) {
    pool.add_user("user" + std::to_string(u));
  }

  const core::SessionScript script = compile_script(plan);
  const sim::Duration deadline = sim::Duration::minutes(plan.max_minutes);

  // One trial per slot: slot s serves exactly the users it owns
  // (u % slots == s), in (round, arrival-order) order. Slots touch
  // disjoint deployments and disjoint user entries, so trials are
  // data-race-free and the outcome is independent of `jobs`.
  exec::TrialRunner runner(jobs);
  const std::vector<SlotOutcome> outcomes = runner.run(
      pool.slots(), plan.seed, [&](exec::TrialContext& ctx) {
        SlotOutcome out;
        for (std::uint64_t r = 0; r < plan.rounds; ++r) {
          for (const UserId user : arrivals_for_round(plan, r)) {
            if (pool.slot_for(user) != ctx.index) continue;
            const patient::PatientProfile profile =
                profile_for(plan, pool.user_name(user), user, r);
            const core::HomeScriptResult result =
                pool.serve_script(user, script, profile, deadline);
            fold_session(out.sum, plan, user, r, result);
          }
        }
        return out;
      });

  ScenarioSummary sum;
  for (const SlotOutcome& out : outcomes) {
    sum.sessions += out.sum.sessions;
    sum.completed_sessions += out.sum.completed_sessions;
    sum.segments += out.sum.segments;
    sum.segments_completed += out.sum.segments_completed;
    sum.prompts += out.sum.prompts;
    sum.praises += out.sum.praises;
    sum.wrong_tool_recoveries += out.sum.wrong_tool_recoveries;
    sum.segment_switches += out.sum.segment_switches;
    sum.idle_episodes += out.sum.idle_episodes;
    sum.checksum += out.sum.checksum;
  }
  sum.pool_hits = pool.hits();
  sum.pool_swaps = pool.swaps();
  sum.rejected_bundles = pool.rejected_bundles();
  return sum;
}

std::string format_scenario_report(std::string_view name,
                                   const sim::ScenarioPlan& plan,
                                   const ScenarioSummary& sum) {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "[%.*s] users=%llu rounds=%llu sessions=%llu\n",
                static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(plan.users),
                static_cast<unsigned long long>(plan.rounds),
                static_cast<unsigned long long>(sum.sessions));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "  completed=%llu segments=%llu/%llu prompts=%llu praises=%llu "
      "recoveries=%llu switches=%llu idle=%llu\n",
      static_cast<unsigned long long>(sum.completed_sessions),
      static_cast<unsigned long long>(sum.segments_completed),
      static_cast<unsigned long long>(sum.segments),
      static_cast<unsigned long long>(sum.prompts),
      static_cast<unsigned long long>(sum.praises),
      static_cast<unsigned long long>(sum.wrong_tool_recoveries),
      static_cast<unsigned long long>(sum.segment_switches),
      static_cast<unsigned long long>(sum.idle_episodes));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  pool: hits=%llu swaps=%llu rejected=%llu\n",
                static_cast<unsigned long long>(sum.pool_hits),
                static_cast<unsigned long long>(sum.pool_swaps),
                static_cast<unsigned long long>(sum.rejected_bundles));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  completion_rate=%a prompts_per_session=%a\n",
                sum.completion_rate(), sum.prompts_per_session());
  out += buf;
  std::snprintf(buf, sizeof(buf), "  checksum=%016llx\n",
                static_cast<unsigned long long>(sum.checksum));
  out += buf;
  return out;
}

}  // namespace coreda::serve
