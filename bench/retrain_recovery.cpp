// Closed-loop drift recovery: detect -> retrain -> redeploy, end to end.
//
// bench_serve_throughput prices the serving tier and *detects* drift
// (prompt-EWMA flags); this bench closes the loop with the
// RetrainScheduler. A fleet of users is served from one donor policy, but
// a subset starts from a *stale* table — trained on yesterday's routine
// (the first two steps swapped, exactly the A10 / bench_drift_adaptation
// scenario) — while the simulated patients perform today's routine. The
// stale policies prompt the wrong tool at the wrong moment, re-prompt
// escalation kicks in, the prompt EWMA crosses the drift threshold and the
// users get flagged. From there the engine takes over: each drain enqueues
// retrain jobs for flagged users with enough recorded transcripts, replays
// their rings through a warm lane trainer on the exec pool, stages the
// refreshed tables back through the PolicyStore and invalidates the slot
// residency. The bench measures how many sessions it takes every drifted
// user's EWMA to drop back under the threshold — the recovery the
// flag/retrain/redeploy loop exists to deliver.
//
// Stdout (per-round fleet state, recovery summary, allocation probes) is
// byte-identical at any --jobs: serving shards by slot, retraining by lane,
// and both fan out as seed-split TrialRunner trials. Wall-clock goes only
// to --timing-json (BENCH_retrain.json).
//
// Usage:
//   bench_retrain_recovery --users=24 --slots=4 --drifted=6 --rounds=10
//       --burst=2 --jobs=4 --timing-json=BENCH_retrain.json
//
// The bench also runs a deterministic disk probe pricing snapshot
// write-back per retrain in v2 (full rewrite) vs v3 (delta append) format;
// the v3 number is the gated flush_bytes_per_retrain metric.

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "exec/trial_runner.hpp"
#include "patient/profile.hpp"
#include "planning/learner.hpp"
#include "serve/engine.hpp"
#include "util/alloc_counter.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;

/// Same per-user severity band as the serving benches, derived from the
/// user index alone so every configuration serves the same population.
patient::PatientProfile user_profile(std::size_t user) {
  util::Rng rng(exec::trial_seed(9001, user));
  return patient::PatientProfile::with_severity(
      "U" + std::to_string(user), 0.1 + 0.4 * rng.uniform());
}

/// Steady-state allocation probe for the retrain path itself: one lane, one
/// user, a full ring. After the first job warms the lane trainer, a retrain
/// (import + replay + stage) must not touch the heap.
double steady_state_allocs_per_retrain(const adl::Adl& adl,
                                       const planning::RoutineLearner& donor,
                                       std::span<const adl::StepId> routine) {
  serve::PolicyStore store(donor);
  serve::RetrainScheduler scheduler(adl, store, planning::LearnerConfig{},
                                    /*lanes=*/1, serve::RetrainParams{});
  store.add_user("A");
  scheduler.add_user();
  for (std::size_t i = 0; i < scheduler.params().ring_capacity; ++i) {
    scheduler.record(0, routine);
  }
  scheduler.retrain_user(0);  // warm-up
  constexpr int kProbe = 32;
  const std::uint64_t before = util::allocation_count();
  for (int i = 0; i < kProbe; ++i) scheduler.retrain_user(0);
  return static_cast<double>(util::allocation_count() - before) / kProbe;
}

std::string format2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Deterministic disk probe: snapshot write-back bytes per retrain, for one
/// user whose every retrain is flushed (flush_every=1). v2 rewrites the
/// full snapshot each time; v3 appends a changed-rows delta (full anchor
/// every rebase_every-th flush). File sizes are a pure function of the
/// table shape and the replay stream, so the numbers are byte-identical
/// across runs and machines — they go in the gated summary, not the
/// wall-clock side channel.
double flush_bytes_per_retrain(const adl::Adl& adl,
                               const planning::RoutineLearner& donor,
                               std::span<const adl::StepId> routine,
                               serve::SnapshotFormat format) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (format == serve::SnapshotFormat::kV3Delta ? "coreda_flushprobe_v3"
                                                  : "coreda_flushprobe_v2"))
          .string();
  std::filesystem::remove_all(dir);
  constexpr int kRetrains = 16;
  double per_retrain = 0.0;
  {
    serve::PolicyStoreParams store_params;
    store_params.dir = dir;
    store_params.flush_every = 1;
    store_params.format = format;
    serve::PolicyStore store(donor, store_params);
    serve::RetrainScheduler scheduler(adl, store, planning::LearnerConfig{},
                                      /*lanes=*/1, serve::RetrainParams{});
    store.add_user("A");
    scheduler.add_user();
    for (std::size_t i = 0; i < scheduler.params().ring_capacity; ++i) {
      scheduler.record(0, routine);
    }
    for (int i = 0; i < kRetrains; ++i) scheduler.retrain_user(0);
    per_retrain =
        static_cast<double>(store.flush_bytes()) / kRetrains;
  }
  std::filesystem::remove_all(dir);
  return per_retrain;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  exec::TrialRunner runner(exec::jobs_from_flags(flags));
  const auto users = static_cast<std::size_t>(flags.get_int("users", 24));
  const auto slots = static_cast<std::size_t>(flags.get_int("slots", 4));
  const auto drifted = static_cast<std::size_t>(flags.get_int("drifted", 6));
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds", 10));
  const auto burst = static_cast<std::size_t>(flags.get_int("burst", 2));
  // Drifted users here run ~4 prompts/session against ~1 for calm ones (the
  // stale table mis-prompts once per swapped step plus escalations); the
  // threshold splits the two bands.
  const double threshold = flags.get_double("threshold", 2.5);
  if (drifted > users) {
    std::fprintf(stderr, "--drifted must be <= --users\n");
    return 1;
  }

  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();

  // Today's routine (what every simulated patient performs)...
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : tea.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  // ...and yesterday's, with the first two steps swapped — the stale
  // tables were converged on this one (A10's drift scenario).
  std::vector<adl::StepId> stale_routine = routine;
  std::swap(stale_routine[0], stale_routine[1]);

  planning::RoutineLearner donor(tea, util::Rng(17));
  planning::RoutineLearner stale(tea, util::Rng(18));
  for (int i = 0; i < 80; ++i) donor.train_episode(routine);
  for (int i = 0; i < 120; ++i) stale.train_episode(stale_routine);

  serve::PolicyStore store(donor);
  serve::ServeEngineParams params;
  params.pool.slots = slots;
  params.pool.seed = 4242;
  params.drift.threshold = threshold;
  params.retrain.enabled = true;
  // Every `drifted`-th user starts from the stale table; ids are spread
  // across slots/lanes so recovery is not an artifact of one shard.
  std::vector<bool> is_drifted(users, false);
  for (std::size_t u = 0; u < users; ++u) {
    const bool drift = drifted > 0 && u % (users / drifted) == 0 &&
                       u / (users / drifted) < drifted;
    is_drifted[u] = drift;
    store.add_user("U" + std::to_string(u), drift ? stale.q() : donor.q());
  }
  serve::ServeEngine engine(library, tea, store, params);
  for (std::size_t u = 0; u < users; ++u) {
    engine.add_user("U" + std::to_string(u), user_profile(u));
  }

  std::printf("Closed-loop drift recovery: %zu users (%zu on stale tables) "
              "on %zu slots,\n%zu rounds x %zu sessions/user "
              "(EWMA threshold %.1f, retrain after %zu transcripts)\n\n",
              users, drifted, slots, rounds, burst,
              engine.params().drift.threshold,
              engine.params().retrain.min_transcripts);

  // Per-round fleet state. All numbers come out of the (deterministic)
  // report, so the table is byte-identical at any --jobs.
  util::TextTable table("Fleet state per round (drifted-user means)");
  table.set_header({"round", "flagged", "retrains", "drift EWMA",
                    "drift prompts/s", "calm EWMA"});
  std::vector<std::uint64_t> prompts_before(users, 0);
  std::vector<std::size_t> flagged_round(users, rounds + 1);
  std::vector<std::size_t> recovered_round(users, rounds + 1);
  double post_retrain_prompts = 0.0;
  double bench_seconds = 0.0;
  serve::ServeReport report;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t u = 0; u < users; ++u) {
      engine.enqueue(static_cast<serve::UserId>(u), burst);
    }
    const exec::Stopwatch timer;
    report = engine.drain(runner);
    bench_seconds += timer.seconds();

    double drift_ewma = 0.0;
    double calm_ewma = 0.0;
    double drift_prompts = 0.0;
    for (std::size_t u = 0; u < users; ++u) {
      const serve::ServeUserStats& s = report.users[u];
      if (is_drifted[u]) {
        drift_ewma += s.prompt_ewma;
        drift_prompts += static_cast<double>(s.prompts - prompts_before[u]) /
                         static_cast<double>(burst);
        if (s.needs_retraining && flagged_round[u] > rounds) {
          flagged_round[u] = round;
        }
        if (!s.needs_retraining && s.retrains > 0 &&
            recovered_round[u] > rounds) {
          recovered_round[u] = round;
        }
      } else {
        calm_ewma += s.prompt_ewma;
      }
      prompts_before[u] = s.prompts;
    }
    const auto n_drift = static_cast<double>(drifted);
    const auto n_calm = static_cast<double>(users - drifted);
    if (round + 1 == rounds) post_retrain_prompts = drift_prompts / n_drift;
    table.add_row({std::to_string(round),
                   std::to_string(report.flagged_users),
                   std::to_string(report.retrain.jobs),
                   format2(drifted > 0 ? drift_ewma / n_drift : 0.0),
                   format2(drifted > 0 ? drift_prompts / n_drift : 0.0),
                   format2(n_calm > 0 ? calm_ewma / n_calm : 0.0)});
  }
  std::fputs(table.render().c_str(), stdout);

  // Recovery summary: sessions from the drain that first saw the flag to
  // the drain that first saw it cleared again (post-retrain EWMA back under
  // the threshold).
  std::size_t recovered = 0;
  std::size_t recovery_sessions_max = 0;
  for (std::size_t u = 0; u < users; ++u) {
    if (!is_drifted[u]) continue;
    if (recovered_round[u] <= rounds) {
      ++recovered;
      const std::size_t sessions =
          (recovered_round[u] - flagged_round[u]) * burst;
      recovery_sessions_max = std::max(recovery_sessions_max, sessions);
    }
  }
  const double retrain_probe =
      steady_state_allocs_per_retrain(tea, donor, routine);
  const double flush_v2 = flush_bytes_per_retrain(
      tea, donor, routine, serve::SnapshotFormat::kV2);
  const double flush_v3 = flush_bytes_per_retrain(
      tea, donor, routine, serve::SnapshotFormat::kV3Delta);

  util::TextTable summary("Recovery summary");
  summary.set_header({"metric", "value"});
  summary.add_row({"drifted users", std::to_string(drifted)});
  summary.add_row({"recovered (flag cleared)", std::to_string(recovered)});
  summary.add_row({"max flag->clear sessions",
                   std::to_string(recovery_sessions_max)});
  summary.add_row({"retrain jobs", std::to_string(report.retrain.jobs)});
  summary.add_row({"episodes replayed",
                   std::to_string(report.retrain.episodes)});
  summary.add_row({"slot invalidations",
                   std::to_string(engine.pool().invalidations())});
  summary.add_row({"policy writes staged",
                   std::to_string(report.staged_writes)});
  summary.add_row({"drift prompts/session (final round)",
                   format2(post_retrain_prompts)});
  summary.add_row({"fleet checksum", std::to_string(report.checksum)});
  summary.add_row({"steady-state allocs/retrain", format2(retrain_probe)});
  summary.add_row({"flush bytes/retrain (v2 full)", format2(flush_v2)});
  summary.add_row({"flush bytes/retrain (v3 delta)", format2(flush_v3)});
  std::fputs(summary.render().c_str(), stdout);
  std::puts("\nThe tables are byte-identical at any --jobs: sessions shard\n"
            "by slot and retrain jobs by lane, each a seed-split trial.");

  const std::string timing_path = flags.get("timing-json");
  std::ostringstream extra;
  extra << "\"users\": " << users << ", \"slots\": " << slots
        << ", \"drifted\": " << drifted << ", \"rounds\": " << rounds
        << ", \"sessions_per_round\": " << burst
        << ", \"sessions_per_sec\": "
        << (bench_seconds > 0.0
                ? static_cast<double>(report.sessions) / bench_seconds
                : 0.0)
        << ", \"recovered_users\": " << recovered
        << ", \"recovery_sessions_max\": " << recovery_sessions_max
        << ", \"post_retrain_prompts_per_session\": " << post_retrain_prompts
        << ", \"retrain_jobs\": " << report.retrain.jobs
        << ", \"retrain_episodes\": " << report.retrain.episodes
        << ", \"steady_state_allocs_per_retrain\": " << retrain_probe
        << ", \"flush_bytes_per_retrain\": " << flush_v3
        << ", \"flush_bytes_per_retrain_v2\": " << flush_v2;
  exec::append_timing_record(timing_path, "retrain_recovery", runner.jobs(),
                             users, bench_seconds, extra.str());
  return 0;
}
