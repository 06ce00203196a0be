// RetrainScheduler: transcript-ring mechanics, the single-job retrain
// contract, the engine-level detect -> retrain -> redeploy loop (flag set,
// policy refreshed, EWMA recovered, flag cleared), and byte-identical
// closed-loop outcomes at any --jobs.

#include "serve/retrain_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "adl/library.hpp"
#include "serve/engine.hpp"

namespace coreda::serve {
namespace {

struct RetrainFixture : ::testing::Test {
  adl::AdlLibrary library;

  std::vector<adl::StepId> routine() {
    std::vector<adl::StepId> steps;
    for (const adl::AdlStep& s :
         library.tea_making().primary_routine().steps()) {
      steps.push_back(s.step_id());
    }
    return steps;
  }

  /// Yesterday's habit: first two steps swapped (the A10 drift scenario).
  std::vector<adl::StepId> stale_routine() {
    std::vector<adl::StepId> steps = routine();
    std::swap(steps[0], steps[1]);
    return steps;
  }

  planning::RoutineLearner trained(const std::vector<adl::StepId>& steps,
                                   std::uint64_t seed, int episodes) {
    planning::RoutineLearner learner(library.tea_making(), util::Rng(seed));
    for (int i = 0; i < episodes; ++i) learner.train_episode(steps);
    return learner;
  }

  /// Greedy-prompt accuracy of a table against an explicit routine (the
  /// bench_drift_adaptation metric).
  double accuracy_vs(const rl::QTable& q,
                     const std::vector<adl::StepId>& steps) {
    planning::RoutineLearner probe(library.tea_making(), util::Rng(1));
    probe.begin_retraining(q, util::Rng(1));
    std::size_t hits = 0;
    std::size_t total = 0;
    adl::StepId prev = adl::kIdleStep;
    for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
      const auto prompt = probe.predict(prev, steps[i]);
      ++total;
      if (prompt && prompt->action.tool == steps[i + 1]) ++hits;
      prev = steps[i];
    }
    return static_cast<double>(hits) / static_cast<double>(total);
  }
};

TEST_F(RetrainFixture, TranscriptRingBoundsEvictsAndTruncates) {
  planning::RoutineLearner donor = trained(routine(), 5, 80);
  PolicyStore store(donor);
  RetrainParams params;
  params.ring_capacity = 3;
  params.max_transcript_steps = 4;
  params.min_transcripts = 2;
  RetrainScheduler scheduler(library.tea_making(), store,
                             planning::LearnerConfig{}, /*lanes=*/2, params);
  scheduler.add_user();
  scheduler.add_user();
  ASSERT_EQ(scheduler.num_users(), 2u);
  EXPECT_EQ(scheduler.transcripts(0), 0u);
  EXPECT_FALSE(scheduler.has_enough_transcripts(0));

  const auto steps = [](std::initializer_list<adl::StepId> ids) {
    return std::vector<adl::StepId>(ids);
  };
  scheduler.record(0, steps({1, 2}));
  EXPECT_EQ(scheduler.transcripts(0), 1u);
  EXPECT_FALSE(scheduler.has_enough_transcripts(0));
  scheduler.record(0, steps({3, 4, 5, 6, 7, 8}));  // truncated to 4
  EXPECT_TRUE(scheduler.has_enough_transcripts(0));
  scheduler.record(0, steps({9}));
  scheduler.record(0, steps({10, 11}));  // evicts the oldest ({1, 2})
  EXPECT_EQ(scheduler.transcripts(0), 3u);

  const auto transcript = [&](std::size_t i) {
    const std::span<const adl::StepId> t = scheduler.transcript(0, i);
    return std::vector<adl::StepId>(t.begin(), t.end());
  };
  EXPECT_EQ(transcript(0), steps({3, 4, 5, 6}));
  EXPECT_EQ(transcript(1), steps({9}));
  EXPECT_EQ(transcript(2), steps({10, 11}));

  // Rings are per user: recording for user 0 never touches user 1.
  EXPECT_EQ(scheduler.transcripts(1), 0u);

  EXPECT_THROW((void)scheduler.transcript(0, 3), std::out_of_range);
  EXPECT_THROW(scheduler.record(2, steps({1})), std::out_of_range);
  EXPECT_THROW(scheduler.enqueue(2), std::out_of_range);
  EXPECT_THROW((void)RetrainScheduler(library.tea_making(), store,
                                      planning::LearnerConfig{}, 0, {}),
               std::invalid_argument);
  RetrainParams bad;
  bad.ring_capacity = 0;
  EXPECT_THROW((void)RetrainScheduler(library.tea_making(), store,
                                      planning::LearnerConfig{}, 1, bad),
               std::invalid_argument);
}

TEST_F(RetrainFixture, RetrainUserRealignsAStaleTableToTheRecordedRoutine) {
  planning::RoutineLearner donor = trained(routine(), 5, 80);
  planning::RoutineLearner stale = trained(stale_routine(), 6, 120);
  PolicyStore store(donor);
  store.add_user("drifted", stale.q());

  RetrainParams params;  // defaults: ring 8, 8 replay passes
  RetrainScheduler scheduler(library.tea_making(), store,
                             planning::LearnerConfig{}, /*lanes=*/1, params);
  scheduler.add_user();
  for (std::size_t i = 0; i < params.ring_capacity; ++i) {
    scheduler.record(0, routine());
  }

  const double before = accuracy_vs(store.q(0), routine());
  const std::size_t episodes = scheduler.retrain_user(0);
  EXPECT_EQ(episodes, params.ring_capacity * params.replay_passes);
  EXPECT_EQ(store.version(0), 2u);  // the refreshed table was staged

  // The stale table prompted yesterday's order; the retrained one prompts
  // the routine the transcripts actually contain.
  const double after = accuracy_vs(store.q(0), routine());
  EXPECT_LT(before, 1.0);
  EXPECT_EQ(after, 1.0);
}

/// The bench_retrain_recovery scenario in miniature: 8 users on 2 slots,
/// two of them (ids 0 and 5 — different slots/lanes) starting from a table
/// converged on yesterday's routine.
struct ClosedLoopOutcome {
  std::vector<bool> flagged;
  std::vector<std::uint64_t> retrains;
  std::vector<std::uint64_t> versions;
  std::string q_hexdump;  ///< every user's table, hexfloat — bit-exact
  std::uint64_t checksum = 0;
  std::uint64_t jobs = 0;
};

constexpr std::size_t kUsers = 8;
constexpr UserId kDrifted[] = {0, 5};

ClosedLoopOutcome run_closed_loop(RetrainFixture& fix, std::size_t jobs,
                                  std::size_t rounds) {
  planning::RoutineLearner donor = fix.trained(fix.routine(), 5, 80);
  planning::RoutineLearner stale =
      fix.trained(fix.stale_routine(), 6, 120);
  PolicyStore store(donor);
  ServeEngineParams params;
  params.pool.slots = 2;
  params.pool.seed = 4242;
  params.drift.threshold = 2.5;
  params.retrain.enabled = true;
  for (std::size_t u = 0; u < kUsers; ++u) {
    const bool drifted = u == kDrifted[0] || u == kDrifted[1];
    store.add_user("U" + std::to_string(u),
                   drifted ? stale.q() : donor.q());
  }
  ServeEngine engine(fix.library, fix.library.tea_making(), store, params);
  for (std::size_t u = 0; u < kUsers; ++u) {
    util::Rng rng(exec::trial_seed(9001, u));
    engine.add_user("U" + std::to_string(u),
                    patient::PatientProfile::with_severity(
                        "U", 0.1 + 0.4 * rng.uniform()));
  }

  exec::TrialRunner runner(jobs);
  ServeReport report;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (UserId u = 0; u < kUsers; ++u) engine.enqueue(u, 2);
    report = engine.drain(runner);
  }

  ClosedLoopOutcome out;
  out.checksum = report.checksum;
  out.jobs = report.retrain.jobs;
  for (UserId u = 0; u < kUsers; ++u) {
    out.flagged.push_back(report.users[u].needs_retraining);
    out.retrains.push_back(report.users[u].retrains);
    out.versions.push_back(store.version(u));
    const rl::QTable& q = store.q(u);
    for (rl::StateId s = 0; s < q.num_states(); ++s) {
      for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a ", q.get(s, a));
        out.q_hexdump += buf;
      }
    }
    out.q_hexdump += "\n";
  }
  return out;
}

TEST_F(RetrainFixture, ClosedLoopFlagsRetrainsAndClearsTheFlag) {
  const ClosedLoopOutcome out = run_closed_loop(*this, 2, /*rounds=*/8);
  for (const UserId u : kDrifted) {
    EXPECT_GE(out.retrains[u], 1u) << "user " << u << " never retrained";
    EXPECT_FALSE(out.flagged[u])
        << "user " << u << " flag not cleared after retraining";
    // A retrain stages an extra version on top of the per-session
    // write-backs (1 initial + 16 sessions + retrains).
    EXPECT_EQ(out.versions[u], 1u + 16u + out.retrains[u]) << "user " << u;
  }
  EXPECT_GE(out.jobs, 2u);
}

TEST_F(RetrainFixture, ClosedLoopIsByteIdenticalAtAnyJobCount) {
  const ClosedLoopOutcome serial = run_closed_loop(*this, 1, 8);
  const ClosedLoopOutcome parallel = run_closed_loop(*this, 4, 8);
  EXPECT_EQ(serial.flagged, parallel.flagged);
  EXPECT_EQ(serial.retrains, parallel.retrains);
  EXPECT_EQ(serial.versions, parallel.versions);
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.jobs, parallel.jobs);
  // Bit-exact tables, not just close ones: the hexfloat dump of every
  // user's final Q-table is the determinism witness.
  EXPECT_EQ(serial.q_hexdump, parallel.q_hexdump);
}


/// Pins the retrained tables bit for bit: 23 users on 3 lanes, rings of
/// 4..8 transcripts with 4..7 steps each (ragged replay), three drains with
/// fresh transcripts recorded in between. The digest is FNV-1a over every
/// user's version and the hexfloat text of every Q value.
TEST_F(RetrainFixture, RetrainedTablesMatchGolden) {
  planning::RoutineLearner donor = trained(routine(), 5, 80);
  planning::RoutineLearner stale = trained(stale_routine(), 6, 120);
  PolicyStore store(donor);
  RetrainParams params;
  params.min_transcripts = 4;
  RetrainScheduler scheduler(library.tea_making(), store,
                             planning::LearnerConfig{}, /*lanes=*/3, params);
  constexpr std::size_t kRetrainUsers = 23;
  for (std::size_t u = 0; u < kRetrainUsers; ++u) {
    store.add_user("R" + std::to_string(u),
                   u % 3 == 0 ? stale.q() : donor.q());
    scheduler.add_user();
  }

  const std::vector<adl::StepId> base = routine();
  const auto record = [&](UserId u, std::size_t n, std::uint64_t salt) {
    util::Rng rng(exec::trial_seed(salt, u));
    for (std::size_t k = 0; k < n; ++k) {
      std::vector<adl::StepId> steps = base;
      if (rng.bernoulli(0.4)) {
        std::swap(steps[rng.uniform_int(0, 1)], steps[2]);
      }
      if (rng.bernoulli(0.3)) steps.push_back(steps[1]);
      if (rng.bernoulli(0.3)) steps.push_back(steps[0]);
      if (rng.bernoulli(0.2)) steps.push_back(steps[2]);
      scheduler.record(u, steps);
    }
  };

  exec::TrialRunner runner(2);
  std::size_t jobs = 0;
  for (std::uint64_t drain = 0; drain < 3; ++drain) {
    for (UserId u = 0; u < kRetrainUsers; ++u) {
      record(u, 2 + (u + drain) % 3, 77 + drain);
      if (scheduler.has_enough_transcripts(u) && (u + drain) % 4 != 3) {
        scheduler.enqueue(u);
      }
    }
    jobs += scheduler.drain(runner).size();
  }

  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::string_view text) {
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  };
  for (UserId u = 0; u < kRetrainUsers; ++u) {
    fold(std::to_string(store.version(u)) + ":");
    const rl::QTable& q = store.q(u);
    for (rl::StateId s = 0; s < q.num_states(); ++s) {
      for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a ", q.get(s, a));
        fold(buf);
      }
    }
  }
  EXPECT_EQ(jobs, 40u);
  EXPECT_EQ(scheduler.counters().episodes, 2096u);
  EXPECT_EQ(h, 0x461265b23b84a135ULL);
}

}  // namespace
}  // namespace coreda::serve
