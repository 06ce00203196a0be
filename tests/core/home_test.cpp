#include "core/home.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>

namespace coreda::core {
namespace {

struct HomeFixture : ::testing::Test {
  adl::AdlLibrary library;

  std::unique_ptr<HomeDeployment> deploy(std::uint64_t seed = 99) {
    SystemConfig config;
    config.seed = seed;
    auto home = std::make_unique<HomeDeployment>(library, config);
    home->pretrain(120, seed + 1);
    return home;
  }

  patient::PatientProfile compliant(double severity) {
    patient::PatientProfile p =
        patient::PatientProfile::with_severity("Resident", severity);
    p.comply_minimal = 1.0;
    p.comply_specific = 1.0;
    return p;
  }
};

TEST_F(HomeFixture, PretrainingConvergesEveryPlanner) {
  const auto home = deploy();
  for (const char* name :
       {"Tea-making", "Tooth-brushing", "Hand-washing"}) {
    EXPECT_DOUBLE_EQ(home->learner(name).greedy_accuracy(), 1.0) << name;
  }
  EXPECT_EQ(home->recognizer().known_adls(), 4u);
}

TEST_F(HomeFixture, RecognizesAndAssistsTeaMaking) {
  const auto home = deploy();
  const HomeSessionResult result = home->run_session(
      "Tea-making", compliant(0.4), sim::Duration::minutes(30.0));
  EXPECT_TRUE(result.recognized_correctly);
  EXPECT_EQ(result.recognized_adl, "Tea-making");
  EXPECT_LE(result.steps_to_recognition, 2u);
  EXPECT_TRUE(result.completed);
}

TEST_F(HomeFixture, RecognizesEachSingleRoutineAdl) {
  const auto home = deploy();
  for (const char* name :
       {"Tea-making", "Tooth-brushing", "Hand-washing"}) {
    const HomeSessionResult result = home->run_session(
        name, compliant(0.0), sim::Duration::minutes(30.0));
    EXPECT_TRUE(result.recognized_correctly) << name;
    EXPECT_TRUE(result.completed) << name;
  }
}

TEST_F(HomeFixture, AssistsAcrossConsecutiveDifferentAdls) {
  const auto home = deploy();
  const auto tea = home->run_session("Tea-making", compliant(0.3),
                                     sim::Duration::minutes(30.0));
  // The second session uses the care schedule's hint (the resident may
  // freeze before ever starting; see HomeDeployment::run_session docs).
  const auto teeth =
      home->run_session("Tooth-brushing", compliant(0.3),
                        sim::Duration::minutes(30.0), "Tooth-brushing");
  EXPECT_TRUE(tea.recognized_correctly);
  EXPECT_TRUE(teeth.recognized_correctly);
  EXPECT_TRUE(tea.completed);
  EXPECT_TRUE(teeth.completed);
}

TEST_F(HomeFixture, WrongHintOverriddenByRecognition) {
  const auto home = deploy();
  // Schedule says tooth-brushing, but the resident starts making tea; the
  // recognizer must override the provisional activation.
  const auto result =
      home->run_session("Tea-making", compliant(0.0),
                        sim::Duration::minutes(30.0), "Tooth-brushing");
  EXPECT_TRUE(result.recognized_correctly);
  EXPECT_TRUE(result.completed);
}

TEST_F(HomeFixture, HintRescuesFrozenStart) {
  const auto home = deploy(123);
  patient::PatientProfile stuck = compliant(0.0);
  stuck.p_idle = 1.0;  // freezes at every self-initiated decision
  const auto result =
      home->run_session("Tea-making", stuck, sim::Duration::minutes(30.0),
                        "Tea-making");
  // Every step happens via prompts; the hint supplies the first one.
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.prompts_total, 4u);
}

TEST_F(HomeFixture, UnknownAdlThrows) {
  const auto home = deploy();
  EXPECT_THROW(home->learner("Cooking"), std::out_of_range);
  EXPECT_THROW(home->run_session("Cooking", compliant(0.0),
                                 sim::Duration::minutes(1.0)),
               std::out_of_range);
  EXPECT_THROW(home->run_session("Tea-making", compliant(0.0),
                                 sim::Duration::minutes(1.0), "Cooking"),
               std::out_of_range);
}

TEST_F(HomeFixture, ImpairedResidentsStillMostlyComplete) {
  const auto home = deploy();
  int completed = 0;
  int recognized = 0;
  constexpr int kSessions = 8;
  for (int i = 0; i < kSessions; ++i) {
    const char* adl = i % 2 == 0 ? "Tea-making" : "Tooth-brushing";
    // Scheduled care: the daily plan names the expected activity.
    const auto result = home->run_session(adl, compliant(0.6),
                                          sim::Duration::minutes(40.0), adl);
    completed += result.completed;
    recognized += result.recognized_correctly;
  }
  EXPECT_GE(completed, kSessions - 1);
  // Recognition can stay pending when the hinted planner does all the
  // work before enough steps are observed; completion is the contract.
  EXPECT_GE(recognized, kSessions / 2);
}


/// FNV-1a over the bytes of each folded value: the digest behind the
/// session-outcome golden below (independent of the library's mixers).
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

struct SessionGolden {
  std::uint64_t digest = 0;
  std::size_t sessions = 0;
  std::size_t completed = 0;
  std::size_t capped = 0;  ///< ended at the deadline, not by finishing
  std::size_t prompts = 0;
  std::size_t switches = 0;
};

/// 240 sessions over six deployments (odd seeds with recognition-gated
/// switching on): every ADL, no hint / matching hint / wrong hint, mild to
/// severe residents, frozen starters, and 1-minute deadlines that cut
/// sessions short. Every HomeSessionResult field and the scheduler's
/// events_fired() after each session feed the digest.
SessionGolden run_session_corpus(const adl::AdlLibrary& library) {
  static constexpr const char* kAdls[] = {"Tea-making", "Tooth-brushing",
                                          "Hand-washing", "Dressing"};
  Fnv1a fnv;
  SessionGolden out;
  for (std::uint64_t seed = 11; seed < 17; ++seed) {
    SystemConfig config;
    config.seed = seed;
    HomeDeployment home(library, config);
    home.pretrain(60, seed + 1);
    if (seed % 2 == 1) {
      home.set_tracker_params({.switch_window = 2,
                               .switch_threshold = 0.8,
                               .switch_patience = 1});
    }
    for (std::size_t i = 0; i < 40; ++i) {
      const std::string adl = kAdls[i % 4];
      std::string hint;
      if (i % 3 == 1) hint = adl;                  // matching hint
      if (i % 3 == 2) hint = kAdls[(i + 1) % 4];   // wrong hint
      patient::PatientProfile profile = patient::PatientProfile::with_severity(
          "Resident", 0.1 * static_cast<double>(i % 9));
      if (i % 7 == 3) profile.p_idle = 1.0;  // frozen starter
      const sim::Duration cap = i % 5 == 4 ? sim::Duration::minutes(1.0)
                                           : sim::Duration::minutes(30.0);
      const HomeSessionResult r = home.run_session(adl, profile, cap, hint);

      fnv.str(r.actual_adl);
      fnv.str(r.recognized_adl);
      fnv.u64(r.recognized_correctly ? 1 : 0);
      fnv.u64(r.steps_to_recognition);
      fnv.u64(r.completed ? 1 : 0);
      fnv.u64(std::bit_cast<std::uint64_t>(
          static_cast<std::int64_t>(r.elapsed.total_micros())));
      fnv.u64(r.prompts_total);
      fnv.u64(r.praises);
      fnv.u64(r.wrong_tool_recoveries);
      fnv.u64(r.segment_switches);
      fnv.u64(home.scheduler().events_fired());

      ++out.sessions;
      out.completed += r.completed ? 1 : 0;
      out.capped += !r.completed && r.elapsed >= cap ? 1 : 0;
      out.prompts += r.prompts_total;
      out.switches += r.segment_switches;
    }
  }
  out.digest = fnv.h;
  return out;
}

TEST_F(HomeFixture, SessionOutcomesMatchGolden) {
  const SessionGolden g = run_session_corpus(library);
  // Coverage: capped and completed sessions both occur in the corpus.
  EXPECT_EQ(g.sessions, 240u);
  EXPECT_EQ(g.completed, 130u);
  EXPECT_EQ(g.capped, 110u);
  EXPECT_EQ(g.prompts, 1497u);
  EXPECT_EQ(g.switches, 12u);
  EXPECT_EQ(g.digest, 0x1387d93511b6c048ULL);
}

}  // namespace
}  // namespace coreda::core
