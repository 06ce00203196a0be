// HomePool: multi-ADL session serving where each user's WHOLE policy set
// (every ADL) checks in and out of the pool as one checksummed bundle.
#include <gtest/gtest.h>

#include <string>

#include "serve/home_pool.hpp"
#include "serve/scenario_runner.hpp"

namespace coreda::serve {
namespace {

struct HomePoolFixture : ::testing::Test {
  adl::AdlLibrary library;

  static HomePoolParams pool_params() {
    HomePoolParams params;
    params.slots = 2;
    params.seed = 99;
    return params;
  }

  /// The interleaved shape: start the tea, brush teeth, come back.
  static core::SessionScript interleaved() {
    core::SessionScript script;
    script.hint = "Tea-making";
    script.parts.push_back(
        core::ScriptPart{.adl = "Tea-making", .steps = 2, .pause = {}});
    script.parts.push_back(
        core::ScriptPart{.adl = "Tooth-brushing", .pause = {}});
    script.parts.push_back(
        core::ScriptPart{.adl = "Tea-making", .resume = true, .pause = {}});
    return script;
  }

  static patient::PatientProfile mild() {
    patient::PatientProfile profile =
        patient::PatientProfile::with_severity("Tanaka", 0.3);
    profile.comply_minimal = 1.0;
    profile.comply_specific = 1.0;
    return profile;
  }

  static sim::Duration deadline() { return sim::Duration::minutes(45); }
};

TEST_F(HomePoolFixture, ServeRoundTripStagesABundle) {
  HomePool pool(library, pool_params());
  const UserId user = pool.add_user("Tanaka");

  EXPECT_TRUE(pool.bundle(user).empty());
  const core::HomeScriptResult result =
      pool.serve_script(user, interleaved(), mild(), deadline());

  // The interleaved script serves multiple ADLs inside one session...
  EXPECT_EQ(result.segments, 3u);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.session.segment_switches, 2u);
  // ...and stages the user's whole policy set as ONE bundle record.
  EXPECT_FALSE(pool.bundle(user).empty());
  EXPECT_EQ(pool.version(user), 1u);

  pool.serve_script(user, interleaved(), mild(), deadline());
  EXPECT_EQ(pool.version(user), 2u);
  EXPECT_EQ(pool.rejected_bundles(), 0u);
}

TEST_F(HomePoolFixture, ResidencyCountersTrackHitsAndSwaps) {
  HomePool pool(library, pool_params());
  const UserId a = pool.add_user("A");  // slot 0
  pool.add_user("B");
  const UserId c = pool.add_user("C");  // slot 0: evicts A

  pool.serve_script(a, interleaved(), mild(), deadline());
  pool.serve_script(a, interleaved(), mild(), deadline());  // resident: hit
  pool.serve_script(c, interleaved(), mild(), deadline());  // evicts A
  pool.serve_script(a, interleaved(), mild(), deadline());  // restore bundle

  EXPECT_EQ(pool.sessions(), 4u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.swaps(), 3u);
  EXPECT_EQ(pool.rejected_bundles(), 0u);
  EXPECT_EQ(pool.resident(0), a);
}

TEST_F(HomePoolFixture, CorruptBundleFallsBackToBaseline) {
  HomePool pool(library, pool_params());
  const UserId a = pool.add_user("A");
  pool.add_user("B");
  const UserId c = pool.add_user("C");  // shares slot 0 with A

  pool.serve_script(a, interleaved(), mild(), deadline());
  std::string bad = pool.bundle(a);
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x40);
  pool.adopt_bundle(a, bad);

  pool.serve_script(c, interleaved(), mild(), deadline());  // evict A
  const core::HomeScriptResult result =
      pool.serve_script(a, interleaved(), mild(), deadline());

  // The torn record was rejected as a whole; the session still ran (donor
  // baseline) and staged a fresh, valid bundle over the corrupt one.
  EXPECT_EQ(pool.rejected_bundles(), 1u);
  EXPECT_TRUE(result.completed);
  pool.serve_script(c, interleaved(), mild(), deadline());
  pool.serve_script(a, interleaved(), mild(), deadline());
  EXPECT_EQ(pool.rejected_bundles(), 1u);  // replacement loads cleanly
}

TEST_F(HomePoolFixture, AdoptedBundleServesInANewPool) {
  std::string staged;
  {
    HomePool pool(library, pool_params());
    const UserId user = pool.add_user("Tanaka");
    pool.serve_script(user, interleaved(), mild(), deadline());
    staged = pool.bundle(user);
  }

  // Restart: a new pool adopts the carried-over record byte-for-byte and
  // serves from it without rejection.
  HomePool pool(library, pool_params());
  const UserId user = pool.add_user("Tanaka");
  pool.adopt_bundle(user, staged);
  EXPECT_EQ(pool.bundle(user), staged);
  EXPECT_EQ(pool.version(user), 1u);

  const core::HomeScriptResult result =
      pool.serve_script(user, interleaved(), mild(), deadline());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(pool.rejected_bundles(), 0u);
  EXPECT_EQ(pool.version(user), 2u);
  EXPECT_THROW(pool.serve_script(user + 1, interleaved(), mild(), deadline()),
               std::out_of_range);
}

TEST_F(HomePoolFixture, ScenarioRunnerIsJobsInvariant) {
  sim::ScenarioPlan plan;
  plan.seed = 7;
  plan.users = 3;
  plan.rounds = 2;
  plan.severity = 0.3;
  plan.severity_drift = 0.05;
  plan.compliance_decay = 0.02;
  plan.hint = "Tea-making";
  plan.parts = {sim::ScenarioPart{.adl = "Tea-making", .steps = 2},
                sim::ScenarioPart{.adl = "Tooth-brushing"},
                sim::ScenarioPart{.adl = "Tea-making", .resume = true}};

  HomePoolParams params;
  params.slots = 2;
  const ScenarioRunner runner(params);
  const ScenarioSummary serial = runner.run(plan, 1);
  const ScenarioSummary parallel = runner.run(plan, 4);

  EXPECT_EQ(serial.sessions, 6u);
  EXPECT_GT(serial.prompts, 0u);
  EXPECT_GT(serial.segment_switches, 0u);
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.prompts, parallel.prompts);
  EXPECT_EQ(serial.completed_sessions, parallel.completed_sessions);
  EXPECT_EQ(serial.wrong_tool_recoveries, parallel.wrong_tool_recoveries);
  EXPECT_EQ(serial.pool_swaps, parallel.pool_swaps);
}

}  // namespace
}  // namespace coreda::serve
