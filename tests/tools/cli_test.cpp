#include "tools/cli_commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "adl/library.hpp"
#include "planning/serialize.hpp"
#include "serve/policy_store.hpp"
#include "serve/segment_store.hpp"

namespace coreda::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(const std::vector<std::string>& tokens) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_command(util::Flags::parse(tokens), out, err);
  return {code, out.str(), err.str()};
}

TEST(CliTest, NoCommandShowsUsageAndFails) {
  const CliResult r = run({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  const CliResult r = run({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("simulate"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliResult r = run({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, ListShowsCatalog) {
  const CliResult r = run({"list"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Tea-making"), std::string::npos);
  EXPECT_NE(r.out.find("electronic pot (22)"), std::string::npos);
  EXPECT_NE(r.out.find("Dressing"), std::string::npos);
}

TEST(CliTest, SimulateRequiresAdl) {
  const CliResult r = run({"simulate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--adl"), std::string::npos);
}

TEST(CliTest, SimulateUnknownAdlFails) {
  const CliResult r = run({"simulate", "--adl=Cooking"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("Cooking"), std::string::npos);
}

TEST(CliTest, SimulateRunsSessions) {
  const CliResult r = run({"simulate", "--adl=Tea-making", "--sessions=2",
                           "--severity=0.3", "--seed=5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2 sessions completed"), std::string::npos);
}

TEST(CliTest, BadFlagValueReportsCleanError) {
  const CliResult r = run({"simulate", "--adl=Tea-making",
                           "--sessions=two"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--sessions"), std::string::npos);
}

TEST(CliTest, TrainPromptRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cli_tea.policy";
  const CliResult train = run(
      {"train", "--adl=Tea-making", "--out=" + path, "--episodes=80"});
  EXPECT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("100%"), std::string::npos);

  const CliResult prompt = run({"prompt", "--adl=Tea-making",
                                "--policy=" + path, "--prev=0", "--cur=21"});
  EXPECT_EQ(prompt.code, 0) << prompt.err;
  EXPECT_NE(prompt.out.find("electronic pot"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, PromptRejectsForeignContext) {
  const std::string path = ::testing::TempDir() + "/cli_tea2.policy";
  run({"train", "--adl=Tea-making", "--out=" + path, "--episodes=40"});
  const CliResult r = run({"prompt", "--adl=Tea-making",
                           "--policy=" + path, "--prev=0", "--cur=99"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("vocabulary"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, PromptMissingPolicyFileFails) {
  const CliResult r = run({"prompt", "--adl=Tea-making",
                           "--policy=/nonexistent/x.policy"});
  EXPECT_EQ(r.code, 2);
}

TEST(CliTest, PolicySaveLoadInspectV2RoundTrip) {
  const std::string path = ::testing::TempDir() + "/cli_v2.policy";
  const CliResult save =
      run({"policy", "save", "--adl=Tea-making", "--out=" + path,
           "--episodes=80", "--version=5"});
  EXPECT_EQ(save.code, 0) << save.err;
  EXPECT_NE(save.out.find("saved v2 snapshot"), std::string::npos);

  const CliResult load =
      run({"policy", "load", "--adl=Tea-making", "--in=" + path});
  EXPECT_EQ(load.code, 0) << load.err;
  EXPECT_NE(load.out.find("v2 (binary)"), std::string::npos);
  EXPECT_NE(load.out.find("user version 5"), std::string::npos);
  EXPECT_NE(load.out.find("100%"), std::string::npos);

  const CliResult inspect = run({"policy", "inspect", "--in=" + path});
  EXPECT_EQ(inspect.code, 0) << inspect.err;
  EXPECT_NE(inspect.out.find("coreda-policy v2"), std::string::npos);
  EXPECT_NE(inspect.out.find("user version: 5"), std::string::npos);
  EXPECT_NE(inspect.out.find("checksum: ok"), std::string::npos);
  std::remove(path.c_str());
}

// The v1 text format is retired: saving it is an option error that writes
// nothing, and a v1 text file on disk is no longer a policy snapshot.
TEST(CliTest, PolicySaveRejectsV1Format) {
  const std::string path = ::testing::TempDir() + "/cli_v1.policy";
  std::remove(path.c_str());
  for (const char* format : {"--format=v1", "--format=v9"}) {
    const CliResult save = run({"policy", "save", "--adl=Tea-making",
                                "--out=" + path, "--episodes=10", format});
    EXPECT_EQ(save.code, 1) << format;
    EXPECT_NE(save.err.find("v2 or v3"), std::string::npos) << format;
    EXPECT_FALSE(std::filesystem::exists(path)) << format;
  }

  {
    std::ofstream text(path);
    text << "coreda-policy v1\nsteps 0 21 22\ntools 20 21 22\n";
  }
  const CliResult inspect = run({"policy", "inspect", "--in=" + path});
  EXPECT_EQ(inspect.code, 2);
  EXPECT_NE(inspect.err.find("not a coreda policy snapshot"),
            std::string::npos);
  const CliResult load =
      run({"policy", "load", "--adl=Tea-making", "--in=" + path});
  EXPECT_EQ(load.code, 2);
  EXPECT_NE(load.err.find("not a v2 or v3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, PolicyInspectFlagsCorruption) {
  const std::string path = ::testing::TempDir() + "/cli_bad.policy";
  run({"policy", "save", "--adl=Tea-making", "--out=" + path,
       "--episodes=40"});
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    f.put('\x7f');  // flip bytes deep in the Q block
  }
  const CliResult inspect = run({"policy", "inspect", "--in=" + path});
  EXPECT_EQ(inspect.code, 2);
  EXPECT_NE(inspect.out.find("MISMATCH"), std::string::npos);

  // Loading the corrupt snapshot must fail loudly, not half-apply.
  const CliResult load =
      run({"policy", "load", "--adl=Tea-making", "--in=" + path});
  EXPECT_EQ(load.code, 2);
  std::remove(path.c_str());
}

TEST(CliTest, PolicyMigrateBuildsAnInspectableSegmentStore) {
  const std::string from = ::testing::TempDir() + "/cli_migrate_v2";
  const std::string store = ::testing::TempDir() + "/cli_migrate_store";
  std::filesystem::remove_all(from);
  std::filesystem::remove_all(store);
  std::filesystem::create_directories(from);
  ASSERT_EQ(run({"policy", "save", "--adl=Tea-making",
                 "--out=" + from + "/alice.policy", "--episodes=40",
                 "--version=3"})
                .code,
            0);
  ASSERT_EQ(run({"policy", "save", "--adl=Tea-making",
                 "--out=" + from + "/bob.policy", "--episodes=40",
                 "--version=7", "--seed=43"})
                .code,
            0);

  const CliResult migrate =
      run({"policy", "migrate", "--adl=Tea-making", "--from=" + from,
           "--out=" + store, "--writers=2"});
  EXPECT_EQ(migrate.code, 0) << migrate.err;
  EXPECT_NE(migrate.out.find("Migrated 2/2 v2 snapshots"),
            std::string::npos);

  // The migrated store is a directory: `policy inspect` dispatches to the
  // segment-store summary instead of the per-file header decoder.
  const CliResult inspect = run({"policy", "inspect", "--in=" + store});
  EXPECT_EQ(inspect.code, 0) << inspect.err;
  EXPECT_NE(inspect.out.find("coreda-policy store v1"), std::string::npos);
  EXPECT_NE(inspect.out.find("meta: ok"), std::string::npos);
  EXPECT_NE(inspect.out.find("2 live, 0 dead, 0 corrupt"),
            std::string::npos);
  EXPECT_NE(inspect.out.find("users: 2 (max version 7)"),
            std::string::npos);
  // Chain shape: a user's first record in a segment is always an anchor,
  // so a one-shot migration is all anchors with unit-length chains.
  EXPECT_NE(inspect.out.find("chain shape: 2 anchors, 0 deltas"),
            std::string::npos);
  EXPECT_NE(inspect.out.find("mean chain length 1.00"), std::string::npos);
  EXPECT_NE(inspect.out.find("  seg w"), std::string::npos);
  std::filesystem::remove_all(from);
  std::filesystem::remove_all(store);
}

// Mirror of policy_v3_test's round-trip at store granularity: v2 snapshots
// migrated into a segment store must read back bit-exact — same table,
// same version — through a SegmentStore reopened over the migrated dir.
// User ids are the sorted snapshot names' positions.
TEST(CliTest, PolicyMigrateRoundTripsTablesBitExact) {
  const std::string from = ::testing::TempDir() + "/cli_rt_v2";
  const std::string out = ::testing::TempDir() + "/cli_rt_store";
  std::filesystem::remove_all(from);
  std::filesystem::remove_all(out);
  std::filesystem::create_directories(from);
  ASSERT_EQ(run({"policy", "save", "--adl=Tea-making",
                 "--out=" + from + "/alice.policy", "--episodes=40",
                 "--version=3"})
                .code,
            0);
  ASSERT_EQ(run({"policy", "save", "--adl=Tea-making",
                 "--out=" + from + "/bob.policy", "--episodes=40",
                 "--version=7", "--seed=43"})
                .code,
            0);
  ASSERT_EQ(run({"policy", "migrate", "--adl=Tea-making", "--from=" + from,
                 "--out=" + out})
                .code,
            0);

  adl::AdlLibrary library;
  planning::RoutineLearner reference(library.by_name("Tea-making"),
                                     util::Rng(1));
  const auto steps = reference.state_codec().symbols();
  const auto tools = reference.action_codec().tools();

  serve::SegmentStoreParams params;
  params.dir = out;
  const serve::SegmentStore store(steps, tools, reference.q().num_states(),
                                  reference.q().num_actions(), params);
  EXPECT_EQ(store.user_ids(), (std::vector<std::uint64_t>{0, 1}));

  const auto expect_matches = [&](std::uint64_t user,
                                  const std::string& name,
                                  std::uint64_t version) {
    std::ifstream src(from + "/" + name + ".policy", std::ios::binary);
    rl::QTable expect(reference.q().num_states(),
                      reference.q().num_actions());
    ASSERT_EQ(planning::load_policy_v2(src, steps, tools, expect), version);
    rl::QTable got(reference.q().num_states(), reference.q().num_actions());
    ASSERT_EQ(store.load(user, got), version);
    for (std::size_t s = 0; s < expect.num_states(); ++s) {
      for (std::size_t a = 0; a < expect.num_actions(); ++a) {
        ASSERT_EQ(got.get(static_cast<rl::StateId>(s),
                          static_cast<rl::ActionId>(a)),
                  expect.get(static_cast<rl::StateId>(s),
                             static_cast<rl::ActionId>(a)))
            << name << " state " << s << " action " << a;
      }
    }
  };
  expect_matches(0, "alice", 3);
  expect_matches(1, "bob", 7);
  std::filesystem::remove_all(from);
  std::filesystem::remove_all(out);
}

TEST(CliTest, PolicyMigrateToV3AndChainInspect) {
  const std::string from = ::testing::TempDir() + "/cli_v3_from";
  const std::string out = ::testing::TempDir() + "/cli_v3_out";
  std::filesystem::remove_all(from);
  std::filesystem::remove_all(out);
  std::filesystem::create_directories(from);
  ASSERT_EQ(run({"policy", "save", "--adl=Tea-making",
                 "--out=" + from + "/alice.policy", "--episodes=40",
                 "--version=3"})
                .code,
            0);

  // Per-file v2 -> v3 migration rewrites each snapshot as a v3 anchor,
  // keeping its version.
  const CliResult migrate =
      run({"policy", "migrate", "--adl=Tea-making", "--from=" + from,
           "--out=" + out, "--to=v3"});
  EXPECT_EQ(migrate.code, 0) << migrate.err;
  EXPECT_NE(migrate.out.find("Migrated 1/1 v2 snapshots"),
            std::string::npos);
  EXPECT_NE(migrate.out.find("v3 snapshots"), std::string::npos);

  const std::string path = out + "/alice.policy";
  const CliResult fresh = run({"policy", "inspect", "--in=" + path});
  EXPECT_EQ(fresh.code, 0) << fresh.err;
  EXPECT_NE(fresh.out.find("coreda-policy v3"), std::string::npos);
  EXPECT_NE(fresh.out.find("anchor version: 3"), std::string::npos);
  EXPECT_NE(fresh.out.find("deltas since last full: 0"), std::string::npos);
  EXPECT_NE(fresh.out.find("tail: ok"), std::string::npos);

  const CliResult load =
      run({"policy", "load", "--adl=Tea-making", "--in=" + path});
  EXPECT_EQ(load.code, 0) << load.err;
  EXPECT_NE(load.out.find("v3 (binary, delta chain)"), std::string::npos);
  EXPECT_NE(load.out.find("user version 3"), std::string::npos);
  EXPECT_NE(load.out.find("100%"), std::string::npos);

  // Extend the chain through a v3-mode store: restore the migrated anchor,
  // then flush twice — one full rebase (restore drops the diff base) and
  // one appended delta.
  {
    adl::AdlLibrary library;
    planning::RoutineLearner reference(library.by_name("Tea-making"),
                                       util::Rng(1));
    serve::PolicyStoreParams params;
    params.dir = out;
    params.flush_every = 1;
    params.format = serve::SnapshotFormat::kV3Delta;
    serve::PolicyStore store(reference, params);
    const serve::UserId alice = store.add_user("alice");
    ASSERT_TRUE(store.restore(alice).has_value());
    rl::QTable q = store.q(alice);
    q.set(0, 0, q.get(0, 0) + 1.0);
    store.stage(alice, q);  // version 4: full anchor rewrite
    q.set(0, 1, q.get(0, 1) + 1.0);
    store.stage(alice, q);  // version 5: delta append
  }
  const CliResult chained = run({"policy", "inspect", "--in=" + path});
  EXPECT_EQ(chained.code, 0) << chained.err;
  EXPECT_NE(chained.out.find("anchor version: 4"), std::string::npos);
  EXPECT_NE(chained.out.find("chain version: 5"), std::string::npos);
  EXPECT_NE(chained.out.find("deltas since last full: 1"),
            std::string::npos);
  EXPECT_NE(chained.out.find("tail: ok"), std::string::npos);

  const CliResult reload =
      run({"policy", "load", "--adl=Tea-making", "--in=" + path});
  EXPECT_EQ(reload.code, 0) << reload.err;
  EXPECT_NE(reload.out.find("user version 5"), std::string::npos);

  std::filesystem::remove_all(from);
  std::filesystem::remove_all(out);
}

TEST(CliTest, PolicyMigrateRejectsBadInputs) {
  const CliResult no_flags = run({"policy", "migrate"});
  EXPECT_EQ(no_flags.code, 1);
  EXPECT_NE(no_flags.err.find("--from"), std::string::npos);

  const CliResult bad_dir =
      run({"policy", "migrate", "--adl=Tea-making",
           "--from=/nonexistent/dir", "--out=" + ::testing::TempDir() +
                                          "/cli_migrate_none"});
  EXPECT_EQ(bad_dir.code, 2);

  // An empty source directory is an operator mistake, not a no-op success.
  const std::string empty = ::testing::TempDir() + "/cli_migrate_empty";
  std::filesystem::remove_all(empty);
  std::filesystem::create_directories(empty);
  const CliResult no_snapshots =
      run({"policy", "migrate", "--adl=Tea-making", "--from=" + empty,
           "--out=" + ::testing::TempDir() + "/cli_migrate_none"});
  EXPECT_EQ(no_snapshots.code, 2);
  EXPECT_NE(no_snapshots.err.find("no *.policy"), std::string::npos);
  std::filesystem::remove_all(empty);

  // A directory that is not a segment store fails inspect cleanly too.
  const CliResult not_store =
      run({"policy", "inspect", "--in=" + ::testing::TempDir()});
  EXPECT_EQ(not_store.code, 2);
  EXPECT_NE(not_store.err.find("store.meta"), std::string::npos);
}

// A negative lane count is a flag error, not a 2^64-lane allocation.
TEST(CliTest, PolicyMigrateRejectsNegativeWriters) {
  const std::string from = ::testing::TempDir() + "/cli_migrate_neg";
  const std::string out = ::testing::TempDir() + "/cli_migrate_neg_out";
  std::filesystem::remove_all(from);
  std::filesystem::create_directories(from);
  ASSERT_EQ(run({"policy", "save", "--adl=Tea-making",
                 "--out=" + from + "/alice.policy", "--episodes=10"})
                .code,
            0);
  const CliResult r = run({"policy", "migrate", "--adl=Tea-making",
                           "--from=" + from, "--out=" + out, "--writers=-1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error: flag --writers"), std::string::npos);
  std::filesystem::remove_all(from);
  std::filesystem::remove_all(out);
}

TEST(CliTest, PolicyRequiresKnownSubcommand) {
  const CliResult r = run({"policy", "frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("save|load|inspect|migrate"), std::string::npos);
  const CliResult missing = run({"policy", "inspect"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("--in"), std::string::npos);
  const CliResult absent =
      run({"policy", "inspect", "--in=/nonexistent/x.policy"});
  EXPECT_EQ(absent.code, 2);
}

TEST(CliTest, ScenarioReplaysFigure1) {
  const CliResult r = run({"scenario"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("red LED"), std::string::npos);
  EXPECT_NE(r.out.find("ADL complete"), std::string::npos);
}

TEST(CliTest, ScenarioRunExecutesAPlanFile) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cli_plan.scenario")
          .string();
  {
    std::ofstream out(path);
    out << "seed = 5\nusers = 2\nhint = Tea-making\n\n"
           "[segment Tea-making]\nsteps = 2\n\n"
           "[segment Tooth-brushing]\n\n"
           "[segment Tea-making]\nresume = true\n";
  }
  const CliResult r = run({"scenario", "run", path, "--jobs=2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("sessions=2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("checksum="), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, ScenarioCheckPrintsTheCanonicalForm) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cli_check.scenario")
          .string();
  {
    std::ofstream out(path);
    out << "seed = 9\n\n[segment Hand-washing]\n";
  }
  const CliResult r = run({"scenario", "check", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("# coreda scenario plan v1"), std::string::npos);
  EXPECT_NE(r.out.find("[segment Hand-washing]"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, ScenarioRunAndCheckValidateTheirInputs) {
  EXPECT_EQ(run({"scenario", "run"}).code, 1);
  EXPECT_EQ(run({"scenario", "run", "/no/such/file.scenario"}).code, 1);
  EXPECT_EQ(run({"scenario", "check"}).code, 1);
  EXPECT_EQ(run({"scenario", "wibble"}).code, 1);
}

TEST(CliTest, HomeRunsMultiAdlSessions) {
  const CliResult r = run({"home", "--sessions=3", "--severity=0.3",
                           "--hints"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Multi-ADL home sessions"), std::string::npos);
  EXPECT_NE(r.out.find("Tea-making"), std::string::npos);
}

TEST(CliTest, ReportProducesTable) {
  const CliResult r = run({"report", "--days=2"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Caregiver summary"), std::string::npos);
  EXPECT_NE(r.out.find("Tooth-brushing"), std::string::npos);
}

TEST(CliTest, RetrainClosesTheLoopAndReportsFullRecovery) {
  const CliResult r = run({"retrain", "--users=8", "--slots=2",
                           "--drifted=2", "--rounds=8", "--jobs=2"});
  EXPECT_EQ(r.code, 0) << r.out << r.err;  // 0 iff every drifted recovered
  EXPECT_NE(r.out.find("Closed-loop drift recovery"), std::string::npos);
  EXPECT_NE(r.out.find("2/2 drifted users recovered"), std::string::npos);

  // Same fleet, same rounds, different worker count: the whole report is
  // byte-identical.
  const CliResult serial = run({"retrain", "--users=8", "--slots=2",
                                "--drifted=2", "--rounds=8", "--jobs=1"});
  EXPECT_EQ(serial.code, 0);
  EXPECT_EQ(serial.out, r.out);
}

TEST(CliTest, RetrainValidatesItsFlags) {
  const CliResult r = run({"retrain", "--users=2", "--drifted=5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--drifted"), std::string::npos);
}

// Negative counts are flag errors, not sizes that wrap to 2^64.
TEST(CliTest, RetrainRejectsNegativeCounts) {
  const CliResult r = run({"retrain", "--users=-1", "--drifted=1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error: flag --users"), std::string::npos);
}

TEST(CliTest, FaultsRequiresASubcommand) {
  const CliResult r = run({"faults"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("plan|replay"), std::string::npos);
}

TEST(CliTest, FaultsPlanDumpsAndReplayConsumesIt) {
  // `faults plan` with no --out writes the plan text to stdout.
  const CliResult dumped = run({"faults", "plan", "--seed=9", "--rounds=2"});
  EXPECT_EQ(dumped.code, 0) << dumped.err;
  EXPECT_NE(dumped.out.find("seed = 9"), std::string::npos);
  EXPECT_NE(dumped.out.find("[site segment_store.pre_publish]"),
            std::string::npos);

  // With --out it lands in a file that `faults replay --plan=` accepts.
  const std::string plan_path = ::testing::TempDir() + "/cli_chaos.plan";
  const std::string dir = ::testing::TempDir() + "/cli_faults_replay";
  std::filesystem::remove_all(dir);
  const CliResult saved = run({"faults", "plan", "--seed=9", "--rounds=2",
                               "--out=" + plan_path});
  EXPECT_EQ(saved.code, 0) << saved.err;

  const CliResult replay =
      run({"faults", "replay", "--plan=" + plan_path, "--users=48",
           "--active=24", "--rounds=2", "--tail-rounds=1", "--jobs=2",
           "--dir=" + dir});
  EXPECT_EQ(replay.code, 0) << replay.out << replay.err;
  // The per-site injection log names the seams and the summary proves the
  // soak both injected faults and held its invariants.
  EXPECT_NE(replay.out.find("Per-site injection log"), std::string::npos);
  EXPECT_NE(replay.out.find("segment_store.pre_publish"), std::string::npos);
  EXPECT_NE(replay.out.find("radio.loss_burst"), std::string::npos);
  EXPECT_NE(replay.out.find("0 invariant violations"), std::string::npos);

  // Replay means replay: the same {seed, plan} at a different job count
  // prints the identical report.
  std::filesystem::remove_all(dir);
  const CliResult serial =
      run({"faults", "replay", "--plan=" + plan_path, "--users=48",
           "--active=24", "--rounds=2", "--tail-rounds=1", "--jobs=1",
           "--dir=" + dir});
  EXPECT_EQ(serial.code, 0);
  EXPECT_EQ(serial.out, replay.out);
}

TEST(CliTest, FaultsReplayRejectsAMalformedPlan) {
  const std::string plan_path = ::testing::TempDir() + "/cli_bad.plan";
  {
    std::ofstream file(plan_path);
    file << "seed = 1\n[site x]\nrate = not-a-number\n";
  }
  const CliResult r = run({"faults", "replay", "--plan=" + plan_path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("line 3"), std::string::npos);
}

TEST(CliTest, FaultsReplayRejectsNegativeCounts) {
  const CliResult r = run({"faults", "replay", "--users=-1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error: flag --users"), std::string::npos);
}

}  // namespace
}  // namespace coreda::cli
