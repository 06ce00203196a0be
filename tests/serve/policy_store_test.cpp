// Snapshot robustness for the serving tier: v2 round-trip byte equality,
// rejection of truncated / bit-flipped / wrong-ADL snapshots with the
// destination left untouched (the v1 contract), version monotonicity on
// repeated write-back, and the wear-aware disk batching.

#include "serve/policy_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "adl/library.hpp"
#include "planning/serialize.hpp"

namespace coreda::serve {
namespace {

namespace T = adl::tools;
namespace fs = std::filesystem;

struct PolicyStoreFixture : ::testing::Test {
  adl::AdlLibrary library;

  planning::RoutineLearner trained(std::uint64_t seed = 5) {
    planning::RoutineLearner learner(library.tea_making(), util::Rng(seed));
    const std::vector<adl::StepId> steps{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
    for (int i = 0; i < 80; ++i) learner.train_episode(steps);
    return learner;
  }

  std::string fresh_dir(const char* name) {
    const std::string dir = ::testing::TempDir() + "/coreda_store_" + name;
    fs::remove_all(dir);
    return dir;
  }

  std::string v2_bytes(const planning::RoutineLearner& learner,
                       std::uint64_t version = 7) {
    std::ostringstream out(std::ios::binary);
    planning::save_policy_v2(out, learner, version);
    return out.str();
  }
};

TEST_F(PolicyStoreFixture, V2RoundTripIsByteIdentical) {
  planning::RoutineLearner source = trained();
  const std::string first = v2_bytes(source, 7);

  planning::RoutineLearner restored(library.tea_making(), util::Rng(99));
  std::istringstream in(first, std::ios::binary);
  EXPECT_EQ(planning::load_policy_v2(in, restored), 7u);

  // Byte equality of the re-serialized snapshot implies bit equality of
  // every Q value — stronger than EXPECT_DOUBLE_EQ per cell.
  EXPECT_EQ(v2_bytes(restored, 7), first);
}

TEST_F(PolicyStoreFixture, V2TruncationRejectedEverywhereLearnerUnchanged) {
  planning::RoutineLearner source = trained();
  const std::string bytes = v2_bytes(source);

  // Chop at several depths: inside the magic, the header, the vocab, the Q
  // block, and inside the trailing checksum.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{20}, std::size_t{60}, bytes.size() / 2,
        bytes.size() - 3}) {
    planning::RoutineLearner victim(library.tea_making(), util::Rng(2));
    const double before = victim.q().get(1, 1);
    std::istringstream in(bytes.substr(0, keep), std::ios::binary);
    EXPECT_THROW(planning::load_policy_v2(in, victim), std::runtime_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
    EXPECT_DOUBLE_EQ(victim.q().get(1, 1), before);
  }
}

TEST_F(PolicyStoreFixture, V2BitFlipRejectedByChecksum) {
  planning::RoutineLearner source = trained();
  std::string bytes = v2_bytes(source);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit deep in the Q block

  planning::RoutineLearner victim(library.tea_making(), util::Rng(2));
  const double before = victim.q().get(0, 0);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(planning::load_policy_v2(in, victim), std::runtime_error);
  EXPECT_DOUBLE_EQ(victim.q().get(0, 0), before);
}

TEST_F(PolicyStoreFixture, V2WrongAdlRejected) {
  planning::RoutineLearner source = trained();
  const std::string bytes = v2_bytes(source);

  planning::RoutineLearner other(library.tooth_brushing(), util::Rng(9));
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(planning::load_policy_v2(in, other), std::runtime_error);
}

TEST_F(PolicyStoreFixture, V2GarbageRejected) {
  planning::RoutineLearner victim(library.tea_making(), util::Rng(2));
  std::istringstream in("CRDAPOLX plus whatever follows",
                        std::ios::binary);
  EXPECT_THROW(planning::load_policy_v2(in, victim), std::runtime_error);
}

TEST_F(PolicyStoreFixture, InspectReadsHeaderWithoutLearner) {
  planning::RoutineLearner source = trained();
  std::istringstream in(v2_bytes(source, 42), std::ios::binary);
  const planning::PolicyV2Info info = planning::inspect_policy_v2(in);
  EXPECT_EQ(info.version, 42u);
  EXPECT_TRUE(info.checksum_ok);
  EXPECT_EQ(info.num_states, source.q().num_states());
  EXPECT_EQ(info.num_actions, source.q().num_actions());
  EXPECT_EQ(info.steps.size(), source.state_codec().symbols().size());
}

TEST_F(PolicyStoreFixture, InspectFlagsBadChecksumWithoutThrowing) {
  planning::RoutineLearner source = trained();
  std::string bytes = v2_bytes(source, 42);
  bytes[bytes.size() / 2] ^= 0x01;
  std::istringstream in(bytes, std::ios::binary);
  const planning::PolicyV2Info info = planning::inspect_policy_v2(in);
  EXPECT_EQ(info.version, 42u);
  EXPECT_FALSE(info.checksum_ok);
}

TEST_F(PolicyStoreFixture, DetectAndLoadAnyCoverBothFormats) {
  planning::RoutineLearner source = trained();

  std::stringstream v3;
  planning::save_policy_v3_full(v3, source.state_codec().symbols(),
                                source.action_codec().tools(), source.q(), 4);
  EXPECT_EQ(planning::detect_policy_format(v3),
            planning::PolicyFormat::kBinaryV3);
  planning::RoutineLearner from_v3(library.tea_making(), util::Rng(3));
  EXPECT_EQ(planning::load_policy_any(v3, from_v3), 4u);
  EXPECT_EQ(v2_bytes(from_v3, 9), v2_bytes(source, 9));

  std::stringstream v2(v2_bytes(source, 9));
  EXPECT_EQ(planning::detect_policy_format(v2),
            planning::PolicyFormat::kBinaryV2);
  planning::RoutineLearner from_v2(library.tea_making(), util::Rng(3));
  EXPECT_EQ(planning::load_policy_any(v2, from_v2), 9u);
  EXPECT_EQ(v2_bytes(from_v2, 9), v2_bytes(source, 9));

  // The retired v1 text format is not a snapshot any more.
  std::stringstream v1_text("coreda-policy v1\nsteps 0\n");
  EXPECT_EQ(planning::detect_policy_format(v1_text),
            planning::PolicyFormat::kUnknown);

  std::stringstream junk("neither format");
  EXPECT_EQ(planning::detect_policy_format(junk),
            planning::PolicyFormat::kUnknown);
  planning::RoutineLearner victim(library.tea_making(), util::Rng(3));
  EXPECT_THROW(planning::load_policy_any(junk, victim), std::runtime_error);
}

TEST_F(PolicyStoreFixture, StoreVersionsAreMonotonicPerWriteBack) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);  // memory-only
  const UserId u = store.add_user("tanaka");
  EXPECT_EQ(store.version(u), 1u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t before = store.version(u);
    store.stage(u, donor.q());
    EXPECT_EQ(store.version(u), before + 1);
  }
  EXPECT_EQ(store.version(u), 11u);
  EXPECT_EQ(store.staged_writes(), 10u);
  EXPECT_EQ(store.disk_writes(), 0u);  // memory-only: no wear at all
}

TEST_F(PolicyStoreFixture, WearBatchingWritesEveryNthStage) {
  planning::RoutineLearner donor = trained();
  PolicyStoreParams params;
  params.dir = fresh_dir("wear");
  params.flush_every = 4;
  PolicyStore store(donor, params);
  const UserId u = store.add_user("tanaka");

  for (int i = 0; i < 10; ++i) store.stage(u, donor.q());
  // Stages 4 and 8 hit the batch boundary; 10 staged writes cost 2 disk
  // writes — the EEPROM-style wear reduction.
  EXPECT_EQ(store.staged_writes(), 10u);
  EXPECT_EQ(store.disk_writes(), 2u);

  store.flush_all();  // the 2 unflushed stages go out now
  EXPECT_EQ(store.disk_writes(), 3u);
  store.flush_all();  // nothing dirty: no extra wear
  EXPECT_EQ(store.disk_writes(), 3u);
}

TEST_F(PolicyStoreFixture, AtomicWritePublishesNoTempFiles) {
  planning::RoutineLearner donor = trained();
  PolicyStoreParams params;
  params.dir = fresh_dir("atomic");
  params.flush_every = 1;  // every stage persists
  PolicyStore store(donor, params);
  const UserId u = store.add_user("tanaka");
  store.stage(u, donor.q());

  EXPECT_TRUE(fs::exists(store.path_for(u)));
  EXPECT_FALSE(fs::exists(store.path_for(u) + ".tmp"));

  std::ifstream in(store.path_for(u), std::ios::binary);
  const planning::PolicyV2Info info = planning::inspect_policy_v2(in);
  EXPECT_TRUE(info.checksum_ok);
  EXPECT_EQ(info.version, 2u);  // initial 1 + one stage
}

TEST_F(PolicyStoreFixture, RestoreResumesVersionAndValuesAfterRestart) {
  planning::RoutineLearner donor = trained();
  const std::string dir = fresh_dir("restart");
  {
    PolicyStoreParams params;
    params.dir = dir;
    params.flush_every = 100;  // force the dtor flush to do the persisting
    PolicyStore store(donor, params);
    const UserId u = store.add_user("tanaka");
    for (int i = 0; i < 5; ++i) store.stage(u, donor.q());
    EXPECT_EQ(store.version(u), 6u);
  }  // ~PolicyStore flushes

  planning::RoutineLearner blank(library.tea_making(), util::Rng(1));
  PolicyStoreParams params;
  params.dir = dir;
  PolicyStore store(blank, params);  // warm restart from an untrained ref
  const UserId u = store.add_user("tanaka");
  const auto version = store.restore(u);
  ASSERT_TRUE(version.has_value());
  EXPECT_EQ(*version, 6u);
  EXPECT_EQ(store.version(u), 6u);
  for (rl::StateId s = 0; s < donor.q().num_states(); ++s) {
    for (rl::ActionId a = 0; a < donor.q().num_actions(); ++a) {
      EXPECT_DOUBLE_EQ(store.q(u).get(s, a), donor.q().get(s, a));
    }
  }
}

TEST_F(PolicyStoreFixture, RestoreWithoutSnapshotReturnsNullopt) {
  planning::RoutineLearner donor = trained();
  PolicyStoreParams params;
  params.dir = fresh_dir("empty");
  PolicyStore store(donor, params);
  const UserId u = store.add_user("nobody");
  EXPECT_EQ(store.restore(u), std::nullopt);

  PolicyStore memory_only(donor);
  const UserId m = memory_only.add_user("nobody");
  EXPECT_EQ(memory_only.restore(m), std::nullopt);
}

TEST_F(PolicyStoreFixture, StoreRejectsMismatchedShapesAndUnknownUsers) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  EXPECT_THROW(store.add_user("x", rl::QTable(2, 2)),
               std::invalid_argument);
  const UserId u = store.add_user("ok");
  EXPECT_THROW(store.stage(u, rl::QTable(2, 2)), std::invalid_argument);
  EXPECT_THROW(store.q(u + 1), std::out_of_range);
  EXPECT_THROW((void)PolicyStore(donor, PolicyStoreParams{"", 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace coreda::serve
