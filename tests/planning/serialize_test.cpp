#include "planning/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "adl/library.hpp"

namespace coreda::planning {
namespace {

namespace T = adl::tools;

struct SerializeFixture : ::testing::Test {
  adl::AdlLibrary library;

  RoutineLearner trained() {
    RoutineLearner learner(library.tea_making(), util::Rng(5));
    const std::vector<adl::StepId> steps{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
    for (int i = 0; i < 80; ++i) learner.train_episode(steps);
    return learner;
  }
};

TEST_F(SerializeFixture, RoundTripPreservesEveryQValue) {
  RoutineLearner source = trained();
  std::stringstream buffer;
  save_policy_v2(buffer, source);

  RoutineLearner restored(library.tea_making(), util::Rng(99));
  load_policy_v2(buffer, restored);

  for (rl::StateId s = 0; s < source.q().num_states(); ++s) {
    for (rl::ActionId a = 0; a < source.q().num_actions(); ++a) {
      EXPECT_DOUBLE_EQ(restored.q().get(s, a), source.q().get(s, a));
    }
  }
  EXPECT_DOUBLE_EQ(restored.greedy_accuracy(), 1.0);
}

TEST_F(SerializeFixture, RestoredLearnerPredictsIdentically) {
  RoutineLearner source = trained();
  std::stringstream buffer;
  save_policy_v2(buffer, source);
  RoutineLearner restored(library.tea_making(), util::Rng(99));
  load_policy_v2(buffer, restored);

  for (const PlannerState& state : source.predicting_states()) {
    const auto a = source.predict(state);
    const auto b = restored.predict(state);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->action, b->action);
  }
}

TEST_F(SerializeFixture, WrongAdlRejected) {
  RoutineLearner source = trained();
  std::stringstream buffer;
  save_policy_v2(buffer, source);
  RoutineLearner other(library.tooth_brushing(), util::Rng(99));
  EXPECT_THROW(load_policy_v2(buffer, other), std::runtime_error);
}

TEST_F(SerializeFixture, GarbageRejected) {
  std::stringstream buffer("not a policy at all\n");
  RoutineLearner learner(library.tea_making(), util::Rng(1));
  EXPECT_THROW(load_policy_v2(buffer, learner), std::runtime_error);
}

TEST_F(SerializeFixture, TruncatedSnapshotLeavesLearnerUnchanged) {
  RoutineLearner source = trained();
  std::stringstream buffer;
  save_policy_v2(buffer, source);
  std::string text = buffer.str();
  text.resize(text.size() * 2 / 3);  // chop the tail of the Q rows

  RoutineLearner victim(library.tea_making(), util::Rng(2));
  const double before = victim.q().get(0, 0);
  std::stringstream truncated(text);
  EXPECT_THROW(load_policy_v2(truncated, victim), std::runtime_error);
  EXPECT_DOUBLE_EQ(victim.q().get(0, 0), before);
}

TEST_F(SerializeFixture, RestoredLearnerCanKeepTraining) {
  RoutineLearner source = trained();
  std::stringstream buffer;
  save_policy_v2(buffer, source);
  RoutineLearner restored(library.tea_making(), util::Rng(99));
  load_policy_v2(buffer, restored);

  const std::vector<adl::StepId> steps{T::kTeaBox, T::kElectricPot,
                                       T::kKettle, T::kTeaCup};
  for (int i = 0; i < 20; ++i) restored.train_episode(steps);
  EXPECT_DOUBLE_EQ(restored.greedy_accuracy(), 1.0);
}

TEST_F(SerializeFixture, ImportQRejectsWrongShape) {
  RoutineLearner learner(library.tea_making(), util::Rng(1));
  rl::QTable wrong(3, 3);
  EXPECT_THROW(learner.import_q(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace coreda::planning
