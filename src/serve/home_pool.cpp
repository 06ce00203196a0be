#include "serve/home_pool.hpp"

#include <sstream>
#include <stdexcept>

#include "exec/trial_runner.hpp"
#include "planning/serialize.hpp"

namespace coreda::serve {

HomePool::HomePool(const adl::AdlLibrary& library, HomePoolParams params)
    : library_(&library) {
  if (params.slots == 0) {
    throw std::invalid_argument("HomePool: slots must be > 0");
  }

  core::SystemConfig donor_config = params.system;
  donor_config.seed = params.seed;
  donor_ = std::make_unique<core::HomeDeployment>(library, donor_config);
  donor_->pretrain(params.pretrain_episodes, params.pretrain_seed);

  slots_.resize(params.slots);
  for (std::size_t i = 0; i < params.slots; ++i) {
    core::SystemConfig config = params.system;
    config.seed = exec::trial_seed(params.seed, i);
    slots_[i].home = std::make_unique<core::HomeDeployment>(library, config);
    slots_[i].home->adopt_recognizer(donor_->recognizer());
    for (const adl::Adl& adl : library.adls()) {
      slots_[i].home->import_policy(adl.name(),
                                    donor_->learner(adl.name()).q());
    }
    slots_[i].home->set_tracker_params(params.tracker);
  }
}

UserId HomePool::add_user(std::string name) {
  users_.push_back(User{std::move(name), {}, 0});
  return static_cast<UserId>(users_.size() - 1);
}

const std::string& HomePool::user_name(UserId user) const {
  return users_.at(user).name;
}

const std::string& HomePool::bundle(UserId user) const {
  return users_.at(user).bundle;
}

std::uint64_t HomePool::version(UserId user) const {
  return users_.at(user).version;
}

void HomePool::adopt_bundle(UserId user, std::string record) {
  User& entry = users_.at(user);
  entry.bundle = std::move(record);
  ++entry.version;
}

void HomePool::checkout(UserId user, Slot& slot) {
  const std::string& record = users_.at(user).bundle;
  if (slot.resident == user) {
    ++slot.hits;
    return;
  }
  ++slot.swaps;
  slot.resident = user;

  if (!record.empty()) {
    // Decode the user's one bundle record into scratch tables; only when
    // *every* entry validates do the slot's learners adopt them.
    std::vector<rl::QTable> staged;
    std::vector<planning::PolicyBundleSlot> wanted;
    staged.reserve(library_->adls().size());
    wanted.reserve(library_->adls().size());
    for (const adl::Adl& adl : library_->adls()) {
      const planning::RoutineLearner& learner = slot.home->learner(adl.name());
      staged.emplace_back(learner.q().num_states(), learner.q().num_actions());
      wanted.push_back(planning::PolicyBundleSlot{
          adl.name(), learner.state_codec().symbols(),
          learner.action_codec().tools(), &staged.back()});
    }
    try {
      std::istringstream in(record);
      planning::load_policy_bundle(in, wanted);
      for (std::size_t i = 0; i < staged.size(); ++i) {
        slot.home->import_policy(library_->adls()[i].name(), staged[i]);
      }
      return;
    } catch (const std::runtime_error&) {
      ++slot.rejected;  // corrupt record: fall through to the baseline
    }
  }

  for (const adl::Adl& adl : library_->adls()) {
    slot.home->import_policy(adl.name(), donor_->learner(adl.name()).q());
  }
}

void HomePool::stage_back(UserId user, Slot& slot) {
  std::vector<planning::PolicyBundleItem> items;
  items.reserve(library_->adls().size());
  for (const adl::Adl& adl : library_->adls()) {
    const planning::RoutineLearner& learner = slot.home->learner(adl.name());
    items.push_back(planning::PolicyBundleItem{
        adl.name(), learner.state_codec().symbols(),
        learner.action_codec().tools(), &learner.q()});
  }
  User& entry = users_[user];
  std::ostringstream out;
  planning::save_policy_bundle(out, items, entry.version + 1);
  entry.bundle = std::move(out).str();
  ++entry.version;
}

core::HomeScriptResult HomePool::serve_script(
    UserId user, const core::SessionScript& script,
    const patient::PatientProfile& profile, sim::Duration max_duration) {
  Slot& slot = slots_[slot_for(user)];
  checkout(user, slot);
  core::HomeScriptResult result =
      slot.home->run_script(script, profile, max_duration);
  stage_back(user, slot);
  ++slot.sessions;
  return result;
}

std::uint64_t HomePool::hits() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.hits;
  return total;
}

std::uint64_t HomePool::swaps() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.swaps;
  return total;
}

std::uint64_t HomePool::sessions() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.sessions;
  return total;
}

std::uint64_t HomePool::rejected_bundles() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.rejected;
  return total;
}

UserId HomePool::resident(std::size_t slot) const {
  return slots_.at(slot).resident;
}

const core::HomeDeployment& HomePool::deployment(std::size_t slot) const {
  return *slots_.at(slot).home;
}

}  // namespace coreda::serve
