#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/home.hpp"
#include "serve/policy_store.hpp"

namespace coreda::serve {

struct HomePoolParams {
  /// Warm HomeDeployment instances; users shard statically to
  /// slot = user % slots.
  std::size_t slots = 4;
  /// Slot i's deployment is seeded with exec::trial_seed(seed, i).
  std::uint64_t seed = 42;
  /// Template for the donor and every slot deployment (seed overridden
  /// per slot).
  core::SystemConfig system{};
  /// Tracker parameters for every slot (the serving tier enables
  /// recognition-gated switching here; window 2 / patience 1 announces a
  /// switch on the second consecutive routine-ordered challenger tool).
  recognition::ActivityTracker::Params tracker{
      .switch_window = 2, .switch_threshold = 0.8, .switch_patience = 1};
  /// Donor pretraining: episodes per ADL, and the dataset seed.
  std::size_t pretrain_episodes = 120;
  std::uint64_t pretrain_seed = 7;
};

/// A fixed pool of warm whole-home deployments shared by many users — the
/// multi-ADL counterpart of SystemPool.
///
/// One donor HomeDeployment trains recognition and every ADL planner once;
/// each slot adopts the donor's recognizer and baseline policies at
/// construction. A session then is: checkout (restore the user's per-ADL
/// policies from their ONE bundle record, or fall back to the donor
/// baseline when they have none — or theirs is corrupt) -> run the scripted
/// session -> stage every ADL policy back into a fresh bundle record.
///
/// The pool owns each user's "coreda-bundle v1" record: every ADL's v2
/// record framed into one checksummed blob (planning::save_policy_bundle).
/// Because all of a user's ADLs live in one record, a user who interleaves
/// tea-making and tooth-brushing mid-session can never check out a torn
/// policy set. Records are memory-only and opaque until checkout, which
/// decodes them against the slot's learners (a corrupt record counts as a
/// rejected bundle, never an error mid-serve).
///
/// Determinism: static sharding (slot = user % slots) plus per-slot seeds
/// make every outcome a pure function of (params, bundle records, request
/// order). The ScenarioRunner runs one trial per slot on the exec pool, so
/// any --jobs value produces byte-identical results.
///
/// Thread-safety: add_user() and adopt_bundle() are setup-phase only.
/// Calls for users of different slots may run concurrently (disjoint
/// deployments, disjoint user entries — the entry vector never moves after
/// setup); calls within one slot must be serialized — which per-slot trial
/// sharding gives for free.
class HomePool {
 public:
  static constexpr UserId kNoUser = std::numeric_limits<UserId>::max();

  /// `library` must outlive the pool. The donor pretrains and every slot is
  /// built warm here — construction is the expensive phase.
  HomePool(const adl::AdlLibrary& library, HomePoolParams params = {});

  /// Registers a user with no bundle yet (their first checkout serves the
  /// donor baseline). Setup-phase only.
  UserId add_user(std::string name);
  const std::string& user_name(UserId user) const;

  /// The user's current bundle record, empty before their first session.
  const std::string& bundle(UserId user) const;
  /// Bumped by every stage-back and adopt_bundle(); 0 before the first.
  std::uint64_t version(UserId user) const;

  /// Adopts `record` from outside as the user's bundle (a restore, or a
  /// deliberately damaged record) and bumps their version. The record is
  /// validated only at the user's next checkout.
  void adopt_bundle(UserId user, std::string record);

  std::size_t slots() const noexcept { return slots_.size(); }
  std::size_t slot_for(UserId user) const noexcept {
    return user % slots_.size();
  }

  /// Serves one scripted multi-ADL session for `user` on its home slot:
  /// checkout -> run_script -> bundle stage-back.
  core::HomeScriptResult serve_script(UserId user,
                                      const core::SessionScript& script,
                                      const patient::PatientProfile& profile,
                                      sim::Duration max_duration);

  /// Sessions whose user was already resident on their slot (no restore).
  std::uint64_t hits() const noexcept;
  /// Sessions that restored the user's policies (bundle or donor).
  std::uint64_t swaps() const noexcept;
  std::uint64_t sessions() const noexcept;
  /// Checkouts whose bundle record failed validation (corrupt/truncated);
  /// each fell back to the donor baseline.
  std::uint64_t rejected_bundles() const noexcept;

  UserId resident(std::size_t slot) const;
  const core::HomeDeployment& deployment(std::size_t slot) const;
  const core::HomeDeployment& donor() const noexcept { return *donor_; }

 private:
  struct Slot {
    std::unique_ptr<core::HomeDeployment> home;
    UserId resident = kNoUser;
    std::uint64_t hits = 0;
    std::uint64_t swaps = 0;
    std::uint64_t sessions = 0;
    std::uint64_t rejected = 0;
  };

  struct User {
    std::string name;
    std::string bundle;
    std::uint64_t version = 0;
  };

  void checkout(UserId user, Slot& slot);
  void stage_back(UserId user, Slot& slot);

  const adl::AdlLibrary* library_;
  std::vector<User> users_;
  std::unique_ptr<core::HomeDeployment> donor_;
  std::vector<Slot> slots_;
};

}  // namespace coreda::serve
