#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "faults/faults.hpp"
#include "planning/learner.hpp"
#include "rl/q_table.hpp"

namespace coreda::serve {

/// Index of a registered user in a PolicyStore / ServeEngine. Users are
/// registered once at startup and addressed by index on the serving hot
/// path — no string lookups per session.
using UserId = std::uint32_t;

/// On-disk snapshot encoding of a PolicyStore's per-user files.
enum class SnapshotFormat : std::uint8_t {
  kV2 = 2,       ///< one full "coreda-policy v2" record per flush
  kV3Delta = 3,  ///< v3 anchor + appended changed-row delta records
};

struct PolicyStoreParams {
  /// Snapshot directory. One policy file per user, `<dir>/<user>.policy`.
  /// Empty = memory-only store: versions and staging still work, nothing
  /// ever touches disk (the pure-serving configuration the benches use).
  std::string dir;
  /// Wear-aware write batching, mirroring the node EEPROM model: a policy
  /// write-back lands in the in-memory entry immediately, but only every
  /// `flush_every`-th staged write per user is persisted to disk (plus
  /// explicit flush() / flush_all() / destruction). A box serving 20
  /// sessions/user/day with the default batching writes each user's file
  /// ~2-3 times a day instead of 20 — the same k-fold wear reduction the
  /// nodes' EEPROM ring buys their flash.
  std::size_t flush_every = 8;
  /// v2 (default): every flush atomically rewrites the full snapshot.
  /// v3: a flush appends one delta record carrying only the Q rows that
  /// changed since the last persisted state — the write-amplification fix
  /// for large-vocab tables — with a fresh full anchor (atomic tmp+rename)
  /// every `rebase_every` deltas and after every restore. A v3 store
  /// restores v2 files transparently and rebases them to v3 on the next
  /// flush (the in-place migration path `policy migrate` batch-drives).
  SnapshotFormat format = SnapshotFormat::kV2;
  /// Max delta records between full anchors in v3 mode (bounds chain replay
  /// time and the blast radius of a torn tail).
  std::size_t rebase_every = 8;
};

/// Per-user versioned policy snapshots for the serving tier.
///
/// The store is the source of truth between sessions: a SystemPool slot
/// checks a user's table out (import_policy), serves, and stages the table
/// back. Every stage bumps the user's version monotonically, so operators
/// can tell a stale snapshot from a current one, and a warm restart
/// (restore()) resumes from the last flushed version. Persistence is one
/// snapshot file per user (see PolicyStoreParams); the fleet tier's shared
/// segment files are serve::SegmentStore, driven directly by FleetEngine.
///
/// Thread-safety: add_user() and restore() are setup-phase only. stage()
/// and the per-user readers may be called concurrently for *different*
/// users (the ServeEngine shards disjoint users across slots); concurrent
/// calls for the same user are the caller's bug. Aggregate counters
/// (staged_writes, disk_writes) are sums over per-user counters and are
/// meant to be read after a drain, not mid-flight.
class PolicyStore {
 public:
  /// Captures the snapshot schema — step/tool vocabularies and table shape
  /// — from `reference`, typically the offline-trained donor learner.
  /// Every user entry starts as a copy of the reference table (version 1).
  /// Creates `params.dir` when set and missing.
  explicit PolicyStore(const planning::RoutineLearner& reference,
                       PolicyStoreParams params = {});

  /// Flushes every dirty entry (best effort — errors are swallowed, a
  /// destructor cannot throw; call flush_all() first to observe failures).
  ~PolicyStore();

  PolicyStore(const PolicyStore&) = delete;
  PolicyStore& operator=(const PolicyStore&) = delete;

  /// Registers a user starting from the reference policy. Not callable
  /// while sessions are being served (entry references would move).
  UserId add_user(std::string name);
  /// Registers a user with an explicit starting table (must match the
  /// reference shape; throws std::invalid_argument otherwise).
  UserId add_user(std::string name, const rl::QTable& initial);

  std::size_t num_users() const noexcept { return entries_.size(); }
  const std::string& user_name(UserId user) const;
  /// The user's current table — what the next checkout will serve.
  const rl::QTable& q(UserId user) const;
  std::uint64_t version(UserId user) const;

  /// Write-back: copies `q` into the user's entry and bumps its version.
  /// Allocation-free at steady state (same-shape table copy); flushes to
  /// disk only when the wear batch fills (see PolicyStoreParams).
  void stage(UserId user, const rl::QTable& q);

  /// Persists the user's entry now (no-op when memory-only). Throws
  /// std::runtime_error when the snapshot cannot be written.
  void flush(UserId user);
  void flush_all();

  /// Warm restart: loads the user's committed snapshot into the entry and
  /// adopts its version. Returns the version, or nullopt when the store is
  /// memory-only or no snapshot exists yet. Throws std::runtime_error on a
  /// corrupt/mismatched snapshot (entry unchanged).
  std::optional<std::uint64_t> restore(UserId user);

  /// Total stage() calls across users — the writes the policy tier *asked*
  /// for...
  std::uint64_t staged_writes() const noexcept;
  /// ...and the snapshots actually persisted — the wear the disk *saw*.
  std::uint64_t disk_writes() const noexcept;
  /// Bytes those persisted snapshots put on disk (full records in v2 mode;
  /// anchors + delta records in v3 mode) — the write-amplification metric
  /// the retrain bench gates.
  std::uint64_t flush_bytes() const noexcept;

  /// Snapshot location for a user, `<dir>/<name>.policy`; empty when
  /// memory-only.
  std::string path_for(UserId user) const;

  /// The crash seam, as a faults::Site: evaluated with the publish target
  /// after the snapshot body is fully written but *before* the rename (v2 /
  /// v3 anchor) or before any byte lands (v3 delta append). A crash here —
  /// a throwing test hook or a planned faults::InjectedCrash — leaves the
  /// committed snapshot untouched and the entry still unflushed, so a later
  /// flush retries. SegmentStore's seam has the same contract.
  faults::Site& pre_publish_site() noexcept { return pre_publish_site_; }

  /// Arms this store's fault sites (crash + snapshot-byte corruption)
  /// against `injector`'s plan. Setup-phase only.
  void attach_faults(faults::Injector& injector) {
    injector.attach(pre_publish_site_);
    injector.attach(corrupt_site_);
  }

  std::span<const adl::StepId> steps() const noexcept { return steps_; }
  std::span<const adl::ToolId> tools() const noexcept { return tools_; }
  const PolicyStoreParams& params() const noexcept { return params_; }

 private:
  struct Entry {
    std::string name;
    rl::QTable q;
    std::uint64_t version = 1;
    std::uint64_t staged = 0;    ///< stage() calls on this entry
    std::uint64_t disk = 0;      ///< snapshot writes persisted for this entry
    std::size_t unflushed = 0;   ///< stages since the last persisted write
    std::uint64_t flush_bytes = 0;  ///< snapshot bytes persisted so far
    // --- v3 chain state ---------------------------------------------------
    /// The table as the committed file reconstructs it — the diff base for
    /// the next delta. Null until the first v3 anchor lands (or after a
    /// restore/append failure), which forces a full rewrite.
    std::unique_ptr<rl::QTable> flushed = nullptr;
    std::uint64_t flushed_version = 0;  ///< version the chain ends at
    std::size_t chain_deltas = 0;       ///< deltas since the last anchor
  };

  Entry& entry(UserId user);
  const Entry& entry(UserId user) const;

  /// Durably records `e` (table + version) for `user`: a v2/v3 full
  /// snapshot via `<dir>/<name>.policy.tmp` + rename, or a v3 delta append.
  /// A crash mid-write leaves the previous committed snapshot readable.
  /// Leaves `e.unflushed`/`e.disk` untouched — the caller accounts for wear
  /// after a successful return.
  void persist(UserId user, Entry& e);

  PolicyStoreParams params_;
  std::vector<adl::StepId> steps_;
  std::vector<adl::ToolId> tools_;
  rl::QTable reference_;
  std::vector<Entry> entries_;
  faults::Site pre_publish_site_{"policy_store.pre_publish"};
  faults::Site corrupt_site_{"policy_store.corrupt"};
};

}  // namespace coreda::serve
