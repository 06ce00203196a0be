#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/system.hpp"
#include "exec/trial_runner.hpp"
#include "planning/lane_trainer.hpp"
#include "serve/policy_store.hpp"

namespace coreda::serve {

/// Everything that parameterizes the retraining scheduler.
struct RetrainParams {
  /// Master switch for the ServeEngine wiring. Off by default so the pure
  /// serving configuration (bench_serve_throughput, detection-only drains)
  /// keeps its byte-identical baseline; the closed-loop benches, the CLI
  /// `retrain` command and the retrain tests turn it on.
  bool enabled = false;
  /// Per-user retrain streams are seeded with trial_seed(seed, user), so a
  /// user's retrain outcome is a pure function of (their table, their
  /// transcripts, this seed) — never of which other users were flagged or
  /// how many workers drained the queue.
  std::uint64_t seed = 515151;
  /// Recent completed-session transcripts retained per user. Oldest is
  /// evicted first; the ring is provisioned at add_user so recording on the
  /// serve path never allocates.
  std::size_t ring_capacity = 8;
  /// Fixed per-transcript slot width, matching the session recorder's own
  /// provisioning bound; longer transcripts are truncated on record.
  std::size_t max_transcript_steps = core::kMaxSessionSteps;
  /// A retrain job is only enqueued once the user's ring holds at least
  /// this many transcripts — retraining on one bad day is how a planner
  /// learns the mistakes the paper warns about (§3.2).
  std::size_t min_transcripts = 4;
  /// Every retrain replays the whole ring this many times, oldest to
  /// newest. ring_capacity x replay_passes is the episode budget; A10
  /// (bench_drift_adaptation) puts useful re-convergence at a few dozen
  /// episodes from a converged stale table.
  std::size_t replay_passes = 8;
  /// Sessions a user must serve after a retrain before they may be
  /// retrained again — gives the refreshed policy time to move the EWMA
  /// (and fresh transcripts time to displace pre-retrain ones).
  std::size_t cooldown_sessions = 4;
};

/// Cumulative retraining counters, reported through the ServeReport.
struct RetrainCounters {
  std::uint64_t jobs = 0;      ///< retrain jobs executed
  std::uint64_t episodes = 0;  ///< transcript replays fed to lane trainers
  std::uint64_t aborted = 0;   ///< jobs killed by "retrain.abort" before
                               ///< staging (retried after the cooldown)
  std::uint64_t crashed_stages = 0;  ///< staged write-backs whose disk flush
                                     ///< an injected crash aborted (memory
                                     ///< state kept; flush retried later)
};

/// The detect->retrain->redeploy queue behind ServeEngine::drain.
///
/// The engine records every completed session's StepId transcript into the
/// flagged user's provisioned ring (zero allocations at steady state) and,
/// at drain time, enqueues a retrain job for each drift-flagged user whose
/// ring is deep enough. Draining the queue fans one trial per lane across
/// the exec pool — the same static shard the SystemPool serves with (lane =
/// user % lanes), so a job set retrains byte-identically at any --jobs.
/// Each lane replays its queue kLaneWidth users at a time through one warm
/// planning::LaneTrainer: every slot is re-armed on its user's current
/// PolicyStore table (begin_retraining: import + reseed + ε restart), the
/// rings are replayed in lockstep, and each refreshed table is staged
/// straight back — a new version, wear-batched to disk like any serve-path
/// write-back. Per-user results are byte-identical to a scalar
/// RoutineLearner replay: retrain streams are seeded per user and lane
/// slots never interact.
///
/// Thread-safety mirrors the serving tier: record() calls for users of
/// different lanes may run concurrently (disjoint rings); enqueue() and
/// drain() are drain-loop-serial. Lane trainers are touched only by their
/// lane's trial.
class RetrainScheduler {
 public:
  /// Users replayed in lockstep per lane batch.
  static constexpr std::size_t kLaneWidth = 8;

  /// `adl` and `store` must outlive the scheduler. `lanes` fixes the trial
  /// fan-out width (the engine passes its pool's slot count); one warm
  /// trainer per lane is built up front with `learner_config` — the same
  /// config the serving systems plan with, so a retrained table prices
  /// prompts exactly like the tables it replaces.
  RetrainScheduler(const adl::Adl& adl, PolicyStore& store,
                   planning::LearnerConfig learner_config, std::size_t lanes,
                   RetrainParams params = {});

  /// Registers the next user (ids must track the engine's — append-only,
  /// setup phase) and provisions their transcript ring.
  void add_user();
  std::size_t num_users() const noexcept { return rings_.size(); }

  /// Records one completed session's step trace into the user's ring,
  /// evicting the oldest transcript when full. Steps beyond
  /// max_transcript_steps are dropped. Allocation-free.
  void record(UserId user, std::span<const adl::StepId> steps);

  /// Transcripts currently held for the user (<= ring_capacity).
  std::size_t transcripts(UserId user) const;
  /// The i-th retained transcript, oldest first.
  std::span<const adl::StepId> transcript(UserId user, std::size_t i) const;

  /// Whether the user's ring is deep enough to retrain from.
  bool has_enough_transcripts(UserId user) const {
    return transcripts(user) >= params_.min_transcripts;
  }

  /// Queues a retrain job. Jobs allocate at most here (lane queues are
  /// pre-reserved as users register, so the steady state is 0 here too);
  /// the retrain itself runs allocation-free on warm lanes.
  void enqueue(UserId user);
  std::size_t queued() const noexcept;

  /// Executes every queued job — one trial per lane, jobs within a lane in
  /// enqueue order — and returns the retrained users (lane-major, stable).
  /// The span aliases internal storage and is valid until the next drain.
  /// Deterministic at any runner job count.
  std::span<const UserId> drain(exec::TrialRunner& runner);

  /// Runs one retrain immediately on the calling thread: a batch of one
  /// (the hook the allocation tests probe). Returns the episodes replayed.
  std::size_t retrain_user(UserId user);

  /// Lockstep-retrains up to kLaneWidth users of one lane through its
  /// LaneTrainer (the drain inner loop). All users must belong to `lane`.
  /// Returns the episodes replayed.
  std::size_t retrain_batch(std::size_t lane, std::span<const UserId> users);

  /// Cumulative counters. By value: the abort/crash tallies live in
  /// atomics (lane trials bump them concurrently) and are folded in here.
  RetrainCounters counters() const noexcept {
    RetrainCounters c = counters_;
    c.aborted = aborted_.load(std::memory_order_relaxed);
    c.crashed_stages = crashed_stages_.load(std::memory_order_relaxed);
    return c;
  }
  const RetrainParams& params() const noexcept { return params_; }

  /// Arms the scheduler's "retrain.abort" seam: a planned abort kills a
  /// retrain job after replay but before the refreshed table is staged —
  /// the user keeps their stale policy and the drift flag, and the engine's
  /// cooldown retries the job on a later drain. Keyed per (user, attempt
  /// counter), so the schedule is queue-composition-independent.
  void attach_faults(faults::Injector& injector) {
    injector.attach(abort_site_);
  }
  std::size_t lanes() const noexcept { return lane_queues_.size(); }
  std::size_t lane_for(UserId user) const noexcept {
    return user % lane_queues_.size();
  }

 private:
  /// Fixed-slot transcript ring: capacity x max_transcript_steps StepIds in
  /// one flat buffer, lengths alongside. head_ is the next slot to write.
  struct Ring {
    std::vector<adl::StepId> data;
    std::vector<std::uint32_t> lengths;
    std::size_t head = 0;
    std::size_t count = 0;
  };

  struct Lane {
    /// Lockstep replay engine, reused by every batch of the lane.
    std::unique_ptr<planning::LaneTrainer> trainer;
    /// Scatter target reused across jobs so staging stays allocation-free.
    std::unique_ptr<rl::QTable> scratch;
    std::vector<UserId> queue;
  };

  Ring& ring(UserId user);
  const Ring& ring(UserId user) const;

  /// Stages `q` back for `user` unless an injected abort or flush crash
  /// intervenes (counted; memory/disk retry semantics documented on the
  /// counters). Returns whether the table was staged.
  bool stage_retrained(UserId user, const rl::QTable& q);

  RetrainParams params_;
  PolicyStore* store_;
  std::vector<Ring> rings_;  // by UserId
  std::vector<Lane> lane_queues_;
  std::vector<UserId> retrained_;  ///< last drain's jobs, lane-major
  RetrainCounters counters_;
  faults::Site abort_site_{"retrain.abort"};
  std::vector<std::uint32_t> attempts_;  ///< per-user abort decision tick
  std::atomic<std::uint64_t> aborted_{0};
  std::atomic<std::uint64_t> crashed_stages_{0};
};

}  // namespace coreda::serve
