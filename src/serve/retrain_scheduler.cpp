#include "serve/retrain_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace coreda::serve {

RetrainScheduler::RetrainScheduler(const adl::Adl& adl, PolicyStore& store,
                                   planning::LearnerConfig learner_config,
                                   std::size_t lanes, RetrainParams params)
    : params_(params), store_(&store) {
  if (lanes == 0) {
    throw std::invalid_argument("RetrainScheduler: lanes must be >= 1");
  }
  if (params_.ring_capacity == 0 || params_.max_transcript_steps == 0) {
    throw std::invalid_argument(
        "RetrainScheduler: ring_capacity and max_transcript_steps must be "
        ">= 1");
  }
  if (params_.min_transcripts == 0 || params_.replay_passes == 0) {
    throw std::invalid_argument(
        "RetrainScheduler: min_transcripts and replay_passes must be >= 1");
  }
  lane_queues_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    Lane lane;
    // Transcript slots bound episode length, so pre-sizing the trainer's
    // traces/scratch here makes retrains alloc-free.
    lane.trainer = std::make_unique<planning::LaneTrainer>(
        adl, kLaneWidth, learner_config, params_.max_transcript_steps);
    lane.scratch = std::make_unique<rl::QTable>(lane.trainer->num_states(),
                                                lane.trainer->num_actions());
    lane_queues_.push_back(std::move(lane));
  }
}

void RetrainScheduler::add_user() {
  Ring ring;
  ring.data.resize(params_.ring_capacity * params_.max_transcript_steps);
  ring.lengths.resize(params_.ring_capacity, 0);
  rings_.push_back(std::move(ring));
  attempts_.push_back(0);
  // Worst case every user queues one job on the same lane: reserving the
  // user count keeps enqueue() allocation-free from here on.
  for (Lane& lane : lane_queues_) lane.queue.reserve(rings_.size());
  retrained_.reserve(rings_.size());
}

RetrainScheduler::Ring& RetrainScheduler::ring(UserId user) {
  if (user >= rings_.size()) {
    throw std::out_of_range("RetrainScheduler: unknown user id " +
                            std::to_string(user));
  }
  return rings_[user];
}

const RetrainScheduler::Ring& RetrainScheduler::ring(UserId user) const {
  return const_cast<RetrainScheduler*>(this)->ring(user);
}

void RetrainScheduler::record(UserId user,
                              std::span<const adl::StepId> steps) {
  Ring& r = ring(user);
  const std::size_t len =
      std::min(steps.size(), params_.max_transcript_steps);
  adl::StepId* slot = r.data.data() + r.head * params_.max_transcript_steps;
  std::copy_n(steps.data(), len, slot);
  r.lengths[r.head] = static_cast<std::uint32_t>(len);
  r.head = (r.head + 1) % params_.ring_capacity;
  r.count = std::min(r.count + 1, params_.ring_capacity);
}

std::size_t RetrainScheduler::transcripts(UserId user) const {
  return ring(user).count;
}

std::span<const adl::StepId> RetrainScheduler::transcript(
    UserId user, std::size_t i) const {
  const Ring& r = ring(user);
  if (i >= r.count) {
    throw std::out_of_range("RetrainScheduler: transcript index " +
                            std::to_string(i) + " out of range");
  }
  const std::size_t cap = params_.ring_capacity;
  const std::size_t slot = (r.head + cap - r.count + i) % cap;
  return {r.data.data() + slot * params_.max_transcript_steps,
          r.lengths[slot]};
}

void RetrainScheduler::enqueue(UserId user) {
  (void)ring(user);  // validate the id
  lane_queues_[lane_for(user)].queue.push_back(user);
}

std::size_t RetrainScheduler::queued() const noexcept {
  std::size_t total = 0;
  for (const Lane& lane : lane_queues_) total += lane.queue.size();
  return total;
}

std::size_t RetrainScheduler::retrain_user(UserId user) {
  (void)ring(user);  // validate the id
  return retrain_batch(lane_for(user), {&user, 1});
}

bool RetrainScheduler::stage_retrained(UserId user, const rl::QTable& q) {
  // Abort seam: the job dies after replay, before publishing — the user
  // keeps the stale table and the drift flag, and the engine's cooldown
  // retries on a later drain. The per-user attempt counter advances even on
  // an abort, so a retried job rolls a fresh decision.
  const std::uint32_t attempt = ++attempts_[user];
  if (abort_site_.should_inject(user, attempt)) {
    aborted_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  try {
    store_->stage(user, q);
  } catch (const faults::InjectedCrash&) {
    // stage() updated the in-memory entry before the disk flush crashed:
    // the refreshed table IS live and versioned, only its persistence is
    // deferred to a later wear batch.
    crashed_stages_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

std::size_t RetrainScheduler::retrain_batch(std::size_t lane,
                                            std::span<const UserId> users) {
  planning::LaneTrainer& trainer = *lane_queues_[lane].trainer;
  std::size_t episodes = 0;
  // The retrain stream is keyed by the user, not the trial: the outcome
  // cannot depend on which lane (or how many) the job shares a drain with.
  for (std::size_t i = 0; i < users.size(); ++i) {
    trainer.begin_retraining(
        i, store_->q(users[i]),
        util::Rng(exec::trial_seed(params_.seed, users[i])));
  }
  // Pass-major lockstep over every slot's replay sequence (the whole ring,
  // oldest to newest, replay_passes times), ragged when users' rings hold
  // different transcript counts.
  for (std::size_t round = 0;; ++round) {
    bool any = false;
    for (std::size_t i = 0; i < users.size(); ++i) {
      const Ring& r = ring(users[i]);
      if (round >= params_.replay_passes * r.count) continue;
      trainer.queue_episode(i, transcript(users[i], round % r.count));
      any = true;
      ++episodes;
    }
    if (!any) break;
    trainer.train_queued();
  }
  // Stage the refreshed tables back: a new version for the store, flushed
  // to disk on the same wear batch as any serve-path write-back.
  rl::QTable& scratch = *lane_queues_[lane].scratch;
  for (std::size_t i = 0; i < users.size(); ++i) {
    trainer.export_q(i, scratch);
    stage_retrained(users[i], scratch);
  }
  return episodes;
}

std::span<const UserId> RetrainScheduler::drain(exec::TrialRunner& runner) {
  retrained_.clear();
  if (queued() == 0) return retrained_;

  // One trial per lane, like the engine's serve drain: a lane's queue is
  // chunked through its lockstep trainer in enqueue order on whichever
  // worker takes the trial. Jobs of different lanes touch disjoint
  // trainers, rings and store entries.
  std::vector<std::size_t> lane_episodes(lane_queues_.size(), 0);
  runner.run(lane_queues_.size(), /*base_seed=*/0,
             [&](exec::TrialContext& ctx) -> char {
               const std::vector<UserId>& queue =
                   lane_queues_[ctx.index].queue;
               for (std::size_t base = 0; base < queue.size();
                    base += kLaneWidth) {
                 const std::size_t n =
                     std::min(kLaneWidth, queue.size() - base);
                 lane_episodes[ctx.index] += retrain_batch(
                     ctx.index, {queue.data() + base, n});
               }
               return 0;
             });

  for (std::size_t lane = 0; lane < lane_queues_.size(); ++lane) {
    for (const UserId user : lane_queues_[lane].queue) {
      retrained_.push_back(user);
      ++counters_.jobs;
    }
    counters_.episodes += lane_episodes[lane];
    lane_queues_[lane].queue.clear();
  }
  return retrained_;
}

}  // namespace coreda::serve
