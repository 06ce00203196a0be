#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace coreda::sim {

class Scheduler;

/// Handle to a scheduled event; lets the owner cancel it before it fires.
///
/// Copyable (copies refer to the same scheduler slot, so a cancel() through
/// any copy stops the event). A default-constructed handle refers to nothing
/// and is inert. Handles must not be used after their Scheduler is
/// destroyed; they hold a (slot, generation) ticket, not ownership.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing (again, for periodic series). Safe to
  /// call repeatedly and after the event has already fired.
  void cancel() noexcept;

  bool valid() const noexcept { return scheduler_ != nullptr; }

  /// True when the event will never fire again: it was cancelled, it was a
  /// one-shot that already fired, or it was a periodic series that ended
  /// (cancelled or killed by a throwing callback).
  bool cancelled() const noexcept;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* scheduler, std::uint32_t slot,
              std::uint64_t generation) noexcept
      : scheduler_(scheduler), slot_(slot), generation_(generation) {}

  Scheduler* scheduler_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// Deterministic single-threaded discrete-event scheduler.
///
/// Events at equal timestamps fire in insertion order (a monotonically
/// increasing sequence number breaks ties), which keeps co-scheduled
/// periodic tasks — e.g. many PAVENET firmware ticks — deterministic.
///
/// Cancellation is tracked in a generation-counted slot pool instead of a
/// heap-allocated flag per event: scheduling, firing and rescheduling a
/// periodic series allocate nothing on the steady-state path (the slot and
/// the event's callback are reused across periods), which matters when many
/// trial simulations run concurrently and each fires millions of 10 Hz
/// ticks. A Scheduler instance is single-threaded by design; parallel
/// experiments give every trial its own Scheduler (see exec::TrialRunner).
class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const noexcept { return now_; }

  /// Pre-sizes the event heap and the slot pool for `events` simultaneously
  /// pending events. Purely a capacity hint: a cold system's first session
  /// otherwise pays the growth allocations mid-run, which shows up in the
  /// serving benches' allocs_per_session.
  void reserve(std::size_t events);

  /// Schedules `fn` at absolute time `when`. Scheduling in the past is a
  /// programming error and throws std::invalid_argument.
  EventHandle schedule_at(TimePoint when, Callback fn);

  /// Schedules `fn` `delay` after the current virtual time.
  EventHandle schedule_after(Duration delay, Callback fn);

  /// Schedules `fn` every `period`, first firing at now + period. Cancel
  /// via the returned handle to stop the series. A callback that throws
  /// ends the series: the exception propagates to the run() caller and the
  /// handle observes cancelled() == true.
  EventHandle schedule_periodic(Duration period, Callback fn);

  /// Runs events until the queue is empty or `limit` events have fired.
  /// Returns the number of events fired.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamps <= deadline, then advances the clock to the
  /// deadline. Returns the number of events fired.
  std::size_t run_until(TimePoint deadline);

  /// Runs for `span` of virtual time from the current instant.
  std::size_t run_for(Duration span) { return run_until(now_ + span); }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Callbacks fired since construction (monotonic; cancelled events that
  /// are reaped without firing do not count). A deterministic work counter:
  /// differences over a session give its scheduler events.
  std::uint64_t events_fired() const noexcept { return events_fired_; }

 private:
  friend class EventHandle;

  struct Event {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
    Duration period;  ///< zero duration = one-shot
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Cancellation state of one live event. Freed slots bump `generation`,
  /// so stale handles (whose generation no longer matches) read as "event
  /// is gone" rather than touching an unrelated event.
  struct Slot {
    std::uint64_t generation = 0;
    bool cancelled = false;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;
  bool slot_cancelled(std::uint32_t slot, std::uint64_t generation) const
      noexcept;
  void cancel_slot(std::uint32_t slot, std::uint64_t generation) noexcept;

  void push_event(Event event);
  Event pop_event();
  bool fire_next();

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  std::vector<Event> heap_;  ///< binary heap ordered by Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace coreda::sim
