#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace coreda::sim {

void EventHandle::cancel() noexcept {
  if (scheduler_) scheduler_->cancel_slot(slot_, generation_);
}

bool EventHandle::cancelled() const noexcept {
  return scheduler_ && scheduler_->slot_cancelled(slot_, generation_);
}

void Scheduler::reserve(std::size_t events) {
  heap_.reserve(events);
  slots_.reserve(events);
  free_slots_.reserve(events);
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.push_back(Slot{});
  // Keep the free list's capacity pegged to the slot table: at most
  // slots_.size() slots can ever be free at once, so release_slot() below
  // can stay allocation-free (it runs on the steady-state firing path; the
  // only growth allocations happen here, when the high-water mark rises).
  if (free_slots_.capacity() < slots_.size()) {
    free_slots_.reserve(slots_.capacity());  // grow geometrically, in step
  }
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t slot) noexcept {
  ++slots_[slot].generation;
  slots_[slot].cancelled = false;
  free_slots_.push_back(slot);
}

bool Scheduler::slot_cancelled(std::uint32_t slot,
                               std::uint64_t generation) const noexcept {
  // A generation mismatch means the event died (fired, series ended, or was
  // cancelled and reaped); either way it will never fire again.
  if (slots_[slot].generation != generation) return true;
  return slots_[slot].cancelled;
}

void Scheduler::cancel_slot(std::uint32_t slot,
                            std::uint64_t generation) noexcept {
  if (slots_[slot].generation == generation) slots_[slot].cancelled = true;
}

void Scheduler::push_event(Event event) {
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Scheduler::Event Scheduler::pop_event() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event event = std::move(heap_.back());
  heap_.pop_back();
  return event;
}

EventHandle Scheduler::schedule_at(TimePoint when, Callback fn) {
  if (when < now_) {
    throw std::invalid_argument("Scheduler::schedule_at: time is in the past");
  }
  const std::uint32_t slot = acquire_slot();
  push_event(Event{when, next_seq_++, slot, Duration(), std::move(fn)});
  return EventHandle(this, slot, slots_[slot].generation);
}

EventHandle Scheduler::schedule_after(Duration delay, Callback fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Scheduler::schedule_periodic(Duration period, Callback fn) {
  if (period <= Duration()) {
    throw std::invalid_argument(
        "Scheduler::schedule_periodic: period must be positive");
  }
  const std::uint32_t slot = acquire_slot();
  push_event(Event{now_ + period, next_seq_++, slot, period, std::move(fn)});
  return EventHandle(this, slot, slots_[slot].generation);
}

bool Scheduler::fire_next() {
  while (!heap_.empty()) {
    Event ev = pop_event();
    if (slots_[ev.slot].cancelled) {
      release_slot(ev.slot);
      continue;
    }
    now_ = ev.when;
    ++events_fired_;
    if (ev.period > Duration()) {
      // Periodic: the slot stays alive across reschedules, so the whole
      // series costs one slot and one callback, reused every period. A
      // throwing callback ends the series observably (the slot dies, so
      // the handle reads cancelled() == true) and propagates.
      try {
        ev.fn();
      } catch (...) {
        release_slot(ev.slot);
        throw;
      }
      if (slots_[ev.slot].cancelled) {
        release_slot(ev.slot);
      } else {
        push_event(Event{now_ + ev.period, next_seq_++, ev.slot, ev.period,
                         std::move(ev.fn)});
      }
    } else {
      // One-shot: the event is spent the moment it fires; release before
      // the callback so a reentrant schedule_* can reuse the slot (stale
      // handles are protected by the generation counter).
      release_slot(ev.slot);
      ev.fn();
    }
    return true;
  }
  return false;
}

std::size_t Scheduler::run(std::size_t limit) {
  std::size_t fired = 0;
  while (fired < limit && fire_next()) ++fired;
  return fired;
}

std::size_t Scheduler::run_until(TimePoint deadline) {
  std::size_t fired = 0;
  while (!heap_.empty()) {
    // Reap cancelled events without advancing the clock.
    const Event& top = heap_.front();
    if (slots_[top.slot].cancelled) {
      release_slot(pop_event().slot);
      continue;
    }
    if (top.when > deadline) break;
    if (fire_next()) ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

}  // namespace coreda::sim
