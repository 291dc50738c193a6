#include "avsec/core/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace avsec::core {

EventHandle Scheduler::schedule_at(SimTime at, Callback cb) {
  affinity_.check();
  assert(at >= now_ && "cannot schedule into the past");
  Event ev;
  ev.time = std::max(at, now_);
  ev.seq = next_seq_++;
  ev.slot = acquire_slot();
  ev.cb = std::move(cb);
  const EventHandle h(
      (static_cast<std::uint64_t>(slots_[ev.slot].gen) << 32) | ev.slot);
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return h;
}

bool Scheduler::cancel(EventHandle h) {
  affinity_.check();
  if (!h.valid()) return false;
  // Only genuinely pending events can be cancelled: a handle whose event
  // already ran carries a stale generation (its slot was released, maybe
  // reused), and a second cancel finds the slot already kCancelled — so a
  // slot turns into a tombstone at most once and pending() never
  // under-reports.
  const auto slot = static_cast<std::uint32_t>(h.id_);
  const auto gen = static_cast<std::uint32_t>(h.id_ >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen || s.state != SlotState::kLive) return false;
  s.state = SlotState::kCancelled;
  ++cancelled_;
  return true;
}

std::uint32_t Scheduler::acquire_slot() {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].state = SlotState::kLive;
  return slot;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.state = SlotState::kFree;
  if (++s.gen == 0) s.gen = 1;  // 0 would let a handle read as invalid
  free_slots_.push_back(slot);
}

bool Scheduler::pop_one() {
  affinity_.check();
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    const bool tombstone = is_cancelled(ev);
    // Released before the body runs: a handle to the running event is
    // already stale, so self-cancel inside the callback returns false.
    release_slot(ev.slot);
    if (tombstone) {
      --cancelled_;
      continue;
    }
    now_ = ev.time;
    ++dispatched_;
    if (observer_ != nullptr) observer_->on_dispatch(now_, dispatched_);
    ev.cb();
    return true;
  }
  return false;
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  while (pop_one()) ++n;
  return n;
}

std::size_t Scheduler::run_until(SimTime until) {
  affinity_.check();
  std::size_t n = 0;
  for (;;) {
    // Drop cancelled tombstones at the front first: the boundary check must
    // see the earliest *live* event, otherwise a cancelled event inside the
    // window would let pop_one() execute a live event beyond `until`.
    while (!heap_.empty() && is_cancelled(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      release_slot(heap_.back().slot);
      --cancelled_;
      heap_.pop_back();
    }
    if (heap_.empty() || heap_.front().time > until) break;
    if (pop_one()) ++n;
  }
  now_ = std::max(now_, until);
  return n;
}

bool Scheduler::step() { return pop_one(); }

void Scheduler::reset() {
  affinity_.rebind();
  // clear() keeps each container's capacity, so the next run on a pooled
  // scheduler schedules into warm storage.
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
  cancelled_ = 0;
  observer_ = nullptr;
  dispatched_ = 0;
  now_ = 0;
  next_seq_ = 1;
}

}  // namespace avsec::core
