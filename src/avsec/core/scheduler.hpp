// Discrete-event simulation kernel.
//
// A Scheduler owns a binary heap of (time, sequence, callback) events.
// Events scheduled for the same instant fire in scheduling order, which
// keeps runs bit-reproducible across platforms.
//
// Cancellation is lazy and O(1): every pending event owns a slot in a
// generation-tagged slot table, and its EventHandle packs (generation,
// slot). cancel() is one indexed load that checks the generation and marks
// the slot cancelled — campaigns cancel thousands of retransmit/watchdog
// timers per run — and the event body is dropped when it reaches the front
// of the heap. Popping (or dropping a tombstone) frees the slot and bumps
// its generation, so a handle whose event already ran can never cancel a
// later event that reuses the slot. The slot table and its free list are
// bounded by the peak number of pending events, not by the number of
// events ever scheduled. Popping moves the event out of the heap storage
// instead of copying it, so a pop never copy-constructs the std::function
// payload.
//
// reset() restores the exact freshly-constructed state while clear()ing
// the containers in place, so a pooled scheduler (fault::SimContext, see
// DESIGN.md §8) runs its next seed on warm storage — byte-identical to
// building a new scheduler per run.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "avsec/core/sync.hpp"
#include "avsec/core/time.hpp"

namespace avsec::core {

/// Handle to a scheduled event, usable for cancellation.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class Scheduler;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;  // generation << 32 | slot; generations start at 1
};

/// Single-threaded discrete-event scheduler.
///
/// Usage:
///   Scheduler sim;
///   sim.schedule_in(nanoseconds(10), [&]{ ... });
///   sim.run();
///
/// Thread confinement: a Scheduler is not a shared object — campaign
/// sweeps give every run its own Scheduler on its own pool thread, and
/// that confinement (not a lock) is the thread-safety story. The embedded
/// ThreadAffinity checker enforces it in debug / AVSEC_AFFINITY_CHECKS
/// builds: the scheduler binds to the first thread that mutates it and
/// aborts if a second thread ever does. Use rebind_thread() for the
/// build-on-one-thread / run-on-another handoff pattern.
class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Telemetry tap on event dispatch (implemented by avsec::obs — core
  /// cannot depend on obs, so the scheduler only sees this interface).
  /// on_dispatch fires immediately before each event body executes, so
  /// trace events emitted inside the body appear after the dispatch mark.
  class DispatchObserver {
   public:
    virtual ~DispatchObserver() = default;
    virtual void on_dispatch(SimTime now, std::uint64_t dispatched) = 0;
  };

  /// Installs (or, with nullptr, removes) the dispatch observer.
  void set_dispatch_observer(DispatchObserver* observer) {
    observer_ = observer;
  }

  /// Currently installed dispatch observer (nullptr when none). Observers
  /// that want to stack — e.g. a run-supervision guard over a tracer —
  /// read the current one and forward to it from their own on_dispatch.
  DispatchObserver* dispatch_observer() const { return observer_; }

  /// Total events executed over the scheduler's lifetime.
  std::uint64_t dispatched() const { return dispatched_; }

  /// Current simulation time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `at` (must be >= now()).
  EventHandle schedule_at(SimTime at, Callback cb);

  /// Schedules `cb` to run `delay` after the current time.
  EventHandle schedule_in(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Returns false if it already ran or was
  /// cancelled. The callback is dropped lazily when popped; repeated
  /// cancellation of the same handle is a counted-once no-op.
  bool cancel(EventHandle h);

  /// Runs events until the queue is empty. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= `until`; afterwards now() == until.
  std::size_t run_until(SimTime until);

  /// Executes exactly one event if any is pending. Returns true if one ran.
  bool step();

  /// Number of genuinely pending events (cancelled-but-unpopped excluded).
  std::size_t pending() const { return heap_.size() - cancelled_; }

  /// Transfers thread-confinement ownership to the calling thread.
  void rebind_thread() { affinity_.rebind(); }

  /// Restores the exact freshly-constructed state: queue emptied, slot
  /// table dropped, clocks and counters rewound, observer removed,
  /// affinity rebound to the calling thread. Containers are clear()ed in
  /// place, keeping their capacity for the next run.
  void reset();

 private:
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;    // tie-breaker: FIFO among equal times
    std::uint32_t slot = 0;   // index into slots_
    Callback cb;
  };
  enum class SlotState : std::uint8_t { kFree, kLive, kCancelled };
  struct Slot {
    std::uint32_t gen = 1;  // bumped on release; 0 is never handed out
    SlotState state = SlotState::kFree;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  bool pop_one();
  /// Takes a free slot (or appends one) and marks it live.
  std::uint32_t acquire_slot();
  /// Frees a popped event's slot and bumps its generation, invalidating
  /// every handle to it.
  void release_slot(std::uint32_t slot);
  bool is_cancelled(const Event& ev) const {
    return slots_[ev.slot].state == SlotState::kCancelled;
  }

  ThreadAffinity affinity_;  // single-thread confinement (see class docs)
  DispatchObserver* observer_ = nullptr;
  std::uint64_t dispatched_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<Event> heap_;  // std::push_heap/pop_heap with Later
  std::vector<Slot> slots_;  // one per event in heap_, plus freed ones
  std::vector<std::uint32_t> free_slots_;  // LIFO reuse of freed slots
  std::size_t cancelled_ = 0;  // tombstones still in heap_
};

}  // namespace avsec::core
