// Reusable per-worker simulation context: the allocation-warm home of a
// campaign worker's or a serve worker's runs. Every run executes in one
// (fault::execute resets it before each attempt).
//
// A SimContext bundles what a worker should build once and reuse per
// seed: a Scheduler whose event heap and slot table keep their capacity
// across reset(), and a TraceRecorder whose ring (~1 MiB by default) and
// intern table persist across runs. reset() returns the whole bundle to a
// state indistinguishable from freshly constructed — the
// reset-determinism contract tests/fault/campaign_context_test.cpp
// enforces byte-for-byte on whole CampaignReports.
//
// Like the Scheduler it wraps, a SimContext is thread-confined, never
// shared: one context per pool worker, reset() rebinds confinement to
// the calling thread (the build-on-main / run-on-worker handoff).
#pragma once

#include <cstddef>
#include <cstdint>

#include "avsec/core/scheduler.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::fault {

class SimContext {
 public:
  /// `trace_capacity` sizes the recorder's ring; a context whose recorder
  /// is never installed needs only 1.
  explicit SimContext(
      std::size_t trace_capacity = obs::TraceRecorder::kDefaultCapacity);

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  /// The scheduler for the current run.
  core::Scheduler& sim() { return sim_; }
  /// Persistent recorder: ring and intern table survive reset().
  obs::TraceRecorder& recorder() { return recorder_; }

  /// Rewinds everything between seeds: scheduler back to its
  /// freshly-constructed state (storage kept), then the recorder (counts
  /// and tracks rewound, intern cache kept).
  /// Also rebinds thread confinement to the caller, so the first reset()
  /// on a pool worker doubles as the ownership handoff.
  void reset();

  /// reset() calls over the context's lifetime (for tests and benches).
  std::uint64_t resets() const { return resets_; }

 private:
  core::Scheduler sim_;
  obs::TraceRecorder recorder_;
  std::uint64_t resets_ = 0;
};

}  // namespace avsec::fault
