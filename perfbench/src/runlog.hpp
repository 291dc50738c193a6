// Per-run host-time log filled by the benchmark's run wrappers (the
// CtxRunFn passed to Campaign::sweep and the run_ctx of the wrapped serve
// entries). Storage is allocated and touched once in set-up, so peak RSS
// does not grow with the number of runs a faster program completes.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "avsec/fault/campaign.hpp"

namespace perfbench {

struct RunSample {
  std::uint64_t seed = 0;
  std::uint32_t ns = 0;  // host time of the run, saturating at ~4.29 s
  std::uint16_t scenario = 0;
};

/// Exact simulated-work counts per scenario, summed over logged runs.
struct ScenarioCounts {
  std::uint64_t runs = 0;
  std::uint64_t events = 0;     // scheduler dispatches
  std::uint64_t frames = 0;     // frames / datagrams / beats put on the wire
  std::uint64_t handshakes = 0;
  std::uint64_t rejected = 0;   // attack frames the defence rejected
  std::int64_t host_ns = 0;
};

class RunLog {
 public:
  /// Samples kept: about 3x the runs corpus_plain completes in a 40 s
  /// window on a 4-vCPU host (2 MiB). When the buffer fills, every other
  /// sample is dropped and from then on only every 2nd run (then 4th, ...)
  /// is sampled, so the samples stay spread evenly over the window however
  /// many runs a faster program completes.
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;

  explicit RunLog(std::size_t n_scenarios);

  /// Thread-safe. Counts every run; samples every stride()-th.
  void add(std::uint16_t scenario, std::uint64_t seed, std::int64_t ns,
           std::uint64_t events, const avsec::fault::Metrics& m);

  /// Snapshot (call while no run is in flight).
  std::vector<RunSample> samples() const;
  std::vector<ScenarioCounts> counts() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<RunSample> buf_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;    // runs added since clear()
  std::uint64_t stride_ = 1;  // sample the runs whose index is a multiple
  std::vector<ScenarioCounts> counts_;
};

}  // namespace perfbench
