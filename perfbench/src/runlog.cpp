#include "runlog.hpp"

#include <algorithm>

namespace perfbench {
namespace {

std::uint64_t metric_count(const avsec::fault::Metrics& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : static_cast<std::uint64_t>(it->second);
}

}  // namespace

RunLog::RunLog(std::size_t n_scenarios)
    : buf_(kCapacity), counts_(n_scenarios) {
  // Value-initialisation above writes every element, so the pages are
  // resident from set-up on.
}

void RunLog::add(std::uint16_t scenario, std::uint64_t seed, std::int64_t ns,
                 std::uint64_t events, const avsec::fault::Metrics& m) {
  const std::uint64_t frames =
      metric_count(m, "frames_sent") + metric_count(m, "attack_frames") +
      metric_count(m, "datagrams_sent") + metric_count(m, "beats_sent");
  const std::uint64_t handshakes = metric_count(m, "handshakes");
  const std::uint64_t rejected = metric_count(m, "attack_rejected");
  std::lock_guard<std::mutex> lock(mu_);
  ScenarioCounts& c = counts_[scenario];
  ++c.runs;
  c.events += events;
  c.frames += frames;
  c.handshakes += handshakes;
  c.rejected += rejected;
  c.host_ns += ns;
  if (seen_++ % stride_ != 0) return;
  if (size_ == buf_.size()) {
    // Keep the samples of runs 0, 2*stride, 4*stride, ...; this run's
    // index (capacity * stride) is a multiple of the doubled stride.
    for (std::size_t i = 0; i < size_ / 2; ++i) buf_[i] = buf_[2 * i];
    size_ /= 2;
    stride_ *= 2;
  }
  RunSample& s = buf_[size_++];
  s.seed = seed;
  s.ns = static_cast<std::uint32_t>(
      std::min<std::int64_t>(ns, std::numeric_limits<std::uint32_t>::max()));
  s.scenario = scenario;
}

std::vector<RunSample> RunLog::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(size_)};
}

std::vector<ScenarioCounts> RunLog::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

void RunLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  size_ = 0;
  seen_ = 0;
  stride_ = 1;
  std::fill(counts_.begin(), counts_.end(), ScenarioCounts{});
}

}  // namespace perfbench
