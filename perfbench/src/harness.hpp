// Shared machinery of the repo benchmark: host clock, seed derivation,
// the open-loop request schedule, tail-safe percentiles, output digests
// and the result line.
//
// Everything here is independent of the code under test (its own
// splitmix64 generator, its own FNV-1a digest), so a change to the
// simulator can move the measured numbers but never the benchmark's
// inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "avsec/fault/campaign.hpp"
#include "avsec/serve/request.hpp"

namespace perfbench {

/// Host wall clock (steady), nanoseconds.
std::int64_t now_ns();

/// splitmix64 finalizer.
std::uint64_t mix64(std::uint64_t x);

/// Seed of item `index` in pass `pass` of a workload run with
/// `workload_seed`. Every pass gets fresh seeds.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t pass,
                          std::uint64_t index);

/// splitmix64 stream.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform01();
  /// Uniform in [0, n).
  std::uint32_t below(std::uint32_t n);

 private:
  std::uint64_t state_;
};

/// One open-loop request: due time (offset from the window start), the
/// scenario it names (index into the pinned list) and its run seed.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t scenario = 0;
  std::uint64_t seed = 0;
};

/// Seeded Poisson arrivals at `rate_per_s` over [0, seconds), each naming
/// a scenario drawn uniformly from `n_scenarios`. A pure function of its
/// arguments.
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double seconds, std::uint32_t n_scenarios);

/// The newline-JSON request a client would send for one arrival.
std::string request_line(const std::string& scenario, std::uint64_t seed,
                         std::int64_t deadline_ms);

/// Nearest-rank percentile `pct` (0 < pct < 100) of `xs`. Refuses (returns
/// nullopt and sets `error`) when fewer than 10 samples lie beyond the
/// rank, because such a tail is decided by a handful of samples.
std::optional<double> percentile(std::vector<double> xs, double pct,
                                 std::string* error = nullptr);

/// Median (mean of the middle pair for an even count); 0 when empty.
double median(std::vector<double> xs);

/// Latency of one served request, from its due time to reply publish.
/// Any reply that is not kOk is a miss: +infinity, so it fails every limit.
double request_latency_ms(const avsec::serve::Reply& reply, double late_ms);

/// 64-bit FNV-1a over a byte stream.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t x);
  void f64(double x);  // exact bits
  void str(std::string_view s);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Feeds every field of `report` (doubles as exact bits) into `d`.
void digest_report(Digest& d, const avsec::fault::CampaignReport& report);

/// True when `actual` equals the committed `reference`; otherwise sets
/// `error` to a diagnostic naming both.
bool digest_matches(const std::string& reference, const std::string& actual,
                    std::string* error);

/// Peak resident set size of this process, MB.
double rss_peak_mb();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& m);

}  // namespace perfbench
