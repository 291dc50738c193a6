#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t pass,
                          std::uint64_t index) {
  return mix64(mix64(mix64(workload_seed) ^ pass) ^ index);
}

std::uint64_t SplitMix::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint32_t SplitMix::below(std::uint32_t n) {
  return static_cast<std::uint32_t>(
      (static_cast<unsigned __int128>(next()) * n) >> 64);
}

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double seconds, std::uint32_t n_scenarios) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0.0 || seconds <= 0.0 || n_scenarios == 0) return out;
  SplitMix rng(mix64(seed) ^ 0x5e17e0a11c0ffeeull);
  const auto end_ns = static_cast<std::int64_t>(seconds * 1e9);
  const double mean_gap_ns = 1e9 / rate_per_s;
  std::int64_t t = 0;
  for (std::uint64_t i = 0;; ++i) {
    // Inverse-CDF exponential gap, rounded to whole nanoseconds so the
    // schedule is exact integers.
    t += static_cast<std::int64_t>(
        std::llround(-std::log1p(-rng.uniform01()) * mean_gap_ns));
    if (t >= end_ns) break;
    Arrival a;
    a.due_ns = t;
    a.scenario = rng.below(n_scenarios);
    a.seed = derive_seed(seed, 1u << 20, i);
    out.push_back(a);
  }
  return out;
}

std::string request_line(const std::string& scenario, std::uint64_t seed,
                         std::int64_t deadline_ms) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\",\"seeds\":[%llu],\"deadline_ms\":%lld}",
                static_cast<unsigned long long>(seed),
                static_cast<long long>(deadline_ms));
  return "{\"scenario\":\"" + scenario + buf;
}

std::optional<double> percentile(std::vector<double> xs, double pct,
                                 std::string* error) {
  const std::size_t n = xs.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  if (n == 0 || rank == 0 || n - rank < 10) {
    if (error != nullptr) {
      *error = "p" + std::to_string(pct) + " needs >= 10 samples beyond it; " +
               std::to_string(n) + " samples leave " +
               std::to_string(n >= rank ? n - rank : 0);
    }
    return std::nullopt;
  }
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   xs.end());
  return xs[rank - 1];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double request_latency_ms(const avsec::serve::Reply& reply, double late_ms) {
  if (reply.status != avsec::serve::ReplyStatus::kOk) {
    return std::numeric_limits<double>::infinity();
  }
  return late_ms + reply.latency_ms;
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::u64(std::uint64_t x) { bytes(&x, sizeof(x)); }

void Digest::f64(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  u64(bits);
}

void Digest::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void digest_report(Digest& d, const avsec::fault::CampaignReport& r) {
  d.u64(r.runs);
  d.u64(r.failed_runs);
  d.u64(r.quarantined_runs);
  d.u64(r.runs_retried);
  d.u64(r.violations.size());
  for (const auto& [name, count] : r.violations) {
    d.str(name);
    d.u64(count);
  }
  d.u64(r.aggregate.size());
  for (const auto& [name, acc] : r.aggregate) {
    d.str(name);
    d.u64(acc.count());
    d.f64(acc.mean());
    d.f64(acc.variance());
    d.f64(acc.min());
    d.f64(acc.max());
    d.f64(acc.sum());
  }
  d.u64(r.outcomes.size());
  for (const auto& o : r.outcomes) {
    d.u64(o.seed);
    d.u64(static_cast<std::uint64_t>(o.status));
    d.u64(o.attempts);
    d.str(o.error);
    d.u64(o.metrics.size());
    for (const auto& [name, value] : o.metrics) {
      d.str(name);
      d.f64(value);
    }
    d.u64(o.violated.size());
    for (const auto& v : o.violated) d.str(v);
    d.str(o.trace);
  }
}

bool digest_matches(const std::string& reference, const std::string& actual,
                    std::string* error) {
  if (reference == actual) return true;
  if (error != nullptr) {
    *error = "output digest " + actual + " != committed reference " + reference;
  }
  return false;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < m.size(); ++i) {
    // A percentile made of misses is +inf; JSON has no infinity.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m[i].value) ? m[i].value
                                            : std::numeric_limits<double>::max());
    if (i > 0) out += ", ";
    out += "\"" + m[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
