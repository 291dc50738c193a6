// In-memory span recorder for the benchmark's traced run mode.
//
// Spans are recorded only in the benchmark's own code, around its calls
// into the layers under test, so the untraced run pays one relaxed atomic
// load per call site and the program under test is never modified. Each
// thread appends to its own buffer (registration takes a lock once per
// thread); collect() merges the buffers when no thread is recording.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   // static string: the call being timed
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      // unique, > 0
  std::uint64_t parent = 0;  // enclosing span id, 0 = root
  std::uint64_t tag = 0;     // run seed / request ticket / file index
  std::uint32_t thread = 0;  // recording thread's buffer index

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

namespace spans {

void set_enabled(bool on);
bool enabled();

/// Every span recorded so far, sorted by id. Call only while no thread is
/// recording.
std::vector<Span> collect();
/// Drops every recorded span (buffers stay registered).
void clear();

/// Writes spans as newline JSON; false when the file cannot be written.
bool write_jsonl(const std::string& path, const std::vector<Span>& all);

}  // namespace spans

/// Parent marker: take the innermost open span on this thread.
inline constexpr std::uint64_t kInheritParent = ~0ull;

/// Records [construction, destruction) as one span when recording is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t tag,
             std::uint64_t parent = kInheritParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when recording is off) — pass it as the explicit
  /// parent of spans opened on other threads.
  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool active_ = false;
};

struct SelfTime {
  std::int64_t total_ns = 0;  // summed durations
  std::int64_t self_ns = 0;   // durations minus same-thread children
  std::uint64_t count = 0;
};

/// Per-name totals. A span's self time is its duration minus the durations
/// of its children recorded on the same thread; children on other threads
/// run concurrently with it and are not subtracted.
std::map<std::string, SelfTime> self_times(const std::vector<Span>& all);

}  // namespace perfbench
