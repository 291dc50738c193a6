#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "harness.hpp"

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  // ids of this thread's open spans
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_mu);
    owned->index = static_cast<std::uint32_t>(g_buffers.size());
    buf = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return *buf;
}

}  // namespace

namespace spans {

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) b->spans.clear();
}

bool write_jsonl(const std::string& path, const std::vector<Span>& all) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : all) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"tag\":" << s.tag << ",\"thread\":" << s.thread
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace spans

ScopedSpan::ScopedSpan(const char* name, std::uint64_t tag,
                       std::uint64_t parent) {
  if (!spans::enabled()) return;
  active_ = true;
  ThreadBuffer& buf = local_buffer();
  span_.name = name;
  span_.tag = tag;
  span_.thread = buf.index;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent != kInheritParent
                     ? parent
                     : (buf.open.empty() ? 0 : buf.open.back());
  buf.open.push_back(span_.id);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  ThreadBuffer& buf = local_buffer();
  buf.open.pop_back();
  buf.spans.push_back(span_);
}

std::map<std::string, SelfTime> self_times(const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  by_id.reserve(all.size());
  for (const Span& s : all) by_id[s.id] = &s;
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : all) {
    const auto it = by_id.find(s.parent);
    if (it != by_id.end() && it->second->thread == s.thread) {
      child_ns[s.parent] += s.duration_ns();
    }
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : all) {
    SelfTime& t = out[s.name];
    t.total_ns += s.duration_ns();
    const auto c = child_ns.find(s.id);
    t.self_ns += s.duration_ns() - (c == child_ns.end() ? 0 : c->second);
    ++t.count;
  }
  return out;
}

}  // namespace perfbench
