// Fixed-size worker pool for fanning independent work across cores.
//
// The pool exists for embarrassingly parallel simulation workloads —
// campaign sweeps where every run builds its own world, scheduler, and RNG
// stream. Tasks must therefore not share mutable state unless they
// synchronize it themselves; the pool provides no per-task locking.
//
// Exceptions thrown by tasks are captured and rethrown from wait() /
// for_each_index() on the calling thread (first failure wins; the rest of
// the batch still drains so workers never deadlock).
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "avsec/core/annotations.hpp"
#include "avsec/core/sync.hpp"

namespace avsec::core {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 means default_workers().
  explicit ThreadPool(std::size_t workers = 0);

  /// Joins all workers. Pending tasks are drained before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Enqueues a task for execution on some worker.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished, then rethrows
  /// the first exception any of them raised (if any).
  void wait();

  /// Runs fn(i) for every i in [0, n) across the pool and blocks until all
  /// calls returned. Work is handed out index-at-a-time from a shared
  /// counter, so long and short items interleave without static partitioning
  /// skew. Rethrows the first exception raised by any call.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

  /// Chunked fan-out: partitions [0, n) into contiguous ranges of `chunk`
  /// indices that pulling tasks claim from a shared counter, calling
  /// fn(slot, lo, hi) once per claimed range ([lo, hi) never empty).
  /// `slot` identifies the pulling task — stable per task, dense in
  /// [0, min(size(), ceil(n/chunk))) — which lets callers keep per-worker
  /// state (e.g. a warm simulation context) without thread-local storage.
  /// Contiguous ranges mean neighboring result slots are written by one
  /// worker (no false sharing) and dispatch cost amortizes per chunk, not
  /// per index. First-error semantics: a throw kills that pulling task and
  /// wait() rethrows; callers needing drain semantics catch inside fn (as
  /// campaign sweeps do, so a crashed run is an outcome, not the end of
  /// the sweep).
  void for_each_chunk(
      std::size_t n, std::size_t chunk,
      const std::function<void(std::size_t slot, std::size_t lo,
                               std::size_t hi)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t default_workers();

 private:
  void worker_loop();

  // All mutable pool state is guarded by mu_; the clang -Wthread-safety CI
  // build rejects any access outside a MutexLock scope at compile time.
  Mutex mu_;
  CondVar work_ready_;
  CondVar batch_done_;
  std::deque<std::function<void()>> queue_ AVSEC_GUARDED_BY(mu_);
  std::vector<std::thread> threads_;
  std::size_t in_flight_ AVSEC_GUARDED_BY(mu_) = 0;
  std::exception_ptr first_error_ AVSEC_GUARDED_BY(mu_);
  bool stopping_ AVSEC_GUARDED_BY(mu_) = false;
};

}  // namespace avsec::core
