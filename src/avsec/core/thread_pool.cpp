#include "avsec/core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace avsec::core {

std::size_t ThreadPool::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = default_workers();
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::wait() {
  std::exception_ptr err;
  {
    MutexLock lock(mu_);
    while (!queue_.empty() || in_flight_ != 0) batch_done_.wait(mu_);
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // One pulling task per worker instead of one per index: the shared
  // counter hands out indices dynamically and the queue sees O(workers)
  // entries, not O(n). A throw kills the puller (its remaining indices
  // are abandoned; wait() rethrows).
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t pullers = std::min(size(), n);
  for (std::size_t w = 0; w < pullers; ++w) {
    submit([next, n, &fn] {
      for (std::size_t i = next->fetch_add(1); i < n;
           i = next->fetch_add(1)) {
        fn(i);
      }
    });
  }
  wait();
}

void ThreadPool::for_each_chunk(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t slot, std::size_t lo,
                             std::size_t hi)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  const std::size_t pullers = std::min(size(), chunks);
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  for (std::size_t w = 0; w < pullers; ++w) {
    submit([next, n, chunk, w, &fn] {
      for (std::size_t c = next->fetch_add(1); c * chunk < n;
           c = next->fetch_add(1)) {
        const std::size_t lo = c * chunk;
        fn(w, lo, std::min(lo + chunk, n));
      }
    });
  }
  wait();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_ready_.wait(mu_);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      if (err && !first_error_) first_error_ = err;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) batch_done_.notify_all();
    }
  }
}

}  // namespace avsec::core
