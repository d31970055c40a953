#include "util/thread_pool.h"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

namespace cold {

std::size_t available_cores() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t ParallelConfig::resolved_threads() const {
  return num_threads > 0 ? num_threads : available_cores();
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = available_cores();
  workers_.reserve(num_threads - 1);
  for (std::size_t w = 1; w < num_threads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::work(std::size_t worker) {
  // body_/end_ are stable for the duration of the job: the caller published
  // them under the mutex before bumping epoch_, and clears them only after
  // every worker has decremented active_.
  const auto* body = body_;
  const std::size_t end = end_;
  std::size_t i;
  while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < end) {
    try {
      (*body)(i, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
      next_.store(end, std::memory_order_relaxed);  // stop handing out work
    }
  }
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lk(mu_);
    wake_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    lk.unlock();
    work(worker);
    lk.lock();
    if (--active_ == 0) {
      lk.unlock();
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  if (workers_.empty() || end - begin == 1) {
    // Inline path: no publication, no join, exceptions propagate directly.
    for (std::size_t i = begin; i < end; ++i) body(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    next_.store(begin, std::memory_order_relaxed);
    end_ = end;
    error_ = nullptr;
    active_ = workers_.size();
    ++epoch_;
  }
  wake_cv_.notify_all();
  work(0);  // the caller is worker 0
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return active_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace cold
