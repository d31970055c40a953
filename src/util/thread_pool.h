// A small fixed-size thread pool for COLD's evaluation engine.
//
// Design goals, in order: (1) determinism — callers write results into
// per-index slots and aggregate after the join, so outputs never depend on
// scheduling; (2) zero dependencies — std::thread only; (3) the caller
// participates as worker 0, so a pool of size 1 spawns no threads and runs
// the body inline, reproducing single-threaded behavior exactly.
//
// Work distribution is a shared atomic cursor (dynamic self-scheduling, one
// index at a time). COLD's work items — a Dijkstra sweep per candidate
// topology, or a whole synthesis run — are large enough that cursor
// contention is noise, and dynamic scheduling absorbs the heavy variance
// between items (a repaired sparse mutant costs far less than a dense one).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cold {

/// The cores the calling thread may run on: the size of its
/// sched_getaffinity mask (a taskset or container cpuset), falling back to
/// hardware_concurrency() where no mask is available; at least 1. What
/// "all cores" (`num_threads == 0`) resolves to.
std::size_t available_cores();

/// User-facing parallelism knob, threaded through GaConfig, SynthesisConfig
/// and the bench harness. `num_threads == 0` means "all available cores";
/// `1` means fully sequential. Any value yields bit-identical results — the
/// knob trades wall-clock only.
struct ParallelConfig {
  std::size_t num_threads = 0;

  /// The actual worker count: num_threads, or available_cores() when
  /// num_threads is 0.
  std::size_t resolved_threads() const;
};

/// Fixed-size pool. `size()` counts the calling thread, so `ThreadPool(4)`
/// spawns 3 workers and `ThreadPool(1)` spawns none. Not reentrant: do not
/// call parallel_for from inside a body running on the same pool.
class ThreadPool {
 public:
  /// `num_threads == 0` resolves to available_cores().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executing threads (spawned workers + the caller).
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs body(i, worker) for every i in [begin, end), distributing indices
  /// across all threads; `worker` is in [0, size()) and identifies the
  /// executing thread (for indexing per-thread scratch). Blocks until every
  /// index has run. If any body throws, the first exception is rethrown
  /// here after the join (remaining indices may be skipped).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t index,
                                             std::size_t worker)>& body);

 private:
  void worker_loop(std::size_t worker);
  void work(std::size_t worker);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable wake_cv_;  ///< signals workers: new job or stop
  std::condition_variable done_cv_;  ///< signals caller: all workers idle

  // Current job; valid between parallel_for's publish and its join.
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  std::atomic<std::size_t> next_{0};  ///< shared work cursor
  std::size_t end_ = 0;
  std::size_t active_ = 0;   ///< workers still inside the current job
  std::uint64_t epoch_ = 0;  ///< job counter; a change wakes the workers
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace cold
