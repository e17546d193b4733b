// Thread pool used by the tensor GEMM kernels, batched profiling runs and
// the data-parallel trainer.
//
// Design notes (guided by C++ Core Guidelines CP.*):
//  * All synchronization is owned by the pool; callers never see mutexes.
//  * Work is scoped through `TaskGroup`: every task belongs to exactly one
//    group, the group tracks its own in-flight count and captures the first
//    exception thrown by one of its tasks, and `TaskGroup::wait()` rethrows
//    that exception to the one caller that owns the group. Two concurrent
//    callers sharing a pool therefore never stall on each other's work or
//    receive each other's failures.
//  * A blocked `wait()` does not sleep while tasks of its own group sit in
//    the queue: it pops and runs them itself (help-while-wait). That makes
//    nested fan-out (a pool task that itself runs a `parallel_for`) safe —
//    the inner wait executes its own sub-tasks instead of deadlocking the
//    worker it occupies.
//  * The pool is a process-wide singleton by default (`ThreadPool::global()`)
//    because oversubscribing CPU threads with nested pools destroys GEMM
//    throughput, but independent pools can be constructed for tests.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace mvgnn::par {

class TaskGroup;

namespace detail {

/// Per-group bookkeeping; all fields are guarded by the owning pool's mutex.
struct TaskGroupState {
  std::size_t in_flight = 0;  // queued + running tasks of this group
  std::exception_ptr first_error;
  std::uint64_t first_error_task = 0;
};

}  // namespace detail

/// Fixed-size worker pool with a single shared FIFO queue.
///
/// The queue is deliberately simple: the workloads submitted by this project
/// are coarse (blocked GEMM panels, whole-program profiling runs, trainer
/// shards), so a lock-protected deque is never the bottleneck.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers; 0 selects
  /// `std::thread::hardware_concurrency()` (minimum 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers. Pending tasks are drained before destruction.
  ~ThreadPool();

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Process-wide shared pool sized to the hardware concurrency.
  static ThreadPool& global();

 private:
  friend class TaskGroup;

  using GroupPtr = std::shared_ptr<detail::TaskGroupState>;

  struct Task {
    std::uint64_t index = 0;  // submission sequence number (pool-local)
    std::function<void()> fn;
    GroupPtr group;
    // Trace context captured on the submitting thread: the worker's
    // `thread_pool.task` span adopts it so the exported trace links the
    // fan-out site to the execution (zero when tracing is off — free).
    obs::TraceContext trace_ctx;
  };

  void worker_loop(std::size_t worker);
  void submit_to(GroupPtr group, std::function<void()> task);
  /// Blocks until `g.in_flight == 0`, running queued tasks of `g` while
  /// waiting; rethrows the group's first captured error.
  void wait_group(detail::TaskGroupState& g);
  /// Discards queued tasks of `g` and waits for its running ones; any
  /// captured error is logged and dropped. Used by ~TaskGroup.
  void cancel_group(detail::TaskGroupState& g) noexcept;
  /// Pops one task under `lock` — the queue front, or (when `filter` is
  /// set) the oldest task belonging to `filter` — and executes it with the
  /// lock released. Returns false when no eligible task was queued.
  /// `worker` indexes the per-worker counter; pass SIZE_MAX for helpers.
  bool run_one(std::unique_lock<std::mutex>& lock,
               const detail::TaskGroupState* filter, std::size_t worker);

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;   // signalled when work arrives / stopping
  std::condition_variable cv_done_;   // signalled when a task retires
  std::uint64_t next_task_ = 0;       // submission counter for diagnostics
  bool stop_ = false;
};

}  // namespace mvgnn::par
