#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/task_group.hpp"

namespace mvgnn::par {

namespace {

/// Sentinel worker index for threads that execute tasks while blocked in a
/// group wait (help-while-wait) rather than from the worker loop.
constexpr std::size_t kHelper = std::numeric_limits<std::size_t>::max();

/// Shared across all pools (tests construct private ones): the series
/// describe process-wide scheduling behaviour, not one pool instance.
struct PoolMetrics {
  obs::Counter& submitted =
      obs::Registry::global().counter("thread_pool.tasks_submitted_total");
  obs::Counter& executed =
      obs::Registry::global().counter("thread_pool.tasks_executed_total");
  obs::Counter& failed =
      obs::Registry::global().counter("thread_pool.task_failures_total");
  obs::Counter& helped =
      obs::Registry::global().counter("pool.helped_tasks_total");
  obs::Gauge& queue_depth =
      obs::Registry::global().gauge("thread_pool.queue_depth");
  obs::Histogram& latency_us = obs::Registry::global().histogram(
      "thread_pool.task_latency_us",
      obs::Histogram::exponential_bounds(1.0, 1e6));

  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};

/// Per-worker executed-task counters, capped so a pathological pool size
/// cannot flood the registry with series.
obs::Counter& worker_counter(std::size_t worker) {
  constexpr std::size_t kMaxTracked = 64;
  return obs::Registry::global().counter(
      "thread_pool.worker." + std::to_string(std::min(worker, kMaxTracked)) +
      ".tasks_total");
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads < 1) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit_to(GroupPtr group, std::function<void()> task) {
  PoolMetrics& m = PoolMetrics::get();
  // Capture the submitting span (if tracing is on) so the worker-side task
  // span can flow-link back to this call site.
  obs::TraceContext ctx = obs::TraceRecorder::global().current_context();
  {
    std::lock_guard lock(mutex_);
    ++group->in_flight;
    queue_.push_back(Task{next_task_++, std::move(task), std::move(group), ctx});
    m.queue_depth.set(static_cast<double>(queue_.size()));
  }
  m.submitted.add(1);
  cv_task_.notify_one();
  // Waiters help with tasks of their own group; wake them so a nested
  // submission does not sit in the queue while its owner sleeps.
  cv_done_.notify_all();
}

bool ThreadPool::run_one(std::unique_lock<std::mutex>& lock,
                         const detail::TaskGroupState* filter,
                         std::size_t worker) {
  PoolMetrics& m = PoolMetrics::get();
  auto it = queue_.begin();
  if (filter != nullptr) {
    while (it != queue_.end() && it->group.get() != filter) ++it;
  }
  if (it == queue_.end()) return false;
  Task task = std::move(*it);
  queue_.erase(it);
  m.queue_depth.set(static_cast<double>(queue_.size()));
  lock.unlock();

  if (worker == kHelper) m.helped.add(1);
  const auto t0 = std::chrono::steady_clock::now();
  std::exception_ptr err;
  try {
    obs::ScopedSpan span("thread_pool.task", task.trace_ctx);
    task.fn();
  } catch (...) {
    err = std::current_exception();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (err) {
    std::string what = "unknown exception";
    try {
      std::rethrow_exception(err);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    m.failed.add(1);
    obs::log_error("thread_pool task failed",
                   {{"task_index", std::to_string(task.index)},
                    {"worker", worker == kHelper ? std::string("helper")
                                                 : std::to_string(worker)},
                    {"what", what}});
  }
  m.latency_us.observe(
      std::chrono::duration<double, std::micro>(t1 - t0).count());
  m.executed.add(1);
  if (worker != kHelper) worker_counter(worker).add(1);

  lock.lock();
  if (err && !task.group->first_error) {
    task.group->first_error = err;
    task.group->first_error_task = task.index;
  }
  --task.group->in_flight;
  cv_done_.notify_all();
  return true;
}

void ThreadPool::wait_group(detail::TaskGroupState& g) {
  std::unique_lock lock(mutex_);
  while (g.in_flight > 0) {
    // Help first: run queued tasks of this group on the waiting thread.
    if (run_one(lock, &g, kHelper)) continue;
    // Nothing of ours queued — the stragglers are running on workers (or
    // on other helpers). Sleep until the group retires completely or a
    // nested submission gives us something to help with.
    cv_done_.wait(lock, [&] {
      if (g.in_flight == 0) return true;
      for (const Task& t : queue_) {
        if (t.group.get() == &g) return true;
      }
      return false;
    });
  }
  if (g.first_error) {
    std::exception_ptr err = std::exchange(g.first_error, nullptr);
    const std::uint64_t task = g.first_error_task;
    lock.unlock();
    obs::log_error("thread_pool rethrowing first captured task failure",
                   {{"task_index", std::to_string(task)}});
    std::rethrow_exception(err);
  }
}

void ThreadPool::cancel_group(detail::TaskGroupState& g) noexcept {
  std::unique_lock lock(mutex_);
  std::size_t dropped = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->group.get() == &g) {
      it = queue_.erase(it);
      --g.in_flight;
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped != 0) {
    PoolMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
  }
  cv_done_.wait(lock, [&] { return g.in_flight == 0; });
  if (g.first_error) {
    const std::uint64_t task = g.first_error_task;
    g.first_error = nullptr;
    lock.unlock();
    obs::log_warn("task group destroyed with an unobserved failure",
                  {{"task_index", std::to_string(task)},
                   {"dropped_tasks", std::to_string(dropped)}});
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      // stop_ is set and no work remains.
      return;
    }
    run_one(lock, /*filter=*/nullptr, worker);
  }
}

}  // namespace mvgnn::par
