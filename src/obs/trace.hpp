// Scoped-span tracing with a Chrome trace_event exporter and cross-thread
// causality links.
//
//   {
//     OBS_SPAN("gemm");          // RAII: opens on entry, closes on exit
//     ...
//     { OBS_SPAN("gemm.panel"); ... }   // nested: parent linkage recorded
//   }
//
//   // Cross-thread: capture where the work was *submitted*, adopt where it
//   // runs. The worker span carries the submitting span as logical parent
//   // and the exporter emits Chrome flow events ("s"/"f") linking the two.
//   obs::TraceContext ctx = obs::TraceRecorder::global().current_context();
//   group.run([ctx] { obs::ScopedSpan span("task", ctx); ... });
//
// Design notes:
//  * Disabled is the steady state. When tracing is off, a span costs one
//    relaxed atomic load and nothing else — no clock reads, no allocation —
//    which is what keeps instrumented hot loops (GEMM panels, interpreter
//    runs) within the <2% overhead budget. `current_context()` and
//    `ScopedSpan::arg()` are equally free when disabled.
//  * When enabled, each thread appends to its own buffer guarded by a
//    per-thread mutex that is uncontended except during snapshot/export, so
//    recording never serializes worker threads against each other.
//  * Span names must be string literals (or otherwise outlive the
//    recorder); they are stored by pointer. The same holds for arg keys.
//  * Parent linkage is per thread: a span's parent is the innermost span
//    open on the same thread when it started (-1 for roots). Spans opened
//    inside thread-pool tasks are roots of that worker's timeline, but when
//    they adopt a `TraceContext` the submitting span's id is recorded as
//    their logical parent (`flow_src`) and the Chrome export draws a flow
//    arrow from fan-out to execution.
//  * Every span gets a process-unique nonzero id (derived from thread id
//    and per-thread index, no extra atomics) so links survive export and
//    re-import (`obs/report.hpp` parses traces back for aggregation).
//  * `TraceRecorder::global()` is a leaked singleton so worker threads that
//    finish during static destruction can still close spans safely.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mvgnn::obs {

/// Monotonic nanoseconds (std::chrono::steady_clock): the clock of span
/// timestamps, the metrics sampler and the serve daemon's deadlines.
[[nodiscard]] std::uint64_t now_ns();

/// A capture of "the span that caused this work": taken at a submission
/// site on the submitting thread, adopted by the span that executes the
/// work on another thread. Zero `span_id` means "no context" (tracing was
/// disabled or no span was open) and adoption is a no-op.
struct TraceContext {
  std::uint64_t span_id = 0;  // id of the innermost open span; 0 = none
  std::uint32_t tid = 0;      // recorder thread id the capture happened on
  std::uint64_t ts_ns = 0;    // capture time (anchors the flow "s" event)

  [[nodiscard]] explicit operator bool() const noexcept {
    return span_id != 0;
  }
};

/// One optional key/value annotation on a span (rows, nnz, batch size,
/// cache hit/miss, ...). Keys must be string literals.
struct SpanArg {
  const char* key = nullptr;
  std::uint64_t value = 0;
};

struct SpanEvent {
  static constexpr std::size_t kMaxArgs = 4;

  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;       // 0 while the span is still open
  std::uint64_t id = 0;           // process-unique nonzero span id
  std::uint64_t flow_src = 0;     // id of the submitting span (0 = none)
  std::uint64_t flow_ts_ns = 0;   // when the adopted context was captured
  std::uint32_t flow_src_tid = 0; // thread the context was captured on
  std::uint32_t tid = 0;          // recorder-assigned compact thread id
  std::int32_t parent = -1;       // index of parent event on the same thread
  std::int32_t depth = 0;         // nesting level on this thread (0 = root)
  std::uint32_t nargs = 0;
  std::array<SpanArg, kMaxArgs> args{};
};

class ScopedSpan;

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// The calling thread's innermost open span, captured for cross-thread
  /// adoption. Returns a zero context (cost: one relaxed load) when tracing
  /// is disabled or no span is open.
  [[nodiscard]] TraceContext current_context();

  /// Drops all recorded events. Only call while no spans are open.
  void clear();

  /// Snapshot of every completed event across all threads, in per-thread
  /// begin order (thread ids ascending). Open spans are skipped.
  [[nodiscard]] std::vector<SpanEvent> events() const;

  /// Chrome trace_event JSON ("X" complete events, ts/dur in microseconds,
  /// plus "s"/"f" flow events for cross-thread links) loadable by
  /// chrome://tracing and Perfetto.
  [[nodiscard]] std::string to_chrome_json() const;
  bool write_chrome_json(const std::string& path) const;

  /// Process-wide recorder used by OBS_SPAN. Never destroyed.
  static TraceRecorder& global();

 private:
  friend class ScopedSpan;

  struct ThreadBuf {
    std::uint32_t tid = 0;
    mutable std::mutex mu;           // uncontended except during export
    std::vector<SpanEvent> events;   // begin order
    std::vector<std::int32_t> open;  // stack of indices into `events`
  };

  /// This thread's buffer, registering it on first use.
  ThreadBuf& thread_buf();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards bufs_
  std::vector<std::shared_ptr<ThreadBuf>> bufs_;
};

/// RAII span against the global recorder. No-op when tracing is disabled at
/// construction; a span that started while enabled always closes cleanly
/// even if tracing is disabled mid-flight.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    TraceRecorder& r = TraceRecorder::global();
    if (r.enabled()) begin(r, name, nullptr);
  }
  /// Opens a span that adopts `ctx` as its logical parent: the exporter
  /// links the submitting span to this one with a Chrome flow arrow. A zero
  /// context records a plain span.
  ScopedSpan(const char* name, const TraceContext& ctx) {
    TraceRecorder& r = TraceRecorder::global();
    if (r.enabled()) begin(r, name, &ctx);
  }
  ~ScopedSpan() {
    if (buf_) end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a u64 annotation (up to SpanEvent::kMaxArgs per span; extras
  /// are dropped). `key` must be a string literal. Free when tracing was
  /// disabled at span construction. Chainable: span.arg("m", m).arg("n", n).
  ScopedSpan& arg(const char* key, std::uint64_t value);

 private:
  void begin(TraceRecorder& r, const char* name, const TraceContext* ctx);
  void end();

  TraceRecorder::ThreadBuf* buf_ = nullptr;
  std::int32_t index_ = -1;
};

}  // namespace mvgnn::obs

#define MVGNN_OBS_CAT2(a, b) a##b
#define MVGNN_OBS_CAT(a, b) MVGNN_OBS_CAT2(a, b)
/// Opens a scoped span named `name` (must be a string literal) for the rest
/// of the enclosing block.
#define OBS_SPAN(name) \
  ::mvgnn::obs::ScopedSpan MVGNN_OBS_CAT(obs_span_, __LINE__)(name)
