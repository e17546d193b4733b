#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/atomic_file.hpp"
#include "obs/json.hpp"

namespace mvgnn::obs {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Process-unique nonzero span id from (thread, index) — no extra atomics.
/// 2^24 threads and 2^40 spans per thread before wraparound; good enough.
std::uint64_t span_id(std::uint32_t tid, std::int32_t index) {
  return (static_cast<std::uint64_t>(tid) + 1) << 40 |
         (static_cast<std::uint64_t>(index) + 1);
}

}  // namespace

TraceRecorder::ThreadBuf& TraceRecorder::thread_buf() {
  // One buffer per (thread, recorder). The shared_ptr keeps the buffer
  // alive past recorder export even if the thread exits first, and the
  // recorder keeps it alive past thread exit for the final export.
  thread_local std::shared_ptr<ThreadBuf> tl;
  thread_local TraceRecorder* tl_owner = nullptr;
  if (!tl || tl_owner != this) {
    auto buf = std::make_shared<ThreadBuf>();
    std::lock_guard lock(mu_);
    buf->tid = static_cast<std::uint32_t>(bufs_.size());
    bufs_.push_back(buf);
    tl = std::move(buf);
    tl_owner = this;
  }
  return *tl;
}

TraceContext TraceRecorder::current_context() {
  if (!enabled()) return {};
  ThreadBuf& buf = thread_buf();
  std::lock_guard lock(buf.mu);
  if (buf.open.empty()) return {};
  const SpanEvent& e = buf.events[static_cast<std::size_t>(buf.open.back())];
  // Captured while `e` is open, so ts_ns falls inside the producer slice —
  // exactly where Chrome expects the flow "s" event to bind.
  return TraceContext{e.id, buf.tid, now_ns()};
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  for (const auto& buf : bufs_) {
    std::lock_guard buf_lock(buf->mu);
    buf->events.clear();
    buf->open.clear();
  }
}

std::vector<SpanEvent> TraceRecorder::events() const {
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard lock(mu_);
    bufs = bufs_;
  }
  std::vector<SpanEvent> out;
  for (const auto& buf : bufs) {
    std::lock_guard buf_lock(buf->mu);
    for (const SpanEvent& e : buf->events) {
      if (e.end_ns != 0) out.push_back(e);
    }
  }
  return out;
}

std::string TraceRecorder::to_chrome_json() const {
  const auto evs = events();
  std::string out;
  out.reserve(128 + evs.size() * 128);
  out += "{\"traceEvents\": [\n";
  char buf[384];
  bool first = true;
  for (const SpanEvent& e : evs) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"name\": \"";
    out += json_escape(e.name);
    std::snprintf(buf, sizeof buf,
                  "\", \"cat\": \"mvgnn\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"parent\": %d, \"depth\": %d",
                  static_cast<double>(e.start_ns) / 1000.0,
                  static_cast<double>(e.end_ns - e.start_ns) / 1000.0, e.tid,
                  e.parent, e.depth);
    out += buf;
    for (std::uint32_t i = 0; i < e.nargs; ++i) {
      out += ", \"";
      out += json_escape(e.args[i].key);
      std::snprintf(buf, sizeof buf, "\": %llu",
                    static_cast<unsigned long long>(e.args[i].value));
      out += buf;
    }
    out += "}}";
    // Cross-thread causality: a flow arrow from the submitting span's slice
    // to this one. The pair is keyed by this span's (unique) id, the "s"
    // end sits at the capture timestamp inside the producer slice, and the
    // "f" end (bp:"e") binds to the start of this slice — so every emitted
    // flow has both endpoints by construction.
    if (e.flow_src != 0) {
      std::snprintf(buf, sizeof buf,
                    ",\n  {\"name\": \"fanout\", \"cat\": \"mvgnn.flow\", "
                    "\"ph\": \"s\", \"id\": %llu, \"ts\": %.3f, \"pid\": 1, "
                    "\"tid\": %u},\n"
                    "  {\"name\": \"fanout\", \"cat\": \"mvgnn.flow\", "
                    "\"ph\": \"f\", \"bp\": \"e\", \"id\": %llu, "
                    "\"ts\": %.3f, \"pid\": 1, \"tid\": %u}",
                    static_cast<unsigned long long>(e.id),
                    static_cast<double>(e.flow_ts_ns) / 1000.0, e.flow_src_tid,
                    static_cast<unsigned long long>(e.id),
                    static_cast<double>(e.start_ns) / 1000.0, e.tid);
      out += buf;
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool TraceRecorder::write_chrome_json(const std::string& path) const {
  // Atomic (tmp + rename) so a crash mid-export never leaves a torn trace.
  try {
    io::atomic_write_file(path,
                          [this](std::ostream& os) { os << to_chrome_json(); });
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* r = new TraceRecorder();  // leaked: see header
  return *r;
}

void ScopedSpan::begin(TraceRecorder& r, const char* name,
                       const TraceContext* ctx) {
  TraceRecorder::ThreadBuf& buf = r.thread_buf();
  std::lock_guard lock(buf.mu);
  SpanEvent e;
  e.name = name;
  e.start_ns = now_ns();
  e.tid = buf.tid;
  e.parent = buf.open.empty() ? -1 : buf.open.back();
  e.depth = static_cast<std::int32_t>(buf.open.size());
  index_ = static_cast<std::int32_t>(buf.events.size());
  e.id = span_id(buf.tid, index_);
  if (ctx != nullptr && ctx->span_id != 0) {
    e.flow_src = ctx->span_id;
    e.flow_src_tid = ctx->tid;
    e.flow_ts_ns = ctx->ts_ns;
  }
  buf.events.push_back(e);
  buf.open.push_back(index_);
  buf_ = &buf;
}

void ScopedSpan::end() {
  std::lock_guard lock(buf_->mu);
  // The event can be gone if clear() raced with an open span; drop it.
  if (static_cast<std::size_t>(index_) < buf_->events.size()) {
    buf_->events[static_cast<std::size_t>(index_)].end_ns = now_ns();
  }
  if (!buf_->open.empty() && buf_->open.back() == index_) {
    buf_->open.pop_back();
  }
}

ScopedSpan& ScopedSpan::arg(const char* key, std::uint64_t value) {
  if (buf_ != nullptr) {
    std::lock_guard lock(buf_->mu);
    if (static_cast<std::size_t>(index_) < buf_->events.size()) {
      SpanEvent& e = buf_->events[static_cast<std::size_t>(index_)];
      if (e.nargs < SpanEvent::kMaxArgs) e.args[e.nargs++] = {key, value};
    }
  }
  return *this;
}

}  // namespace mvgnn::obs
