#include "obs/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace mvgnn::obs {

namespace {

void append_num(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

MetricsSampler::MetricsSampler(Options opts) : opts_(std::move(opts)) {
  opts_.interval_ms = std::max<std::uint64_t>(opts_.interval_ms, 10);
  if (opts_.registry == nullptr) opts_.registry = &Registry::global();
}

MetricsSampler::~MetricsSampler() { stop(); }

bool MetricsSampler::start() {
  std::unique_lock lock(mu_);
  if (running_ || thread_.joinable()) return running_;
  if (stop_pending_) {
    // A stop() raced this start() and latched first: honor it instead of
    // launching a thread the stopper can no longer see. The latch is
    // consumed so a later, genuinely sequential start() works normally.
    stop_pending_ = false;
    return false;
  }
  FILE* f = std::fopen(opts_.path.c_str(), "w");
  if (f == nullptr) {
    lock.unlock();
    log_error("metrics sampler could not open series file",
              {{"path", opts_.path}});
    return false;
  }
  file_ = f;
  start_ns_ = now_ns();
  stop_ = std::make_shared<StopToken>();
  running_ = true;
  thread_ = std::thread([this] { loop(); });
  return true;
}

void MetricsSampler::stop() {
  {
    std::lock_guard lock(mu_);
    if (!thread_.joinable()) {
      // Nothing running from this caller's point of view — but a start()
      // may be mid-flight on another thread. Latch so it refuses to
      // launch rather than leaving an unstoppable sampler behind.
      stop_pending_ = true;
      return;
    }
    stop_->request_stop();
  }
  thread_.join();
  // The loop has exited; state below is no longer shared.
  if (file_ != nullptr) {
    std::fclose(static_cast<FILE*>(file_));
    file_ = nullptr;
  }
  std::lock_guard lock(mu_);
  thread_ = std::thread();  // allow a fresh sequential start()
  running_ = false;
}

bool MetricsSampler::running() const {
  std::lock_guard lock(mu_);
  return running_;
}

std::uint64_t MetricsSampler::rows_written() const {
  std::lock_guard lock(mu_);
  return rows_;
}

void MetricsSampler::loop() {
  const auto interval = std::chrono::milliseconds(opts_.interval_ms);
  // Pin this run's token: the owner only mutates `stop_` under mu_ while
  // no thread is running, but holding our own reference keeps the wait
  // target alive no matter how owner-side shutdown interleaves.
  const std::shared_ptr<StopToken> token = [this] {
    std::lock_guard lock(mu_);
    return stop_;
  }();
  for (;;) {
    const bool stopping = token->wait_for_stop(interval);
    // Sample on every tick and once more on the way out, so even a run
    // shorter than one interval leaves a (final-state) row behind.
    sample_once((now_ns() - start_ns_) / 1'000'000);
    if (stopping) return;
  }
}

void MetricsSampler::sample_once(std::uint64_t t_ms) {
  const MetricsSnapshot snap = opts_.registry->snapshot();
  const std::uint64_t dt_ms = have_prev_ ? t_ms - prev_t_ms_ : t_ms;

  std::string row;
  row.reserve(256 + snap.counters.size() * 48 + snap.gauges.size() * 40 +
              snap.histograms.size() * 96);
  row += "{\"t_ms\": ";
  append_u64(row, t_ms);
  row += ", \"dt_ms\": ";
  append_u64(row, dt_ms);

  row += ", \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    // Deltas pair positionally with the previous snapshot when the series
    // set is unchanged (the common case: registration happens early); a
    // series that appeared mid-run falls back to a by-name lookup.
    const std::uint64_t prev = have_prev_ ? prev_.counter_or(name, 0) : 0;
    if (!first) row += ", ";
    first = false;
    row += '"';
    row += json_escape(name);
    row += "\": {\"v\": ";
    append_u64(row, v);
    row += ", \"d\": ";
    append_u64(row, v >= prev ? v - prev : 0);
    row += '}';
  }

  row += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    if (!first) row += ", ";
    first = false;
    row += '"';
    row += json_escape(name);
    row += "\": ";
    append_num(row, v);
  }

  row += "}, \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;  // nothing observed yet — skip, not zeros
    const MetricsSnapshot::Hist* prev =
        have_prev_ ? prev_.histogram(h.name) : nullptr;
    const std::uint64_t prev_count = prev != nullptr ? prev->count : 0;
    if (!first) row += ", ";
    first = false;
    row += '"';
    row += json_escape(h.name);
    row += "\": {\"count\": ";
    append_u64(row, h.count);
    row += ", \"d_count\": ";
    append_u64(row, h.count >= prev_count ? h.count - prev_count : 0);
    row += ", \"sum\": ";
    append_num(row, h.sum);
    row += ", \"p50\": ";
    append_num(row, h.p50);
    row += ", \"p99\": ";
    append_num(row, h.p99);
    row += '}';
  }
  row += "}}\n";

  FILE* f = static_cast<FILE*>(file_);
  if (std::fwrite(row.data(), 1, row.size(), f) == row.size()) {
    std::fflush(f);  // each row is a complete line even if we crash later
    std::lock_guard lock(mu_);
    ++rows_;
  }

  prev_ = snap;
  have_prev_ = true;
  prev_t_ms_ = t_ms;
}

}  // namespace mvgnn::obs
