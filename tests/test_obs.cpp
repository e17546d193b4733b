// Observability layer: metrics registry, scoped-span tracing, structured
// logging, and the thread pool's use of all three.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/task_group.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace mvgnn;

// ---------------------------------------------------------------------------
// A minimal JSON well-formedness checker (no values retained). Enough to
// prove the exported documents parse; structural asserts go through the
// recorder/registry APIs directly.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') {
        ++pos_;
      } else if (s_[pos_] == '"') {
        ++pos_;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      digits |= std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0;
      ++pos_;
    }
    return digits && pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterConcurrentIncrementsFromThreadPool) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.concurrent_total");
  par::ThreadPool pool(4);
  par::TaskGroup group(pool);
  constexpr int kTasks = 64;
  constexpr int kPerTask = 1000;
  for (int t = 0; t < kTasks; ++t) {
    group.run([&c] {
      for (int i = 0; i < kPerTask; ++i) c.add(1);
    });
  }
  group.wait();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kTasks) * kPerTask);
}

TEST(ObsMetrics, RegistryInstancesAreIndependent) {
  obs::Registry a, b;
  a.counter("x").add(3);
  EXPECT_EQ(a.counter("x").value(), 3u);
  EXPECT_EQ(b.counter("x").value(), 0u);
  // Same name, same instrument within one registry.
  a.counter("x").add(1);
  EXPECT_EQ(a.counter("x").value(), 4u);
  EXPECT_EQ(a.size(), 1u);
}

TEST(ObsMetrics, GaugeLastWriteWins) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("test.gauge");
  g.set(2.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  obs::Histogram h({1.0, 2.0, 5.0});
  // Upper edges are inclusive; above the last edge goes to overflow.
  h.observe(0.5);
  h.observe(1.0);
  h.observe(1.5);
  h.observe(2.0);
  h.observe(3.0);
  h.observe(7.0);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // <= 1
  EXPECT_EQ(counts[1], 2u);  // (1, 2]
  EXPECT_EQ(counts[2], 1u);  // (2, 5]
  EXPECT_EQ(counts[3], 1u);  // > 5
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 7.0);
}

TEST(ObsMetrics, HistogramPercentiles) {
  obs::Histogram h({1.0, 2.0, 5.0});
  for (const double v : {0.5, 0.9, 1.5, 1.6, 3.0, 7.0}) h.observe(v);
  // rank(p50) = 3 of 6 -> second bucket (cum 2 -> 4), midway: 1 + 0.5 = 1.5.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.5);
  // Everything above the last finite edge clamps to it.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::Histogram({1.0}).percentile(0.5), 0.0);  // empty
}

TEST(ObsMetrics, ExponentialBoundsAre125Ladder) {
  const auto b = obs::Histogram::exponential_bounds(1.0, 1000.0);
  const std::vector<double> want = {1,  2,  5,  10,  20,  50,
                                    100, 200, 500, 1000};
  EXPECT_EQ(b, want);
}

/// Regression: lo<=0 used to yield an empty edge list (one useless
/// catch-all bucket) and a NaN/inf `hi` never terminated the ladder loop.
/// Degenerate inputs must clamp to a usable, finite, sorted layout.
TEST(ObsMetrics, ExponentialBoundsClampDegenerateInputs) {
  const auto check = [](const std::vector<double>& b) {
    ASSERT_FALSE(b.empty());
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
    for (const double v : b) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GT(v, 0.0);
    }
  };
  check(obs::Histogram::exponential_bounds(0.0, 100.0));    // lo == 0
  check(obs::Histogram::exponential_bounds(-5.0, 100.0));   // lo < 0
  check(obs::Histogram::exponential_bounds(10.0, 1.0));     // hi < lo
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  check(obs::Histogram::exponential_bounds(1.0, nan));      // must terminate
  check(obs::Histogram::exponential_bounds(1.0, inf));
  check(obs::Histogram::exponential_bounds(nan, nan));
  // The clamped ladders are still usable histogram layouts.
  obs::Histogram h(obs::Histogram::exponential_bounds(0.0, 0.0));
  h.observe(0.5);
  EXPECT_EQ(h.count(), 1u);
}

TEST(ObsMetrics, ExportsAreWellFormed) {
  obs::Registry reg;
  reg.counter("a.count_total").add(2);
  reg.gauge("b.value").set(0.5);
  reg.histogram("c.lat_us", {1.0, 10.0}).observe(3.0);
  reg.counter("d.\"quoted\"\tname").add(1);  // names are escaped in JSON
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"a.count_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"d.\\\"quoted\\\"\\tname\": 1"), std::string::npos);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("a.count_total 2"), std::string::npos);
  EXPECT_NE(text.find("c.lat_us{le=1} 0"), std::string::npos);
  EXPECT_NE(text.find("c.lat_us{le=10} 1"), std::string::npos);
  EXPECT_NE(text.find("c.lat_us_count 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

const obs::SpanEvent* find_span(const std::vector<obs::SpanEvent>& evs,
                                const char* name) {
  for (const auto& e : evs) {
    if (std::string(e.name) == name) return &e;
  }
  return nullptr;
}

TEST(ObsTrace, NestedSpanParentLinkage) {
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  {
    OBS_SPAN("t.outer");
    { OBS_SPAN("t.inner_a"); }
    {
      OBS_SPAN("t.inner_b");
      { OBS_SPAN("t.leaf"); }
    }
  }
  { OBS_SPAN("t.root2"); }
  rec.disable();

  const auto evs = rec.events();
  const auto* outer = find_span(evs, "t.outer");
  const auto* inner_a = find_span(evs, "t.inner_a");
  const auto* inner_b = find_span(evs, "t.inner_b");
  const auto* leaf = find_span(evs, "t.leaf");
  const auto* root2 = find_span(evs, "t.root2");
  ASSERT_TRUE(outer && inner_a && inner_b && leaf && root2);

  EXPECT_EQ(outer->parent, -1);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(root2->parent, -1);
  // All on one thread; parents are indices in begin order on that thread.
  EXPECT_EQ(inner_a->depth, 1);
  EXPECT_EQ(inner_b->depth, 1);
  EXPECT_EQ(leaf->depth, 2);
  // Begin order on this thread: outer=0, inner_a=1, inner_b=2, leaf=3.
  EXPECT_EQ(inner_a->parent, 0);
  EXPECT_EQ(inner_b->parent, 0);
  EXPECT_EQ(leaf->parent, 2);
  // Timestamps nest.
  EXPECT_GE(leaf->start_ns, inner_b->start_ns);
  EXPECT_LE(leaf->end_ns, inner_b->end_ns);
  EXPECT_GE(inner_b->start_ns, outer->start_ns);
  EXPECT_LE(inner_b->end_ns, outer->end_ns);
  rec.clear();
}

TEST(ObsTrace, DisabledRecordsNothing) {
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.disable();
  { OBS_SPAN("t.should_not_appear"); }
  EXPECT_EQ(find_span(rec.events(), "t.should_not_appear"), nullptr);
}

TEST(ObsTrace, ChromeJsonIsWellFormed) {
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  {
    OBS_SPAN("t.json_outer");
    { OBS_SPAN("t.json \"quoted\\name\""); }  // exporter must escape this
  }
  rec.disable();
  const std::string json = rec.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("t.json_outer"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\\name\\\""), std::string::npos);
  rec.clear();
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

TEST(ObsLog, RenderMatchesLegacyPrintfTables) {
  const std::string line = obs::Logger::render(
      obs::LogLevel::Info, "",
      {{"epoch", obs::logfmt("%3zu", static_cast<std::size_t>(0))},
       {"loss", obs::logfmt("%.4f", 1.0986)},
       {"train_acc", obs::logfmt("%.4f", 0.3333)},
       {"test_acc", obs::logfmt("%.4f", 0.3333)}});
  EXPECT_EQ(line, "epoch   0  loss 1.0986  train_acc 0.3333  test_acc 0.3333");
  EXPECT_EQ(obs::Logger::render(obs::LogLevel::Warn, "careful", {}),
            "[warn] careful");
}

TEST(ObsLog, LevelFilteringAndSink) {
  obs::Logger log;
  std::vector<std::pair<obs::LogLevel, std::string>> captured;
  log.set_sink([&](obs::LogLevel lv, const std::string& line) {
    captured.emplace_back(lv, line);
  });
  log.set_level(obs::LogLevel::Warn);
  log.log(obs::LogLevel::Info, "dropped");
  log.log(obs::LogLevel::Error, "kept", {{"code", "7"}});
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].second, "[error] kept  code 7");
  EXPECT_FALSE(log.enabled(obs::LogLevel::Debug));
  EXPECT_TRUE(log.enabled(obs::LogLevel::Error));
}

TEST(ObsLog, ParseLevel) {
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::Warn);
  EXPECT_EQ(obs::parse_log_level("ERROR"), obs::LogLevel::Error);
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::Off);
  EXPECT_EQ(obs::parse_log_level(nullptr), obs::LogLevel::Info);
  EXPECT_EQ(obs::parse_log_level("junk", obs::LogLevel::Debug),
            obs::LogLevel::Debug);
}

// ---------------------------------------------------------------------------
// Thread pool integration: failures carry task context through the logger.
// ---------------------------------------------------------------------------

TEST(ObsThreadPool, TaskFailureLogsIndexAndRethrows) {
  std::mutex mu;
  std::vector<std::string> captured;
  obs::Logger::global().set_sink(
      [&](obs::LogLevel lv, const std::string& line) {
        if (lv == obs::LogLevel::Error) {
          std::lock_guard lock(mu);
          captured.push_back(line);
        }
      });

  par::ThreadPool pool(2);
  par::TaskGroup group(pool);
  group.run([] {});  // task 0 is fine
  group.run([] { throw std::runtime_error("boom"); });  // task 1 fails
  EXPECT_THROW(group.wait(), std::runtime_error);

  obs::Logger::global().set_sink(nullptr);  // restore default before asserting
  std::lock_guard lock(mu);
  bool found = false;
  for (const std::string& line : captured) {
    if (line.find("task failed") != std::string::npos &&
        line.find("task_index 1") != std::string::npos &&
        line.find("what boom") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "captured " << captured.size() << " error lines";
}

TEST(ObsThreadPool, TaskMetricsAdvance) {
  auto& reg = obs::Registry::global();
  const std::uint64_t before =
      reg.counter("thread_pool.tasks_executed_total").value();
  par::ThreadPool pool(2);
  par::TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) group.run([] {});
  group.wait();
  EXPECT_GE(reg.counter("thread_pool.tasks_executed_total").value(),
            before + 8);
  EXPECT_GE(reg.histogram("thread_pool.task_latency_us", {}).count(), 8u);
}

// ---------------------------------------------------------------------------
// Span args and cross-thread causality
// ---------------------------------------------------------------------------

TEST(ObsTrace, SpanArgsRecordedAndExported) {
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  {
    obs::ScopedSpan span("t.args");
    span.arg("rows", 7).arg("nnz", 123);
    // Past kMaxArgs the extras are dropped, never overflowed.
    span.arg("a3", 3).arg("a4", 4).arg("a5", 5);
  }
  rec.disable();
  const auto evs = rec.events();
  const auto* e = find_span(evs, "t.args");
  ASSERT_TRUE(e);
  ASSERT_EQ(e->nargs, obs::SpanEvent::kMaxArgs);
  EXPECT_STREQ(e->args[0].key, "rows");
  EXPECT_EQ(e->args[0].value, 7u);
  EXPECT_STREQ(e->args[1].key, "nnz");
  EXPECT_EQ(e->args[1].value, 123u);
  const std::string json = rec.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"rows\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"nnz\": 123"), std::string::npos);
  rec.clear();
}

TEST(ObsTrace, CurrentContextTracksInnermostSpan) {
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.disable();
  EXPECT_FALSE(rec.current_context());  // disabled -> zero context
  rec.enable();
  EXPECT_FALSE(rec.current_context());  // enabled but no span open
  {
    OBS_SPAN("t.ctx_outer");
    const obs::TraceContext outer = rec.current_context();
    EXPECT_TRUE(outer);
    {
      OBS_SPAN("t.ctx_inner");
      const obs::TraceContext inner = rec.current_context();
      EXPECT_TRUE(inner);
      EXPECT_NE(inner.span_id, outer.span_id);
    }
    EXPECT_EQ(rec.current_context().span_id, outer.span_id);
  }
  rec.disable();
  rec.clear();
}

/// Nested fan-out: every worker `thread_pool.task` span must carry a flow
/// link back to a `thread_pool.parallel_for` span, the link's capture time
/// must fall inside the source span (so the Chrome "s" event binds to the
/// producer slice and never orphans), and per-thread parent/depth fields
/// must stay mutually consistent. Run under TSan this also races adoption
/// against concurrent export.
TEST(ObsTrace, ParallelForWorkersAreFlowLinked) {
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  par::ThreadPool pool(3);
  {
    OBS_SPAN("t.flow_root");
    par::parallel_for_blocked(
        0, 16,
        [&](std::size_t, std::size_t) {
          // Nested fan-out from inside a worker task.
          par::parallel_for_blocked(
              0, 4, [](std::size_t, std::size_t) {}, pool, 1);
        },
        pool, 4);
  }
  rec.disable();
  const auto evs = rec.events();

  // Index spans by id, and group event indices by thread.
  std::map<std::uint64_t, const obs::SpanEvent*> by_id;
  std::map<std::uint32_t, std::vector<const obs::SpanEvent*>> by_tid;
  for (const auto& e : evs) {
    by_id[e.id] = &e;
    by_tid[e.tid].push_back(&e);
  }

  std::size_t tasks = 0, linked = 0;
  for (const auto& e : evs) {
    if (std::string(e.name) != "thread_pool.task") continue;
    ++tasks;
    if (e.flow_src == 0) continue;
    ++linked;
    const auto it = by_id.find(e.flow_src);
    ASSERT_NE(it, by_id.end()) << "flow link to an unrecorded span";
    const obs::SpanEvent& src = *it->second;
    EXPECT_STREQ(src.name, "thread_pool.parallel_for");
    EXPECT_EQ(e.flow_src_tid, src.tid);
    // The "s" endpoint must land inside the producer slice: Chrome binds
    // flow starts by (ts, tid) to the enclosing slice.
    EXPECT_GE(e.flow_ts_ns, src.start_ns);
    EXPECT_LE(e.flow_ts_ns, src.end_ns);
  }
  EXPECT_GT(tasks, 0u);
  EXPECT_EQ(linked, tasks) << "every pool task ran under an open span here";

  // Parent/depth consistency per thread (parent = index in begin order).
  for (const auto& [tid, group] : by_tid) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      const obs::SpanEvent& e = *group[i];
      if (e.parent < 0) {
        EXPECT_EQ(e.depth, 0) << e.name;
      } else {
        ASSERT_LT(static_cast<std::size_t>(e.parent), i) << e.name;
        const obs::SpanEvent& p = *group[static_cast<std::size_t>(e.parent)];
        EXPECT_EQ(e.depth, p.depth + 1) << e.name;
        EXPECT_GE(e.start_ns, p.start_ns) << e.name;
      }
    }
  }

  // The export carries paired flow events.
  const std::string json = rec.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  rec.clear();
}

// ---------------------------------------------------------------------------
// Snapshot + percentile export (satellite of the sampler/report work)
// ---------------------------------------------------------------------------

TEST(ObsMetrics, SnapshotReflectsRegistry) {
  obs::Registry reg;
  reg.counter("snap.count_total").add(11);
  reg.gauge("snap.gauge").set(2.5);
  auto& h = reg.histogram("snap.lat_us", {1.0, 10.0, 100.0});
  for (const double v : {0.5, 5.0, 50.0, 50.0}) h.observe(v);
  reg.histogram("snap.empty", {1.0});  // stays empty

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("snap.count_total"), 11u);
  EXPECT_EQ(snap.counter_or("absent", 42), 42u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("snap.gauge"), 2.5);
  const auto* hs = snap.histogram("snap.lat_us");
  ASSERT_TRUE(hs);
  EXPECT_EQ(hs->count, 4u);
  EXPECT_DOUBLE_EQ(hs->sum, 105.5);
  EXPECT_GT(hs->p50, 0.0);
  EXPECT_GE(hs->p99, hs->p50);
  const auto* empty = snap.histogram("snap.empty");
  ASSERT_TRUE(empty);
  EXPECT_EQ(empty->count, 0u);
  EXPECT_DOUBLE_EQ(empty->p50, 0.0);
  EXPECT_EQ(snap.histogram("absent"), nullptr);
}

TEST(ObsMetrics, ToTextEmitsPercentilesOnlyWhenObserved) {
  obs::Registry reg;
  reg.histogram("seen.lat_us", {1.0, 10.0}).observe(3.0);
  reg.histogram("never.lat_us", {1.0, 10.0});
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("seen.lat_us_p50"), std::string::npos) << text;
  EXPECT_NE(text.find("seen.lat_us_p99"), std::string::npos) << text;
  // An empty histogram printing p50 0 would read as a measurement.
  EXPECT_EQ(text.find("never.lat_us_p50"), std::string::npos) << text;
  EXPECT_EQ(text.find("never.lat_us_p99"), std::string::npos) << text;
  EXPECT_NE(text.find("never.lat_us_count 0"), std::string::npos) << text;
}

}  // namespace
