// Report pipeline: the JSON reader, trace re-import, self-time/stage
// attribution, the bench-report schema + regression gate, and the
// background metrics sampler's JSONL output.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace {

using namespace mvgnn;

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

TEST(ObsJson, ParsesScalarsContainersAndEscapes) {
  const auto v = obs::json::parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\n\"y\" A",)"
      R"( "nested": {"k": -2e3}, "dup": 1, "dup": 2})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.5);
  const auto& arr = v.find("b")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_FALSE(arr[1].as_bool());
  EXPECT_TRUE(arr[2].is_null());
  EXPECT_EQ(v.find("s")->as_string(), "x\n\"y\" A");
  EXPECT_DOUBLE_EQ(v.find("nested")->num_or("k", 0.0), -2000.0);
  EXPECT_DOUBLE_EQ(v.find("dup")->as_number(), 2.0);  // last wins
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(v.num_or("missing", 7.0), 7.0);
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW((void)obs::json::parse(""), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("01x"), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("{} trailing"), std::runtime_error);
  // Nesting past the sanity cap must throw, not overflow the stack.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW((void)obs::json::parse(deep), std::runtime_error);
}

TEST(ObsJson, TypedAccessorsThrowOnKindMismatch) {
  const auto v = obs::json::parse(R"({"n": 3})");
  EXPECT_THROW((void)v.find("n")->as_string(), std::runtime_error);
  EXPECT_THROW((void)v.as_array(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// BenchReport schema + compare gate
// ---------------------------------------------------------------------------

std::string sample_report(double warm_s, double speedup) {
  obs::BenchReport r("abl_cache");
  r.config("loops", 700);
  r.config("mode", std::string("full"));
  r.metric("warm_s", warm_s, obs::MetricGoal::Lower, "s");
  r.metric("warm_speedup_vs_cold", speedup, obs::MetricGoal::Higher, "x");
  r.metric("disk_entries", 5701.0);  // informational
  return r.to_json();
}

TEST(BenchReport, JsonRoundTripsThroughParser) {
  const std::string doc = sample_report(0.5, 12.0);
  const auto v = obs::json::parse(doc);
  EXPECT_EQ(v.str_or("bench", ""), "abl_cache");
  EXPECT_DOUBLE_EQ(v.num_or("schema", 0), 1.0);
  EXPECT_DOUBLE_EQ(v.find("config")->num_or("loops", 0), 700.0);
  EXPECT_EQ(v.find("config")->str_or("mode", ""), "full");
  const auto* warm = v.find("metrics")->find("warm_s");
  ASSERT_TRUE(warm);
  EXPECT_DOUBLE_EQ(warm->num_or("value", 0), 0.5);
  EXPECT_EQ(warm->str_or("goal", ""), "lower");
  EXPECT_EQ(warm->str_or("unit", ""), "s");
  // Informational metric: no goal key at all.
  EXPECT_EQ(v.find("metrics")->find("disk_entries")->find("goal"), nullptr);
}

TEST(BenchReport, ConfigStringsEscapeControlCharacters) {
  obs::BenchReport r("abl_cache");
  r.config("note", std::string("two\nlines\ttab\x02"));
  const std::string doc = r.to_json();
  EXPECT_NE(doc.find("\"two\\nlines\\ttab\\u0002\""), std::string::npos)
      << doc;
  EXPECT_EQ(obs::json::parse(doc).find("config")->str_or("note", ""),
            "two\nlines\ttab\x02");
}

TEST(BenchReport, CompareWithinToleranceAndImprovementPass) {
  obs::CompareOptions opts;
  opts.tolerance = 0.10;
  // 5% slower warm_s: within tolerance. 2x speedup gain: improved.
  const auto res = obs::compare_bench_reports(sample_report(0.50, 12.0),
                                              sample_report(0.525, 24.0), opts);
  EXPECT_TRUE(res.ok) << obs::render_compare(res);
  bool saw_improved = false;
  for (const auto& row : res.rows) {
    saw_improved |= row.status == obs::MetricVerdict::Status::Improved;
    EXPECT_NE(row.status, obs::MetricVerdict::Status::Regressed);
  }
  EXPECT_TRUE(saw_improved);
}

TEST(BenchReport, CompareFlagsRegressionBeyondTolerance) {
  obs::CompareOptions opts;
  opts.tolerance = 0.10;
  // warm_s up 50% (goal=lower) and speedup halved (goal=higher): both gate.
  const auto res = obs::compare_bench_reports(sample_report(0.50, 12.0),
                                              sample_report(0.75, 6.0), opts);
  EXPECT_FALSE(res.ok);
  std::size_t regressed = 0;
  for (const auto& row : res.rows) {
    regressed += row.status == obs::MetricVerdict::Status::Regressed;
  }
  EXPECT_EQ(regressed, 2u);
  const std::string table = obs::render_compare(res);
  EXPECT_NE(table.find("FAIL"), std::string::npos) << table;
}

TEST(BenchReport, PerMetricToleranceAndZeroToleranceExactness) {
  obs::CompareOptions opts;
  opts.tolerance = 10.0;  // everything passes by default...
  opts.per_metric["warm_s"] = 0.0;  // ...but warm_s must not move at all
  const auto same = obs::compare_bench_reports(sample_report(0.5, 12.0),
                                               sample_report(0.5, 6.0), opts);
  EXPECT_TRUE(same.ok) << obs::render_compare(same);
  const auto moved = obs::compare_bench_reports(
      sample_report(0.5, 12.0), sample_report(0.5001, 12.0), opts);
  EXPECT_FALSE(moved.ok);
}

TEST(BenchReport, KeySubsetRestrictsAndGuardsTypos) {
  obs::CompareOptions opts;
  opts.tolerance = 0.10;
  opts.keys = {"warm_speedup_vs_cold"};
  // warm_s regressed badly but is not in the key set: gate still passes.
  const auto res = obs::compare_bench_reports(sample_report(0.5, 12.0),
                                              sample_report(5.0, 12.0), opts);
  EXPECT_TRUE(res.ok) << obs::render_compare(res);

  // A typo'd key must fail loudly, not silently gate nothing.
  opts.keys = {"warm_speedup_vs_cold_TYPO"};
  const auto typo = obs::compare_bench_reports(sample_report(0.5, 12.0),
                                               sample_report(0.5, 12.0), opts);
  EXPECT_FALSE(typo.ok);
}

TEST(BenchReport, MissingFreshMetricAndNameMismatchFail) {
  obs::BenchReport fresh("abl_cache");
  fresh.metric("warm_s", 0.5, obs::MetricGoal::Lower, "s");
  // Baseline has warm_speedup_vs_cold; the fresh run doesn't.
  const auto res = obs::compare_bench_reports(sample_report(0.5, 12.0),
                                              fresh.to_json(), {});
  EXPECT_FALSE(res.ok);

  obs::BenchReport other("abl_gemm");
  other.metric("warm_s", 0.5, obs::MetricGoal::Lower, "s");
  const auto mismatch = obs::compare_bench_reports(sample_report(0.5, 12.0),
                                                   other.to_json(), {});
  EXPECT_FALSE(mismatch.ok);
  EXPECT_FALSE(mismatch.names_match);
}

TEST(BenchReport, UnsupportedSchemaVersionThrows) {
  std::string doc = sample_report(0.5, 12.0);
  const auto pos = doc.find("\"schema\": 1");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, std::strlen("\"schema\": 1"), "\"schema\": 99");
  EXPECT_THROW(
      (void)obs::compare_bench_reports(doc, sample_report(0.5, 12.0), {}),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// build_report: self-time and stage attribution on synthetic events
// ---------------------------------------------------------------------------

obs::SpanEvent ev(const char* name, std::uint64_t start_us,
                  std::uint64_t end_us, std::uint32_t tid, std::int32_t parent,
                  std::int32_t depth) {
  obs::SpanEvent e;
  e.name = name;
  e.start_ns = start_us * 1000;
  e.end_ns = end_us * 1000;
  e.tid = tid;
  e.parent = parent;
  e.depth = depth;
  e.id = (static_cast<std::uint64_t>(tid + 1) << 40) | (start_us + 1);
  return e;
}

TEST(ObsReport, SelfTimeAndStagePercentagesSumTo100) {
  // Thread 0: pipe.profile [0,100) containing gemm [10,40) and gemm [50,70);
  // thread 1: pipe.featurize [0,80) containing pipe.walks [20,50).
  std::vector<obs::SpanEvent> evs;
  evs.push_back(ev("pipe.profile", 0, 100, 0, -1, 0));
  evs.push_back(ev("gemm", 10, 40, 0, 0, 1));
  evs.push_back(ev("gemm", 50, 70, 0, 0, 1));
  evs.push_back(ev("pipe.featurize", 0, 80, 1, -1, 0));
  evs.push_back(ev("pipe.walks", 20, 50, 1, 0, 1));

  const obs::Report r = obs::build_report(evs, nullptr);
  EXPECT_EQ(r.events, 5u);
  EXPECT_EQ(r.threads, 2u);
  // Total self time = (100-50) + 30 + 20 + (80-30) + 30 = 180 us.
  EXPECT_EQ(r.traced_self_ns, 180u * 1000);

  const auto stat_of = [&](const std::string& name) -> const obs::SpanStat* {
    for (const auto& s : r.spans) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const auto* prof = stat_of("pipe.profile");
  ASSERT_TRUE(prof);
  EXPECT_EQ(prof->count, 1u);
  EXPECT_EQ(prof->total_ns, 100u * 1000);
  EXPECT_EQ(prof->self_ns, 50u * 1000);  // minus the two gemms
  const auto* gemm = stat_of("gemm");
  ASSERT_TRUE(gemm);
  EXPECT_EQ(gemm->count, 2u);
  EXPECT_EQ(gemm->self_ns, 50u * 1000);

  // Stage attribution: gemm self-time lands in Profile; walks in Featurize
  // (innermost pipe ancestor is pipe.walks itself -> Walks).
  double pct_sum = 0.0;
  std::uint64_t stage_self = 0;
  const auto stage_of = [&](const std::string& name) -> const obs::StageStat* {
    for (const auto& s : r.stages) {
      if (s.stage == name) return &s;
    }
    return nullptr;
  };
  for (const auto& s : r.stages) {
    pct_sum += s.pct;
    stage_self += s.self_ns;
  }
  EXPECT_NEAR(pct_sum, 100.0, 1e-6);
  EXPECT_EQ(stage_self, r.traced_self_ns);  // partition, no double counting
  const auto* profile_stage = stage_of("Profile");
  ASSERT_TRUE(profile_stage);
  EXPECT_EQ(profile_stage->self_ns, 100u * 1000);  // pipe.profile + 2x gemm
  const auto* walks_stage = stage_of("Walks");
  ASSERT_TRUE(walks_stage);
  EXPECT_EQ(walks_stage->self_ns, 30u * 1000);
  const auto* feat_stage = stage_of("Featurize");
  ASSERT_TRUE(feat_stage);
  EXPECT_EQ(feat_stage->self_ns, 50u * 1000);

  // All three render formats produce non-empty output; JSON parses.
  for (const auto fmt : {obs::ReportFormat::Text, obs::ReportFormat::Markdown,
                         obs::ReportFormat::Json}) {
    EXPECT_FALSE(obs::render_report(r, fmt).empty());
  }
  const auto parsed =
      obs::json::parse(obs::render_report(r, obs::ReportFormat::Json));
  EXPECT_TRUE(parsed.is_object());
}

TEST(ObsReport, EmptyTraceYieldsZeroReport) {
  const obs::Report r = obs::build_report({}, nullptr);
  EXPECT_EQ(r.events, 0u);
  EXPECT_EQ(r.traced_self_ns, 0u);
  EXPECT_FALSE(obs::render_report(r, obs::ReportFormat::Text).empty());
}

TEST(ObsReport, ChromeTraceRoundTripsThroughParser) {
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  {
    obs::ScopedSpan outer("pipe.profile");
    outer.arg("cus", 3);
    { OBS_SPAN("gemm"); }
  }
  rec.disable();
  const std::vector<obs::SpanEvent> direct = rec.events();
  const std::string json = rec.to_chrome_json();
  rec.clear();

  const obs::ParsedTrace parsed = obs::parse_chrome_trace(json);
  ASSERT_EQ(parsed.events.size(), direct.size());
  const obs::Report a = obs::build_report(direct, nullptr);
  const obs::Report b = obs::build_report(parsed.events, nullptr);
  EXPECT_EQ(a.traced_self_ns, b.traced_self_ns);
  EXPECT_EQ(a.spans.size(), b.spans.size());
  ASSERT_FALSE(b.spans.empty());
  EXPECT_EQ(a.spans[0].name, b.spans[0].name);
  EXPECT_EQ(a.spans[0].self_ns, b.spans[0].self_ns);
}

TEST(ObsReport, ParseChromeTraceRelinksFlowEvents) {
  // A producer slice on tid 0, a worker slice on tid 3, and an s/f pair
  // keyed by the worker's id with the f end bound to the worker's start —
  // the shape to_chrome_json emits for an adopted TraceContext.
  const std::string json = R"({"traceEvents": [
    {"name": "thread_pool.parallel_for", "ph": "X", "ts": 10.0,
     "dur": 500.0, "pid": 1, "tid": 0, "args": {"parent": -1, "depth": 0}},
    {"name": "thread_pool.task", "ph": "X", "ts": 120.0, "dur": 80.0,
     "pid": 1, "tid": 3, "args": {"parent": -1, "depth": 0}},
    {"name": "fanout", "cat": "mvgnn.flow", "ph": "s", "id": 77,
     "ts": 15.0, "pid": 1, "tid": 0},
    {"name": "fanout", "cat": "mvgnn.flow", "ph": "f", "bp": "e",
     "id": 77, "ts": 120.0, "pid": 1, "tid": 3}
  ]})";
  const obs::ParsedTrace parsed = obs::parse_chrome_trace(json);
  ASSERT_EQ(parsed.events.size(), 2u);
  const obs::SpanEvent& worker = parsed.events[1];
  EXPECT_EQ(worker.flow_src, 77u);
  EXPECT_EQ(worker.flow_src_tid, 0u);
  EXPECT_EQ(worker.flow_ts_ns, 15000u);
  EXPECT_EQ(parsed.events[0].flow_src, 0u);  // producer stays unlinked
  const obs::Report rep = obs::build_report(parsed.events, nullptr);
  EXPECT_EQ(rep.flow_links, 1u);
}

// Span names come from traces on disk: control characters must leave the
// JSON report escaped, or the document no longer parses.
TEST(ObsReport, JsonReportEscapesControlCharactersInSpanNames) {
  const std::string json = R"({"traceEvents": [
    {"name": "a\nb\u0001", "ph": "X", "ts": 10.0, "dur": 5.0, "pid": 1,
     "tid": 0, "args": {"parent": -1, "depth": 0}}
  ]})";
  const obs::ParsedTrace parsed = obs::parse_chrome_trace(json);
  ASSERT_EQ(parsed.events.size(), 1u);
  const std::string out = obs::render_report(
      obs::build_report(parsed.events, nullptr), obs::ReportFormat::Json);
  EXPECT_NE(out.find("\"a\\nb\\u0001\""), std::string::npos) << out;
  EXPECT_EQ(out.find('\x01'), std::string::npos);
  const auto doc = obs::json::parse(out);
  ASSERT_EQ(doc.find("spans")->as_array().size(), 1u);
  EXPECT_EQ(doc.find("spans")->as_array()[0].str_or("name", ""), "a\nb\x01");
}

TEST(ObsReport, ParseChromeTraceRejectsGarbage) {
  EXPECT_THROW((void)obs::parse_chrome_trace("not json"),
               std::runtime_error);
  EXPECT_THROW((void)obs::parse_chrome_trace("{\"traceEvents\": 3}"),
               std::runtime_error);
}

TEST(ObsReport, MetricsJsonRoundTripFillsUtilization) {
  obs::Registry reg;
  reg.counter("cache.hits_total").add(90);
  reg.counter("cache.misses_total").add(10);
  reg.counter("thread_pool.tasks_executed_total").add(40);
  reg.histogram("thread_pool.task_latency_us", {10.0, 100.0}).observe(50.0);
  const obs::MetricsSnapshot snap =
      obs::parse_metrics_json(reg.to_json());
  EXPECT_EQ(snap.counter_or("cache.hits_total"), 90u);

  const obs::Report r = obs::build_report({}, &snap);
  EXPECT_TRUE(r.has_metrics);
  EXPECT_EQ(r.cache_hits, 90u);
  EXPECT_EQ(r.cache_misses, 10u);
  EXPECT_EQ(r.pool_executed, 40u);
  EXPECT_GT(r.task_p50_us, 0.0);
  const std::string text = obs::render_report(r, obs::ReportFormat::Text);
  EXPECT_NE(text.find("90.0%"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Metrics sampler
// ---------------------------------------------------------------------------

TEST(ObsSampler, WritesParseableJsonlRowsWithDeltas) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("samp.count_total");
  reg.gauge("samp.gauge").set(1.5);
  reg.histogram("samp.lat_us", {10.0, 100.0}).observe(42.0);
  reg.histogram("samp.empty", {1.0});

  const auto path = std::filesystem::temp_directory_path() /
                    "mvgnn_test_sampler.jsonl";
  obs::MetricsSampler::Options opts;
  opts.interval_ms = 20;
  opts.path = path.string();
  opts.registry = &reg;
  obs::MetricsSampler sampler(opts);
  ASSERT_TRUE(sampler.start());
  EXPECT_TRUE(sampler.running());
  c.add(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  c.add(3);
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  ASSERT_GE(sampler.rows_written(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t rows = 0;
  double last_cum = 0.0, delta_sum = 0.0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++rows;
    const auto v = obs::json::parse(line);
    EXPECT_GE(v.num_or("t_ms", -1.0), 0.0);
    const auto* counters = v.find("counters");
    ASSERT_TRUE(counters);
    const auto* samp = counters->find("samp.count_total");
    ASSERT_TRUE(samp);
    last_cum = samp->num_or("v", -1.0);
    delta_sum += samp->num_or("d", 0.0);
    // Observed histograms appear with percentiles; empty ones are skipped.
    const auto* hists = v.find("histograms");
    ASSERT_TRUE(hists);
    EXPECT_TRUE(hists->find("samp.lat_us"));
    EXPECT_FALSE(hists->find("samp.empty"));
  }
  EXPECT_EQ(rows, sampler.rows_written());
  EXPECT_DOUBLE_EQ(last_cum, 8.0);   // final row sees both adds
  EXPECT_DOUBLE_EQ(delta_sum, 8.0);  // deltas telescope to the total
  std::filesystem::remove(path);
}

TEST(ObsSampler, StopBeforeStartLatchesAndSequentialRestartWorks) {
  obs::Registry reg;
  reg.counter("samp.race_total").add(1);
  const auto path = std::filesystem::temp_directory_path() /
                    "mvgnn_test_sampler_race.jsonl";
  obs::MetricsSampler::Options opts;
  opts.interval_ms = 10;
  opts.path = path.string();
  opts.registry = &reg;
  obs::MetricsSampler sampler(opts);

  // A stop() that races ahead of start() (e.g. a shutdown signal landing
  // mid-startup) must win: the next start() consumes the latch and stays
  // stopped instead of leaking a sampler thread nobody will join.
  sampler.stop();
  EXPECT_FALSE(sampler.start());
  EXPECT_FALSE(sampler.running());

  // The latch is one-shot: a later sequential start()/stop() cycle works.
  ASSERT_TRUE(sampler.start());
  EXPECT_TRUE(sampler.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.rows_written(), 1u);
}

TEST(ObsSampler, StartFailsCleanlyOnUnwritablePath) {
  obs::Registry reg;
  obs::MetricsSampler::Options opts;
  opts.path = "/nonexistent_dir_mvgnn/out.jsonl";
  opts.registry = &reg;
  obs::MetricsSampler sampler(opts);
  EXPECT_FALSE(sampler.start());
  EXPECT_FALSE(sampler.running());
  sampler.stop();  // must be a safe no-op
  EXPECT_EQ(sampler.rows_written(), 0u);
}

}  // namespace
