// bench_e2e — one workload of the end-to-end benchmark per process
// (README.md; usually started through run.py).
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--benchmark BENCHMARK.json] [--smoke] [--work-dir <dir>]
//             [--trace-dir <dir>] [--report <file.json>]
//
// Prepares the workload's fixtures once, sets it up several times (setup_s
// is the median), then measures for --seconds. --trace 0 reports the
// end-to-end metrics BENCHMARK.json lists. --trace 1 measures half the time
// untraced, then the workload's minimum number of repetitions with
// obs::TraceRecorder on, and reports its per-layer metrics, including the
// tracing overhead between the two phases. Every metric is printed as
// `name value unit`; a per-layer metric the workload does not measure reads
// 0 and is named on an `unmeasured:` line. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every operation and property check passed.
#include "layers.hpp"
#include "workload.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/bench_report.hpp"
#include "obs/log.hpp"

namespace mvgnn::bench_e2e {

const std::vector<Entry>& registry() {
  // Why each workload exists is in BENCHMARK.json and README.md.
  static const std::vector<Entry> entries = {
      {"analyze_unseen", make_analyze_unseen},
      {"analyze_repeat", make_analyze_repeat},
      {"dataset_cold", make_dataset_cold},
      {"dataset_warm", make_dataset_warm},
      {"train", make_train},
      {"parallelize", make_parallelize},
  };
  return entries;
}

namespace {

/// Setup runs at least kMinSetups times and until kMinSetupSeconds have
/// passed: a short setup is repeated more often, so its median is steady.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 3.0;

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--benchmark file] [--smoke] [--work-dir dir] "
               "[--trace-dir dir] [--report file]\nworkloads:");
  for (const Entry& e : registry()) std::fprintf(stderr, " %s", e.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// The process's peak resident set so far (ru_maxrss), in MiB.
double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

}  // namespace

int run_main(int argc, char** argv) {
  std::string name, benchmark = "BENCHMARK.json", work_dir = ".", trace_dir,
      report_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && has_value) {
      name = argv[++a];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++a]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++a]);
    } else if (arg == "--benchmark" && has_value) {
      benchmark = argv[++a];
    } else if (arg == "--work-dir" && has_value) {
      work_dir = argv[++a];
    } else if (arg == "--trace-dir" && has_value) {
      trace_dir = argv[++a];
    } else if (arg == "--report" && has_value) {
      report_path = argv[++a];
    } else {
      return usage();
    }
  }
  const Entry* entry = nullptr;
  for (const Entry& e : registry()) {
    if (name == e.name) entry = &e;
  }
  if (entry == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const BenchmarkSpec spec = read_benchmark(benchmark);
  // Library info logs (daemon start/stop per rep) would swamp the output.
  obs::Logger::global().set_level(obs::LogLevel::Warn);

  const Options opts{seed, smoke, work_dir};
  const std::unique_ptr<Workload> w = entry->make();
  w->prepare(opts);
  std::vector<double> setup_s;
  const Clock::time_point setups0 = Clock::now();
  while (setup_s.size() < kMinSetups ||
         seconds_since(setups0) < kMinSetupSeconds) {
    const Clock::time_point t0 = Clock::now();
    w->setup(opts);
    setup_s.push_back(seconds_since(t0));
  }

  Phase total;
  std::map<std::string, double> values;
  std::vector<MetricDef> defs;
  std::size_t latency_samples = 0, reps = 0;
  if (trace == 0) {
    Phase ph = w->run(seconds);
    values["setup_s"] = median(setup_s);
    values["throughput"] = median(ph.rep_rate);
    values["latency_p50_ms"] = median(ph.op_ms);
    values["peak_rss_mib"] = peak_rss_mib();
    latency_samples = ph.op_ms.size();
    reps = ph.rep_rate.size();
    total.add_checks(std::move(ph));
    defs = spec.end_to_end;
  } else {
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    obs::Registry& reg = obs::Registry::global();
    Phase plain = w->run(seconds / 2);
    const obs::MetricsSnapshot before = reg.snapshot();
    rec.clear();
    rec.enable();
    // Only the workload's minimum repetitions: the recorder keeps every
    // span in memory, hundreds of thousands per training fit.
    Phase traced = w->run(0.0);
    rec.disable();
    const obs::MetricsSnapshot after = reg.snapshot();
    const std::vector<std::string> layers = self_time_layers(spec.per_layer);
    values = span_metrics(rec.events(), before, after, layers);
    double shares = 0.0;
    for (const std::string& layer : layers) {
      const auto it = values.find(layer + ".self_pct");
      if (it != values.end()) shares += it->second;
    }
    if (std::abs(shares - 100.0) > 1.0) {
      total.fail("layer self-time shares sum to " + std::to_string(shares) +
                 " %, not 100 (a span belongs to no listed layer)");
    }
    // Values the benchmark measured itself come from the untraced half.
    for (const auto& [k, v] : plain.layer) values[k] = v;
    const double traced_rate = median(traced.rep_rate);
    values["obs.trace_overhead_pct"] =
        traced_rate > 0 ? 100.0 * (median(plain.rep_rate) / traced_rate - 1.0)
                        : 0.0;
    if (!trace_dir.empty()) {
      std::filesystem::create_directories(trace_dir);
      const std::string stem = trace_dir + "/" + name + "-seed" +
                               std::to_string(seed);
      rec.write_chrome_json(stem + ".trace.json");
      reg.write_json(stem + ".metrics.json");
      std::fprintf(stderr, "trace: %s.trace.json (+ .metrics.json)\n",
                   stem.c_str());
    }
    rec.clear();
    latency_samples = plain.op_ms.size();
    reps = plain.rep_rate.size();
    total.add_checks(std::move(plain));
    total.add_checks(std::move(traced));
    defs = spec.per_layer;
  }

  obs::BenchReport report(name);
  report.config("seed", static_cast<double>(seed));
  report.config("seconds", seconds);
  report.config("trace", trace);
  report.config("smoke", smoke ? 1 : 0);
  report.config("setups", static_cast<double>(setup_s.size()));
  report.config("reps", static_cast<double>(reps));
  report.config("latency_samples", static_cast<double>(latency_samples));
  report.config("attempted", static_cast<double>(total.attempted));
  report.config("failed", static_cast<double>(total.failed));
  std::string metrics_json, unmeasured;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const MetricDef& d = defs[i];
    double v = 0.0;
    if (const auto it = values.find(d.name); it != values.end()) {
      v = it->second;
    } else if (trace == 0) {
      total.fail("no measurement for end-to-end metric " + d.name);
    } else {
      unmeasured += " " + d.name;  // the workload does not enter that layer
    }
    if (!std::isfinite(v)) {
      total.fail(d.name + " is not finite");
      v = 0.0;
    }
    std::printf("%-28s %.6g %s\n", d.name.c_str(), v, d.unit.c_str());
    report.metric(d.name, v, d.goal, d.unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    metrics_json += (i ? ", \"" : "\"") + d.name + "\": {\"value\": " + buf +
                    ", \"unit\": \"" + d.unit + "\"}";
  }
  if (!unmeasured.empty()) std::printf("unmeasured:%s\n", unmeasured.c_str());
  const bool correct = total.failed == 0 && total.problems.empty();
  for (const std::string& p : total.problems) {
    std::fprintf(stderr, "FAILED: %s\n", p.c_str());
  }
  if (!report_path.empty() && !report.write(report_path)) return 1;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(total.attempted),
      static_cast<unsigned long long>(total.failed), metrics_json.c_str());
  return correct ? 0 : 1;
}

}  // namespace mvgnn::bench_e2e

int main(int argc, char** argv) {
  try {
    return mvgnn::bench_e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
