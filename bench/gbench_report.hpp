// google-benchmark → BenchReport bridge.
//
// The custom-main benches (abl_cache, ...) write their BenchReport snapshot
// directly; the google-benchmark ones get the same schema through this
// header: replace BENCHMARK_MAIN() with
//
//   MVGNN_GBENCH_REPORT_MAIN("abl_gemm", "BENCH_gemm.json");
//
// and every per-iteration run lands in the snapshot as two metrics,
//
//   "<benchmark name>/real_ns"     goal=lower   adjusted real time / iter
//   "<benchmark name>/items_per_s" goal=higher  (when SetItemsProcessed ran)
//   "<benchmark name>/<counter>"   goal=higher  every user counter, verbatim
//
// so tools/bench_compare can gate a microbench exactly like a wall-clock
// bench. The name leaves out google-benchmark's `/real_time` suffix: a case
// keeps its keys whichever clock its rates are taken on. `--bench-out=<path>`
// overrides the snapshot path; it is stripped before benchmark::Initialize
// sees the arguments (google-benchmark rejects flags it does not know). All
// normal --benchmark_* flags still work — CI uses --benchmark_filter to run
// a small, stable subset.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"

namespace mvgnn::bench {

/// ConsoleReporter that additionally records every per-iteration run into a
/// BenchReport. Aggregate rows (mean/median/stddev under --benchmark_
/// repetitions) are skipped: re-recording already keeps the last rep, and
/// mixing aggregates into the metric namespace would double-gate.
class ReportingConsoleReporter : public benchmark::ConsoleReporter {
 public:
  explicit ReportingConsoleReporter(obs::BenchReport& report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      benchmark::BenchmarkName run_name = run.run_name;
      run_name.time_type.clear();
      const std::string name = run_name.str();
      // GetAdjustedRealTime is per-iteration, scaled to the run's time
      // unit (abl_fault_overhead reports milliseconds); the key is always
      // in nanoseconds.
      report_.metric(name + "/real_ns",
                     run.GetAdjustedRealTime() * 1e9 /
                         benchmark::GetTimeUnitMultiplier(run.time_unit),
                     obs::MetricGoal::Lower, "ns");
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        report_.metric(name + "/items_per_s",
                       static_cast<double>(it->second),
                       obs::MetricGoal::Higher, "items/s");
      }
      // User counters (state.counters[...]) pass through under their own
      // name. Every counter this repo defines is a higher-is-better rate
      // (gflops and friends); a future lower-is-better counter would need
      // its own mapping here before the gate could use it.
      for (const auto& [cname, counter] : run.counters) {
        if (cname == "items_per_second" || cname == "bytes_per_second") {
          continue;  // already mapped / unused
        }
        report_.metric(name + "/" + cname, static_cast<double>(counter),
                       obs::MetricGoal::Higher,
                       cname == "gflops" ? "GFLOP/s" : "");
      }
    }
  }

 private:
  obs::BenchReport& report_;
};

/// Drop-in main body: strips --bench-out=<path>, runs the benchmarks with
/// the capturing reporter, writes the snapshot. Returns the process exit
/// code.
inline int run_gbench_with_report(int argc, char** argv,
                                  const char* bench_name,
                                  const char* default_out) {
  std::string out = default_out;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    constexpr const char* kFlag = "--bench-out=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      out = argv[i] + std::strlen(kFlag);
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);  // Initialize expects an argv-shaped array
  int filtered_argc = static_cast<int>(args.size()) - 1;

  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  obs::BenchReport report(bench_name);
  {
    std::string joined;
    for (int i = 1; i < filtered_argc; ++i) {
      if (!joined.empty()) joined += ' ';
      joined += args[static_cast<std::size_t>(i)];
    }
    report.config("args", joined);
  }
  ReportingConsoleReporter reporter(report);
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (ran == 0) {
    std::fprintf(stderr, "%s: no benchmarks matched the filter\n", bench_name);
    return 1;
  }
  if (report.write(out)) std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace mvgnn::bench

#define MVGNN_GBENCH_REPORT_MAIN(bench_name, default_out)               \
  int main(int argc, char** argv) {                                     \
    return mvgnn::bench::run_gbench_with_report(argc, argv, bench_name, \
                                                default_out);           \
  }
