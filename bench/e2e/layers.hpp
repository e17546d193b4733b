// The benchmark's catalogue, read from BENCHMARK.json (its only source), and
// the per-layer metrics a traced phase derives from spans and registry
// snapshots (README.md).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvgnn::bench_e2e {

struct MetricDef {
  std::string name;
  std::string unit;
  obs::MetricGoal goal = obs::MetricGoal::Lower;
  /// Regression bound as a share of the parent's median (end-to-end only).
  double bound = 0.0;
};

struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<MetricDef> end_to_end;  // in file order
  std::vector<MetricDef> per_layer;   // in file order
};

/// The whole file; throws std::runtime_error when it cannot be read.
std::string read_file(const std::string& path);

/// Parses BENCHMARK.json; throws std::runtime_error when it cannot be read
/// or lacks a list.
BenchmarkSpec read_benchmark(const std::string& path);

/// The layers of the `<layer>.self_pct` metrics among `per_layer`.
std::vector<std::string> self_time_layers(const std::vector<MetricDef>& per_layer);

/// Per-layer metrics computable from a traced phase: span statistics
/// (obs::build_report over `events`) plus registry deltas between the
/// snapshots taken before and after the phase. `<layer>.self_pct` is the
/// layer's share of span self time, for every layer in `layers`; self time
/// of any other layer is left out, so the shares then sum to less than 100.
/// Metrics whose layer the phase never entered are absent.
std::map<std::string, double> span_metrics(
    const std::vector<obs::SpanEvent>& events,
    const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after,
    const std::vector<std::string>& layers);

}  // namespace mvgnn::bench_e2e
