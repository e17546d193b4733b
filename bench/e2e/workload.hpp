// Workload registry of the end-to-end benchmark (README.md).
//
// A workload builds every input from the run's seed in setup(), then runs
// timed repetitions of one user-visible operation until its time budget is
// spent. It calls only public functions of the layers; what it measures is
// returned as a Phase, and main.cpp turns Phases into the metrics named in
// BENCHMARK.json.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mvgnn::bench_e2e {

struct Options {
  std::uint64_t seed = 1;
  /// Reduced input sizes for the smoke test: same code paths, seconds.
  bool smoke = false;
  /// Working directory inside the source tree (checkpoints, cache
  /// directories).
  std::string work_dir;
};

/// Everything one measured phase produced.
struct Phase {
  /// Work units per second, one value per timed repetition.
  std::vector<double> rep_rate;
  /// One latency sample per user-visible operation.
  std::vector<double> op_ms;
  /// Operations attempted and operations that failed or returned a wrong
  /// result (failed <= attempted).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed correctness or workload-property checks, one line each.
  std::vector<std::string> problems;
  /// Per-layer values only the benchmark itself can measure (it timed the
  /// call, or read a result field), keyed by BENCHMARK.json per_layer name.
  std::map<std::string, double> layer;

  void fail(std::string what) {
    if (problems.size() < 20) problems.push_back(std::move(what));
  }
  /// Takes over another phase's operation counts and failures (its timings
  /// are dropped: a warm-up, or a second phase reported elsewhere).
  void add_checks(Phase&& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (std::string& p : other.problems) fail(std::move(p));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Makes the fixtures a user prepares once with other commands before
  /// running this one (a trained checkpoint, a filled cache directory).
  /// Called once per process and not timed.
  virtual void prepare(const Options& /*opts*/) {}
  /// Generates inputs, loads what the operation needs and computes
  /// reference outputs: the set-up a user pays before the first operation.
  /// Called several times, each call replacing the previous state; timed
  /// as setup_s.
  virtual void setup(const Options& opts) = 0;
  /// Runs timed repetitions until about `seconds` have passed (and at least
  /// a minimum count), checking every result.
  virtual Phase run(double seconds) = 0;
};

struct Entry {
  const char* name;
  std::unique_ptr<Workload> (*make)();
};

/// Every workload, in BENCHMARK.json order.
const std::vector<Entry>& registry();

std::unique_ptr<Workload> make_analyze_unseen();
std::unique_ptr<Workload> make_analyze_repeat();
std::unique_ptr<Workload> make_dataset_cold();
std::unique_ptr<Workload> make_dataset_warm();
std::unique_ptr<Workload> make_train();
std::unique_ptr<Workload> make_parallelize();

// ---- small shared helpers --------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Geometric mean of positive values; 0 when empty.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Runs `rep(i)` for repetitions i = 0, 1, ... until `seconds` have passed
/// and at least `min_reps` ran. The index lets a workload treat rep 0 as a
/// warm-up it does not time.
template <typename Rep>
void run_reps(double seconds, int min_reps, Rep&& rep) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < min_reps || seconds_since(t0) < seconds; ++i) rep(i);
}

}  // namespace mvgnn::bench_e2e
