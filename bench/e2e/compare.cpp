// bench_e2e_compare — pairwise comparison of two sets of benchmark runs
// (README.md, "Comparing two commits").
//
//   bench_e2e_compare <parent-runs-dir> <change-runs-dir>
//                     [--benchmark BENCHMARK.json]
//
// Each directory holds the BenchReport files `run.py --report-dir` writes,
// one per run. Runs pair up by (workload, seed); only untraced runs count.
// For every (workload, end-to-end metric) it prints each side's median and
// quartiles, the change's win fraction over the pairs, and one verdict:
//   improved      the change wins >= 9/10 of the pairs and the medians differ
//                 by more than the parent's interquartile range;
//   unresolved    either side's spread (IQR / median) is wider than the
//                 metric's bound, and not every change run beats every
//                 parent run;
//   within bound  the change's median is no worse than the parent's by more
//                 than the bound;
//   regressed     otherwise.
// The failed-operation fraction is compared exactly: any increase is a
// regression. Exit status 1 when anything regressed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obs/json.hpp"
#include "workload.hpp"

namespace {

namespace fs = std::filesystem;
using mvgnn::bench_e2e::MetricDef;
using mvgnn::bench_e2e::median;
using mvgnn::bench_e2e::read_file;
using mvgnn::obs::json::Value;

/// One untraced run: metric values plus its operation counts.
struct Run {
  std::map<std::string, double> metrics;
  double attempted = 0.0;
  double failed = 0.0;
};

/// workload -> seed -> run
using RunSet = std::map<std::string, std::map<std::uint64_t, Run>>;

RunSet load_runs(const fs::path& dir) {
  RunSet out;
  for (const auto& f : fs::directory_iterator(dir)) {
    if (f.path().extension() != ".json") continue;
    const Value doc = mvgnn::obs::json::parse(read_file(f.path().string()));
    const Value* config = doc.find("config");
    const Value* metrics = doc.find("metrics");
    if (config == nullptr || metrics == nullptr || !metrics->is_object()) {
      throw std::runtime_error(f.path().string() + ": not a BenchReport");
    }
    if (config->num_or("trace", 0) != 0) continue;
    Run r;
    r.attempted = config->num_or("attempted", 0);
    r.failed = config->num_or("failed", 0);
    for (const auto& [k, v] : metrics->as_object()) {
      r.metrics[k] = v.num_or("value", 0.0);
    }
    const auto seed = static_cast<std::uint64_t>(config->num_or("seed", 0));
    out[doc.str_or("bench", "?")][seed] = std::move(r);
  }
  return out;
}

/// Python's statistics.quantiles(data, n=4) (method "exclusive"), so the
/// numbers match what other tooling computes from the same runs.
std::vector<double> quartiles(std::vector<double> d) {
  std::sort(d.begin(), d.end());
  const auto ld = static_cast<long>(d.size());
  if (ld == 1) return {d[0], d[0], d[0]};
  std::vector<double> q;
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q.push_back((d[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 d[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e_compare <parent-runs-dir> <change-runs-dir> "
               "[--benchmark BENCHMARK.json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> dirs;
  std::string bench_path = "BENCHMARK.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--benchmark" && a + 1 < argc) {
      bench_path = argv[++a];
    } else if (!arg.empty() && arg[0] != '-') {
      dirs.push_back(arg);
    } else {
      return usage();
    }
  }
  if (dirs.size() != 2) return usage();
  try {
    const mvgnn::bench_e2e::BenchmarkSpec spec =
        mvgnn::bench_e2e::read_benchmark(bench_path);
    const RunSet parent = load_runs(dirs[0]);
    const RunSet change = load_runs(dirs[1]);

    bool regressed = false;
    std::printf("%-15s %-15s %5s %29s %29s %6s  %s\n", "workload", "metric",
                "pairs", "parent median [q1, q3]", "change median [q1, q3]",
                "wins", "verdict");
    for (const std::string& wl : spec.workloads) {
      const auto pw = parent.find(wl);
      const auto cw = change.find(wl);
      if (pw == parent.end() || cw == change.end()) {
        std::printf("%-15s (no runs on %s side)\n", wl.c_str(),
                    pw == parent.end() ? "the parent" : "the change");
        continue;
      }
      std::vector<std::pair<const Run*, const Run*>> pairs;
      for (const auto& [seed, run] : pw->second) {
        const auto it = cw->second.find(seed);
        if (it != cw->second.end()) pairs.emplace_back(&run, &it->second);
      }
      if (pairs.empty()) {
        std::printf("%-15s (no seed ran on both sides)\n", wl.c_str());
        continue;
      }
      double pa = 0, pf = 0, ca = 0, cf = 0;
      for (const auto& [p, c] : pairs) {
        pa += p->attempted;
        pf += p->failed;
        ca += c->attempted;
        cf += c->failed;
      }
      const double pfrac = pa > 0 ? pf / pa : 0.0;
      const double cfrac = ca > 0 ? cf / ca : 0.0;
      std::printf("%-15s %-15s %5zu %29.6g %29.6g %6s  %s\n", wl.c_str(),
                  "failed_frac", pairs.size(), pfrac, cfrac, "-",
                  cfrac > pfrac ? "regressed" : "same");
      regressed |= cfrac > pfrac;
      for (const MetricDef& b : spec.end_to_end) {
        const bool higher = b.goal == mvgnn::obs::MetricGoal::Higher;
        std::vector<double> pv, cv;
        int wins = 0;
        for (const auto& [p, c] : pairs) {
          const auto pi = p->metrics.find(b.name);
          const auto ci = c->metrics.find(b.name);
          if (pi == p->metrics.end() || ci == c->metrics.end()) continue;
          pv.push_back(pi->second);
          cv.push_back(ci->second);
          if (higher ? ci->second > pi->second : ci->second < pi->second) {
            ++wins;
          }
        }
        if (pv.empty()) {
          std::printf("%-15s %-15s missing\n", wl.c_str(), b.name.c_str());
          regressed = true;
          continue;
        }
        const double pm = median(pv), cm = median(cv);
        const std::vector<double> pq = quartiles(pv), cq = quartiles(cv);
        const double p_iqr = pq[2] - pq[0];
        const double spread =
            std::max(pm != 0 ? p_iqr / pm : 0.0,
                     cm != 0 ? (cq[2] - cq[0]) / cm : 0.0);
        // Relative change in the bad direction (> 0 = worse).
        const double worse =
            pm != 0 ? (higher ? (pm - cm) / pm : (cm - pm) / pm) : 0.0;
        const bool all_better =
            higher ? *std::min_element(cv.begin(), cv.end()) >
                           *std::max_element(pv.begin(), pv.end())
                     : *std::max_element(cv.begin(), cv.end()) <
                           *std::min_element(pv.begin(), pv.end());
        const char* verdict;
        if (worse < 0 && wins * 10 >= 9 * static_cast<int>(pv.size()) &&
            std::abs(cm - pm) > p_iqr) {
          verdict = "improved";
        } else if (spread > b.bound && !all_better) {
          verdict = "unresolved";
        } else if (worse <= b.bound) {
          verdict = "within bound";
        } else {
          verdict = "regressed";
          regressed = true;
        }
        char pbuf[64], cbuf[64], wbuf[16];
        std::snprintf(pbuf, sizeof pbuf, "%.5g [%.5g, %.5g]", pm, pq[0], pq[2]);
        std::snprintf(cbuf, sizeof cbuf, "%.5g [%.5g, %.5g]", cm, cq[0], cq[2]);
        std::snprintf(wbuf, sizeof wbuf, "%d/%zu", wins, pv.size());
        std::printf("%-15s %-15s %5zu %29s %29s %6s  %s\n", wl.c_str(),
                    b.name.c_str(), pv.size(), pbuf, cbuf, wbuf, verdict);
      }
    }
    return regressed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e_compare: %s\n", e.what());
    return 2;
  }
}
