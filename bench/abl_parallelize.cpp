// Ablation: the parallelize pass — discovery verdicts acted on, end to end.
//
// Seven hand-written large-N MiniC kernels (the shapes the suggestion layer
// is supposed to catch: DOALL sweeps, float/int maps, a stencil, sum/max
// reductions, an indirect-subscript array reduction, a matmul nest) are
// compiled, profiled, suggested, planned and executed both ways:
//
//   sequential: profiler::run_capture — the micro-op engine that also runs
//               every profile and every dataset build, unsharded.
//   parallel:   profiler::run_parallel under the plan from
//               transform::plan_parallel — the same engine with the planned
//               loops sharded across par::TaskGroup.
//
// Both sides run one engine, so per kernel the best-of-reps wall times give
// `<kernel>_speedup` as thread scaling alone, and the output comparison
// (final array-argument memory + return value, the run_equivalence
// contract) gives `<kernel>_equal`. Acceptance: every kernel equal, and at
// least one kernel >= --min-speedup (default 1.5x).
//
//   --smoke        small N, fewer reps, relaxed acceptance (>= 1.05x) —
//                  for CI, where equality still gates exactly but absolute
//                  speedups are noise at smoke sizes
//   --threads <n>  parallel-run thread count (default 2)
//   --reps <n>     repetitions, best-of (default 5; smoke default 2)
//   --out <p>      snapshot path (default BENCH_parallelize.json)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/suggest.hpp"
#include "frontend/lower.hpp"
#include "obs/bench_report.hpp"
#include "profiler/profile.hpp"
#include "transform/parallelize.hpp"

namespace {

using namespace mvgnn;
using profiler::ArgInit;

struct Kernel {
  const char* name;
  std::string source;
  std::vector<ArgInit> args;
};

std::string with_n(const char* body, int n) {
  return "const int N = " + std::to_string(n) + ";\n" + body;
}

/// The kernel corpus. `n` scales the data size (smoke vs full); matmul gets
/// a cubic-friendly side length of its own.
std::vector<Kernel> make_kernels(int n, int mat) {
  const auto un = static_cast<std::uint64_t>(n);
  const auto um = static_cast<std::uint64_t>(mat);
  std::vector<Kernel> ks;
  ks.push_back({"saxpy",
                with_n(R"(float kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    a[i] = 2.5 * a[i] + b[i];
  }
  return a[0];
})",
                       n),
                {ArgInit::of_array(un, 1), ArgInit::of_array(un, 2)}});
  ks.push_back({"vec_map",
                with_n(R"(int kernel(int[] a, int[] b, int[] c) {
  for (int i = 0; i < N; i += 1) {
    c[i] = a[i] * 3 + b[i];
  }
  return c[0];
})",
                       n),
                {ArgInit::of_array(un, 1), ArgInit::of_array(un, 2),
                 ArgInit::of_array(un, 3)}});
  ks.push_back({"stencil",
                with_n(R"(float kernel(float[] a, float[] b) {
  for (int i = 1; i < N - 1; i += 1) {
    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
  }
  return b[1];
})",
                       n),
                {ArgInit::of_array(un, 1), ArgInit::of_array(un, 2)}});
  ks.push_back({"dot_product",
                with_n(R"(float kernel(float[] a, float[] b) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[i] * b[i];
  }
  return s;
})",
                       n),
                {ArgInit::of_array(un, 1), ArgInit::of_array(un, 2)}});
  ks.push_back({"reduce_max",
                with_n(R"(float kernel(float[] a) {
  float m = 0.0;
  for (int i = 0; i < N; i += 1) {
    m = fmax(m, a[i]);
  }
  return m;
})",
                       n),
                {ArgInit::of_array(un, 1)}});
  ks.push_back({"histogram",
                with_n(R"(float kernel(int[] bucket, float[] hist) {
  for (int i = 0; i < N; i += 1) {
    hist[bucket[i]] += 1.0;
  }
  return hist[0];
})",
                       n),
                {ArgInit::of_array(un, 7), ArgInit::of_array(un, 8)}});
  ks.push_back({"matmul",
                with_n(R"(float kernel(float[] A, float[] B, float[] C) {
  for (int i = 0; i < N; i += 1) {
    for (int j = 0; j < N; j += 1) {
      float acc = 0.0;
      for (int k = 0; k < N; k += 1) {
        acc = acc + A[i * N + k] * B[k * N + j];
      }
      C[i * N + j] = acc;
    }
  }
  return C[0];
})",
                       mat),
                {ArgInit::of_array(um * um, 1), ArgInit::of_array(um * um, 2),
                 ArgInit::of_array(um * um, 3)}});
  return ks;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 0;  // 0 = pick the mode default below
  std::uint32_t threads = 2;
  double min_speedup = 0.0;  // 0 = pick the mode default below
  std::string out = "BENCH_parallelize.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--reps") == 0 && a + 1 < argc) {
      reps = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--threads") == 0 && a + 1 < argc) {
      threads = static_cast<std::uint32_t>(std::atoi(argv[++a]));
    } else if (std::strcmp(argv[a], "--min-speedup") == 0 && a + 1 < argc) {
      min_speedup = std::atof(argv[++a]);
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out = argv[++a];
    } else {
      std::fprintf(stderr,
                   "usage: abl_parallelize [--smoke] [--reps n] "
                   "[--threads n] [--min-speedup x] [--out path]\n");
      return 2;
    }
  }
  if (reps <= 0) reps = smoke ? 2 : 5;
  if (min_speedup <= 0.0) min_speedup = smoke ? 1.05 : 1.5;
  const int n = smoke ? 1 << 14 : 1 << 18;
  const int mat = smoke ? 24 : 72;

  obs::BenchReport report("abl_parallelize");
  report.config("smoke", smoke ? 1 : 0);
  report.config("reps", reps);
  report.config("threads", static_cast<double>(threads));
  report.config("n", n);
  report.config("matmul_n", mat);

  bool all_equal = true;
  bool all_planned = true;
  double max_speedup = 0.0;
  std::printf("%-12s %7s %12s %12s %9s %6s\n", "kernel", "loops", "seq ms",
              "par ms", "speedup", "equal");
  for (const Kernel& k : make_kernels(n, mat)) {
    const ir::Module m = frontend::compile(k.source, k.name);
    const auto prof = profiler::profile(m, "kernel", k.args);
    const auto suggestions = analysis::suggest_openmp(m, prof);
    const auto result = transform::plan_parallel(m, "kernel", suggestions,
                                                 prof);
    if (result.planned_loops() == 0) {
      // A kernel the planner refuses entirely is a regression in the pass,
      // not a slow run — surface it through kernels_planned.
      std::printf("%-12s %7s %12s %12s %9s %6s\n", k.name, "0", "-", "-", "-",
                  "-");
      all_planned = false;
      report.metric(std::string(k.name) + "_speedup", 0.0,
                    obs::MetricGoal::Higher, "x");
      report.metric(std::string(k.name) + "_equal", 0.0,
                    obs::MetricGoal::Higher);
      continue;
    }

    transform::EquivalenceReport best;
    bool equal = true;
    for (int r = 0; r < reps; ++r) {
      const auto eq =
          transform::run_equivalence(m, "kernel", k.args, result.plan,
                                     threads);
      if (!eq.ran || !eq.equal) {
        std::printf("%-12s MISMATCH: %s\n", k.name, eq.detail.c_str());
        equal = false;
        break;
      }
      if (r == 0) {
        best = eq;
      } else {
        best.seq_seconds = std::min(best.seq_seconds, eq.seq_seconds);
        best.par_seconds = std::min(best.par_seconds, eq.par_seconds);
      }
    }
    if (!equal) {
      all_equal = false;
      report.metric(std::string(k.name) + "_speedup", 0.0,
                    obs::MetricGoal::Higher, "x");
      report.metric(std::string(k.name) + "_equal", 0.0,
                    obs::MetricGoal::Higher);
      continue;
    }
    const double speedup =
        best.par_seconds > 0.0 ? best.seq_seconds / best.par_seconds : 0.0;
    max_speedup = std::max(max_speedup, speedup);
    std::printf("%-12s %7zu %12.3f %12.3f %8.2fx %6s\n", k.name,
                result.planned_loops(), best.seq_seconds * 1e3,
                best.par_seconds * 1e3, speedup, "yes");
    report.metric(std::string(k.name) + "_speedup", speedup,
                  obs::MetricGoal::Higher, "x");
    report.metric(std::string(k.name) + "_equal", 1.0,
                  obs::MetricGoal::Higher);
  }

  std::printf("\nall outputs equal: %s\n", all_equal ? "yes" : "NO");
  std::printf("all kernels planned: %s\n", all_planned ? "yes" : "NO");
  std::printf("max speedup: %.2fx (acceptance: >= %.2fx on any kernel)\n",
              max_speedup, min_speedup);

  report.metric("kernels_equal", all_equal ? 1.0 : 0.0,
                obs::MetricGoal::Higher);
  report.metric("kernels_planned", all_planned ? 1.0 : 0.0,
                obs::MetricGoal::Higher);
  report.metric("max_speedup", max_speedup, obs::MetricGoal::Higher, "x");
  if (report.write(out)) std::printf("wrote %s\n", out.c_str());

  return (all_equal && all_planned && max_speedup >= min_speedup) ? 0 : 1;
}
