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
// `<kernel>_scaling_2t` and `<kernel>_scaling_4t` (sharded runs at 2 and 4
// worker threads) as thread scaling alone, and the output comparison
// (final array-argument memory + return value, the run_equivalence
// contract) gives `<kernel>_equal`. Acceptance: every kernel equal, and at
// least one kernel scaling >= --min-scaling (default 1.5x) at 2 threads.
//
//   --smoke          small N, fewer reps, relaxed acceptance (>= 1.05x) —
//                    for CI, where equality still gates exactly but
//                    absolute scaling is noise at smoke sizes
//   --reps <n>       repetitions, best-of (default 5; smoke default 2)
//   --min-scaling x  acceptance bar on max_scaling_2t
//   --out <p>        snapshot path (default BENCH_parallelize.json)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
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

/// Best-of-reps wall times of one kernel: the unsharded run and the
/// sharded run at 2 and at 4 threads (each run_equivalence call times a
/// fresh sequential run too; the best of all of them is the baseline).
struct Timing {
  static constexpr double kNone = std::numeric_limits<double>::infinity();
  bool equal = true;
  double seq = kNone;
  double par_2t = kNone;
  double par_4t = kNone;
};

Timing time_kernel(const Kernel& k, const ir::Module& m,
                   const profiler::ParPlan& plan, int reps) {
  Timing t;
  for (int r = 0; r < reps; ++r) {
    for (const std::uint32_t threads : {2u, 4u}) {
      const auto eq =
          transform::run_equivalence(m, "kernel", k.args, plan, threads);
      if (!eq.ran || !eq.equal) {
        std::printf("%-12s MISMATCH at %ut: %s\n", k.name, threads,
                    eq.detail.c_str());
        t.equal = false;
        return t;
      }
      double& par = threads == 2 ? t.par_2t : t.par_4t;
      t.seq = std::min(t.seq, eq.seq_seconds);
      par = std::min(par, eq.par_seconds);
    }
  }
  return t;
}

double ratio(double seq, double par) { return par > 0.0 ? seq / par : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 0;  // 0 = pick the mode default below
  double min_scaling = 0.0;  // 0 = pick the mode default below
  std::string out = "BENCH_parallelize.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--reps") == 0 && a + 1 < argc) {
      reps = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--min-scaling") == 0 && a + 1 < argc) {
      min_scaling = std::atof(argv[++a]);
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out = argv[++a];
    } else {
      std::fprintf(stderr,
                   "usage: abl_parallelize [--smoke] [--reps n] "
                   "[--min-scaling x] [--out path]\n");
      return 2;
    }
  }
  if (reps <= 0) reps = smoke ? 2 : 5;
  if (min_scaling <= 0.0) min_scaling = smoke ? 1.05 : 1.5;
  const int n = smoke ? 1 << 14 : 1 << 18;
  const int mat = smoke ? 24 : 72;

  obs::BenchReport report("abl_parallelize");
  report.config("smoke", smoke ? 1 : 0);
  report.config("reps", reps);
  report.config("n", n);
  report.config("matmul_n", mat);

  bool all_equal = true;
  bool all_planned = true;
  double max_2t = 0.0;
  double max_4t = 0.0;
  auto record = [&](const char* kernel, double s2, double s4, bool equal) {
    const std::string name = kernel;
    report.metric(name + "_scaling_2t", s2, obs::MetricGoal::Higher, "x");
    report.metric(name + "_scaling_4t", s4, obs::MetricGoal::Higher, "x");
    report.metric(name + "_equal", equal ? 1.0 : 0.0, obs::MetricGoal::Higher);
  };
  std::printf("%-12s %5s %10s %10s %10s %7s %7s %6s\n", "kernel", "loops",
              "seq ms", "par2 ms", "par4 ms", "2t", "4t", "equal");
  for (const Kernel& k : make_kernels(n, mat)) {
    const ir::Module m = frontend::compile(k.source, k.name);
    const auto prof = profiler::profile(m, "kernel", k.args);
    const auto suggestions = analysis::suggest_openmp(m, prof);
    const auto result = transform::plan_parallel(m, "kernel", suggestions,
                                                 prof);
    if (result.planned_loops() == 0) {
      // A kernel the planner refuses entirely is a regression in the pass,
      // not a slow run — surface it through kernels_planned.
      std::printf("%-12s %5s\n", k.name, "0");
      all_planned = false;
      record(k.name, 0.0, 0.0, false);
      continue;
    }
    const Timing t = time_kernel(k, m, result.plan, reps);
    if (!t.equal) {
      all_equal = false;
      record(k.name, 0.0, 0.0, false);
      continue;
    }
    const double s2 = ratio(t.seq, t.par_2t);
    const double s4 = ratio(t.seq, t.par_4t);
    max_2t = std::max(max_2t, s2);
    max_4t = std::max(max_4t, s4);
    std::printf("%-12s %5zu %10.3f %10.3f %10.3f %6.2fx %6.2fx %6s\n", k.name,
                result.planned_loops(), t.seq * 1e3, t.par_2t * 1e3,
                t.par_4t * 1e3, s2, s4, "yes");
    record(k.name, s2, s4, true);
  }

  std::printf("\nall outputs equal: %s\n", all_equal ? "yes" : "NO");
  std::printf("all kernels planned: %s\n", all_planned ? "yes" : "NO");
  std::printf("max scaling: %.2fx at 2 threads, %.2fx at 4 (acceptance: "
              ">= %.2fx at 2 on any kernel)\n",
              max_2t, max_4t, min_scaling);

  report.metric("kernels_equal", all_equal ? 1.0 : 0.0,
                obs::MetricGoal::Higher);
  report.metric("kernels_planned", all_planned ? 1.0 : 0.0,
                obs::MetricGoal::Higher);
  report.metric("max_scaling_2t", max_2t, obs::MetricGoal::Higher, "x");
  report.metric("max_scaling_4t", max_4t, obs::MetricGoal::Higher, "x");
  if (report.write(out)) std::printf("wrote %s\n", out.c_str());

  return (all_equal && all_planned && max_2t >= min_scaling) ? 0 : 1;
}
