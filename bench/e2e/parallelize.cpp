// parallelize: the seven abl_parallelize kernels, each through compile ->
// profile -> suggest_openmp -> plan_parallel, then executed sequentially and
// in parallel by run_equivalence at 4 threads and at 1. The only workload
// that executes generated code on the micro-op engine.
#include "workload.hpp"

#include "analysis/suggest.hpp"
#include "frontend/lower.hpp"
#include "obs/trace.hpp"
#include "parallel/rng.hpp"
#include "profiler/profile.hpp"
#include "transform/parallelize.hpp"

namespace mvgnn::bench_e2e {
namespace {

using profiler::ArgInit;

/// Loops the planner accepts across the seven kernels; fewer means the pass
/// stopped exercising the parallel engine.
constexpr std::size_t kPlannedLoops = 9;

struct Kernel {
  const char* name;
  std::string source;
  std::vector<ArgInit> args;
};

std::vector<Kernel> make_kernels(int n, int mat, par::Rng& rng) {
  auto with_n = [](int size, const char* body) {
    return "const int N = " + std::to_string(size) + ";\n" + body;
  };
  auto arr = [&](std::uint64_t size) {
    return ArgInit::of_array(size, 1 + rng.uniform_u64(1u << 20));
  };
  const auto un = static_cast<std::uint64_t>(n);
  const auto um = static_cast<std::uint64_t>(mat) * static_cast<std::uint64_t>(mat);
  std::vector<Kernel> ks;
  ks.push_back({"saxpy", with_n(n, R"(float kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) { a[i] = 2.5 * a[i] + b[i]; }
  return a[0];
})"), {arr(un), arr(un)}});
  ks.push_back({"vec_map", with_n(n, R"(int kernel(int[] a, int[] b, int[] c) {
  for (int i = 0; i < N; i += 1) { c[i] = a[i] * 3 + b[i]; }
  return c[0];
})"), {arr(un), arr(un), arr(un)}});
  ks.push_back({"stencil", with_n(n, R"(float kernel(float[] a, float[] b) {
  for (int i = 1; i < N - 1; i += 1) {
    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
  }
  return b[1];
})"), {arr(un), arr(un)}});
  ks.push_back({"dot_product", with_n(n, R"(float kernel(float[] a, float[] b) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) { s = s + a[i] * b[i]; }
  return s;
})"), {arr(un), arr(un)}});
  ks.push_back({"reduce_max", with_n(n, R"(float kernel(float[] a) {
  float m = 0.0;
  for (int i = 0; i < N; i += 1) { m = fmax(m, a[i]); }
  return m;
})"), {arr(un)}});
  ks.push_back({"histogram", with_n(n, R"(float kernel(int[] bucket, float[] hist) {
  for (int i = 0; i < N; i += 1) { hist[bucket[i]] += 1.0; }
  return hist[0];
})"), {arr(un), arr(un)}});
  ks.push_back({"matmul", with_n(mat, R"(float kernel(float[] A, float[] B, float[] C) {
  for (int i = 0; i < N; i += 1) {
    for (int j = 0; j < N; j += 1) {
      float acc = 0.0;
      for (int k = 0; k < N; k += 1) { acc = acc + A[i * N + k] * B[k * N + j]; }
      C[i * N + j] = acc;
    }
  }
  return C[0];
})"), {arr(um), arr(um), arr(um)}});
  return ks;
}

/// compile -> profile -> suggest_openmp -> plan_parallel for one kernel.
struct Planned {
  ir::Module module;
  profiler::ProfileResult prof;
  transform::ParallelPlanResult plan;
  double profile_s = 0.0;  // profiler::profile
  double plan_s = 0.0;     // suggest_openmp + plan_parallel
};

Planned plan_kernel(const Kernel& kn) {
  Planned p;
  {
    obs::ScopedSpan span("bench.compile");
    p.module = frontend::compile(kn.source, kn.name);
  }
  Clock::time_point t0 = Clock::now();
  p.prof = profiler::profile(p.module, "kernel", kn.args);
  p.profile_s = seconds_since(t0);
  t0 = Clock::now();
  {
    obs::ScopedSpan span("bench.plan");
    p.plan = transform::plan_parallel(
        p.module, "kernel", analysis::suggest_openmp(p.module, p.prof),
        p.prof);
  }
  p.plan_s = seconds_since(t0);
  return p;
}

class ParallelizeWorkload final : public Workload {
 public:
  void setup(const Options& opts) override {
    par::Rng rng(opts.seed ^ 0x9A6A'11E1ULL);
    // N = 2^16 (matmul 48): a pass over all seven kernels takes about 2 s,
    // so one run holds several passes.
    kernels_ = opts.smoke ? make_kernels(1 << 12, 16, rng)
                          : make_kernels(1 << 16, 48, rng);
    // Reference plans: every pass must plan exactly these loops again.
    reference_planned_.clear();
    for (const Kernel& kn : kernels_) {
      reference_planned_.push_back(plan_kernel(kn).plan.planned_loops());
    }
  }

  Phase run(double seconds) override {
    Phase ph;
    const std::size_t nk = kernels_.size();
    std::vector<std::vector<double>> plan_us(nk), seq_ms(nk), par1_ms(nk),
        par4_ms(nk);
    double steps = 0.0, profile_s = 0.0;
    std::size_t planned = 0;
    run_reps(seconds, 3, [&](int) {
      const Clock::time_point pass0 = Clock::now();
      planned = 0;
      for (std::size_t k = 0; k < nk; ++k) {
        const Kernel& kn = kernels_[k];
        ++ph.attempted;
        const Planned p = plan_kernel(kn);
        profile_s += p.profile_s;
        steps += static_cast<double>(p.prof.run.steps);
        plan_us[k].push_back(p.plan_s * 1e6);
        planned += p.plan.planned_loops();
        bool ok = p.plan.planned_loops() == reference_planned_[k];
        if (!ok) {
          ph.fail(std::string(kn.name) + ": planned " +
                  std::to_string(p.plan.planned_loops()) +
                  " loops, the setup plan " +
                  std::to_string(reference_planned_[k]));
        }
        for (const std::uint32_t threads : {4u, 1u}) {
          transform::EquivalenceReport eq;
          {
            obs::ScopedSpan span("bench.exec");
            eq = transform::run_equivalence(p.module, "kernel", kn.args,
                                            p.plan.plan, threads);
          }
          if (!eq.ran || !eq.equal) {
            ok = false;
            ph.fail(std::string(kn.name) + " at " + std::to_string(threads) +
                    " threads: " + eq.detail);
            continue;
          }
          (threads == 4 ? par4_ms : par1_ms)[k].push_back(eq.par_seconds * 1e3);
          if (threads == 1) seq_ms[k].push_back(eq.seq_seconds * 1e3);
        }
        if (!ok) ++ph.failed;
      }
      const double pass_s = seconds_since(pass0);
      ph.rep_rate.push_back(static_cast<double>(nk) / pass_s);
      ph.op_ms.push_back(pass_s * 1e3);
    });
    if (planned != kPlannedLoops) {
      ph.fail("parallelize: " + std::to_string(planned) +
              " loops planned (expected " + std::to_string(kPlannedLoops) +
              ")");
    }
    // Per kernel the median over passes, then the geomean over kernels.
    auto geo = [&](const std::vector<std::vector<double>>& per_kernel) {
      std::vector<double> med;
      for (const auto& v : per_kernel) {
        if (!v.empty()) med.push_back(median(v));
      }
      return geomean(med);
    };
    ph.layer["transform.plan_us"] = geo(plan_us);
    ph.layer["transform.planned_loops"] = static_cast<double>(planned);
    ph.layer["profiler.steps_per_s"] = profile_s > 0 ? steps / profile_s : 0.0;
    ph.layer["profiler.seq_run_ms"] = geo(seq_ms);
    ph.layer["profiler.par_1t_ms"] = geo(par1_ms);
    ph.layer["profiler.par_4t_ms"] = geo(par4_ms);
    const double par4 = ph.layer["profiler.par_4t_ms"];
    ph.layer["profiler.scaling_4t"] =
        par4 > 0 ? ph.layer["profiler.par_1t_ms"] / par4 : 0.0;
    return ph;
  }

 private:
  std::vector<Kernel> kernels_;
  std::vector<std::size_t> reference_planned_;
};

}  // namespace

std::unique_ptr<Workload> make_parallelize() {
  return std::make_unique<ParallelizeWorkload>();
}

}  // namespace mvgnn::bench_e2e
