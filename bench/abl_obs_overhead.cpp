// Observability ablation: cost of the obs layer on the two instrumented hot
// paths (GEMM and the profiling interpreter) with tracing disabled — the
// default state, budgeted at <2% — and enabled, which pays for clock reads
// and per-thread buffer appends.
//
//   ./build/bench/abl_obs_overhead
//
// Compare BM_Gemm/trace_off vs BM_Gemm/trace_on (same for BM_ProfileRun);
// the *_off variants are the numbers to hold against a pre-obs baseline.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/gbench_report.hpp"
#include "frontend/lower.hpp"
#include "obs/trace.hpp"
#include "profiler/profile.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace mvgnn;

void run_gemm(benchmark::State& state) {
  // 2^21 multiply-adds: four tasks of tensor::kMinTaskWork, so the traced
  // run also records the pool fan-out.
  constexpr std::size_t kDim = 128;
  std::vector<float> a(kDim * kDim, 0.5f), b(kDim * kDim, 0.25f),
      c(kDim * kDim);
  for (auto _ : state) {
    tensor::gemm(a.data(), b.data(), c.data(), kDim, kDim, kDim);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          kDim * kDim * kDim);
}

const ir::Module& stencil_module() {
  static const ir::Module m = frontend::compile(R"(
const int N = 256;
void kernel(float[] A, float[] B) {
  for (int t = 0; t < 8; t += 1) {
    for (int i = 1; i < N - 1; i += 1) {
      B[i] = 0.25 * A[i - 1] + 0.5 * A[i] + 0.25 * A[i + 1];
    }
    for (int i = 1; i < N - 1; i += 1) {
      A[i] = B[i];
    }
  }
}
)",
                                                "bench");
  return m;
}

void run_profile(benchmark::State& state) {
  const auto& m = stencil_module();
  const std::vector<profiler::ArgInit> args = {
      profiler::ArgInit::of_array(256, 1), profiler::ArgInit::of_array(256, 2)};
  for (auto _ : state) {
    const auto prof = profiler::profile(m, "kernel", args);
    benchmark::DoNotOptimize(prof.loops.size());
  }
}

void BM_Gemm(benchmark::State& state) {
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  if (state.range(0)) {
    rec.enable();
  } else {
    rec.disable();
  }
  run_gemm(state);
  rec.disable();
  rec.clear();
}
// Real time: the fanned-out tasks run on pool threads the caller's CPU
// clock does not see.
BENCHMARK(BM_Gemm)->ArgName("trace_on")->Arg(0)->Arg(1)->UseRealTime();

void BM_ProfileRun(benchmark::State& state) {
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  if (state.range(0)) {
    rec.enable();
  } else {
    rec.disable();
  }
  run_profile(state);
  rec.disable();
  rec.clear();
}
BENCHMARK(BM_ProfileRun)->ArgName("trace_on")->Arg(0)->Arg(1);

}  // namespace

MVGNN_GBENCH_REPORT_MAIN("abl_obs_overhead", "BENCH_obs_overhead.json");
