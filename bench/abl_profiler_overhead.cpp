// Substrate ablation: instrumentation overhead of the dependence profiler —
// unobserved runs (run_capture), interpretation through the observer
// interface (NullObserver) and full shadow-memory dependence recording: the
// classic static-vs-dynamic-analysis cost trade-off the paper's section II
// discusses.
#include <benchmark/benchmark.h>

#include "bench/gbench_report.hpp"
#include "frontend/lower.hpp"
#include "profiler/dep_recorder.hpp"
#include "profiler/profile.hpp"

namespace {

using namespace mvgnn;

const ir::Module& matmul_module() {
  static const ir::Module m = frontend::compile(R"(
const int N = 24;
void kernel(float[] A, float[] B, float[] C) {
  for (int i = 0; i < N; i += 1) {
    for (int j = 0; j < N; j += 1) {
      float acc = 0.0;
      for (int k = 0; k < N; k += 1) {
        acc = acc + A[i * N + k] * B[k * N + j];
      }
      C[i * N + j] = acc;
    }
  }
}
)",
                                                "bench");
  return m;
}

std::vector<profiler::ArgInit> matmul_args() {
  return {profiler::ArgInit::of_array(24 * 24, 1),
          profiler::ArgInit::of_array(24 * 24, 2),
          profiler::ArgInit::of_array(24 * 24, 3)};
}

void BM_InterpPlain(benchmark::State& state) {
  const auto& m = matmul_module();
  const auto args = matmul_args();
  profiler::NullObserver obs;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto r = profiler::run(m, "kernel", args, obs);
    steps = r.steps;
    benchmark::DoNotOptimize(r.return_value);
  }
  state.counters["dyn_instrs"] = static_cast<double>(steps);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * steps));
}
BENCHMARK(BM_InterpPlain);

// The unobserved engine (Engine<NoHooks>) behind run_capture and
// run_parallel: no hooks at all, so items_per_s is the dispatch loop's own
// speed in dynamic instructions per second.
void BM_RunCapture(benchmark::State& state) {
  const auto& m = matmul_module();
  const auto args = matmul_args();
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto r = profiler::run_capture(m, "kernel", args);
    steps = r.run.steps;
    benchmark::DoNotOptimize(r.run.return_value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * steps));
}
BENCHMARK(BM_RunCapture);

void BM_InterpWithDepRecorder(benchmark::State& state) {
  const auto& m = matmul_module();
  const auto args = matmul_args();
  std::uint64_t steps = 0;
  for (auto _ : state) {
    profiler::ObjectTable objects;
    profiler::DepRecorder rec(objects);
    const auto r = profiler::run(m, "kernel", args, rec, objects);
    steps = r.steps;
    benchmark::DoNotOptimize(r.steps);
  }
  // items_per_s = dynamic instructions recorded per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * steps));
}
BENCHMARK(BM_InterpWithDepRecorder);

void BM_FullProfilePipeline(benchmark::State& state) {
  const auto& m = matmul_module();
  const auto args = matmul_args();
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto prof = profiler::profile(m, "kernel", args);
    steps = prof.run.steps;
    benchmark::DoNotOptimize(prof.loops.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * steps));
}
BENCHMARK(BM_FullProfilePipeline);

}  // namespace

MVGNN_GBENCH_REPORT_MAIN("abl_profiler_overhead", "BENCH_profiler_overhead.json");
