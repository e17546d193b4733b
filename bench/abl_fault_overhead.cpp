// Fault-tolerance ablation: what the robustness layer costs when nothing
// goes wrong — the budget is <2% on every hot path.
//
//   ./build/bench/abl_fault_overhead
//
// Three costs are isolated:
//   * BM_FaultCheck            one disarmed fault::check() (the hook that
//                              sits on write/step/trap sites): one relaxed
//                              atomic load, a few nanoseconds.
//   * BM_ProfileRun/*          the interpreter with its fuel + memory caps
//                              (always on) — disarmed vs. a trap armed far
//                              past the run, which exercises the same
//                              per-step compare the injection uses.
//   * BM_TrainEpoch/*          one training epoch without checkpointing
//                              vs. with a checkpoint written every epoch
//                              (serialize + CRC + fsync + rename). The
//                              delta is the *fixed* per-write cost (a few
//                              ms); the epoch here is deliberately tiny,
//                              so quote it as ms-per-checkpoint, not as a
//                              percentage. At realistic epoch durations
//                              (or a larger --checkpoint-every) it
//                              amortizes below the 2% budget.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench/gbench_report.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "frontend/lower.hpp"
#include "profiler/profile.hpp"

namespace {

using namespace mvgnn;

void run_fault_check(benchmark::State& state) {
  fault::disarm_all();
  for (auto _ : state) {
    fault::check("bench.site");
  }
}
BENCHMARK(run_fault_check)->Name("BM_FaultCheck");

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

void run_profile(benchmark::State& state, bool arm_trap) {
  fault::disarm_all();
  // Armed far beyond the run's step count: the trap only lowers the
  // step limit of the per-step fuel compare, and never fires.
  if (arm_trap) fault::arm("interp.trap", 1u << 30);
  const auto& m = stencil_module();
  const std::vector<profiler::ArgInit> args = {
      profiler::ArgInit::of_array(256, 1), profiler::ArgInit::of_array(256, 2)};
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto prof = profiler::profile(m, "kernel", args);
    steps = prof.run.steps;
    benchmark::DoNotOptimize(prof.run.steps);
  }
  // items_per_s = dynamic instructions profiled per second (CI-gated for
  // the disarmed run).
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * steps));
  fault::disarm_all();
}
BENCHMARK_CAPTURE(run_profile, disarmed, false)
    ->Name("BM_ProfileRun/disarmed")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(run_profile, trap_armed, true)
    ->Name("BM_ProfileRun/trap_armed")
    ->Unit(benchmark::kMillisecond);

const data::Dataset& bench_dataset() {
  static const data::Dataset ds = [] {
    data::DatasetOptions opts;
    opts.seed = 7;
    opts.walk.gamma = 16;
    return data::build_dataset(data::build_generated_corpus(40, 2024), opts);
  }();
  return ds;
}

void run_train_epoch(benchmark::State& state, bool checkpoint) {
  const data::Dataset& ds = bench_dataset();
  std::vector<std::size_t> train;
  for (std::size_t i = 0; i < ds.samples.size(); ++i) train.push_back(i);
  const core::Normalizer norm = core::Normalizer::fit(ds, train);
  const core::Featurizer feats(ds, norm);
  const auto dir =
      std::filesystem::temp_directory_path() / "mvgnn_bench_ckpt";
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 4;
  tc.seed = 11;
  if (checkpoint) {
    std::filesystem::create_directories(dir);
    tc.checkpoint_dir = dir.string();
  }
  for (auto _ : state) {
    core::MvGnnTrainer trainer(feats, core::default_config(feats), tc);
    const auto curve = trainer.fit(train, {});
    benchmark::DoNotOptimize(curve.size());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK_CAPTURE(run_train_epoch, ckpt_off, false)
    ->Name("BM_TrainEpoch/ckpt_off")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(run_train_epoch, ckpt_on, true)
    ->Name("BM_TrainEpoch/ckpt_on")
    ->Unit(benchmark::kMillisecond);

}  // namespace

MVGNN_GBENCH_REPORT_MAIN("abl_fault_overhead", "BENCH_fault_overhead.json");
