// Substrate ablation: instrumentation overhead of the dependence profiler —
// unobserved runs (run_capture) against full shadow-memory dependence
// recording: the classic static-vs-dynamic-analysis cost trade-off the
// paper's section II discusses.
//
//   BM_RunCapture             no hooks at all (Engine<NoHooks>)
//   BM_InterpWithDepRecorder  the recorder on Engine<DepRecorder>, inlined
//   BM_RecorderSplit/*        the recorder behind a forwarding observer on
//                             its own engine (Engine<SplitObserver>) that
//                             passes on one group of hooks only
//                             (instruction counting, loop hooks, or loads
//                             and stores), or all of them: the per-hook
//                             split of its cost. Each hook tests the
//                             runtime hook set, so /all is the recorder
//                             plus those tests, not a second measure of
//                             BM_InterpWithDepRecorder
//   BM_FullProfilePipeline    profiler::profile on the matmul
//   BM_ProfileUnit12          profiler::profile on a 12-loop unit of the
//                             shape the serve benchmark sends
#include <benchmark/benchmark.h>

#include <string>

#include "bench/gbench_report.hpp"
#include "frontend/lower.hpp"
#include "profiler/dep_recorder.hpp"
#include "profiler/engine.hpp"
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
  state.counters["dyn_instrs"] = static_cast<double>(steps);
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

/// Which DepRecorder hooks a SplitObserver passes on.
enum HookSet : int { kCounting = 1, kLoops = 2, kAccesses = 4 };

/// Forwards the hooks of `set` to a DepRecorder and drops the rest. Each
/// hook is a test of `set` plus, when forwarded, the recorder's own work,
/// so the difference to BM_RunCapture is the cost of that group of hooks.
/// Without the loop hooks every access sits in the root context, so
/// accesses alone record no carried dependence.
class SplitObserver {
 public:
  SplitObserver(const profiler::ObjectTable& objects, int set)
      : rec_(objects), set_(set) {}

  void on_instr(const ir::Function& fn, ir::InstrId id) {
    if (set_ & kCounting) rec_.on_instr(fn, id);
  }
  void on_block_end(const ir::Function& fn, ir::InstrId id) {
    if (set_ & kCounting) rec_.on_block_end(fn, id);
  }
  void on_load(const ir::Function& fn, ir::InstrId id,
               profiler::Addr addr) {
    if (set_ & kAccesses) rec_.on_load(fn, id, addr);
  }
  void on_store(const ir::Function& fn, ir::InstrId id,
                profiler::Addr addr) {
    if (set_ & kAccesses) rec_.on_store(fn, id, addr);
  }
  void on_loop_enter(const ir::Function& fn, ir::LoopId loop) {
    if (set_ & kLoops) rec_.on_loop_enter(fn, loop);
  }
  void on_loop_iter(const ir::Function& fn, ir::LoopId loop) {
    if (set_ & kLoops) rec_.on_loop_iter(fn, loop);
  }
  void on_loop_exit(const ir::Function& fn, ir::LoopId loop) {
    if (set_ & kLoops) rec_.on_loop_exit(fn, loop);
  }

 private:
  profiler::DepRecorder rec_;
  int set_;
};

void BM_RecorderSplit(benchmark::State& state, int set) {
  const auto& m = matmul_module();
  const auto args = matmul_args();
  std::uint64_t steps = 0;
  for (auto _ : state) {
    profiler::ObjectTable objects;
    SplitObserver obs(objects, set);
    const auto r = profiler::run(m, "kernel", args, obs, objects);
    steps = r.steps;
    benchmark::DoNotOptimize(r.steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * steps));
}
BENCHMARK_CAPTURE(BM_RecorderSplit, counting, kCounting)
    ->Name("BM_RecorderSplit/counting");
BENCHMARK_CAPTURE(BM_RecorderSplit, loops, kLoops)
    ->Name("BM_RecorderSplit/loops");
BENCHMARK_CAPTURE(BM_RecorderSplit, accesses, kAccesses)
    ->Name("BM_RecorderSplit/accesses");
BENCHMARK_CAPTURE(BM_RecorderSplit, all, kCounting | kLoops | kAccesses)
    ->Name("BM_RecorderSplit/all");

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

/// A 12-loop unit of N = 1024-element loops over three 4096-element arrays,
/// two loops of each of six kinds (map, in-place update, dot and max
/// reduction, prefix recurrence, 3-point stencil): the shape of one
/// analyze request in the serve benchmark, whose arrays the daemon sizes
/// at 4096 elements.
const ir::Module& unit12_module() {
  static const ir::Module m = [] {
    static constexpr const char* kLoops[] = {
        "for (int i = 0; i < N; i += 1) { a[i] = b[i] * 1.5 + c[i]; }",
        "for (int i = 0; i < N; i += 1) { b[i] = b[i] * 0.75 + 1.0; }",
        "float s2 = 0.0;\n  for (int i = 0; i < N; i += 1) "
        "{ s2 = s2 + a[i] * c[i]; }",
        "float s3 = 0.0;\n  for (int i = 0; i < N; i += 1) "
        "{ s3 = fmax(s3, b[i] * 1.25); }",
        "for (int i = 1; i < N; i += 1) { c[i] = c[i - 1] + a[i] * 0.5; }",
        "for (int i = 1; i < N - 1; i += 1) "
        "{ a[i] = 0.25 * b[i - 1] + 0.5 * b[i] + 0.25 * b[i + 1]; }",
        "for (int i = 0; i < N; i += 1) { c[i] = a[i] * 2.0 + c[i]; }",
        "for (int i = 0; i < N; i += 1) { a[i] = a[i] * 1.125 + 1.0; }",
        "float s8 = 0.0;\n  for (int i = 0; i < N; i += 1) "
        "{ s8 = s8 + b[i] * b[i]; }",
        "float s9 = 0.0;\n  for (int i = 0; i < N; i += 1) "
        "{ s9 = fmax(s9, c[i] * 0.5); }",
        "for (int i = 1; i < N; i += 1) { b[i] = b[i - 1] + c[i] * 0.25; }",
        "for (int i = 1; i < N - 1; i += 1) "
        "{ c[i] = 0.5 * a[i - 1] + 0.25 * a[i] + 0.75 * a[i + 1]; }",
    };
    std::string src =
        "const int N = 1024;\nfloat kernel(float[] a, float[] b, "
        "float[] c) {\n";
    for (const char* loop : kLoops) src += std::string("  ") + loop + "\n";
    src += "  return s2 + s3 + s8 + s9;\n}\n";
    return frontend::compile(src, "unit12");
  }();
  return m;
}

void BM_ProfileUnit12(benchmark::State& state) {
  const auto& m = unit12_module();
  const std::vector<profiler::ArgInit> args = {
      profiler::ArgInit::of_array(4096, 1), profiler::ArgInit::of_array(4096, 2),
      profiler::ArgInit::of_array(4096, 3)};
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto prof = profiler::profile(m, "kernel", args);
    steps = prof.run.steps;
    benchmark::DoNotOptimize(prof.loops.size());
  }
  state.counters["dyn_instrs"] = static_cast<double>(steps);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * steps));
}
BENCHMARK(BM_ProfileUnit12);

}  // namespace

MVGNN_GBENCH_REPORT_MAIN("abl_profiler_overhead", "BENCH_profiler_overhead.json");
