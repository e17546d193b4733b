// IR transformation passes: semantic preservation (interpreter-checked),
// fold/DCE/strength-reduction effectiveness, arena compaction integrity.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <span>
#include <string>

#include "analysis/suggest.hpp"
#include "data/kernels.hpp"
#include "frontend/lower.hpp"
#include "obs/metrics.hpp"
#include "profiler/par_exec.hpp"
#include "profiler/profile.hpp"
#include "transform/parallelize.hpp"
#include "transform/passes.hpp"

namespace {

using namespace mvgnn;
using profiler::ArgInit;

constexpr const char* kProgram = R"(
const int N = 16;
float kernel(float[] a, float[] b) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    float unused = a[i] * 3.0 + 2.0 * 4.0;
    s = s + a[i] * 1 + b[i] * 2 + 0;
  }
  for (int i = 1; i < N; i += 1) {
    b[i] = b[i - 1] * 0.5 + (float) (6 / 2);
  }
  return s + b[N - 1];
}
)";

double run(const ir::Module& m) {
  std::vector<ArgInit> args = {ArgInit::of_array(16, 1),
                               ArgInit::of_array(16, 2)};
  return profiler::run_capture(m, "kernel", args).run.return_value.f;
}

TEST(Transform, EveryPipelinePreservesSemantics) {
  const double reference = run(frontend::compile(kProgram, "ref"));
  for (const auto& pipeline : transform::variant_pipelines()) {
    ir::Module m = frontend::compile(kProgram, pipeline.name);
    transform::run_pipeline(m, pipeline);
    EXPECT_NO_THROW(ir::verify(m)) << pipeline.name;
    EXPECT_DOUBLE_EQ(run(m), reference) << pipeline.name;
  }
}

TEST(Transform, ConstantFoldEliminatesLiteralArithmetic) {
  ir::Module m = frontend::compile("int kernel() { return (2 + 3) * 4; }", "t");
  ir::Function& fn = *m.find("kernel");
  EXPECT_GT(transform::constant_fold(fn), 0u);
  // After fold + DCE the function is essentially `ret 20`.
  transform::dead_code_elim(fn);
  ir::verify(fn);
  std::size_t arith = 0;
  for (const auto& bb : fn.blocks) {
    for (const auto id : bb.instrs) {
      const auto op = fn.instr(id).op;
      if (op == ir::Opcode::Add || op == ir::Opcode::Mul) ++arith;
    }
  }
  EXPECT_EQ(arith, 0u);
  EXPECT_EQ(profiler::run_capture(m, "kernel", {}).run.return_value.i, 20);
}

TEST(Transform, DceRemovesUnusedComputation) {
  ir::Module m = frontend::compile(R"(
int kernel(int x) {
  int unused = x * 17 + 4;
  int dead = unused - 2;
  return x + 1;
}
)",
                                   "t");
  ir::Function& fn = *m.find("kernel");
  const std::size_t before = [&] {
    std::size_t n = 0;
    for (const auto& bb : fn.blocks) n += bb.instrs.size();
    return n;
  }();
  EXPECT_GT(transform::dead_code_elim(fn), 0u);
  const std::size_t after = [&] {
    std::size_t n = 0;
    for (const auto& bb : fn.blocks) n += bb.instrs.size();
    return n;
  }();
  EXPECT_LT(after, before);
  ir::verify(fn);
  std::vector<ArgInit> args = {ArgInit::of_int(5)};
  EXPECT_EQ(profiler::run_capture(m, "kernel", args).run.return_value.i, 6);
}

TEST(Transform, DceKeepsStoresAndCalls) {
  ir::Module m = frontend::compile(R"(
void helper(float[] a) { a[0] = 9.0; }
float kernel(float[] a) {
  helper(a);
  a[1] = 2.0;
  return a[0] + a[1];
}
)",
                                   "t");
  transform::dead_code_elim(*m.find("kernel"));
  ir::verify(m);
  std::vector<ArgInit> args = {ArgInit::of_array(4)};
  EXPECT_DOUBLE_EQ(
      profiler::run_capture(m, "kernel", args).run.return_value.f, 11.0);
}

TEST(Transform, StrengthReductionRewritesDoubling) {
  ir::Module m = frontend::compile("int kernel(int x) { return x * 2; }", "t");
  ir::Function& fn = *m.find("kernel");
  EXPECT_GT(transform::strength_reduce(fn), 0u);
  bool saw_mul = false;
  for (const auto& in : fn.instrs) {
    if (in.op == ir::Opcode::Mul) saw_mul = true;
  }
  EXPECT_FALSE(saw_mul);
  std::vector<ArgInit> args = {ArgInit::of_int(21)};
  EXPECT_EQ(profiler::run_capture(m, "kernel", args).run.return_value.i, 42);
}

TEST(Transform, CompactionKeepsLoopMetadataValid) {
  ir::Module m = frontend::compile(R"(
const int N = 8;
float kernel(float[] a) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    float dead = a[i] * 99.0;
    s = s + a[i];
  }
  return s;
}
)",
                                   "t");
  ir::Function& fn = *m.find("kernel");
  transform::constant_fold(fn);
  transform::dead_code_elim(fn);
  ir::verify(fn);
  ASSERT_EQ(fn.loops.size(), 1u);
  // The induction slot must still point at an Alloca after renumbering.
  EXPECT_EQ(fn.instr(fn.loops[0].induction_slot).op, ir::Opcode::Alloca);
  std::vector<ArgInit> args = {ArgInit::of_array(8, 3)};
  EXPECT_GT(profiler::run_capture(m, "kernel", args).run.return_value.f, 0.0);
}

TEST(Transform, VariantsChangeTheInstructionMix) {
  // The whole point of the six pipelines: same semantics, different token
  // streams for the dataset.
  ir::Module base = frontend::compile(kProgram, "t0");
  ir::Module opt = frontend::compile(kProgram, "t1");
  transform::run_pipeline(opt, transform::variant_pipelines().back());
  EXPECT_LT(opt.find("kernel")->num_instrs(),
            base.find("kernel")->num_instrs());
}

}  // namespace

namespace inline_unroll_tests {

using namespace mvgnn;
using profiler::ArgInit;

TEST(Inline, LeafCallsDisappearAndSemanticsHold) {
  const char* src = R"(
const int N = 12;
float helper(float x, float y) {
  float t = x * 2.0;
  return t + y;
}
float kernel(float[] a) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + helper(a[i], 1.5);
  }
  return s;
}
)";
  const std::vector<ArgInit> args = {ArgInit::of_array(12, 3)};
  ir::Module base = frontend::compile(src, "base");
  const double reference =
      profiler::run_capture(base, "kernel", args).run.return_value.f;

  ir::Module m = frontend::compile(src, "inl");
  EXPECT_EQ(transform::inline_functions(m), 1u);
  ir::verify(m);
  // No user calls remain in kernel.
  for (const auto& bb : m.find("kernel")->blocks) {
    for (const auto id : bb.instrs) {
      const auto& in = m.find("kernel")->instr(id);
      EXPECT_FALSE(in.op == ir::Opcode::Call && in.callee == "helper");
    }
  }
  EXPECT_DOUBLE_EQ(profiler::run_capture(m, "kernel", args).run.return_value.f,
                   reference);
  // The inlined body's instructions belong to the surrounding loop, so the
  // dependence analysis now sees them directly.
  const auto prof = profiler::profile(m, "kernel", args);
  EXPECT_EQ(prof.loops.size(), 1u);
}

TEST(Inline, BranchyCalleesAndVoidCallees) {
  const char* src = R"(
void mark(float[] out, float v) {
  if (v > 1.0) {
    out[0] = v;
  } else {
    out[1] = v;
  }
}
float clampit(float x) {
  if (x > 0.5) {
    return 0.5;
  }
  return x;
}
float kernel(float[] out) {
  mark(out, 2.5);
  mark(out, 0.5);
  return clampit(0.7) + clampit(0.2) + out[0] + out[1];
}
)";
  const std::vector<ArgInit> args = {ArgInit::of_array(4)};
  ir::Module base = frontend::compile(src, "base");
  const double reference =
      profiler::run_capture(base, "kernel", args).run.return_value.f;
  ir::Module m = frontend::compile(src, "inl");
  EXPECT_EQ(transform::inline_functions(m), 4u);
  ir::verify(m);
  EXPECT_DOUBLE_EQ(profiler::run_capture(m, "kernel", args).run.return_value.f,
                   reference);
}

TEST(Inline, RecursiveAndLoopyCalleesAreLeftAlone) {
  const char* src = R"(
int fib(int n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
float sum3(float[] a) {
  float s = 0.0;
  for (int i = 0; i < 3; i += 1) {
    s = s + a[i];
  }
  return s;
}
float kernel(float[] a) {
  return (float) fib(8) + sum3(a);
}
)";
  ir::Module m = frontend::compile(src, "t");
  EXPECT_EQ(transform::inline_functions(m), 0u);
}

TEST(Unroll, TinyConstantLoopsBecomeStraightLine) {
  const char* src = R"(
float kernel(float[] a) {
  float s = 0.0;
  for (int i = 0; i < 4; i += 1) {
    s = s + a[i] * 2.0;
  }
  return s;
}
)";
  const std::vector<ArgInit> args = {ArgInit::of_array(4, 9)};
  ir::Module base = frontend::compile(src, "base");
  const double reference =
      profiler::run_capture(base, "kernel", args).run.return_value.f;

  ir::Module m = frontend::compile(src, "unr");
  ir::Function& fn = *m.find("kernel");
  EXPECT_EQ(transform::unroll_loops(fn, 4), 1u);
  EXPECT_TRUE(fn.loops.empty());
  // No loop markers survive.
  for (const auto& in : fn.instrs) {
    EXPECT_NE(in.op, ir::Opcode::LoopEnter);
    EXPECT_NE(in.op, ir::Opcode::LoopHead);
    EXPECT_NE(in.op, ir::Opcode::LoopExit);
  }
  EXPECT_DOUBLE_EQ(profiler::run_capture(m, "kernel", args).run.return_value.f,
                   reference);
}

TEST(Unroll, OnlyInnermostTinyLoopsAreTouched) {
  const char* src = R"(
const int N = 16;
float kernel(float[] a) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    for (int j = 0; j < 3; j += 1) {
      s = s + a[i] * (float) j;
    }
  }
  return s;
}
)";
  const std::vector<ArgInit> args = {ArgInit::of_array(16, 2)};
  ir::Module base = frontend::compile(src, "base");
  const double reference =
      profiler::run_capture(base, "kernel", args).run.return_value.f;

  ir::Module m = frontend::compile(src, "unr");
  ir::Function& fn = *m.find("kernel");
  EXPECT_EQ(transform::unroll_loops(fn, 4), 1u);
  ASSERT_EQ(fn.loops.size(), 1u);  // the outer loop survives, renumbered
  EXPECT_EQ(fn.loops[0].id, 0u);
  EXPECT_TRUE(fn.loops[0].is_for);
  EXPECT_DOUBLE_EQ(profiler::run_capture(m, "kernel", args).run.return_value.f,
                   reference);
  // The unrolled instructions are attributed to the surviving outer loop.
  const auto prof = profiler::profile(m, "kernel", args);
  EXPECT_EQ(prof.loops.size(), 1u);
  EXPECT_EQ(prof.loops[0].features.exec_times, 16u);
}

TEST(Unroll, LoopsWithBranchesOrBigTripsAreSkipped) {
  const char* src = R"(
const int N = 64;
float kernel(float[] a) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[i];
  }
  for (int i = 0; i < 4; i += 1) {
    if (a[i] > 1.0) {
      s = s + 1.0;
    }
  }
  return s;
}
)";
  ir::Module m = frontend::compile(src, "t");
  // Big trip count and a branchy body: neither qualifies.
  EXPECT_EQ(transform::unroll_loops(*m.find("kernel"), 4), 0u);
}

TEST(InlineUnroll, FullPipelinePreservesKernelSemantics) {
  const char* src = R"(
const int N = 16;
float weight(float x) {
  return x * 0.25 + 0.5;
}
float kernel(float[] a, float[] b) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    for (int j = 0; j < 2; j += 1) {
      s = s + weight(a[i]) * b[i];
    }
  }
  return s;
}
)";
  const std::vector<ArgInit> args = {ArgInit::of_array(16, 1),
                                     ArgInit::of_array(16, 2)};
  ir::Module base = frontend::compile(src, "base");
  const double reference =
      profiler::run_capture(base, "kernel", args).run.return_value.f;
  ir::Module m = frontend::compile(src, "opt");
  transform::run_pipeline(m, transform::variant_pipelines().back());
  EXPECT_NEAR(profiler::run_capture(m, "kernel", args).run.return_value.f,
              reference, 1e-9);
}

}  // namespace inline_unroll_tests

// ---------------------------------------------------------------------------
// Parallelize pass: plan + execute + prove equivalent, over the full
// generator corpus (the fuzz surface: every kernel family, rng-varied).
// ---------------------------------------------------------------------------
namespace parallelize_tests {

using namespace mvgnn;
using profiler::ArgInit;

struct PlannedRun {
  transform::ParallelPlanResult plan;
  profiler::ProfileResult prof;
};

PlannedRun plan_of(const ir::Module& m,
                   std::span<const ArgInit> args) {
  PlannedRun out{.plan = {}, .prof = profiler::profile(m, "kernel", args)};
  const auto suggestions = analysis::suggest_openmp(m, out.prof);
  out.plan = transform::plan_parallel(m, "kernel", suggestions, out.prof);
  return out;
}

TEST(Parallelize, GeneratorCorpusEquivalentAtEveryThreadCount) {
  using data::Pattern;
  const Pattern kAll[] = {
      Pattern::VecMap,         Pattern::VecScaleInPlace,
      Pattern::Saxpy,          Pattern::StencilCopy,
      Pattern::ReduceSum,      Pattern::ReduceMax,
      Pattern::DotProduct,     Pattern::PrivTemp,
      Pattern::PrivArrayTemp,  Pattern::Recurrence,
      Pattern::ScalarCarried,  Pattern::CondUpdateMax,
      Pattern::EarlyExit,      Pattern::CallMapPure,
      Pattern::CallAccumShared, Pattern::IndirectGather,
      Pattern::IndirectHistogram, Pattern::IndirectScatter,
      Pattern::DisjointCopy,   Pattern::MatMulNest,
      Pattern::Jacobi2D,       Pattern::Seidel2D,
      Pattern::TriangularUpdate, Pattern::ArrayAccumNest,
      Pattern::ColdPath,       Pattern::WhileWrapped,
      Pattern::FibDriver,      Pattern::NQueensStyle,
      Pattern::ChecksumOnly,   Pattern::OffsetStencil,
      Pattern::OffsetRecurrence, Pattern::ParamOffset,
      Pattern::SpMV,           Pattern::Transpose,
      Pattern::SeparableStencil, Pattern::Pipeline3,
      Pattern::Timestepped,
  };
  par::Rng rng(2026);
  std::size_t planned_total = 0;
  for (const Pattern p : kAll) {
    for (int variant = 0; variant < 2; ++variant) {
      const std::string name = std::string(data::pattern_name(p)) + "_v" +
                               std::to_string(variant);
      const data::GenKernel k = data::generate_kernel(p, name, rng);
      const ir::Module m = frontend::compile(k.source, name);
      PlannedRun pr;
      ASSERT_NO_THROW(pr = plan_of(m, k.args)) << name;
      planned_total += pr.plan.planned_loops();
      for (const std::uint32_t threads : {1u, 2u, 8u}) {
        const auto rep = transform::run_equivalence(m, "kernel", k.args,
                                                    pr.plan.plan, threads);
        ASSERT_TRUE(rep.ran) << name << " t=" << threads << ": " << rep.detail;
        EXPECT_TRUE(rep.equal) << name << " t=" << threads << ": "
                               << rep.detail;
      }
    }
  }
  // The corpus must actually exercise the pass: a planner that refuses
  // everything would vacuously "pass" the equivalence checks.
  EXPECT_GE(planned_total, 20u);
}

TEST(Parallelize, OutputsBitIdenticalAcrossThreadCounts) {
  // Stronger than run_equivalence: the *parallel* outputs (including
  // re-associated float reductions) must match bit-for-bit between every
  // worker-thread count — the fixed shard count + fixed merge order at work.
  using data::Pattern;
  par::Rng rng(7);
  for (const Pattern p : {Pattern::DotProduct, Pattern::IndirectHistogram,
                          Pattern::MatMulNest, Pattern::Jacobi2D}) {
    const std::string name = data::pattern_name(p);
    const data::GenKernel k = data::generate_kernel(p, name, rng);
    const ir::Module m = frontend::compile(k.source, name);
    const PlannedRun pr = plan_of(m, k.args);
    ASSERT_GE(pr.plan.planned_loops(), 1u) << name;

    std::vector<profiler::ParOutput> outs;
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      profiler::ParRunOptions opts;
      opts.threads = threads;
      outs.push_back(
          profiler::run_parallel(m, "kernel", k.args, pr.plan.plan, opts));
    }
    for (std::size_t t = 1; t < outs.size(); ++t) {
      ASSERT_EQ(outs[t].arg_arrays.size(), outs[0].arg_arrays.size());
      for (std::size_t a = 0; a < outs[0].arg_arrays.size(); ++a) {
        const auto& x = outs[0].arg_arrays[a];
        const auto& y = outs[t].arg_arrays[a];
        ASSERT_EQ(x.size(), y.size()) << name;
        for (std::size_t i = 0; i < x.size(); ++i) {
          EXPECT_EQ(x[i].i, y[i].i) << name << " arg " << a << "[" << i << "]";
          EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i].f),
                    std::bit_cast<std::uint64_t>(y[i].f))
              << name << " arg " << a << "[" << i << "]";
        }
      }
      EXPECT_EQ(outs[t].run.return_value.i, outs[0].run.return_value.i);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(outs[t].run.return_value.f),
                std::bit_cast<std::uint64_t>(outs[0].run.return_value.f));
    }
  }
}

TEST(Parallelize, ArrayReductionMergesPartialsInTreeOrder) {
  // Each cell of an array reduction sums its kParShards shard partials in
  // the stride-doubling tree order, then adds the result to the shared
  // cell. 1/a[i] has a full mantissa, so any other order rounds
  // differently; the expected values replay the shards and the tree here.
  constexpr int kN = 203;  // not a multiple of the shard count
  constexpr int kBins = 4;
  const ir::Module m = frontend::compile(R"(
const int N = 203;
float kernel(float[] a, float[] hist) {
  for (int i = 0; i < N; i += 1) { hist[i % 4] += 1.0 / a[i]; }
  return hist[0];
}
)",
                                         "tree");
  const std::vector<ArgInit> args = {ArgInit::of_array(kN, 5),
                                     ArgInit::of_array(kBins, 6)};
  const PlannedRun pr = plan_of(m, args);
  ASSERT_EQ(pr.plan.planned_loops(), 1u);
  ASSERT_EQ(pr.plan.plan.loops[0].array_reductions.size(), 1u);

  // The initial contents of both arrays, from a run of an empty kernel.
  const ir::Module empty = frontend::compile(
      "float kernel(float[] a, float[] hist) { return 0.0; }", "empty");
  const auto init = profiler::run_capture(empty, "kernel", args).arg_arrays;
  const auto& a = init[0];
  std::vector<double> want(kBins);
  constexpr std::uint32_t S = profiler::kParShards;
  for (int j = 0; j < kBins; ++j) {
    double part[S];
    for (std::uint32_t s = 0; s < S; ++s) {
      part[s] = 0.0;
      for (int i = kN * static_cast<int>(s) / static_cast<int>(S);
           i < kN * static_cast<int>(s + 1) / static_cast<int>(S); ++i) {
        if (i % kBins == j) part[s] = part[s] + 1.0 / a[i].f;
      }
    }
    for (std::uint32_t stride = 1; stride < S; stride *= 2) {
      for (std::uint32_t i = 0; i + stride < S; i += 2 * stride) {
        part[i] += part[i + stride];
      }
    }
    want[j] = init[1][j].f + part[0];
  }

  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    profiler::ParRunOptions opts;
    opts.threads = threads;
    const auto out = profiler::run_parallel(m, "kernel", args, pr.plan.plan,
                                            opts);
    ASSERT_EQ(out.parallel_loops, 1u);
    for (int j = 0; j < kBins; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out.arg_arrays[1][j].f),
                std::bit_cast<std::uint64_t>(want[j]))
          << "threads " << threads << " hist[" << j << "]";
    }
  }
}

TEST(Parallelize, ThreadsSetTheFanOutWidth) {
  // One sharded loop instance fans out over min(threads, kParShards) pool
  // tasks (none at one thread), and the outputs stay bit-identical across
  // widths: the shard set and merge order do not depend on the width.
  const ir::Module m = frontend::compile(R"(
const int N = 64;
float kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    b[i] = a[i] * 2.0 + 1.0;
  }
  return b[3];
}
)",
                                         "width");
  const std::vector<ArgInit> args = {ArgInit::of_array(64, 1),
                                     ArgInit::of_array(64, 2)};
  const PlannedRun pr = plan_of(m, args);
  ASSERT_EQ(pr.plan.planned_loops(), 1u);
  obs::Counter& submitted =
      obs::Registry::global().counter("thread_pool.tasks_submitted_total");
  std::vector<profiler::ParOutput> outs;
  const std::pair<std::uint32_t, std::uint64_t> kWidths[] = {
      {1, 0}, {2, 2}, {4, 4}, {64, profiler::kParShards}};
  for (const auto& [threads, tasks] : kWidths) {
    profiler::ParRunOptions opts;
    opts.threads = threads;
    const std::uint64_t before = submitted.value();
    outs.push_back(profiler::run_parallel(m, "kernel", args, pr.plan.plan, opts));
    EXPECT_EQ(submitted.value() - before, tasks) << "threads " << threads;
    EXPECT_EQ(outs.back().parallel_loops, 1u);
  }
  for (std::size_t t = 1; t < outs.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(outs[t].run.return_value.f),
              std::bit_cast<std::uint64_t>(outs[0].run.return_value.f));
    EXPECT_EQ(outs[t].run.steps, outs[0].run.steps);
    ASSERT_EQ(outs[t].arg_arrays.size(), outs[0].arg_arrays.size());
    for (std::size_t a = 0; a < outs[0].arg_arrays.size(); ++a) {
      const auto& x = outs[0].arg_arrays[a];
      const auto& y = outs[t].arg_arrays[a];
      ASSERT_EQ(x.size(), y.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].i, y[i].i) << "arg " << a << "[" << i << "]";
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i].f),
                  std::bit_cast<std::uint64_t>(y[i].f))
            << "arg " << a << "[" << i << "]";
      }
    }
  }
}

TEST(Parallelize, MislabeledLoopIsRefusedNotMiscompiled) {
  // Force a DOALL label onto a genuine recurrence: the planner must refuse
  // it (the dependence profile is the authority), never emit a plan.
  const char* src = R"(
const int N = 64;
float kernel(float[] a) {
  for (int i = 1; i < N; i += 1) {
    a[i] = a[i - 1] * 0.5 + 1.0;
  }
  return a[N - 1];
}
)";
  const ir::Module m = frontend::compile(src, "recur");
  const std::vector<ArgInit> args = {ArgInit::of_array(64, 1)};
  const auto prof = profiler::profile(m, "kernel", args);

  analysis::Suggestion forced;
  forced.fn = m.find("kernel");
  forced.loop = 0;
  forced.kind = analysis::ParKind::DoAll;  // the lie
  forced.pragma = "#pragma omp parallel for";
  const auto result =
      transform::plan_parallel(m, "kernel", {forced}, prof);
  ASSERT_EQ(result.decisions.size(), 1u);
  EXPECT_FALSE(result.decisions[0].planned);
  EXPECT_FALSE(result.decisions[0].reason.empty());
  EXPECT_TRUE(result.plan.empty());

  // And an empty plan runs the program unchanged.
  const auto rep = transform::run_equivalence(m, "kernel", args,
                                              result.plan, 8);
  ASSERT_TRUE(rep.ran) << rep.detail;
  EXPECT_TRUE(rep.equal) << rep.detail;
  EXPECT_EQ(rep.parallel_loops, 0u);
}

// ---- mismatch reporting ----------------------------------------------------
//
// Wrong plans, built by hand to bypass plan_parallel's re-proof: privatizing
// a carried scalar makes every shard after the first restart it from its
// LoopEnter value. run_equivalence must name the first differing element,
// found here independently, and print both values so that they read back
// exactly.

/// A plan for loop 0 of `kernel`: the header compare's bound, unit step,
/// `priv` privatized and `float_sums` float +-reduced (scalars by name).
profiler::ParPlan forced_plan(const ir::Module& m,
                              const std::vector<std::string>& priv,
                              const std::vector<std::string>& float_sums) {
  const ir::Function& fn = *m.find("kernel");
  const ir::LoopInfo& loop = fn.loops.at(0);
  const ir::Instruction& br = fn.instr(fn.block(loop.header).instrs.back());
  const ir::Instruction& cmp = fn.instr(br.operands[0].reg);
  auto slot = [&](const std::string& name) {
    for (ir::InstrId id = 0; id < fn.instrs.size(); ++id) {
      if (fn.instr(id).op == ir::Opcode::Alloca && fn.instr(id).name == name) {
        return id;
      }
    }
    ADD_FAILURE() << "no scalar named " << name;
    return ir::kNoInstr;
  };
  profiler::ParLoop pl;
  pl.loop = 0;
  pl.step = 1;
  pl.bound.value = cmp.operands[1];
  pl.bound.cmp = cmp.op;
  for (const std::string& n : priv) pl.private_slots.push_back(slot(n));
  for (const std::string& n : float_sums) {
    pl.scalar_reductions.push_back(
        {slot(n), profiler::ParReduceOp::Sum, /*is_float=*/true});
  }
  profiler::ParPlan plan;
  plan.fn = "kernel";
  plan.loops.push_back(std::move(pl));
  return plan;
}

/// Splits "<prefix>X vs Y" and reads X and Y back as doubles.
std::pair<double, double> read_pair(const std::string& detail,
                                    const std::string& prefix) {
  EXPECT_EQ(detail.rfind(prefix, 0), 0u) << detail;
  const std::string rest = detail.substr(prefix.size());
  const auto vs = rest.find(" vs ");
  EXPECT_NE(vs, std::string::npos) << detail;
  return {std::strtod(rest.substr(0, vs).c_str(), nullptr),
          std::strtod(rest.substr(vs + 4).c_str(), nullptr)};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The two runs run_equivalence compares, made directly.
struct RunPair {
  profiler::CapturedRun seq;
  profiler::ParOutput par;
};

RunPair run_both(const ir::Module& m, const std::vector<ArgInit>& args,
                 const profiler::ParPlan& plan) {
  profiler::ParRunOptions opts;
  opts.threads = 2;
  return {profiler::run_capture(m, "kernel", args),
          profiler::run_parallel(m, "kernel", args, plan, opts)};
}

constexpr const char* kIntScan = R"(
const int N = 64;
int kernel(int[] a) {
  int s = 0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[i];
    a[i] = s;
  }
  return s;
}
)";

TEST(Parallelize, IntArrayMismatchNamesFirstDifferingIndex) {
  const ir::Module m = frontend::compile(kIntScan, "scan");
  const std::vector<ArgInit> args = {ArgInit::of_array(64, 3)};
  const profiler::ParPlan plan = forced_plan(m, {"s"}, {});
  const auto rep = transform::run_equivalence(m, "kernel", args, plan, 2);
  ASSERT_TRUE(rep.ran) << rep.detail;
  EXPECT_FALSE(rep.equal);

  const RunPair runs = run_both(m, args, plan);
  const auto& s = runs.seq.arg_arrays[0];
  const auto& p = runs.par.arg_arrays[0];
  std::size_t k = 0;
  while (k < s.size() && s[k].i == p[k].i) ++k;
  ASSERT_LT(k, s.size());
  EXPECT_GT(k, 0u);  // the first shard is right; a later one restarts s
  EXPECT_EQ(rep.detail, "arg 'a'[" + std::to_string(k) +
                            "]: " + std::to_string(s[k].i) + " vs " +
                            std::to_string(p[k].i));
}

TEST(Parallelize, FloatArrayMismatchPrintsFullPrecision) {
  const ir::Module m = frontend::compile(R"(
const int N = 64;
float kernel(float[] a) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[i];
    a[i] = s;
  }
  return s;
}
)",
                                         "fscan");
  const std::vector<ArgInit> args = {ArgInit::of_array(64, 3)};
  const profiler::ParPlan plan = forced_plan(m, {"s"}, {});
  const auto rep = transform::run_equivalence(m, "kernel", args, plan, 2);
  ASSERT_TRUE(rep.ran) << rep.detail;
  EXPECT_FALSE(rep.equal);

  const RunPair runs = run_both(m, args, plan);
  const auto& s = runs.seq.arg_arrays[0];
  const auto& p = runs.par.arg_arrays[0];
  std::size_t k = 0;
  while (k < s.size() && same_bits(s[k].f, p[k].f)) ++k;
  ASSERT_LT(k, s.size());
  const auto [seq_v, par_v] =
      read_pair(rep.detail, "arg 'a'[" + std::to_string(k) + "]: ");
  EXPECT_TRUE(same_bits(seq_v, s[k].f)) << rep.detail;
  EXPECT_TRUE(same_bits(par_v, p[k].f)) << rep.detail;
}

TEST(Parallelize, TolerantReturnMismatchPrintsFullPrecision) {
  // `s` is a true float sum (compared within tolerance); `last` is wrongly
  // privatized, so the parallel return keeps only the last shard's part.
  const ir::Module m = frontend::compile(R"(
const int N = 64;
float kernel(float[] a) {
  float s = 0.0;
  float last = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[i];
    last = last + a[i];
  }
  return s + last;
}
)",
                                         "sums");
  const std::vector<ArgInit> args = {ArgInit::of_array(64, 4)};
  const profiler::ParPlan plan = forced_plan(m, {"last"}, {"s"});
  const auto rep = transform::run_equivalence(m, "kernel", args, plan, 2);
  ASSERT_TRUE(rep.ran) << rep.detail;
  EXPECT_FALSE(rep.equal);
  const RunPair runs = run_both(m, args, plan);
  const auto [seq_v, par_v] = read_pair(rep.detail, "return value: ");
  EXPECT_TRUE(same_bits(seq_v, runs.seq.run.return_value.f)) << rep.detail;
  EXPECT_TRUE(same_bits(par_v, runs.par.run.return_value.f)) << rep.detail;

  // Reducing both sums is a right plan: re-association stays in tolerance.
  const auto ok = transform::run_equivalence(
      m, "kernel", args, forced_plan(m, {}, {"s", "last"}), 2);
  ASSERT_TRUE(ok.ran) << ok.detail;
  EXPECT_TRUE(ok.equal) << ok.detail;
}

TEST(Parallelize, AnnotateInsertsPragmaAboveLoop) {
  const char* src = R"(const int N = 32;
float kernel(float[] a) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[i];
  }
  return s;
}
)";
  const ir::Module m = frontend::compile(src, "sum");
  const std::vector<ArgInit> args = {ArgInit::of_array(32, 1)};
  const auto prof = profiler::profile(m, "kernel", args);
  const auto suggestions = analysis::suggest_openmp(m, prof);
  const auto result = transform::plan_parallel(m, "kernel", suggestions, prof);
  ASSERT_EQ(result.planned_loops(), 1u);
  const std::string annotated = transform::annotate_source(src, result);
  const auto pragma_at = annotated.find("#pragma omp parallel for");
  const auto loop_at = annotated.find("for (int i");
  ASSERT_NE(pragma_at, std::string::npos);
  ASSERT_NE(loop_at, std::string::npos);
  EXPECT_LT(pragma_at, loop_at);
  EXPECT_NE(annotated.find("reduction(+:s)"), std::string::npos);
}

}  // namespace parallelize_tests
