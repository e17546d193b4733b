// End-to-end smoke tests: MiniC source -> IR -> profile -> PEG -> labels.
// These pin the whole substrate chain before any model-level test runs.
#include <gtest/gtest.h>

#include "analysis/tools.hpp"
#include "frontend/lower.hpp"
#include "graph/peg.hpp"
#include "profiler/profile.hpp"

namespace {

using namespace mvgnn;

constexpr const char* kVecAdd = R"(
void kernel(float[] a, float[] b, float[] c, int n) {
  for (int i = 0; i < n; i += 1) {
    c[i] = a[i] + b[i];
  }
}
)";

constexpr const char* kPrefix = R"(
void kernel(float[] a, int n) {
  for (int i = 1; i < n; i += 1) {
    a[i] = a[i] + a[i - 1];
  }
}
)";

constexpr const char* kReduction = R"(
float kernel(float[] a, int n) {
  float s = 0.0;
  for (int i = 0; i < n; i += 1) {
    s = s + a[i];
  }
  return s;
}
)";

profiler::ProfileResult run_kernel(const ir::Module& m, std::uint64_t n) {
  std::vector<profiler::ArgInit> args;
  for (const auto& p : m.functions[0]->params) {
    if (ir::is_array(p.type)) {
      args.push_back(profiler::ArgInit::of_array(n));
    } else if (p.type == ir::TypeKind::Int) {
      args.push_back(profiler::ArgInit::of_int(static_cast<std::int64_t>(n)));
    } else {
      args.push_back(profiler::ArgInit::of_float(1.0));
    }
  }
  return profiler::profile(m, "kernel", args);
}

TEST(PipelineSmoke, VectorAddIsParallelizable) {
  const ir::Module m = frontend::compile(kVecAdd, "vecadd");
  const auto prof = run_kernel(m, 32);
  ASSERT_EQ(prof.loops.size(), 1u);
  const auto& s = prof.loops[0];
  EXPECT_EQ(s.features.exec_times, 32u);
  EXPECT_TRUE(analysis::oracle_classify(*s.fn, s.loop, prof.dep).parallel);
  EXPECT_TRUE(analysis::autopar_classify(*s.fn, s.loop).parallel);
  EXPECT_TRUE(analysis::discopop_classify(*s.fn, s.loop, prof.dep).parallel);
}

TEST(PipelineSmoke, PrefixSumIsNotParallelizable) {
  const ir::Module m = frontend::compile(kPrefix, "prefix");
  const auto prof = run_kernel(m, 32);
  ASSERT_EQ(prof.loops.size(), 1u);
  const auto& s = prof.loops[0];
  EXPECT_FALSE(analysis::oracle_classify(*s.fn, s.loop, prof.dep).parallel);
  EXPECT_FALSE(analysis::autopar_classify(*s.fn, s.loop).parallel);
  EXPECT_FALSE(analysis::discopop_classify(*s.fn, s.loop, prof.dep).parallel);
  EXPECT_FALSE(analysis::pluto_classify(*s.fn, s.loop).parallel);
}

TEST(PipelineSmoke, SumReductionIsParallelizableForExpertButNotPluto) {
  const ir::Module m = frontend::compile(kReduction, "reduce");
  const auto prof = run_kernel(m, 32);
  ASSERT_EQ(prof.loops.size(), 1u);
  const auto& s = prof.loops[0];
  EXPECT_TRUE(analysis::oracle_classify(*s.fn, s.loop, prof.dep).parallel);
  EXPECT_TRUE(analysis::autopar_classify(*s.fn, s.loop).parallel);
  EXPECT_TRUE(analysis::discopop_classify(*s.fn, s.loop, prof.dep).parallel);
  EXPECT_FALSE(analysis::pluto_classify(*s.fn, s.loop).parallel);
}

TEST(PipelineSmoke, PegHasLoopAndCuNodes) {
  const ir::Module m = frontend::compile(kVecAdd, "vecadd");
  const auto prof = run_kernel(m, 8);
  const graph::Peg peg = graph::build_peg(m, prof);
  int loops = 0, cus = 0, fns = 0;
  for (const auto& n : peg.nodes) {
    loops += n.kind == graph::NodeKind::Loop;
    cus += n.kind == graph::NodeKind::CU;
    fns += n.kind == graph::NodeKind::Function;
  }
  EXPECT_EQ(fns, 1);
  EXPECT_EQ(loops, 1);
  EXPECT_GE(cus, 1);

  const auto sub = graph::extract_sub_peg(peg, prof.loops[0].fn,
                                          prof.loops[0].loop);
  EXPECT_GE(sub.num_nodes(), 2u);
  EXPECT_EQ(peg.nodes[sub.nodes[0]].kind, graph::NodeKind::Loop);
  EXPECT_FALSE(graph::to_dot(peg, "t").empty());
}

TEST(PipelineSmoke, ReturnValueIsCorrect) {
  const ir::Module m = frontend::compile(kReduction, "reduce");
  std::vector<profiler::ArgInit> args = {profiler::ArgInit::of_array(16),
                                         profiler::ArgInit::of_int(16)};
  const auto res = profiler::run_capture(m, "kernel", args).run;
  // Array fill is in [0.5, 1.5): the sum of 16 elements lies in [8, 24).
  EXPECT_GE(res.return_value.f, 8.0);
  EXPECT_LT(res.return_value.f, 24.0);
}

}  // namespace
