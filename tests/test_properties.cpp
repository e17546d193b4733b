// Property-based tests (parameterized gtest): invariants that must hold
// across every kernel pattern, every transform pipeline, and randomized
// shapes/seeds — not just hand-picked cases.
#include <gtest/gtest.h>

#include "analysis/tools.hpp"
#include "data/kernels.hpp"
#include "frontend/lower.hpp"
#include "graph/anon_walk.hpp"
#include "profiler/profile.hpp"
#include "tensor/ops.hpp"
#include "transform/passes.hpp"

namespace {

using namespace mvgnn;

// ---------------------------------------------------------------------------
// Property: every generator instance compiles, verifies, profiles without
// faults, reports the declared number of for-loops, and its oracle labels
// are deterministic.
// ---------------------------------------------------------------------------

class PatternProperty : public ::testing::TestWithParam<data::Pattern> {};

TEST_P(PatternProperty, GeneratesValidProfilableKernels) {
  const data::Pattern pattern = GetParam();
  par::Rng rng(static_cast<std::uint64_t>(pattern) * 7919 + 3);
  for (int instance = 0; instance < 4; ++instance) {
    const data::GenKernel k =
        data::generate_kernel(pattern, "prop", rng);
    ASSERT_EQ(k.for_loops, data::pattern_loops(pattern));
    ir::Module m;
    ASSERT_NO_THROW(m = frontend::compile(k.source, k.name))
        << data::pattern_name(pattern) << ":\n"
        << k.source;
    profiler::ProfileResult prof;
    ASSERT_NO_THROW(prof = profiler::profile(m, "kernel", k.args))
        << data::pattern_name(pattern) << ":\n"
        << k.source;
    // Declared loop count matches lowered for-loop count.
    EXPECT_EQ(static_cast<int>(prof.loops.size()), k.for_loops);
    // Oracle verdicts are deterministic across repeated classification.
    for (const auto& loop : prof.loops) {
      const bool a = analysis::oracle_classify(*loop.fn, loop.loop,
                                               prof.dep).parallel;
      const bool b = analysis::oracle_classify(*loop.fn, loop.loop,
                                               prof.dep).parallel;
      EXPECT_EQ(a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, PatternProperty,
    ::testing::Values(
        data::Pattern::VecMap, data::Pattern::VecScaleInPlace,
        data::Pattern::Saxpy, data::Pattern::StencilCopy,
        data::Pattern::ReduceSum, data::Pattern::ReduceMax,
        data::Pattern::DotProduct, data::Pattern::PrivTemp,
        data::Pattern::PrivArrayTemp, data::Pattern::Recurrence,
        data::Pattern::ScalarCarried, data::Pattern::CondUpdateMax,
        data::Pattern::EarlyExit, data::Pattern::CallMapPure,
        data::Pattern::CallAccumShared, data::Pattern::IndirectGather,
        data::Pattern::IndirectHistogram, data::Pattern::IndirectScatter,
        data::Pattern::DisjointCopy, data::Pattern::MatMulNest,
        data::Pattern::Jacobi2D, data::Pattern::Seidel2D,
        data::Pattern::TriangularUpdate, data::Pattern::ArrayAccumNest,
        data::Pattern::ColdPath, data::Pattern::WhileWrapped,
        data::Pattern::FibDriver, data::Pattern::NQueensStyle,
        data::Pattern::ChecksumOnly, data::Pattern::OffsetStencil,
        data::Pattern::OffsetRecurrence, data::Pattern::ParamOffset,
        data::Pattern::SpMV, data::Pattern::Transpose,
        data::Pattern::SeparableStencil, data::Pattern::Pipeline3,
        data::Pattern::Timestepped),
    [](const auto& info) { return data::pattern_name(info.param); });

// ---------------------------------------------------------------------------
// Property: oracle labels are invariant under every IR variant pipeline —
// the transforms change the instruction mix, never the semantics.
// ---------------------------------------------------------------------------

class VariantProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VariantProperty, OracleLabelsSurviveTransformPipelines) {
  const auto& pipeline = transform::variant_pipelines()[GetParam()];
  par::Rng rng(101);
  const data::Pattern patterns[] = {
      data::Pattern::ReduceSum, data::Pattern::Recurrence,
      data::Pattern::OffsetStencil, data::Pattern::PrivTemp,
      data::Pattern::IndirectHistogram};
  for (const data::Pattern p : patterns) {
    const data::GenKernel k = data::generate_kernel(p, "var", rng);
    ir::Module base = frontend::compile(k.source, "base");
    ir::Module variant = frontend::compile(k.source, "variant");
    transform::run_pipeline(variant, pipeline);
    const auto prof_base = profiler::profile(base, "kernel", k.args);
    const auto prof_var = profiler::profile(variant, "kernel", k.args);
    ASSERT_EQ(prof_base.loops.size(), prof_var.loops.size());
    for (std::size_t l = 0; l < prof_base.loops.size(); ++l) {
      const auto& lb = prof_base.loops[l];
      const auto& lv = prof_var.loops[l];
      EXPECT_EQ(analysis::oracle_classify(*lb.fn, lb.loop,
                                          prof_base.dep).parallel,
                analysis::oracle_classify(*lv.fn, lv.loop,
                                          prof_var.dep).parallel)
          << data::pattern_name(p) << " under " << pipeline.name;
      // Loop trip counts are semantics; they must also survive.
      EXPECT_EQ(lb.features.exec_times, lv.features.exec_times);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPipelines, VariantProperty,
    ::testing::Range<std::size_t>(0, 6),
    [](const auto& info) {
      std::string name = transform::variant_pipelines()[info.param].name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Property: matmul gradients check numerically for randomized shapes.
// ---------------------------------------------------------------------------

struct MatmulShape {
  std::size_t m, k, n;
};

class MatmulGradProperty : public ::testing::TestWithParam<MatmulShape> {};

TEST_P(MatmulGradProperty, AnalyticMatchesNumeric) {
  const auto [m, k, n] = GetParam();
  par::Rng rng(m * 131 + k * 17 + n);
  ag::Tensor a = ag::Tensor::randn({m, k}, rng, 0.5f, true);
  ag::Tensor b = ag::Tensor::randn({k, n}, rng, 0.5f, true);
  auto fn = [&] { return ag::sum(ag::matmul(a, b)); };
  ag::Tensor out = fn();
  a.zero_grad();
  b.zero_grad();
  out.backward();
  const auto ga = a.grad();
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < a.numel(); i += std::max<std::size_t>(1, a.numel() / 7)) {
    const float orig = a.data()[i];
    a.data()[i] = orig + eps;
    const float up = fn().item();
    a.data()[i] = orig - eps;
    const float down = fn().item();
    a.data()[i] = orig;
    EXPECT_NEAR(ga[i], (up - down) / (2 * eps), 3e-2f);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulGradProperty,
                         ::testing::Values(MatmulShape{1, 1, 1},
                                           MatmulShape{2, 7, 3},
                                           MatmulShape{5, 2, 9},
                                           MatmulShape{8, 8, 8},
                                           MatmulShape{1, 16, 4}));

// ---------------------------------------------------------------------------
// Property: anonymous-walk distributions are valid probability vectors on
// random graphs, and anonymization is permutation-invariant.
// ---------------------------------------------------------------------------

class WalkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalkProperty, DistributionsNormalizedOnRandomGraphs) {
  par::Rng rng(GetParam());
  const std::size_t n = 3 + rng.uniform_u64(12);
  graph::WalkGraph g(n);
  const std::size_t edges = rng.uniform_u64(2 * n) + 1;
  for (std::size_t e = 0; e < edges; ++e) {
    g.add_edge(static_cast<std::uint32_t>(rng.uniform_u64(n)),
               static_cast<std::uint32_t>(rng.uniform_u64(n)));
  }
  graph::AwVocab vocab;
  graph::AwParams params;
  params.gamma = 16;
  params.length = 4 + static_cast<std::uint32_t>(rng.uniform_u64(3));
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto d =
        graph::node_aw_distribution(g, v, params, vocab, true, rng);
    float sum = 0.0f;
    for (const float x : d) {
      EXPECT_GE(x, 0.0f);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST_P(WalkProperty, AnonymizationIsRelabelingInvariant) {
  par::Rng rng(GetParam() ^ 0xABCD);
  std::vector<std::uint32_t> walk(6);
  for (auto& v : walk) v = static_cast<std::uint32_t>(rng.uniform_u64(4));
  // Apply a random relabeling of node ids.
  std::uint32_t perm[4] = {13, 42, 7, 99};
  std::vector<std::uint32_t> relabeled;
  for (const auto v : walk) relabeled.push_back(perm[v]);
  EXPECT_EQ(graph::anonymize(walk), graph::anonymize(relabeled));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Property: the interpreter is deterministic — identical runs produce
// identical dependence profiles (every edge's full presence record).
// ---------------------------------------------------------------------------

class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, ProfilesAreBitStable) {
  par::Rng rng(GetParam());
  const data::GenKernel k =
      data::generate_kernel(data::Pattern::MatMulNest, "det", rng);
  const ir::Module m1 = frontend::compile(k.source, "a");
  const ir::Module m2 = frontend::compile(k.source, "b");
  const auto p1 = profiler::profile(m1, "kernel", k.args);
  const auto p2 = profiler::profile(m2, "kernel", k.args);
  EXPECT_EQ(p1.run.steps, p2.run.steps);
  ASSERT_EQ(p1.dep.edges.size(), p2.dep.edges.size());
  for (std::size_t i = 0; i < p1.dep.edges.size(); ++i) {
    const profiler::DepEdge& a = p1.dep.edges[i];
    const profiler::DepEdge& b = p2.dep.edges[i];
    EXPECT_EQ(a.src.id, b.src.id) << "edge " << i;
    EXPECT_EQ(a.dst.id, b.dst.id) << "edge " << i;
    EXPECT_EQ(a.type, b.type) << "edge " << i;
    EXPECT_EQ(a.intra, b.intra) << "edge " << i;
    EXPECT_EQ(a.object, b.object) << "edge " << i;
    // The modules differ, so carrying loops compare by loop id; each list
    // is in first-seen order, which a deterministic run repeats.
    ASSERT_EQ(a.carried.size(), b.carried.size()) << "edge " << i;
    for (std::size_t c = 0; c < a.carried.size(); ++c) {
      EXPECT_EQ(a.carried[c].loop, b.carried[c].loop) << "edge " << i;
      EXPECT_EQ(a.carried[c].fn->name, b.carried[c].fn->name) << "edge " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values(11, 22, 33));

}  // namespace
