// PEG construction, sub-PEG extraction, anonymous-walk machinery, and DOT
// rendering.
#include <gtest/gtest.h>

#include "frontend/lower.hpp"
#include "graph/anon_walk.hpp"
#include "graph/peg.hpp"
#include "profiler/profile.hpp"

namespace {

using namespace mvgnn;
using graph::AnonWalk;

TEST(AnonWalk, AnonymizationUsesFirstOccurrenceIndices) {
  // The paper's example: (v1, v2, v3, v4, v2) -> (0, 1, 2, 3, 1).
  EXPECT_EQ(graph::anonymize({10, 20, 30, 40, 20}),
            (AnonWalk{0, 1, 2, 3, 1}));
  EXPECT_EQ(graph::anonymize({7, 7, 7}), (AnonWalk{0, 0, 0}));
  EXPECT_EQ(graph::anonymize({}), AnonWalk{});
  // Isomorphic walks share one type regardless of concrete ids.
  EXPECT_EQ(graph::anonymize({1, 2, 1}), graph::anonymize({9, 4, 9}));
}

TEST(AnonWalk, VocabGrowsThenFreezes) {
  graph::AwVocab vocab;
  const auto id1 = vocab.id_of({0, 1, 0}, /*grow=*/true);
  const auto id2 = vocab.id_of({0, 1, 2}, /*grow=*/true);
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id2, 0u);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(vocab.id_of({0, 1, 0}, true), id1);  // stable
  vocab.freeze();
  EXPECT_EQ(vocab.id_of({0, 1, 2, 3}, true), 0u);  // unknown slot after freeze
  EXPECT_EQ(vocab.size(), 3u);  // two walks + unknown slot
}

TEST(AnonWalk, DistributionsAreNormalizedAndDeterministic) {
  graph::WalkGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  graph::AwVocab vocab;
  graph::AwParams params;
  params.gamma = 32;
  params.length = 4;
  par::Rng rng1(7), rng2(7);
  const auto d1 = graph::node_aw_distribution(g, 0, params, vocab, true, rng1);
  const auto d2 = graph::node_aw_distribution(g, 0, params, vocab, true, rng2);
  float sum = 0.0f;
  for (const float x : d1) sum += x;
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  // Same seed, same vocab -> identical distribution (after aligning sizes).
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) EXPECT_EQ(d1[i], d2[i]);
}

TEST(AnonWalk, CycleAndPathNodesHaveDifferentSignatures) {
  // A triangle walker revisits its start much sooner than a path walker —
  // the AW distributions must differ (this is the structural signal the
  // paper's Fig. 1 argues for).
  graph::WalkGraph tri(3);
  tri.add_edge(0, 1);
  tri.add_edge(1, 2);
  tri.add_edge(2, 0);
  graph::WalkGraph path(5);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  path.add_edge(2, 3);
  path.add_edge(3, 4);
  graph::AwVocab vocab;
  graph::AwParams params;
  params.gamma = 64;
  params.length = 5;
  par::Rng rng(3);
  auto dt = graph::node_aw_distribution(tri, 0, params, vocab, true, rng);
  auto dp = graph::node_aw_distribution(path, 0, params, vocab, true, rng);
  dt.resize(vocab.size());
  dp.resize(vocab.size());
  float l1 = 0.0f;
  for (std::size_t i = 0; i < vocab.size(); ++i) {
    l1 += std::abs(dt[i] - dp[i]);
  }
  EXPECT_GT(l1, 0.3f);
}

TEST(AnonWalk, IsolatedNodeGetsTrivialWalks) {
  graph::WalkGraph g(2);  // no edges
  graph::AwVocab vocab;
  graph::AwParams params;
  par::Rng rng(1);
  const auto d = graph::node_aw_distribution(g, 0, params, vocab, true, rng);
  float sum = 0.0f;
  for (const float x : d) sum += x;
  EXPECT_NEAR(sum, 1.0f, 1e-5f);  // the length-1 walk type absorbs all mass
}

TEST(AnonWalk, GraphDistributionIsMeanOfNodes) {
  graph::WalkGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  graph::AwVocab vocab;
  graph::AwParams params;
  params.gamma = 16;
  par::Rng rng(5);
  const auto d = graph::graph_aw_distribution(g, params, vocab, true, rng);
  float sum = 0.0f;
  for (const float x : d) sum += x;
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

// ---------------------------------------------------------------------------
// PEG
// ---------------------------------------------------------------------------

struct Pipeline {
  std::unique_ptr<ir::Module> module;
  profiler::ProfileResult prof;
  graph::Peg peg;
};

Pipeline run_pipeline(const char* src, std::vector<profiler::ArgInit> args) {
  Pipeline p;
  p.module = std::make_unique<ir::Module>(frontend::compile(src, "t"));
  p.prof = profiler::profile(*p.module, "kernel", args);
  p.peg = graph::build_peg(*p.module, p.prof);
  return p;
}

TEST(Peg, HierarchyEdgesLinkFunctionLoopsAndCus) {
  const auto p = run_pipeline(R"(
const int N = 8;
void kernel(float[] a) {
  for (int i = 0; i < N; i += 1) {
    for (int j = 0; j < N; j += 1) {
      a[i * N + j] = 1.0;
    }
  }
}
)",
                              {profiler::ArgInit::of_array(64)});
  int hierarchy = 0, dep = 0;
  for (const auto& e : p.peg.edges) {
    (e.kind == graph::EdgeKind::Hierarchy ? hierarchy : dep)++;
  }
  EXPECT_GE(hierarchy, 3);  // fn->loop0, loop0->loop1, loop1->CUs
  // Every loop node's parent edge exists exactly once.
  std::vector<int> in_hier(p.peg.nodes.size(), 0);
  for (const auto& e : p.peg.edges) {
    if (e.kind == graph::EdgeKind::Hierarchy) in_hier[e.dst]++;
  }
  for (std::uint32_t i = 0; i < p.peg.nodes.size(); ++i) {
    if (p.peg.nodes[i].kind != graph::NodeKind::Function) {
      EXPECT_EQ(in_hier[i], 1) << "node " << i;
    }
  }
}

TEST(Peg, DepEdgesCarryTypes) {
  const auto p = run_pipeline(R"(
const int N = 8;
void kernel(float[] a) {
  for (int i = 1; i < N; i += 1) {
    a[i] = a[i - 1] + 1.0;
  }
}
)",
                              {profiler::ArgInit::of_array(8)});
  bool raw_edge = false;
  for (const auto& e : p.peg.edges) {
    if (e.kind == graph::EdgeKind::Dep && e.dep == profiler::DepType::RAW) {
      raw_edge = true;
    }
  }
  EXPECT_TRUE(raw_edge);
}

TEST(Peg, SubPegOfInnerLoopExcludesOuterNodes) {
  const auto p = run_pipeline(R"(
const int N = 8;
void kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    b[i] = a[i];
    for (int j = 0; j < N; j += 1) {
      a[j] = a[j] + 1.0;
    }
  }
}
)",
                              {profiler::ArgInit::of_array(8),
                               profiler::ArgInit::of_array(8)});
  const ir::Function* fn = p.module->find("kernel");
  const auto outer = graph::extract_sub_peg(p.peg, fn, 0);
  const auto inner = graph::extract_sub_peg(p.peg, fn, 1);
  EXPECT_GT(outer.num_nodes(), inner.num_nodes());
  // The inner sub-PEG's root is the inner loop and no node is a function.
  EXPECT_EQ(p.peg.nodes[inner.nodes[0]].kind, graph::NodeKind::Loop);
  EXPECT_EQ(p.peg.nodes[inner.nodes[0]].loop, 1u);
  for (const auto n : inner.nodes) {
    EXPECT_NE(p.peg.nodes[n].kind, graph::NodeKind::Function);
  }
  // Local edge indices are in range.
  for (const auto& e : inner.edges) {
    EXPECT_LT(e.src, inner.num_nodes());
    EXPECT_LT(e.dst, inner.num_nodes());
  }
}

TEST(Peg, DotOutputMentionsEveryNode) {
  const auto p = run_pipeline(R"(
void kernel(float[] a) {
  for (int i = 0; i < 4; i += 1) {
    a[i] = 1.0;
  }
}
)",
                              {profiler::ArgInit::of_array(4)});
  const std::string dot = graph::to_dot(p.peg, "test");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (std::uint32_t i = 0; i < p.peg.nodes.size(); ++i) {
    EXPECT_NE(dot.find("n" + std::to_string(i) + " ["), std::string::npos);
  }
  // A dependence edge is labelled with its type and nothing else.
  bool raw_edge = false;
  for (const auto& e : p.peg.edges) {
    if (e.kind != graph::EdgeKind::Dep || e.dep != profiler::DepType::RAW) {
      continue;
    }
    raw_edge = true;
    const std::string line = "  n" + std::to_string(e.src) + " -> n" +
                             std::to_string(e.dst) +
                             " [color=red,label=\"RAW\"];\n";
    EXPECT_NE(dot.find(line), std::string::npos) << line;
  }
  EXPECT_TRUE(raw_edge);
  const auto sub = graph::extract_sub_peg(p.peg, p.module->find("kernel"), 0);
  EXPECT_NE(graph::to_dot(p.peg, sub, "sub").find("digraph"),
            std::string::npos);
}

}  // namespace
