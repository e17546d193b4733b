// Tests for the future-work extensions: parallel-pattern labels,
// decoupled static/dynamic inference, and unsupervised pretraining.
#include <gtest/gtest.h>

#include <set>

#include "analysis/tools.hpp"
#include "core/trainer.hpp"
#include "frontend/lower.hpp"
#include "profiler/profile.hpp"

namespace {

using namespace mvgnn;

analysis::ParKind pattern_of(const char* src,
                             std::vector<profiler::ArgInit> args) {
  static std::vector<std::unique_ptr<ir::Module>> keep;
  keep.push_back(std::make_unique<ir::Module>(frontend::compile(src, "t")));
  const auto prof = profiler::profile(*keep.back(), "kernel", args);
  const auto& loop = prof.loops.at(0);
  return analysis::oracle_pattern(*loop.fn, loop.loop, prof.dep);
}

TEST(ParallelPattern, ClassifiesTheThreeKinds) {
  EXPECT_EQ(pattern_of(R"(
const int N = 16;
void kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    b[i] = a[i] * 2.0;
  }
}
)",
                       {profiler::ArgInit::of_array(16, 1),
                        profiler::ArgInit::of_array(16, 2)}),
            analysis::ParKind::DoAll);

  EXPECT_EQ(pattern_of(R"(
const int N = 16;
float kernel(float[] a) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[i];
  }
  return s;
}
)",
                       {profiler::ArgInit::of_array(16, 1)}),
            analysis::ParKind::Reduction);

  EXPECT_EQ(pattern_of(R"(
const int N = 16;
void kernel(float[] a) {
  for (int i = 1; i < N; i += 1) {
    a[i] = a[i - 1] + 1.0;
  }
}
)",
                       {profiler::ArgInit::of_array(16, 1)}),
            analysis::ParKind::Sequential);

  // Privatizable temporaries are DoAll (privatization, not a reduction).
  EXPECT_EQ(pattern_of(R"(
const int N = 16;
void kernel(float[] a, float[] b) {
  float t = 0.0;
  for (int i = 0; i < N; i += 1) {
    t = a[i] * 0.5;
    b[i] = t + t;
  }
}
)",
                       {profiler::ArgInit::of_array(16, 1),
                        profiler::ArgInit::of_array(16, 2)}),
            analysis::ParKind::DoAll);

  // fmax reductions are reductions too.
  EXPECT_EQ(pattern_of(R"(
const int N = 16;
float kernel(float[] a) {
  float s = -100000.0;
  for (int i = 0; i < N; i += 1) {
    s = fmax(s, a[i]);
  }
  return s;
}
)",
                       {profiler::ArgInit::of_array(16, 1)}),
            analysis::ParKind::Reduction);
}

TEST(ParallelPattern, NameRoundTrip) {
  EXPECT_STREQ(analysis::par_kind_name(analysis::ParKind::Sequential),
               "sequential");
  EXPECT_STREQ(analysis::par_kind_name(analysis::ParKind::DoAll), "doall");
  EXPECT_STREQ(analysis::par_kind_name(analysis::ParKind::Reduction),
               "reduction");
}

const data::Dataset& ext_dataset() {
  static const data::Dataset ds = [] {
    auto programs = data::build_generated_corpus(220, 88);
    data::DatasetOptions opts;
    opts.seed = 19;
    return data::build_dataset(programs, opts);
  }();
  return ds;
}

TEST(ParallelPattern, DatasetLabelsAreConsistentWithBinaryLabels) {
  const auto& ds = ext_dataset();
  int reductions = 0;
  for (const auto& s : ds.samples) {
    if (s.label == 0) {
      EXPECT_EQ(s.pattern_label, 0) << s.kernel;
    } else {
      EXPECT_NE(s.pattern_label, 0) << s.kernel;
    }
    reductions += (s.pattern_label == 2);
  }
  EXPECT_GT(reductions, 0);  // the corpus contains reductions
}

TEST(Decoupled, ZeroDynamicFeaturizerBlanksTheDynamicColumns) {
  const auto& ds = ext_dataset();
  const auto norm = core::Normalizer::fit(ds, ds.suite_indices(""));
  core::Featurizer full(ds, norm);
  core::Featurizer zeroed(ds, norm, core::LabelMode::Binary, true);
  const auto& a = full.get(0);
  const auto& b = zeroed.get(0);
  ASSERT_EQ(a.node_feats.shape(), b.node_feats.shape());
  const std::size_t d_static = ds.static_dim;
  for (std::size_t r = 0; r < a.node_feats.rows(); ++r) {
    for (std::size_t c = 0; c < a.node_feats.cols(); ++c) {
      if (c < d_static) {
        EXPECT_EQ(a.node_feats.at(r, c), b.node_feats.at(r, c));
      } else {
        EXPECT_EQ(b.node_feats.at(r, c), 0.0f);
      }
    }
  }
}

TEST(MultiClass, ThreeWayTrainerLearnsAboveChance) {
  const auto& ds = ext_dataset();
  auto [train, test] = data::split_by_kernel(ds, 0.75, 9);
  const auto norm = core::Normalizer::fit(ds, train);
  core::Featurizer feats(ds, norm, core::LabelMode::Pattern);
  EXPECT_EQ(core::num_classes(feats.label_mode()), 3u);
  const core::MvGnnConfig cfg = core::default_config(feats);
  EXPECT_EQ(cfg.num_classes, 3u);
  // All three heads read the one class count.
  par::Rng rng(6);
  const auto out =
      core::MvGnn(cfg, rng).forward(feats.get(0), /*training=*/false, rng);
  EXPECT_EQ(out.logits.cols(), 3u);
  EXPECT_EQ(out.node_logits.cols(), 3u);
  EXPECT_EQ(out.struct_logits.cols(), 3u);
  core::TrainConfig tc;
  tc.epochs = 18;
  core::MvGnnTrainer trainer(feats, core::default_config(feats), tc);
  trainer.fit(train, {});
  EXPECT_GE(trainer.accuracy(test), 0.55);  // 3-class chance is ~0.33
  // Predictions take all three values somewhere on the corpus.
  std::set<int> seen;
  for (const auto& p : trainer.predict(ds.suite_indices(""))) {
    seen.insert(p.fused);
  }
  EXPECT_GE(seen.size(), 2u);
}

TEST(Pretrain, UnsupervisedObjectiveRunsAndHelpsOrAtLeastDoesNotBreak) {
  const auto& ds = ext_dataset();
  auto [train, test] = data::split_by_kernel(ds, 0.75, 29);
  train = data::balance_classes(ds, train, 29);
  const auto norm = core::Normalizer::fit(ds, train);
  core::Featurizer feats(ds, norm);
  core::TrainConfig tc;
  tc.epochs = 10;
  core::MvGnnTrainer trainer(feats, core::default_config(feats), tc);
  EXPECT_NO_THROW(trainer.pretrain_unsupervised(train, 2));
  trainer.fit(train, {});
  EXPECT_GE(trainer.accuracy(test), 0.6);
}

}  // namespace

namespace typed_edges_tests {

using namespace mvgnn;

TEST(TypedEdges, RelationAdjacencySeparatesKinds) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges = {
      {0, 1}, {1, 2}, {0, 2}};
  const std::vector<std::uint8_t> kinds = {0, 1, 1};
  const auto hier = nn::relation_adjacency(3, edges, kinds, 0).to_dense();
  const auto raw = nn::relation_adjacency(3, edges, kinds, 1).to_dense();
  // Hierarchy relation has only the 0-1 edge.
  EXPECT_GT(hier.at(0, 1), 0.0f);
  EXPECT_EQ(hier.at(1, 2), 0.0f);
  // RAW relation has 1-2 and 0-2 but not 0-1.
  EXPECT_EQ(raw.at(0, 1), 0.0f);
  EXPECT_GT(raw.at(1, 2), 0.0f);
  EXPECT_GT(raw.at(0, 2), 0.0f);
  // Rows normalize to 1 where they have edges, 0 where they do not.
  float row0 = 0.0f;
  for (std::size_t j = 0; j < 3; ++j) row0 += raw.at(0, j);
  EXPECT_NEAR(row0, 1.0f, 1e-6f);
  float hier_row2 = 0.0f;
  for (std::size_t j = 0; j < 3; ++j) hier_row2 += hier.at(2, j);
  EXPECT_EQ(hier_row2, 0.0f);
}

TEST(TypedEdges, RgcnConvShapesAndGradients) {
  par::Rng rng(4);
  nn::RgcnConv conv(6, 5, 3, rng);
  EXPECT_EQ(conv.num_relations(), 3u);
  EXPECT_EQ(conv.num_parameters(), (1 + 3) * 6 * 5);
  std::vector<ag::CsrMatrix> ahats;
  for (int r = 0; r < 3; ++r) {
    ahats.push_back(nn::relation_adjacency(
        4, {{0, 1}, {2, 3}}, {static_cast<std::uint8_t>(r), 1}, r));
  }
  par::Rng data_rng(5);
  ag::Tensor x = ag::Tensor::randn({4, 6}, data_rng, 1.0f, false);
  ag::Tensor z = conv.forward(ahats, x);
  EXPECT_EQ(z.rows(), 4u);
  EXPECT_EQ(z.cols(), 5u);
  ag::Tensor loss = ag::sum(z);
  EXPECT_NO_THROW(loss.backward());
  bool any_grad = false;
  for (const auto& p : conv.parameters()) {
    for (const float g : p.grad()) {
      if (g != 0.0f) any_grad = true;
    }
  }
  EXPECT_TRUE(any_grad);
}

TEST(TypedEdges, RelationalMvGnnTrainsEndToEnd) {
  const auto& ds = ext_dataset();
  auto [train, test] = data::split_by_kernel(ds, 0.75, 31);
  train = data::balance_classes(ds, train, 31);
  const auto norm = core::Normalizer::fit(ds, train);
  core::Featurizer feats(ds, norm, core::LabelMode::Binary, false,
                         /*typed_edges=*/true);
  core::TrainConfig tc;
  tc.epochs = 12;
  core::MvGnnTrainer trainer(feats, core::default_config(feats), tc);
  trainer.fit(train, {});
  EXPECT_GE(trainer.accuracy(test), 0.6);
}

TEST(TypedEdges, TypedFeaturizerImpliesRelationalNodeView) {
  const auto& ds = ext_dataset();
  const auto norm = core::Normalizer::fit(ds, ds.suite_indices(""));
  const core::Featurizer plain(ds, norm);
  const core::Featurizer typed(ds, norm, core::LabelMode::Binary, false,
                               /*typed_edges=*/true);
  EXPECT_FALSE(plain.typed_edges());
  EXPECT_TRUE(typed.typed_edges());
  EXPECT_TRUE(plain.get(0).rel_ahats.empty());
  EXPECT_EQ(typed.get(0).rel_ahats.size(), data::GraphSample::kNumRelations);

  const core::MvGnnConfig plain_cfg = core::default_config(plain);
  const core::MvGnnConfig typed_cfg = core::default_config(typed);
  EXPECT_FALSE(plain_cfg.typed_edges);
  EXPECT_TRUE(typed_cfg.typed_edges);
  // The relational node view adds one weight bank per relation to each GCN
  // layer; nothing else about the model differs.
  par::Rng rng_a(2), rng_b(2);
  const core::MvGnn plain_model(plain_cfg, rng_a);
  const core::MvGnn typed_model(typed_cfg, rng_b);
  std::size_t gcn_weights = 0;
  std::size_t in = plain_cfg.node_dim;
  for (const std::size_t ch : plain_cfg.node_view.gcn_channels) {
    gcn_weights += in * ch;
    in = ch;
  }
  EXPECT_EQ(typed_model.num_parameters(),
            plain_model.num_parameters() +
                data::GraphSample::kNumRelations * gcn_weights);
}

TEST(TypedEdges, TypedModelRejectsUntypedInputs) {
  // A relational model indexes one adjacency per relation; untyped inputs
  // carry none, so feeding them must fail loudly, not read past the end.
  const auto& ds = ext_dataset();
  const auto norm = core::Normalizer::fit(ds, ds.suite_indices(""));
  const core::Featurizer plain(ds, norm);
  const core::Featurizer typed(ds, norm, core::LabelMode::Binary, false,
                               /*typed_edges=*/true);
  core::TrainConfig tc;
  tc.epochs = 1;
  const core::MvGnnTrainer trainer(typed, core::default_config(typed), tc);
  const std::vector<std::size_t> idx = {0, 1, 2};
  EXPECT_THROW((void)trainer.accuracy_with(plain, idx), std::invalid_argument);
  par::Rng rng(3);
  EXPECT_THROW((void)trainer.model().forward(plain.get(0), false, rng),
               std::invalid_argument);

  // Mixed batches are rejected whichever kind comes first.
  const std::vector<const core::SampleInput*> typed_first = {&typed.get(0),
                                                             &plain.get(1)};
  const std::vector<const core::SampleInput*> plain_first = {&plain.get(0),
                                                             &typed.get(1)};
  EXPECT_THROW((void)core::make_graph_batch(typed_first),
               std::invalid_argument);
  EXPECT_THROW((void)core::make_graph_batch(plain_first),
               std::invalid_argument);

  // Decoupled training with an untyped alternate featurizer fails the same
  // way.
  core::MvGnnTrainer alt(typed, core::default_config(typed), tc);
  alt.set_alternate_inputs(&plain, 1.0f);
  EXPECT_THROW(alt.fit(idx, {}), std::invalid_argument);
}

}  // namespace typed_edges_tests
