// MV-GNN model tests: shapes, configuration validation, training on a
// small dataset (the model must beat chance comfortably), view heads, and
// the single-view baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "core/trainer.hpp"
#include "ml/ncc.hpp"

namespace {

using namespace mvgnn;

const data::Dataset& shared_dataset() {
  static const data::Dataset ds = [] {
    auto programs = data::build_generated_corpus(260, 21);
    data::DatasetOptions opts;
    opts.seed = 13;
    return data::build_dataset(programs, opts);
  }();
  return ds;
}

TEST(Dgcnn, ForwardShapesAndPadding) {
  par::Rng rng(1);
  core::DgcnnConfig cfg;
  cfg.gcn_channels = {16, 16, 1};
  cfg.sort_k = 12;
  core::Dgcnn net(cfg, /*in_dim=*/8, /*num_classes=*/2, /*relational=*/false,
                  rng);
  // Tiny graph (3 nodes, fewer than sort_k): padding must kick in.
  const ag::CsrMatrix ahat = nn::dgcnn_adjacency(3, {{0, 1}, {1, 2}});
  par::Rng data_rng(2);
  const ag::Tensor feats = ag::Tensor::randn({3, 8}, data_rng, 1.0f, false);
  const auto out =
      net.forward(ahat, {}, feats, {0, 3}, /*training=*/false, rng);
  EXPECT_EQ(out.logits.rows(), 1u);
  EXPECT_EQ(out.logits.cols(), 2u);
  EXPECT_EQ(out.pooled.cols(), net.rep_dim());
}

TEST(Dgcnn, BatchedForwardMatchesPerSampleForwards) {
  par::Rng rng(7);
  core::DgcnnConfig cfg;
  cfg.gcn_channels = {16, 16, 1};
  cfg.sort_k = 12;
  cfg.dropout = 0.0f;  // eval-mode comparison; keep the graph deterministic
  core::Dgcnn net(cfg, /*in_dim=*/8, /*num_classes=*/2, /*relational=*/false,
                  rng);

  // Three graphs of different sizes (one smaller than sort_k to exercise
  // per-segment padding inside the batch).
  const std::vector<std::uint32_t> sizes = {3, 14, 6};
  const std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      edge_lists = {{{0, 1}, {1, 2}},
                    {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 13}, {5, 9}, {7, 8}},
                    {{0, 5}, {1, 4}, {2, 3}}};
  std::vector<ag::CsrMatrix> ahats;
  std::vector<ag::Tensor> graph_feats;
  std::vector<std::uint32_t> offsets = {0};
  par::Rng data_rng(8);
  for (std::size_t g = 0; g < 3; ++g) {
    ahats.push_back(nn::dgcnn_adjacency(sizes[g], edge_lists[g]));
    graph_feats.push_back(
        ag::Tensor::randn({sizes[g], 8}, data_rng, 1.0f, false));
    offsets.push_back(offsets.back() + sizes[g]);
  }
  const auto big =
      ag::CsrMatrix::block_diag({&ahats[0], &ahats[1], &ahats[2]});
  ag::Tensor feats = graph_feats[0];
  feats = ag::concat_rows(feats, graph_feats[1]);
  feats = ag::concat_rows(feats, graph_feats[2]);

  const auto batched =
      net.forward(big, {}, feats, offsets, /*training=*/false, rng);
  EXPECT_EQ(batched.logits.rows(), 3u);
  EXPECT_EQ(batched.pooled.rows(), 3u);
  for (std::size_t g = 0; g < 3; ++g) {
    // The same forward with one graph: offsets {0, n}.
    const auto single = net.forward(ahats[g], {}, graph_feats[g],
                                    {0, sizes[g]}, /*training=*/false, rng);
    for (std::size_t c = 0; c < batched.logits.cols(); ++c) {
      EXPECT_NEAR(batched.logits.at(g, c), single.logits.at(0, c), 1e-5f)
          << "graph " << g << " logit " << c;
    }
    for (std::size_t c = 0; c < batched.pooled.cols(); ++c) {
      EXPECT_NEAR(batched.pooled.at(g, c), single.pooled.at(0, c), 1e-5f)
          << "graph " << g << " pooled " << c;
    }
  }
}

TEST(MvGnn, GraphBatchForwardMatchesPerSample) {
  const auto& ds = shared_dataset();
  core::Normalizer norm = core::Normalizer::fit(ds, ds.suite_indices(""));
  core::Featurizer feats(ds, norm);
  par::Rng rng(9);
  core::MvGnnConfig cfg = core::default_config(feats);
  cfg.node_view.dropout = 0.0f;
  cfg.struct_view.dropout = 0.0f;
  core::MvGnn model(cfg, rng);
  ASSERT_GE(ds.samples.size(), 3u);
  std::vector<const core::SampleInput*> chunk = {&feats.get(0), &feats.get(1),
                                                 &feats.get(2)};
  const core::GraphBatch gb = core::make_graph_batch(chunk);
  EXPECT_EQ(gb.size(), 3u);
  EXPECT_EQ(gb.offsets.size(), 4u);
  const auto batched = model.forward_batch(gb, /*training=*/false, rng);
  for (std::size_t b = 0; b < 3; ++b) {
    const auto single = model.forward(*chunk[b], /*training=*/false, rng);
    for (std::size_t c = 0; c < batched.logits.cols(); ++c) {
      EXPECT_NEAR(batched.logits.at(b, c), single.logits.at(0, c), 1e-5f);
      EXPECT_NEAR(batched.node_logits.at(b, c), single.node_logits.at(0, c),
                  1e-5f);
      EXPECT_NEAR(batched.struct_logits.at(b, c),
                  single.struct_logits.at(0, c), 1e-5f);
    }
  }
}

TEST(MvGnn, PredictIsIndependentOfMaxBatchAndMatchesForward) {
  const auto& ds = shared_dataset();
  core::Normalizer norm = core::Normalizer::fit(ds, ds.suite_indices(""));
  core::Featurizer feats(ds, norm);
  par::Rng rng(5);
  const core::MvGnn model(core::default_config(feats), rng);
  // A spread of graph sizes, so chunks mix small (padded) and large graphs.
  std::vector<std::size_t> idx(ds.samples.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return ds.samples[a].n < ds.samples[b].n;
  });
  std::vector<const core::SampleInput*> inputs;
  for (std::size_t k = 0; k < 40; ++k) {
    inputs.push_back(&feats.get(idx[k * (idx.size() - 1) / 39]));
  }
  ASSERT_LT(inputs.front()->node_feats.rows(),
            inputs.back()->node_feats.rows());
  std::rotate(inputs.begin(), inputs.begin() + 17, inputs.end());

  const auto p1 = core::predict(model, inputs, 1);
  ASSERT_EQ(p1.size(), inputs.size());
  for (const std::size_t max_batch : {std::size_t{2}, std::size_t{32}}) {
    const auto p = core::predict(model, inputs, max_batch);
    ASSERT_EQ(p.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(p[i].fused, p1[i].fused) << "max_batch " << max_batch;
      EXPECT_EQ(p[i].node_view, p1[i].node_view) << "max_batch " << max_batch;
      EXPECT_EQ(p[i].struct_view, p1[i].struct_view)
          << "max_batch " << max_batch;
    }
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto out = model.forward(*inputs[i], /*training=*/false, rng);
    EXPECT_EQ(p1[i].fused, core::argmax_row(out.logits)) << "sample " << i;
    EXPECT_EQ(p1[i].node_view, core::argmax_row(out.node_logits));
    EXPECT_EQ(p1[i].struct_view, core::argmax_row(out.struct_logits));
  }
  EXPECT_TRUE(core::predict(model, {}, 32).empty());
}

TEST(Trainer, EpochLossIdenticalAcrossBatchSizesAtZeroLr) {
  // With lr = 0 and dropout off, the model never moves, so the epoch loss
  // must equal the mean per-sample loss regardless of batching — including
  // a trailing partial batch (10 samples, batch 4 -> trailing 2).
  const auto& ds = shared_dataset();
  ASSERT_GE(ds.samples.size(), 10u);
  std::vector<std::size_t> train(10);
  std::iota(train.begin(), train.end(), 0);
  core::Normalizer norm = core::Normalizer::fit(ds, train);
  core::Featurizer feats(ds, norm);
  core::MvGnnConfig cfg = core::default_config(feats);
  cfg.node_view.dropout = 0.0f;
  cfg.struct_view.dropout = 0.0f;
  double ref = -1.0;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{5},
                                  std::size_t{4}}) {
    core::TrainConfig tc;
    tc.epochs = 1;
    tc.lr = 0.0f;
    tc.weight_decay = 0.0f;
    tc.batch_size = batch;
    core::MvGnnTrainer trainer(feats, cfg, tc);
    const auto curve = trainer.fit(train, {});
    ASSERT_EQ(curve.size(), 1u);
    if (ref < 0.0) {
      ref = curve[0].loss;
    } else {
      EXPECT_NEAR(curve[0].loss, ref, 1e-5) << "batch " << batch;
    }
  }
}

TEST(Dgcnn, RejectsInvalidConfigs) {
  par::Rng rng(1);
  const auto make = [&](const core::DgcnnConfig& cfg) {
    return core::Dgcnn(cfg, /*in_dim=*/16, /*num_classes=*/2,
                       /*relational=*/false, rng);
  };
  core::DgcnnConfig bad;
  bad.gcn_channels = {16, 8};  // last channel must be 1 for SortPooling
  EXPECT_THROW(make(bad), std::invalid_argument);
  static_assert(core::Dgcnn::kConv2Kernel == 5);
  core::DgcnnConfig tiny;
  tiny.gcn_channels = {16, 1};
  for (const std::size_t k : {std::size_t{4}, std::size_t{8}}) {
    tiny.sort_k = k;  // k/2 < conv2 kernel: no window fits
    EXPECT_THROW(make(tiny), std::invalid_argument) << "sort_k " << k;
  }
  tiny.sort_k = 10;  // k/2 == conv2 kernel: one window, the smallest head
  EXPECT_NO_THROW(make(tiny));
  core::DgcnnConfig odd;
  odd.gcn_channels = {16, 1};
  odd.sort_k = 15;  // odd k: pool windows would straddle graphs in a batch
  EXPECT_THROW(make(odd), std::invalid_argument);
}

TEST(MvGnn, ForwardBackwardRunsAndParametersCover) {
  const auto& ds = shared_dataset();
  core::Normalizer norm = core::Normalizer::fit(ds, ds.suite_indices(""));
  core::Featurizer feats(ds, norm);
  par::Rng rng(3);
  core::MvGnn model(core::default_config(feats), rng);
  const core::SampleInput& in = feats.get(0);
  auto out = model.forward(in, /*training=*/true, rng);
  ag::Tensor loss = ag::cross_entropy_logits(out.logits, {in.label});
  EXPECT_NO_THROW(loss.backward());
  EXPECT_GT(model.num_parameters(), 1000u);
  // Every parameter receives some gradient signal over a few samples.
  ag::Adam opt(1e-3f);
  opt.add_params(model.parameters());
  opt.zero_grad();
  for (std::size_t i = 0; i < 5 && i < ds.samples.size(); ++i) {
    auto o = model.forward(feats.get(i), true, rng);
    ag::Tensor l = ag::add(
        ag::cross_entropy_logits(o.logits, {feats.get(i).label}),
        ag::add(ag::cross_entropy_logits(o.node_logits, {feats.get(i).label}),
                ag::cross_entropy_logits(o.struct_logits,
                                         {feats.get(i).label})));
    l.backward();
  }
  std::size_t touched = 0, total = 0;
  for (const auto& p : model.parameters()) {
    bool any = false;
    for (const float g : p.grad()) {
      if (g != 0.0f) any = true;
    }
    touched += any;
    ++total;
  }
  EXPECT_GT(touched, total * 3 / 4);
}

TEST(Trainer, LearnsWellAboveChance) {
  const auto& ds = shared_dataset();
  auto [train, test] = data::split_by_kernel(ds, 0.75, 3);
  train = data::balance_classes(ds, train, 3);
  ASSERT_GE(train.size(), 20u);
  ASSERT_GE(test.size(), 10u);
  core::Normalizer norm = core::Normalizer::fit(ds, train);
  core::Featurizer feats(ds, norm);
  core::TrainConfig tc;
  tc.epochs = 25;
  core::MvGnnTrainer trainer(feats, core::default_config(feats), tc);
  const auto curve = trainer.fit(train, test);
  ASSERT_EQ(curve.size(), tc.epochs);
  // Loss decreases over training (compare first/last thirds).
  double early = 0, late = 0;
  for (std::size_t i = 0; i < 5; ++i) early += curve[i].loss;
  for (std::size_t i = curve.size() - 5; i < curve.size(); ++i) {
    late += curve[i].loss;
  }
  EXPECT_LT(late, early);
  EXPECT_GE(trainer.accuracy(test), 0.70);
  // View predictions exist and mostly agree with the fused head.
  int agree = 0;
  for (const auto& p : trainer.predict(test)) {
    agree += (p.node_view == p.fused);
  }
  EXPECT_GT(agree, static_cast<int>(test.size()) / 2);
}

TEST(Trainer, StaticGnnTrainsButUsesNoDynamicFeatures) {
  const auto& ds = shared_dataset();
  auto [train, test] = data::split_by_kernel(ds, 0.75, 4);
  train = data::balance_classes(ds, train, 4);
  core::Normalizer norm = core::Normalizer::fit(ds, train);
  core::Featurizer feats(ds, norm);
  core::TrainConfig tc;
  tc.epochs = 15;
  core::StaticGnnTrainer trainer(feats, core::default_config(feats).node_view,
                                 tc);
  trainer.fit(train, {});
  const double acc = trainer.accuracy(test);
  EXPECT_GE(acc, 0.5);  // learns something

  // Zeroing the dynamic columns changes no verdict: the model reads the
  // static columns only.
  core::Featurizer no_dyn(ds, norm, core::LabelMode::Binary,
                          /*zero_dynamic=*/true);
  std::vector<const core::SampleInput*> plain_in, no_dyn_in;
  for (const std::size_t i : test) {
    plain_in.push_back(&feats.get(i));
    no_dyn_in.push_back(&no_dyn.get(i));
  }
  const ag::Tensor& a = plain_in.front()->node_feats;
  const ag::Tensor& b = no_dyn_in.front()->node_feats;
  ASSERT_FALSE(std::equal(a.data(), a.data() + a.numel(), b.data()));
  EXPECT_EQ(core::predict(trainer.model(), plain_in, 0),
            core::predict(trainer.model(), no_dyn_in, 0));
}

TEST(Normalizer, ZeroMeanUnitVarianceOnTrainingNodes) {
  const auto& ds = shared_dataset();
  const auto idx = ds.suite_indices("");
  const auto norm = core::Normalizer::fit(ds, idx);
  std::array<double, 7> sum{}, sq{};
  std::size_t n = 0;
  for (const std::size_t i : idx) {
    for (const auto& row : ds.samples[i].node_dynamic) {
      const auto z = norm.apply(row);
      for (int k = 0; k < 7; ++k) {
        sum[k] += z[k];
        sq[k] += z[k] * z[k];
      }
      ++n;
    }
  }
  for (int k = 0; k < 7; ++k) {
    EXPECT_NEAR(sum[k] / n, 0.0, 0.05);
    EXPECT_NEAR(sq[k] / n, 1.0, 0.1);
  }
}

TEST(Ncc, OverfitsATinySubset) {
  const auto& ds = shared_dataset();
  // Pick a small balanced subset.
  std::vector<std::size_t> subset;
  int pos = 0, neg = 0;
  for (std::size_t i = 0; i < ds.samples.size(); ++i) {
    if (ds.samples[i].label && pos < 6) {
      subset.push_back(i);
      ++pos;
    } else if (!ds.samples[i].label && neg < 6) {
      subset.push_back(i);
      ++neg;
    }
  }
  ASSERT_EQ(subset.size(), 12u);
  ml::NccConfig cfg;
  ml::NccTrainConfig tc;
  tc.epochs = 30;
  ml::NccTrainer trainer(ds, cfg, tc);
  trainer.fit(subset);
  // Some corpus templates have identical token streams with different
  // labels (the offset patterns) — those are irreducible for a token-only
  // model, so even overfitting caps below 100%.
  EXPECT_GE(trainer.accuracy(subset), 0.65);
}

}  // namespace

namespace batch_tests {

using namespace mvgnn;

TEST(Trainer, MiniBatchAccumulationStillLearns) {
  const auto& ds = shared_dataset();
  auto [train, test] = data::split_by_kernel(ds, 0.75, 12);
  train = data::balance_classes(ds, train, 12);
  core::Normalizer norm = core::Normalizer::fit(ds, train);
  core::Featurizer feats(ds, norm);
  core::TrainConfig tc;
  tc.epochs = 20;
  tc.batch_size = 8;
  tc.lr = 3e-3f;  // larger batches tolerate a larger rate
  core::MvGnnTrainer trainer(feats, core::default_config(feats), tc);
  const auto curve = trainer.fit(train, {});
  EXPECT_LT(curve.back().loss, curve.front().loss);
  EXPECT_GE(trainer.accuracy(test), 0.65);
}

TEST(Trainer, OversampleBalanceKeepsAllSamples) {
  const auto& ds = shared_dataset();
  const auto idx = ds.suite_indices("");
  const auto balanced = data::oversample_balance(ds, idx, 1);
  EXPECT_GE(balanced.size(), idx.size());
  int pos = 0, neg = 0;
  for (const auto i : balanced) {
    (ds.samples[i].label ? pos : neg)++;
  }
  EXPECT_EQ(pos, neg);
  // Every original index still present.
  std::set<std::size_t> set(balanced.begin(), balanced.end());
  for (const auto i : idx) EXPECT_TRUE(set.count(i));
}

}  // namespace batch_tests

namespace determinism_tests {

using namespace mvgnn;

TEST(Trainer, TrainingIsDeterministicGivenSeeds) {
  const auto& ds = shared_dataset();
  auto [train, test] = data::split_by_kernel(ds, 0.75, 8);
  train = data::balance_classes(ds, train, 8);
  core::Normalizer norm = core::Normalizer::fit(ds, train);
  core::Featurizer feats(ds, norm);
  core::TrainConfig tc;
  tc.epochs = 6;

  core::MvGnnTrainer a(feats, core::default_config(feats), tc);
  const auto curve_a = a.fit(train, {});
  core::MvGnnTrainer b(feats, core::default_config(feats), tc);
  const auto curve_b = b.fit(train, {});

  ASSERT_EQ(curve_a.size(), curve_b.size());
  for (std::size_t e = 0; e < curve_a.size(); ++e) {
    EXPECT_DOUBLE_EQ(curve_a[e].loss, curve_b[e].loss) << "epoch " << e;
  }
  const auto preds_a = a.predict(test);
  const auto preds_b = b.predict(test);
  ASSERT_EQ(preds_a.size(), test.size());
  for (std::size_t j = 0; j < test.size(); ++j) {
    EXPECT_EQ(preds_a[j].fused, preds_b[j].fused) << "sample " << test[j];
  }
}

TEST(Dataset, BuildIsDeterministicDespiteParallelism) {
  // The dataset builder fans out over the thread pool; results must be
  // identical run to run (per-item noise streams, ordered collection).
  auto programs = data::build_generated_corpus(90, 66);
  data::DatasetOptions opts;
  opts.seed = 9;
  opts.walk.gamma = 8;
  const data::Dataset a = data::build_dataset(programs, opts);
  const data::Dataset b = data::build_dataset(programs, opts);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].label, b.samples[i].label);
    EXPECT_EQ(a.samples[i].node_dynamic, b.samples[i].node_dynamic);
    EXPECT_EQ(a.samples[i].edges, b.samples[i].edges);
  }
}

}  // namespace determinism_tests
