// Design ablation: what does each view contribute? Compares the fused
// MV-GNN prediction against its two single-view heads and against the
// independently trained Static GNN (inst2vec features only, no dynamic
// information) and the hand-crafted AdaBoost (dynamic features only, no
// structure) — isolating each information source of the model.
#include <cstdio>

#include "bench/common.hpp"

int main() {
  using namespace mvgnn;

  const bench::Experiment ex(data::build_generated_corpus(480, 77),

                             bench::seeded(23));
  std::printf("generated dataset: %zu samples, train=%zu test=%zu\n\n",
              ex.ds.samples.size(), ex.train.size(), ex.test.size());

  core::TrainConfig tc = bench::standard_train_config();
  tc.epochs = 24;

  core::MvGnnTrainer mv(ex.feats, core::default_config(ex.feats), tc);
  mv.fit(ex.train, {});
  core::StaticGnnTrainer static_gnn(
      ex.feats, core::default_config(ex.feats).node_view, tc);
  static_gnn.fit(ex.train, {});

  std::vector<ml::FeatureRow> xs;
  std::vector<int> ys;
  bench::feature_matrix(ex.ds, ex.train, xs, ys);
  ml::AdaBoost ada;
  ada.fit(xs, ys);

  const auto [fused, node_view, struct_view] =
      bench::tally_views(mv, ex.ds, ex.test);
  const auto static_preds = static_gnn.predict(ex.test);
  double sgnn = 0, ab = 0;
  for (std::size_t j = 0; j < ex.test.size(); ++j) {
    const auto& s = ex.ds.samples[ex.test[j]];
    sgnn += static_preds[j] == s.label;
    const ml::FeatureRow row(s.loop_features.begin(), s.loop_features.end());
    ab += ada.predict(row) == s.label;
  }
  const double n = static_cast<double>(ex.test.size());
  std::printf("Ablation — fusion and information sources (test acc)\n");
  std::printf("  %-34s %6.1f%%\n", "MV-GNN (fused, eq. 5)",
              100 * fused.hits / n);
  std::printf("  %-34s %6.1f%%\n", "node-feature view head only",
              100 * node_view.hits / n);
  std::printf("  %-34s %6.1f%%\n", "structural view head only",
              100 * struct_view.hits / n);
  std::printf("  %-34s %6.1f%%\n", "Static GNN (no dynamic features)",
              100 * sgnn / n);
  std::printf("  %-34s %6.1f%%\n", "AdaBoost (dynamic features only)",
              100 * ab / n);
  std::printf(
      "\nExpected shape: fused >= max(single views); node view > structural\n"
      "view (paper Fig. 8); each single-source baseline below the fusion.\n");

  obs::BenchReport report("abl_fusion");
  report.config("test_samples", n);
  report.metric("acc_fused", fused.hits / n, obs::MetricGoal::Higher);
  report.metric("acc_node_view", node_view.hits / n,
                obs::MetricGoal::Higher);
  report.metric("acc_struct_view", struct_view.hits / n,
                obs::MetricGoal::Higher);
  report.metric("acc_static_gnn", sgnn / n, obs::MetricGoal::Higher);
  report.metric("acc_adaboost", ab / n, obs::MetricGoal::Higher);
  if (report.write("BENCH_fusion.json")) {
    std::printf("wrote BENCH_fusion.json\n");
  }
  return 0;
}
