// Reproduces Table III: parallel-region classification accuracy of MV-GNN
// against the Static GNN, the hand-crafted classifiers (SVM / decision tree
// / AdaBoost), NCC, and the auto-parallelization tools (Pluto, AutoPar,
// DiscoPoP) on NPB, PolyBench, BOTS and the generated dataset.
//
//   table3_accuracy [--variants] [--out BENCH_table3.json]
//
// --out writes every accuracy plus one `mvgnn_on_top_<suite>` flag per
// suite through BenchReport: 1 when MV-GNN is at least as accurate as the
// best other learned model (Static GNN, SVM, Decision Tree, AdaBoost,
// NCC), else 0. CI gates the flags of the two large suites (NPB,
// Generated); PolyBench and BOTS have so few loops that one sample moves
// them by 7-17 points, so their flags are recorded but not gated.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/common.hpp"
#include "tensor/backend/backend.hpp"

int main(int argc, char** argv) {
  using namespace mvgnn;
  using bench::pct;

  // --variants additionally pushes every program through the six IR
  // transform pipelines (the paper's six clang option levels) — a ~6x
  // larger dataset and a correspondingly longer run.
  bool variants = false;
  std::string out;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--variants") == 0) {
      variants = true;
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out = argv[++a];
    } else {
      std::fprintf(stderr,
                   "usage: table3_accuracy [--variants] [--out path]\n");
      return 2;
    }
  }
  std::printf("Building corpus and dataset (Table II programs + generated%s)...\n",
              variants ? " + 6 IR variants" : "");
  data::DatasetOptions opts = bench::seeded(123);
  opts.use_ir_variants = variants;
  const bench::Experiment ex(bench::paper_corpus(700, 123), opts);
  std::printf("samples=%zu train=%zu test=%zu aw_vocab=%u\n\n",
              ex.ds.samples.size(), ex.train.size(), ex.test.size(),
              ex.ds.aw_vocab);

  // ---- learned models ---------------------------------------------------
  const core::TrainConfig tc = bench::standard_train_config();

  std::printf("Training MV-GNN (%zu epochs)...\n", tc.epochs);
  core::MvGnnTrainer mvgnn(ex.feats, core::default_config(ex.feats), tc);
  mvgnn.fit(ex.train, {});

  std::printf("Training Static GNN baseline...\n");
  core::StaticGnnTrainer static_gnn(
      ex.feats, core::default_config(ex.feats).node_view, tc);
  static_gnn.fit(ex.train, {});

  std::printf("Training hand-crafted classifiers (Fried et al.)...\n");
  std::vector<ml::FeatureRow> xs;
  std::vector<int> ys;
  bench::feature_matrix(ex.ds, ex.train, xs, ys);
  ml::LinearSvm svm;
  ml::LinearSvm::Params svm_params;
  svm_params.epochs = 120;
  svm.fit(xs, ys, svm_params);
  ml::DecisionTree tree;
  tree.fit(xs, ys);
  ml::AdaBoost ada;
  ada.fit(xs, ys);

  std::printf("Training NCC (inst2vec + 2xLSTM)...\n\n");
  ml::NccTrainer ncc(ex.ds, ml::NccConfig{}, ml::NccTrainConfig{});
  ncc.fit(ex.train);

  // ---- Table III ----------------------------------------------------
  // Row order is the table's; rows [1, kLearned) are the learned
  // baselines MV-GNN (row 0) is ranked against.
  struct Row {
    const char* label;
    const char* key;
  };
  constexpr std::array<Row, 9> kRows{{{"MV-GNN", "mvgnn"},
                                      {"Static GNN", "static_gnn"},
                                      {"SVM", "svm"},
                                      {"Decision Tree", "decision_tree"},
                                      {"AdaBoost", "adaboost"},
                                      {"NCC", "ncc"},
                                      {"Pluto", "pluto"},
                                      {"AutoPar", "autopar"},
                                      {"DiscoPoP", "discopop"}}};
  constexpr std::size_t kLearned = 6;

  obs::BenchReport report("table3_accuracy");
  report.config("variants", variants ? 1 : 0);
  report.config("samples", static_cast<double>(ex.ds.samples.size()));
  report.config("epochs", static_cast<double>(tc.epochs));
  report.config("backend", tensor::backend::active().name());

  std::printf("Table III — evaluation accuracy (%%)\n");
  std::printf("%-12s %-12s %8s\n", "Benchmark", "Model/Tool", "Acc(%)");
  for (const char* suite : {"NPB", "PolyBench", "BOTS", "Generated"}) {
    const auto idx = bench::suite_test(ex, suite);
    if (idx.empty()) continue;
    const auto mvgnn_preds = mvgnn.predict(idx);
    const auto static_preds = static_gnn.predict(idx);
    std::array<double, kRows.size()> hits{};
    for (std::size_t j = 0; j < idx.size(); ++j) {
      const auto& s = ex.ds.samples[idx[j]];
      const ml::FeatureRow row(s.loop_features.begin(),
                               s.loop_features.end());
      const bool par = s.label == 1;
      const std::array<bool, kRows.size()> correct{
          mvgnn_preds[j].fused == s.label,
          static_preds[j] == s.label,
          svm.predict(row) == s.label,
          tree.predict(row) == s.label,
          ada.predict(row) == s.label,
          ncc.predict(idx[j]) == s.label,
          s.tool_pluto == par,
          s.tool_autopar == par,
          s.tool_discopop == par};
      for (std::size_t r = 0; r < kRows.size(); ++r) hits[r] += correct[r];
    }
    std::array<double, kRows.size()> acc{};
    for (std::size_t r = 0; r < kRows.size(); ++r) {
      acc[r] = pct(hits[r] / static_cast<double>(idx.size()));
      std::printf("%-12s %-12s %7.1f", r == 0 ? suite : "", kRows[r].label,
                  acc[r]);
      if (r == 0) std::printf("   (n=%zu)", idx.size());
      std::printf("\n");
      report.metric(std::string(suite) + "_" + kRows[r].key, acc[r],
                    obs::MetricGoal::Higher, "%");
    }
    std::printf("\n");
    const double best_other =
        *std::max_element(acc.begin() + 1, acc.begin() + kLearned);
    report.metric(std::string("mvgnn_on_top_") + suite,
                  acc[0] >= best_other ? 1.0 : 0.0, obs::MetricGoal::Higher);
    report.config(std::string("n_") + suite, static_cast<double>(idx.size()));
  }

  std::printf(
      "Paper reference (Table III): NPB MV-GNN 92.6 / StaticGNN 89.3 / SVM 85\n"
      "/ DT 85 / AdaBoost 92 / NCC 87.3 / Pluto 60.5 / AutoPar 74.8 /\n"
      "DiscoPoP 91.2; PolyBench MV-GNN 89.4, DiscoPoP 87.4, Pluto 82.5;\n"
      "BOTS MV-GNN 82.9; Generated MV-GNN 88.7, NCC 62.9.\n");
  if (!out.empty() && report.write(out)) std::printf("wrote %s\n", out.c_str());
  return 0;
}
