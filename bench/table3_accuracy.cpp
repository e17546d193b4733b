// The paper's evaluation run: one dataset, one fit per model, and every
// number of Table III, Table IV and Fig. 8 read from those fits.
//
//   Table III  parallel-region classification accuracy of MV-GNN against
//              the Static GNN, the hand-crafted classifiers (SVM / decision
//              tree / AdaBoost), NCC, and the auto-parallelization tools
//              (Pluto, AutoPar, DiscoPoP) on NPB, PolyBench, BOTS and the
//              generated dataset;
//   Table IV   the NPB case study: per application, the loops the trained
//              MV-GNN identifies as parallelizable, with its false positives
//              and false negatives, over every NPB loop;
//   Fig. 8     the importance of each view, IMP_view = N_view / N_multi,
//              where N_* is the number of loops a view head or the fused
//              head calls parallel, per suite on the test side.
//
//   table3_accuracy [--variants] [--out BENCH_table3.json]
//
// --out writes every accuracy plus one `mvgnn_on_top_<suite>` flag per
// suite through BenchReport: 1 when MV-GNN is at least as accurate as the
// best other learned model (Static GNN, SVM, Decision Tree, AdaBoost,
// NCC), else 0. The report also carries Table IV's identified, FP and FN
// counts per NPB application and Fig. 8's IMP values and single-view
// accuracies per suite, so the CI gate on this report pins all three.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench/common.hpp"
#include "tensor/backend/backend.hpp"

namespace {

using namespace mvgnn;

/// The suites of Table III and Fig. 8, in the tables' row order.
constexpr std::array<const char*, 4> kSuites{"NPB", "PolyBench", "BOTS",
                                             "Generated"};

/// Table IV: the trained MV-GNN over every NPB loop (the paper counts all
/// 787, not only the test side), one batched predict.
void table4(const bench::Experiment& ex, const core::MvGnnTrainer& mvgnn,
            obs::BenchReport& report) {
  struct Row {
    int loops = 0;
    int identified = 0;  // predicted parallelizable
    int truly = 0;       // oracle parallelizable
    int fp = 0, fn = 0;
  };
  std::map<std::string, Row> rows;
  const std::vector<std::string> apps = {"BT", "SP", "LU", "IS",
                                         "EP", "CG", "MG", "FT"};
  const std::vector<std::size_t> npb = ex.ds.suite_indices("NPB");
  const auto preds = mvgnn.predict(npb);
  for (std::size_t j = 0; j < npb.size(); ++j) {
    const auto& s = ex.ds.samples[npb[j]];
    Row& r = rows[s.app];
    r.loops++;
    const int pred = preds[j].fused;
    r.identified += pred;
    r.truly += s.label;
    r.fp += (pred == 1 && s.label == 0);
    r.fn += (pred == 0 && s.label == 1);
  }

  std::printf("Table IV — statistics of the NPB dataset test\n");
  std::printf("%-10s %9s %26s %8s %5s %5s\n", "Benchmark", "Loops(#)",
              "Identified Parallelizable(#)", "Oracle", "FP", "FN");
  Row total;
  for (const std::string& app : apps) {
    const Row& r = rows[app];
    std::printf("%-10s %9d %26d %8d %5d %5d\n", app.c_str(), r.loops,
                r.identified, r.truly, r.fp, r.fn);
    total.loops += r.loops;
    total.identified += r.identified;
    total.truly += r.truly;
    total.fp += r.fp;
    total.fn += r.fn;
    const std::string key = "NPB_" + app + "_";
    report.metric(key + "identified", r.identified, obs::MetricGoal::Higher,
                  "loops");
    report.metric(key + "fp", r.fp, obs::MetricGoal::Lower, "loops");
    report.metric(key + "fn", r.fn, obs::MetricGoal::Lower, "loops");
  }
  std::printf("%-10s %9d %26d %8d %5d %5d\n", "Total", total.loops,
              total.identified, total.truly, total.fp, total.fn);
  std::printf(
      "\nPaper reference: BT 184/176, SP 252/232, LU 173/163, IS 25/20,\n"
      "EP 10/9, CG 32/28, MG 74/68, FT 37/35, Total 787/731. The paper\n"
      "attributes FPs to missing expert annotations and FNs to function\n"
      "calls inside loops.\n\n");
}

/// Fig. 8: every head of the trained MV-GNN on each suite's test side.
/// IMP_n is gated as higher-is-better and IMP_s as lower-is-better: the
/// paper's claim is that the node view matters more, so a drift that
/// narrows the gap fails.
void fig8(const bench::Experiment& ex, const core::MvGnnTrainer& mvgnn,
          obs::BenchReport& report) {
  std::printf("Fig. 8 — importance of views (IMP = N_view / N_multi)\n");
  std::printf("%-12s %8s %8s %12s %12s %12s\n", "Benchmark", "IMP_n", "IMP_s",
              "acc(multi)", "acc(node)", "acc(struct)");
  for (const char* suite : kSuites) {
    const auto idx = bench::suite_test(ex, suite);
    if (idx.empty()) continue;
    const bench::ViewTally v = bench::tally_views(mvgnn, ex.ds, idx);
    const double n = static_cast<double>(idx.size());
    // Avoid division blowup on tiny suites.
    const double n_multi = v.fused.parallel == 0 ? 1 : v.fused.parallel;
    const double imp_n = v.node_view.parallel / n_multi;
    const double imp_s = v.struct_view.parallel / n_multi;
    const double acc_node = 100.0 * v.node_view.hits / n;
    const double acc_struct = 100.0 * v.struct_view.hits / n;
    std::printf("%-12s %8.3f %8.3f %11.1f%% %11.1f%% %11.1f%%\n", suite,
                imp_n, imp_s, 100.0 * v.fused.hits / n, acc_node, acc_struct);
    const std::string key = std::string(suite) + "_";
    report.metric(key + "imp_n", imp_n, obs::MetricGoal::Higher);
    report.metric(key + "imp_s", imp_s, obs::MetricGoal::Lower);
    report.metric(key + "node_view", acc_node, obs::MetricGoal::Higher, "%");
    report.metric(key + "struct_view", acc_struct, obs::MetricGoal::Higher,
                  "%");
  }
  std::printf(
      "\nExpected shape (paper Fig. 8): both IMP values close to 1 (views\n"
      "consensus), IMP_n >= IMP_s on every suite, and the multi-view\n"
      "accuracy at or above either single view.\n");
}

}  // namespace

int main(int argc, char** argv) {
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
  for (const char* suite : kSuites) {
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
      "BOTS MV-GNN 82.9; Generated MV-GNN 88.7, NCC 62.9.\n\n");
  table4(ex, mvgnn, report);
  fig8(ex, mvgnn, report);
  if (!out.empty() && report.write(out)) std::printf("wrote %s\n", out.c_str());
  return 0;
}
