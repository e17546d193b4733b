// Reproduces Table IV: the NPB case study — per-application loop counts and
// how many of them the trained MV-GNN identifies as parallelizable, plus
// the misclassification breakdown the paper discusses (false positives /
// false negatives).
#include <cstdio>
#include <map>

#include "bench/common.hpp"

int main() {
  using namespace mvgnn;

  const bench::Experiment ex(bench::paper_corpus(700, 123), bench::seeded(123));
  std::printf("Training MV-GNN for the NPB case study...\n\n");
  core::MvGnnTrainer mvgnn(ex.feats, core::default_config(ex.feats),
                           bench::standard_train_config());
  mvgnn.fit(ex.train, {});

  // The case study runs over ALL NPB loops (the paper reports 787 loops vs
  // Table II's 787 NPB total), using the trained model.
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
  }
  std::printf("%-10s %9d %26d %8d %5d %5d\n", "Total", total.loops,
              total.identified, total.truly, total.fp, total.fn);
  std::printf(
      "\nPaper reference: BT 184/176, SP 252/232, LU 173/163, IS 25/20,\n"
      "EP 10/9, CG 32/28, MG 74/68, FT 37/35, Total 787/731. The paper\n"
      "attributes FPs to missing expert annotations and FNs to function\n"
      "calls inside loops.\n");
  return 0;
}
