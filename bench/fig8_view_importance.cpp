// Reproduces Fig. 8: the importance of each view in the multi-view model.
// Per the paper, IMP_view = N_view / N_multi where N_* is the number of
// parallel loops identified by the view head vs the fused head, evaluated
// per benchmark suite.
#include <cstdio>

#include "bench/common.hpp"

int main() {
  using namespace mvgnn;

  const bench::Experiment ex(bench::paper_corpus(700, 123), bench::seeded(123));
  std::printf("Training MV-GNN (with per-view heads)...\n\n");
  core::MvGnnTrainer trainer(ex.feats, core::default_config(ex.feats),
                             bench::standard_train_config());
  trainer.fit(ex.train, {});

  std::printf("Fig. 8 — importance of views (IMP = N_view / N_multi)\n");
  std::printf("%-12s %8s %8s %12s %12s %12s\n", "Benchmark", "IMP_n", "IMP_s",
              "acc(multi)", "acc(node)", "acc(struct)");
  for (const char* suite : {"NPB", "PolyBench", "BOTS", "Generated"}) {
    const auto idx = bench::suite_test(ex, suite);
    if (idx.empty()) continue;
    const bench::ViewTally v = bench::tally_views(trainer, ex.ds, idx);
    const double n = static_cast<double>(idx.size());
    // Avoid division blowup on tiny suites.
    const double n_multi = v.fused.parallel == 0 ? 1 : v.fused.parallel;
    std::printf("%-12s %8.3f %8.3f %11.1f%% %11.1f%% %11.1f%%\n", suite,
                v.node_view.parallel / n_multi,
                v.struct_view.parallel / n_multi, 100.0 * v.fused.hits / n,
                100.0 * v.node_view.hits / n, 100.0 * v.struct_view.hits / n);
  }
  std::printf(
      "\nExpected shape (paper Fig. 8): both IMP values close to 1 (views\n"
      "consensus), IMP_n >= IMP_s on every suite, and the multi-view\n"
      "accuracy at or above either single view.\n");
  return 0;
}
