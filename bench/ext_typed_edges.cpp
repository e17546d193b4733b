// Modeling extension: typed PEG edges. The paper's PEG carries RAW/WAR/WAW
// dependence types and hierarchy edges, but a plain GCN merges them into one
// adjacency. This bench compares the standard MV-GNN against a relational
// (R-GCN-style) node view with one weight bank per edge relation.
#include <cstdio>

#include "bench/common.hpp"

int main() {
  using namespace mvgnn;

  bench::Experiment ex = bench::build_experiment(500);
  const core::Normalizer norm = core::Normalizer::fit(ex.ds, ex.train);
  core::TrainConfig tc = bench::standard_train_config();
  tc.epochs = 24;

  std::printf("training untyped (merged-adjacency) MV-GNN...\n");
  core::Featurizer plain(ex.ds, norm);
  core::MvGnnTrainer untyped(plain, core::default_config(plain), tc);
  untyped.fit(ex.train, {});

  std::printf("training typed-edge (relational) MV-GNN...\n\n");
  core::Featurizer typed_feats(ex.ds, norm, core::LabelMode::Binary,
                               /*zero_dynamic=*/false, /*typed_edges=*/true);
  core::MvGnnTrainer typed(typed_feats, core::default_config(typed_feats),
                           tc);
  typed.fit(ex.train, {});

  std::printf("Extension — typed PEG edges (test accuracy)\n");
  for (const char* suite : {"NPB", "PolyBench", "BOTS", "Generated"}) {
    const auto idx = bench::suite_test(ex, suite);
    if (idx.empty()) continue;
    double a = 0, b = 0;
    for (const std::size_t i : idx) {
      const int label = ex.ds.samples[i].label;
      a += untyped.predict(i).fused == label;
      b += typed.predict(i).fused == label;
    }
    const double n = static_cast<double>(idx.size());
    std::printf("  %-12s untyped %5.1f%%   typed %5.1f%%   (n=%zu)\n", suite,
                100 * a / n, 100 * b / n, idx.size());
  }
  // The sharper comparison: withhold the dynamic features (decoupled
  // inference mode), so the edge *types* are the only dependence-kind
  // signal available to either model.
  std::printf("\nretraining both without dynamic features...\n\n");
  core::Featurizer plain_nd(ex.ds, norm, core::LabelMode::Binary,
                            /*zero_dynamic=*/true);
  core::MvGnnTrainer untyped_nd(plain_nd, core::default_config(plain_nd), tc);
  untyped_nd.fit(ex.train, {});
  core::Featurizer typed_nd(ex.ds, norm, core::LabelMode::Binary,
                            /*zero_dynamic=*/true, /*typed_edges=*/true);
  core::MvGnnTrainer typed_nd_tr(typed_nd, core::default_config(typed_nd),
                                 tc);
  typed_nd_tr.fit(ex.train, {});

  double a = 0, b = 0;
  for (const std::size_t i : ex.test) {
    const int label = ex.ds.samples[i].label;
    a += untyped_nd.predict(i).fused == label;
    b += typed_nd_tr.predict(i).fused == label;
  }
  const double n = static_cast<double>(ex.test.size());
  std::printf("Without dynamic features: untyped %5.1f%%   typed %5.1f%%\n",
              100 * a / n, 100 * b / n);
  std::printf(
      "\nExpected shape: with full features both tie near the ceiling (the\n"
      "Table I counts already encode dependence kinds); with the dynamic\n"
      "features withheld, the typed model keeps the RAW/WAR/WAW signal the\n"
      "merged adjacency throws away.\n");
  return 0;
}
