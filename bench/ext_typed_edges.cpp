// Modeling extension: typed PEG edges. The paper's PEG carries RAW/WAR/WAW
// dependence types and hierarchy edges, but a plain GCN merges them into one
// adjacency. This bench compares the standard MV-GNN against a relational
// (R-GCN-style) node view with one weight bank per edge relation.
#include <cstdio>

#include "bench/common.hpp"

int main() {
  using namespace mvgnn;

  const bench::Experiment ex(bench::paper_corpus(500, 123), bench::seeded(123));
  core::TrainConfig tc = bench::standard_train_config();
  tc.epochs = 24;

  std::printf("training untyped (merged-adjacency) MV-GNN...\n");
  core::MvGnnTrainer untyped(ex.feats, core::default_config(ex.feats), tc);
  untyped.fit(ex.train, {});

  std::printf("training typed-edge (relational) MV-GNN...\n\n");
  const core::Featurizer typed_feats(ex.ds, ex.norm, core::LabelMode::Binary,
                                     /*zero_dynamic=*/false,
                                     /*typed_edges=*/true);
  core::MvGnnTrainer typed(typed_feats, core::default_config(typed_feats),
                           tc);
  typed.fit(ex.train, {});

  std::printf("Extension — typed PEG edges (test accuracy)\n");
  for (const char* suite : {"NPB", "PolyBench", "BOTS", "Generated"}) {
    const auto idx = bench::suite_test(ex, suite);
    if (idx.empty()) continue;
    const double a = bench::tally_views(untyped, ex.ds, idx).fused.hits;
    const double b = bench::tally_views(typed, ex.ds, idx).fused.hits;
    const double n = static_cast<double>(idx.size());
    std::printf("  %-12s untyped %5.1f%%   typed %5.1f%%   (n=%zu)\n", suite,
                100 * a / n, 100 * b / n, idx.size());
  }
  // The sharper comparison: withhold the dynamic features (decoupled
  // inference mode), so the edge *types* are the only dependence-kind
  // signal available to either model.
  std::printf("\nretraining both without dynamic features...\n\n");
  const core::Featurizer plain_nd(ex.ds, ex.norm, core::LabelMode::Binary,
                                  /*zero_dynamic=*/true);
  core::MvGnnTrainer untyped_nd(plain_nd, core::default_config(plain_nd), tc);
  untyped_nd.fit(ex.train, {});
  const core::Featurizer typed_nd(ex.ds, ex.norm, core::LabelMode::Binary,
                                  /*zero_dynamic=*/true, /*typed_edges=*/true);
  core::MvGnnTrainer typed_nd_tr(typed_nd, core::default_config(typed_nd),
                                 tc);
  typed_nd_tr.fit(ex.train, {});

  const double a = bench::tally_views(untyped_nd, ex.ds, ex.test).fused.hits;
  const double b = bench::tally_views(typed_nd_tr, ex.ds, ex.test).fused.hits;
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
