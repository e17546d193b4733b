// Two modeling extensions on one set of fits: every model is a 24-epoch
// MV-GNN over one bench::Experiment (the Table II programs plus about 500
// generated loops).
//
//  * Decoupled static/dynamic features (paper future work #3): decouple
//    the dynamic and static features so the model "would be applicable to
//    a wider range of applications" — programs that cannot be linked and
//    executed get no dynamic profile. Three models — (a) standard, (b)
//    static-only inputs, (c) standard with random dynamic-feature masking
//    ("decoupled") — each evaluated with and without dynamic features.
//  * Typed PEG edges: the paper's PEG carries RAW/WAR/WAW dependence types
//    and hierarchy edges, but a plain GCN merges them into one adjacency.
//    A relational (R-GCN-style) node view with one weight bank per edge
//    relation is compared against (a), and, trained without dynamic
//    features, against (b).
//
// (a) and (b) serve both comparisons, so the bench trains five models.
#include <cstdio>

#include "bench/common.hpp"

int main() {
  using namespace mvgnn;

  const bench::Experiment ex(bench::paper_corpus(500, 123), bench::seeded(123));
  const core::Featurizer& full = ex.feats;
  const core::Featurizer no_dyn(ex.ds, ex.norm, core::LabelMode::Binary,
                                /*zero_dynamic=*/true);
  const core::Featurizer typed_full(ex.ds, ex.norm, core::LabelMode::Binary,
                                    /*zero_dynamic=*/false,
                                    /*typed_edges=*/true);
  const core::Featurizer typed_no_dyn(ex.ds, ex.norm, core::LabelMode::Binary,
                                      /*zero_dynamic=*/true,
                                      /*typed_edges=*/true);
  core::TrainConfig tc = bench::standard_train_config();
  tc.epochs = 24;

  std::printf("training (a) standard MV-GNN...\n");
  core::MvGnnTrainer standard(full, core::default_config(full), tc);
  standard.fit(ex.train, {});

  std::printf("training (b) static-input MV-GNN...\n");
  core::MvGnnTrainer static_only(no_dyn, core::default_config(no_dyn), tc);
  static_only.fit(ex.train, {});

  std::printf("training (c) decoupled MV-GNN (50%% dynamic masking)...\n");
  core::MvGnnTrainer decoupled(full, core::default_config(full), tc);
  decoupled.set_alternate_inputs(&no_dyn, 0.5f);
  decoupled.fit(ex.train, {});

  std::printf("training typed-edge (relational) MV-GNN...\n");
  core::MvGnnTrainer typed(typed_full, core::default_config(typed_full), tc);
  typed.fit(ex.train, {});

  std::printf("training typed-edge MV-GNN on static-only inputs...\n\n");
  core::MvGnnTrainer typed_static(typed_no_dyn,
                                  core::default_config(typed_no_dyn), tc);
  typed_static.fit(ex.train, {});

  std::printf("Extension — decoupled static/dynamic features (test acc)\n");
  std::printf("%-36s %14s %14s\n", "model", "with dynamic", "static only");
  std::printf("%-36s %13.1f%% %13.1f%%\n", "(a) standard training",
              100 * standard.accuracy_with(full, ex.test),
              100 * standard.accuracy_with(no_dyn, ex.test));
  std::printf("%-36s %13.1f%% %13.1f%%\n", "(b) static-only training",
              100 * static_only.accuracy_with(full, ex.test),
              100 * static_only.accuracy_with(no_dyn, ex.test));
  std::printf("%-36s %13.1f%% %13.1f%%\n", "(c) decoupled (random masking)",
              100 * decoupled.accuracy_with(full, ex.test),
              100 * decoupled.accuracy_with(no_dyn, ex.test));
  std::printf(
      "\nExpected shape: (a) collapses without dynamic features; (c) keeps\n"
      "most of (a)'s accuracy with them while staying usable without — the\n"
      "selective-application behaviour the paper's future work asks for.\n\n");

  std::printf("Extension — typed PEG edges (test accuracy)\n");
  for (const char* suite : {"NPB", "PolyBench", "BOTS", "Generated"}) {
    const auto idx = bench::suite_test(ex, suite);
    if (idx.empty()) continue;
    const double a = bench::tally_views(standard, ex.ds, idx).fused.hits;
    const double b = bench::tally_views(typed, ex.ds, idx).fused.hits;
    const double n = static_cast<double>(idx.size());
    std::printf("  %-12s untyped %5.1f%%   typed %5.1f%%   (n=%zu)\n", suite,
                100 * a / n, 100 * b / n, idx.size());
  }
  // The sharper comparison: withhold the dynamic features (decoupled
  // inference mode), so the edge *types* are the only dependence-kind
  // signal available to either model.
  const double a = bench::tally_views(static_only, ex.ds, ex.test).fused.hits;
  const double b = bench::tally_views(typed_static, ex.ds, ex.test).fused.hits;
  const double n = static_cast<double>(ex.test.size());
  std::printf("\nWithout dynamic features: untyped %5.1f%%   typed %5.1f%%\n",
              100 * a / n, 100 * b / n);
  std::printf(
      "\nExpected shape: with full features both tie near the ceiling (the\n"
      "Table I counts already encode dependence kinds); with the dynamic\n"
      "features withheld, the typed model keeps the RAW/WAR/WAW signal the\n"
      "merged adjacency throws away.\n");
  return 0;
}
