// The GraphSAGE-style unsupervised objective the paper adopts (section
// III-E): does pretraining the two GCN views on unlabeled sub-PEGs help
// when labeled loops are scarce?
//
// Protocol: shrink the labeled training set to a fraction, compare test
// accuracy with and without unsupervised pretraining over the full
// (unlabeled) training pool.
#include <cstdio>

#include "bench/common.hpp"

int main() {
  using namespace mvgnn;

  const bench::Experiment ex(bench::paper_corpus(500, 123), bench::seeded(123));
  const core::Featurizer& feats = ex.feats;
  core::TrainConfig tc = bench::standard_train_config();
  tc.epochs = 20;

  std::printf("Extension — GraphSAGE-style unsupervised pretraining\n");
  std::printf("%10s %14s %18s\n", "labels", "supervised", "pretrain+sup");
  for (const double fraction : {0.1, 0.25, 1.0}) {
    std::vector<std::size_t> labeled(
        ex.train.begin(),
        ex.train.begin() +
            std::max<std::size_t>(
                8, static_cast<std::size_t>(fraction * ex.train.size())));

    core::TrainConfig tc_run = tc;
    tc_run.seed = 11;
    core::MvGnnTrainer plain(feats, core::default_config(feats), tc_run);
    plain.fit(labeled, {});

    core::MvGnnTrainer pre(feats, core::default_config(feats), tc_run);
    pre.pretrain_unsupervised(ex.train, /*epochs=*/2);
    pre.fit(labeled, {});

    std::printf("%9zu %13.1f%% %17.1f%%\n", labeled.size(),
                100 * plain.accuracy(ex.test), 100 * pre.accuracy(ex.test));
  }
  std::printf(
      "\nExpected shape: pretraining helps most in the scarce-label middle\n"
      "(the embeddings arrive pre-shaped); with plentiful labels the gap\n"
      "closes, and at very small label counts both runs are noise-bound.\n");
  return 0;
}
