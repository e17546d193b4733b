// The evaluation protocol every reproduction bench shares (bench/common.hpp):
// a kernel-disjoint split, BOTS held out into the test side, class-balanced
// training samples, and the normalizer fit on the training side.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench/common.hpp"

namespace {

using namespace mvgnn;

constexpr std::uint64_t kSeed = 123;

const bench::Experiment& small_experiment() {
  // Short walks keep the build fast; the protocol does not depend on them.
  static const bench::Experiment ex = [] {
    data::DatasetOptions opts = bench::seeded(kSeed);
    opts.walk.gamma = 8;
    return bench::Experiment(bench::paper_corpus(40, kSeed), opts);
  }();
  return ex;
}

TEST(Experiment, TrainAndTestShareNoKernel) {
  const bench::Experiment& ex = small_experiment();
  ASSERT_FALSE(ex.train.empty());
  ASSERT_FALSE(ex.test.empty());
  std::set<std::string> train_kernels;
  for (const std::size_t i : ex.train) {
    train_kernels.insert(ex.ds.samples[i].kernel);
  }
  for (const std::size_t i : ex.test) {
    EXPECT_EQ(train_kernels.count(ex.ds.samples[i].kernel), 0u)
        << ex.ds.samples[i].kernel;
  }
}

TEST(Experiment, TrainingClassesAreBalanced) {
  const bench::Experiment& ex = small_experiment();
  std::size_t parallel = 0;
  for (const std::size_t i : ex.train) parallel += ex.ds.samples[i].label;
  EXPECT_GT(parallel, 0u);
  EXPECT_EQ(2 * parallel, ex.train.size());
}

TEST(Experiment, EveryBotsSampleIsOnTheTestSide) {
  const bench::Experiment& ex = small_experiment();
  const std::vector<std::size_t> bots = ex.ds.suite_indices("BOTS");
  ASSERT_FALSE(bots.empty());
  // The kernel split alone puts some BOTS kernel on the training side, so
  // the holdout has work to do at this seed.
  bool bots_in_split_train = false;
  for (const std::size_t i : data::split_by_kernel(ex.ds, 0.75, kSeed).first) {
    bots_in_split_train |= ex.ds.samples[i].suite == "BOTS";
  }
  ASSERT_TRUE(bots_in_split_train);

  const std::set<std::size_t> test(ex.test.begin(), ex.test.end());
  for (const std::size_t i : bots) EXPECT_EQ(test.count(i), 1u) << i;
  for (const std::size_t i : ex.train) {
    EXPECT_NE(ex.ds.samples[i].suite, "BOTS") << i;
  }
}

TEST(Experiment, NormalizerIsFitOnTheTrainingSide) {
  const bench::Experiment& ex = small_experiment();
  const core::Normalizer refit = core::Normalizer::fit(ex.ds, ex.train);
  EXPECT_EQ(ex.norm.mean, refit.mean);
  EXPECT_EQ(ex.norm.stdev, refit.stdev);
  // A fit over every sample differs, so the check above can tell them
  // apart.
  EXPECT_NE(ex.norm.mean, core::Normalizer::fit(ex.ds, ex.ds.suite_indices(""))
                              .mean);
  EXPECT_EQ(&ex.feats.dataset(), &ex.ds);
}

}  // namespace
