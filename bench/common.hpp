// Shared experiment harness for the table/figure reproduction binaries.
//
// Every table, figure and ablation runs one protocol, bench::Experiment:
// a 75:25 split at kernel granularity, suites too small to split (BOTS)
// held out entirely into the test side — mirroring how Shen et al.
// evaluate on benchmarks outside their training set — training classes
// balanced, and the dynamic-feature normalizer fit on the training set.
#pragma once

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "data/corpus.hpp"
#include "data/dataset.hpp"
#include "ml/classic.hpp"
#include "ml/ncc.hpp"
#include "obs/bench_report.hpp"  // every bench writes results through this

namespace mvgnn::bench {

/// The Table II benchmark programs plus about `generated_loops` generated
/// loops: the corpus of Table III/IV, Fig. 8 and the extension benches.
inline std::vector<data::ProgramSpec> paper_corpus(int generated_loops,
                                                   std::uint64_t seed) {
  auto programs = data::build_benchmark_corpus(seed);
  auto gen = data::build_generated_corpus(generated_loops, seed ^ 0x9E97ULL);
  programs.insert(programs.end(), std::make_move_iterator(gen.begin()),
                  std::make_move_iterator(gen.end()));
  return programs;
}

/// Default dataset options with the given seed.
inline data::DatasetOptions seeded(std::uint64_t seed) {
  data::DatasetOptions opts;
  opts.seed = seed;
  return opts;
}

/// The evaluation protocol, built once per experiment: dataset, split,
/// normalizer and the plain model inputs. Split and balance draw from
/// `opts.seed`. Variant inputs (zero-dynamic, typed-edge, pattern labels)
/// are built from `norm`. Neither copyable nor movable: `feats` points
/// at `ds`.
struct Experiment {
  Experiment(const std::vector<data::ProgramSpec>& programs,
             const data::DatasetOptions& opts)
      : Experiment(split(data::build_dataset(programs, opts), opts.seed)) {}
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  data::Dataset ds;
  std::vector<std::size_t> train;  // class-balanced
  std::vector<std::size_t> test;   // held-out kernels plus every BOTS sample
  core::Normalizer norm;           // fit on train
  core::Featurizer feats;          // plain inputs of every sample

 private:
  struct Split {
    data::Dataset ds;
    std::vector<std::size_t> train, test;
  };

  explicit Experiment(Split s)
      : ds(std::move(s.ds)), train(std::move(s.train)),
        test(std::move(s.test)), norm(core::Normalizer::fit(ds, train)),
        feats(ds, norm) {}

  static Split split(data::Dataset ds, std::uint64_t seed) {
    auto [train, test] = data::split_by_kernel(ds, 0.75, seed);
    // Hold BOTS out entirely: with two kernels it cannot be split
    // meaningfully, and the paper's comparison treats it as an unseen
    // suite.
    std::vector<std::size_t> kept_train;
    for (const std::size_t i : train) {
      (ds.samples[i].suite == "BOTS" ? test : kept_train).push_back(i);
    }
    train = data::balance_classes(ds, kept_train, seed);
    return {std::move(ds), std::move(train), std::move(test)};
  }
};

/// Test indices restricted to one suite.
inline std::vector<std::size_t> suite_test(const Experiment& ex,
                                           const std::string& suite) {
  std::vector<std::size_t> out;
  for (const std::size_t i : ex.test) {
    if (ex.ds.samples[i].suite == suite) out.push_back(i);
  }
  return out;
}

/// One MV-GNN head over a sample list: its correct verdicts, and the loops
/// it calls parallel (Fig. 8's N_view).
struct HeadTally {
  double hits = 0, parallel = 0;
};

struct ViewTally {
  HeadTally fused, node_view, struct_view;
};

/// Every head of `trainer` on `idx` (one batched predict), against the
/// binary labels.
inline ViewTally tally_views(const core::MvGnnTrainer& trainer,
                             const data::Dataset& ds,
                             const std::vector<std::size_t>& idx) {
  const auto preds = trainer.predict(idx);
  const auto count = [](HeadTally& h, int pred, int label) {
    h.hits += pred == label;
    h.parallel += pred == 1;
  };
  ViewTally t;
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const int label = ds.samples[idx[j]].label;
    count(t.fused, preds[j].fused, label);
    count(t.node_view, preds[j].node_view, label);
    count(t.struct_view, preds[j].struct_view, label);
  }
  return t;
}

/// Standard scaled-down training configuration (DESIGN.md section 5).
inline core::TrainConfig standard_train_config() {
  core::TrainConfig tc;
  tc.epochs = 30;
  tc.lr = 1e-3f;
  tc.seed = 7;
  return tc;
}

/// Feature rows for the hand-crafted classifiers.
inline void feature_matrix(const data::Dataset& ds,
                           const std::vector<std::size_t>& idx,
                           std::vector<ml::FeatureRow>& x,
                           std::vector<int>& y) {
  x.clear();
  y.clear();
  for (const std::size_t i : idx) {
    const auto& f = ds.samples[i].loop_features;
    x.emplace_back(f.begin(), f.end());
    y.push_back(ds.samples[i].label);
  }
}

inline double pct(double x) { return 100.0 * x; }

}  // namespace mvgnn::bench
