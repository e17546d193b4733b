// train: MvGnnTrainer::fit from scratch over a fixed, already featurized
// training set — forward, backward and Adam over data-parallel shards, with
// no pipeline work in the timed part.
#include "workload.hpp"

#include <cmath>
#include <cstring>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "obs/trace.hpp"

namespace mvgnn::bench_e2e {
namespace {

class TrainWorkload final : public Workload {
 public:
  void setup(const Options& opts) override {
    feats_.reset();  // refers to ds_, which is rebuilt below
    // The Table II corpus plus generated loops (the dataset workloads'
    // programs without the IR variants), built cache-off.
    auto programs = data::build_benchmark_corpus(opts.seed);
    auto gen = data::build_generated_corpus(opts.smoke ? 40 : 700,
                                            opts.seed ^ 0x9E97ULL);
    programs.insert(programs.end(), std::make_move_iterator(gen.begin()),
                    std::make_move_iterator(gen.end()));
    if (opts.smoke) programs.resize(60);
    data::DatasetOptions dopts;
    dopts.seed = opts.seed;
    ds_ = data::build_dataset(programs, dopts);
    auto [train_raw, val] = data::split_by_kernel(ds_, 0.85, opts.seed);
    train_ = data::oversample_balance(ds_, train_raw, opts.seed);
    feats_ = std::make_unique<core::Featurizer>(
        ds_, core::Normalizer::fit(ds_, train_));
    cfg_ = core::default_config(*feats_);
  }

  Phase run(double seconds) override {
    Phase ph;
    // TrainConfig::threads >= 1: the sharded path, bit-identical for every
    // thread count, so each rep must reproduce the first one's weights.
    core::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 16;
    tc.threads = 4;
    tc.seed = 1;
    run_reps(seconds, 4, [&](int rep) {
      core::MvGnnTrainer trainer(*feats_, cfg_, tc);
      const Clock::time_point t0 = Clock::now();
      std::vector<core::EpochStat> curve;
      {
        obs::ScopedSpan span("bench.fit");
        curve = trainer.fit(train_, {});
      }
      const double s = seconds_since(t0);
      ++ph.attempted;
      bool ok = true;
      for (const core::EpochStat& e : curve) {
        if (!std::isfinite(e.loss)) {
          ok = false;
          ph.fail("train: non-finite loss");
        }
      }
      std::vector<float> weights;
      for (const ag::Tensor& p : trainer.model().parameters()) {
        weights.insert(weights.end(), p.data(), p.data() + p.numel());
      }
      if (reference_.empty()) {
        reference_ = std::move(weights);
      } else if (weights.size() != reference_.size() ||
                 std::memcmp(weights.data(), reference_.data(),
                             weights.size() * sizeof(float)) != 0) {
        ok = false;
        ph.fail("train: final weights differ from the first fit's");
      }
      if (!ok) ++ph.failed;
      // Rep 0 also featurizes every training sample into the Featurizer's
      // cache; later reps only train.
      if (rep == 0) return;
      ph.rep_rate.push_back(static_cast<double>(tc.epochs * train_.size()) / s);
      ph.op_ms.push_back(s * 1e3);
    });
    return ph;
  }

 private:
  data::Dataset ds_;
  std::vector<std::size_t> train_;
  std::unique_ptr<core::Featurizer> feats_;
  core::MvGnnConfig cfg_;
  std::vector<float> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_train() {
  return std::make_unique<TrainWorkload>();
}

}  // namespace mvgnn::bench_e2e
