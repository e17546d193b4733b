// Design ablation: SortPooling k. The paper fixes k=135 at its 200-dim GPU
// scale; this sweep shows the accuracy/cost trade-off at our scale — too
// small truncates informative nodes, too large mostly pads zeros and wastes
// convolution work.
#include <chrono>
#include <cstdio>

#include "bench/common.hpp"

int main() {
  using namespace mvgnn;

  const bench::Experiment ex(data::build_generated_corpus(360, 61),

                             bench::seeded(37));

  // Graph-size distribution for context.
  std::size_t max_n = 0, sum_n = 0;
  for (const auto& s : ex.ds.samples) {
    max_n = std::max<std::size_t>(max_n, s.n);
    sum_n += s.n;
  }
  std::printf("sub-PEG sizes: mean %.1f nodes, max %zu\n\n",
              static_cast<double>(sum_n) / ex.ds.samples.size(), max_n);

  std::printf("Ablation — SortPooling k\n");
  std::printf("%6s %12s %14s\n", "k", "test acc", "train time");
  obs::BenchReport report("abl_sortk");
  report.config("loops", 360);
  for (const std::size_t k : {10, 16, 24, 48}) {
    core::MvGnnConfig cfg = core::default_config(ex.feats);
    cfg.node_view.sort_k = k;
    cfg.struct_view.sort_k = k;
    core::TrainConfig tc = bench::standard_train_config();
    tc.epochs = 18;
    core::MvGnnTrainer trainer(ex.feats, cfg, tc);
    const auto t0 = std::chrono::steady_clock::now();
    trainer.fit(ex.train, {});
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double acc = trainer.accuracy(ex.test);
    std::printf("%6zu %11.1f%% %12.1fs\n", k, 100.0 * acc, secs);
    report.metric("acc_k" + std::to_string(k), acc, obs::MetricGoal::Higher);
    report.metric("train_s_k" + std::to_string(k), secs,
                  obs::MetricGoal::Lower, "s");
  }
  if (report.write("BENCH_sortk.json")) {
    std::printf("wrote BENCH_sortk.json\n");
  }
  std::printf(
      "\nExpected shape: a plateau once k covers typical sub-PEG sizes,\n"
      "with training cost growing roughly linearly in k.\n");
  return 0;
}
