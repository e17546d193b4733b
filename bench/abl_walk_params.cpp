// Design ablation: anonymous-walk sampling parameters (gamma walks per node,
// walk length l). The paper fixes one setting; this sweep shows how the
// structural view's value depends on them — short walks can't see patterns,
// very long walks blur them, few walks are noisy.
#include <cstdio>

#include "bench/common.hpp"

int main() {
  using namespace mvgnn;

  struct Config {
    std::uint32_t gamma;
    std::uint32_t length;
  };
  const Config configs[] = {{4, 5}, {24, 3}, {24, 5}, {24, 7}, {64, 5}};

  std::printf("Ablation — anonymous-walk parameters (gamma, l)\n");
  std::printf("%6s %6s %10s %12s %12s\n", "gamma", "l", "aw_vocab",
              "acc(multi)", "acc(struct)");

  obs::BenchReport report("abl_walk_params");
  report.config("loops", 320);
  auto programs = data::build_generated_corpus(320, 55);
  for (const Config& cfg : configs) {
    data::DatasetOptions opts = bench::seeded(31);
    opts.walk = {cfg.gamma, cfg.length};
    const bench::Experiment ex(programs, opts);
    core::TrainConfig tc = bench::standard_train_config();
    tc.epochs = 18;
    core::MvGnnTrainer trainer(ex.feats, core::default_config(ex.feats), tc);
    trainer.fit(ex.train, {});

    const bench::ViewTally views = bench::tally_views(trainer, ex.ds, ex.test);
    const double acc_multi = views.fused.hits;
    const double acc_struct = views.struct_view.hits;
    const double n = static_cast<double>(ex.test.size());
    std::printf("%6u %6u %10u %11.1f%% %11.1f%%\n", cfg.gamma, cfg.length,
                ex.ds.aw_vocab, 100.0 * acc_multi / n, 100.0 * acc_struct / n);
    const std::string tag = "g" + std::to_string(cfg.gamma) + "_l" +
                            std::to_string(cfg.length);
    report.metric("acc_multi_" + tag, acc_multi / n,
                  obs::MetricGoal::Higher);
    report.metric("acc_struct_" + tag, acc_struct / n,
                  obs::MetricGoal::Higher);
    report.metric("aw_vocab_" + tag, ex.ds.aw_vocab);
  }
  if (report.write("BENCH_walk_params.json")) {
    std::printf("wrote BENCH_walk_params.json\n");
  }
  return 0;
}
