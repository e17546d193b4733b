// Design ablation: GCN stack depth. The paper stacks graph convolutions
// (Fig. 6) without reporting a depth sweep; on small sub-PEGs too few
// layers under-propagate and too many oversmooth.
#include <cstdio>

#include "bench/common.hpp"

int main() {
  using namespace mvgnn;

  const bench::Experiment ex(data::build_generated_corpus(360, 71),

                             bench::seeded(47));

  std::printf("Ablation — GCN stack depth (channels before the sort layer)\n");
  std::printf("%-22s %12s %12s\n", "gcn_channels", "test acc", "params");
  obs::BenchReport report("abl_gcn_depth");
  report.config("loops", 360);
  const std::vector<std::vector<std::size_t>> stacks = {
      {1}, {32, 1}, {32, 32, 1}, {32, 32, 32, 1}, {32, 32, 32, 32, 1}};
  for (const auto& stack : stacks) {
    core::MvGnnConfig cfg = core::default_config(ex.feats);
    cfg.node_view.gcn_channels = stack;
    cfg.struct_view.gcn_channels = stack;
    core::TrainConfig tc = bench::standard_train_config();
    tc.epochs = 18;
    core::MvGnnTrainer trainer(ex.feats, cfg, tc);
    trainer.fit(ex.train, {});
    std::string name = "{";
    for (std::size_t i = 0; i < stack.size(); ++i) {
      name += (i ? "," : "") + std::to_string(stack[i]);
    }
    name += "}";
    const double acc = trainer.accuracy(ex.test);
    std::printf("%-22s %11.1f%% %12zu\n", name.c_str(), 100.0 * acc,
                trainer.model().num_parameters());
    report.metric("acc_depth" + std::to_string(stack.size()), acc,
                  obs::MetricGoal::Higher);
    report.metric("params_depth" + std::to_string(stack.size()),
                  static_cast<double>(trainer.model().num_parameters()));
  }
  if (report.write("BENCH_gcn_depth.json")) {
    std::printf("wrote BENCH_gcn_depth.json\n");
  }
  std::printf(
      "\nExpected shape: a single 1-channel layer is too weak; accuracy\n"
      "peaks at 2-3 layers and flattens or dips as depth oversmooths the\n"
      "small graphs.\n");
  return 0;
}
