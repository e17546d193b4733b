// End-to-end MV-GNN deployment flow: train once (cached), then classify
// every for-loop of any MiniC program through the inference path
// (data::featurize_source + core::build_input + the trained model).
//
//   ./build/examples/classify_loops [program.minic] [--cache DIR]
//
// With --cache, the built dataset and each ensemble member's final training
// checkpoint (`seed-<n>/ckpt-<epochs>.mvck`) are stored in DIR and reused on
// later runs (a fresh run trains a 3-seed ensemble in ~2 minutes; cached
// runs classify in milliseconds). A checkpoint that fails to load is
// retrained. The normalizer is refit on every run: the same dataset and
// split give the same values.
// The program's entry function must be named `kernel`; its arguments
// follow profiler::default_args.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "data/serialize.hpp"

namespace {

using namespace mvgnn;

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string user_source = R"(
const int N = 48;
float kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    b[i] = sqrt(fabs(a[i])) + 0.5;
  }
  float mx = -100000.0;
  for (int i = 0; i < N; i += 1) {
    mx = fmax(mx, b[i]);
  }
  float carry = 0.0;
  for (int i = 0; i < N; i += 1) {
    carry = carry * 0.9 + a[i];
    b[i] = carry;
  }
  return mx;
}
)";
  std::string cache_dir;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--cache") == 0 && a + 1 < argc) {
      cache_dir = argv[++a];
    } else {
      std::ifstream in(argv[a]);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[a]);
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      user_source = buf.str();
    }
  }

  data::DatasetOptions opts;
  opts.seed = 5;

  // ---- dataset: build or load from cache --------------------------------
  data::Dataset ds;
  const std::string ds_path = cache_dir + "/dataset.bin";
  if (!cache_dir.empty() && file_exists(ds_path)) {
    std::printf("loading cached dataset from %s...\n", ds_path.c_str());
    ds = data::load_dataset(ds_path);
  } else {
    std::printf("building training corpus...\n");
    ds = data::build_dataset(data::build_generated_corpus(760, 2024), opts);
    if (!cache_dir.empty()) data::save_dataset(ds, ds_path);
  }
  // 85/15 train/validation split; balance by oversampling so no sample is
  // discarded.
  auto [train_raw, val] = data::split_by_kernel(ds, 0.85, 5);
  std::vector<std::size_t> train = data::oversample_balance(ds, train_raw, 5);

  // ---- normalizer + model: fit, then train or load ------------------------
  const core::Normalizer norm = core::Normalizer::fit(ds, train);
  core::Featurizer feats(ds, norm);
  core::TrainConfig tc;
  tc.epochs = 30;
  // A 3-seed ensemble: majority vote is markedly more stable than any
  // single model near the decision boundary.
  const std::uint64_t seeds[] = {1, 7, 13};
  std::vector<std::unique_ptr<core::MvGnnTrainer>> ensemble;
  for (const std::uint64_t seed : seeds) {
    core::TrainConfig tcs = tc;
    tcs.seed = seed;
    // A member is cached as its trainer's final checkpoint (CRC-checked,
    // written atomically): the format the serve daemon loads.
    const std::string seed_dir = cache_dir + "/seed-" + std::to_string(seed);
    if (!cache_dir.empty()) {
      std::filesystem::create_directories(seed_dir);
      tcs.checkpoint_dir = seed_dir;
      tcs.checkpoint_every = tcs.epochs;
    }
    const std::string ckpt = core::checkpoint_path(seed_dir, tcs.epochs);
    auto make = [&] {
      return std::make_unique<core::MvGnnTrainer>(
          feats, core::default_config(feats), tcs);
    };
    auto t = make();
    bool loaded = false;
    if (!cache_dir.empty() && file_exists(ckpt)) {
      // Restoring the optimizer state too checks the whole file; inference
      // never steps it.
      ag::Adam opt(tcs.lr);
      opt.add_params(t->model().parameters());
      try {
        (void)core::load_checkpoint(ckpt, t->model_mutable(), opt);
        std::printf("loaded cached MV-GNN (seed %llu) from %s\n",
                    static_cast<unsigned long long>(seed), ckpt.c_str());
        loaded = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s; retraining\n", e.what());
        t = make();  // a failed load may have overwritten some weights
      }
    }
    if (!loaded) {
      std::printf("training MV-GNN (seed %llu) on %zu loops...\n",
                  static_cast<unsigned long long>(seed), train.size());
      t->fit(train, {});
      std::printf("  validation accuracy: %.1f%%\n",
                  100.0 * t->accuracy(val));
    }
    ensemble.push_back(std::move(t));
  }

  // ---- inference on the user program -------------------------------------
  // Inference uses the clean profile: the dependence-dropout in `opts`
  // models *training-corpus* input sensitivity, not the user's own run.
  data::DatasetOptions inference_opts = opts;
  inference_opts.dep_noise = 0.0;
  inference_opts.walk.gamma = 96;  // denoise the structural view's sampling
  std::vector<data::GraphSample> samples;
  try {
    samples = data::featurize_source(user_source, ds, inference_opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  std::printf("\nloop classification for the input program:\n");
  std::printf("%6s | %-16s | %-14s | %s\n", "line", "MV-GNN", "node/struct",
              "expert oracle");
  std::vector<core::SampleInput> inputs;
  std::vector<const core::SampleInput*> ptrs;
  inputs.reserve(samples.size());
  for (const auto& s : samples) {
    inputs.push_back(core::build_input(s, ds, norm));
    ptrs.push_back(&inputs.back());
  }
  std::vector<int> fused_votes(samples.size()), node_votes(samples.size()),
      struct_votes(samples.size());
  for (const auto& t : ensemble) {
    const auto preds = core::predict(t->model(), ptrs, ptrs.size());
    for (std::size_t i = 0; i < preds.size(); ++i) {
      fused_votes[i] += preds[i].fused;
      node_votes[i] += preds[i].node_view;
      struct_votes[i] += preds[i].struct_view;
    }
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const data::GraphSample& s = samples[i];
    const int majority = static_cast<int>(ensemble.size()) / 2;
    std::printf("%6d | %-16s | %5s / %-6s | %s\n", s.loop_line,
                fused_votes[i] > majority ? "PARALLELIZABLE" : "sequential",
                node_votes[i] > majority ? "par" : "seq",
                struct_votes[i] > majority ? "par" : "seq",
                s.label ? "parallelizable" : "sequential");
  }
  return 0;
}
