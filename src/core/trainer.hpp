// Training harnesses: featurization (with train-set z-normalization of the
// dynamic features), supervised training with the softmax loss (section
// IV-B), accuracy evaluation, and the Fig. 7 loss/accuracy curves.
#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <utility>

#include "core/mvgnn.hpp"
#include "data/dataset.hpp"
#include "tensor/optim.hpp"

namespace mvgnn::core {

/// Z-score normalizer for the 7 dynamic features, fit on training nodes.
struct Normalizer {
  std::array<double, 7> mean{};
  std::array<double, 7> stdev{};

  static Normalizer fit(const data::Dataset& ds,
                        const std::vector<std::size_t>& train_idx);
  [[nodiscard]] std::array<float, 7> apply(
      const std::array<double, 7>& v) const;
};

/// Which dataset label the model inputs carry: the binary parallelizable
/// flag (the paper's main task) or the 3-way parallel-pattern label (the
/// paper's future-work extension).
enum class LabelMode { Binary, Pattern };

/// Class count of a label mode: the logits of every model head.
[[nodiscard]] constexpr std::size_t num_classes(LabelMode mode) {
  return mode == LabelMode::Binary ? 2 : 3;
}
/// Node-feature width: static_dim static columns, then 7 dynamic ones.
[[nodiscard]] inline std::size_t node_dim(const data::Dataset& ds) {
  return ds.static_dim + 7;
}

/// Builds one model input from a (possibly dataset-external) graph sample,
/// against a reference dataset's widths. This is the deployment path: a
/// sample produced by data::featurize_program feeds a trained model
/// directly.
[[nodiscard]] SampleInput build_input(const data::GraphSample& s,
                                      const data::Dataset& reference,
                                      const Normalizer& norm,
                                      LabelMode mode = LabelMode::Binary,
                                      bool zero_dynamic = false,
                                      bool typed_edges = false);

/// Model inputs for every sample of a dataset, built once in the
/// constructor (in parallel on the global thread pool): the graph tensors
/// are constants, only the model parameters change across epochs.
class Featurizer {
 public:
  /// `zero_dynamic` zeroes the 7 dynamic-feature columns — the decoupled
  /// inference mode of the paper's future work #3 (classify programs that
  /// cannot be executed, using static information only).
  /// `typed_edges` additionally builds the per-relation adjacencies the
  /// relational (typed-edge) MV-GNN consumes.
  Featurizer(const data::Dataset& ds, const Normalizer& norm,
             LabelMode mode = LabelMode::Binary, bool zero_dynamic = false,
             bool typed_edges = false);

  [[nodiscard]] const SampleInput& get(std::size_t sample_index) const {
    return inputs_[sample_index];
  }
  [[nodiscard]] const data::Dataset& dataset() const { return *ds_; }
  [[nodiscard]] LabelMode label_mode() const { return mode_; }
  /// True when the inputs carry per-relation adjacencies.
  [[nodiscard]] bool typed_edges() const { return typed_edges_; }

 private:
  const data::Dataset* ds_;
  LabelMode mode_ = LabelMode::Binary;
  bool typed_edges_ = false;
  std::vector<SampleInput> inputs_;  // one per ds.samples entry
};

struct TrainConfig {
  std::size_t epochs = 30;
  float lr = 1e-3f;        // paper: 1e-5 at 200-dim/200-epoch GPU scale
  float aux_weight = 0.3f; // weight of the per-view auxiliary losses
  float weight_decay = 1e-4f;
  /// Mini-batch size: each optimizer step runs ONE batched
  /// forward/backward over a block-diagonal GraphBatch of up to this many
  /// samples (the trailing batch may be smaller; its loss is averaged over
  /// the samples actually present). 1 = pure SGD-style.
  std::size_t batch_size = 1;
  std::uint64_t seed = 1;
  bool verbose = false;

  /// How many data-parallel shards of a mini-batch run at once
  /// (docs/parallelism.md); 0 counts as 1. Each mini-batch is cut into
  /// fixed-size shards that run forward/backward on the one model, each
  /// into its own gradient buffers, and the shard gradients reduce in a
  /// fixed tree order, so weights and curves are bit-identical for every
  /// value: `threads` trades wall-clock only.
  std::size_t threads = 1;

  // ---- fault tolerance (docs/robustness.md) ----
  /// Directory for `ckpt-<epoch>.mvck` files; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Write a checkpoint every this many completed epochs (when
  /// checkpoint_dir is set). 0 = only the final/interrupt checkpoint.
  std::size_t checkpoint_every = 1;
  /// Checkpoint file to resume from; fit() restores weights, optimizer,
  /// Rng and curve, then continues at the recorded epoch. The resumed
  /// trajectory is bit-identical to the uninterrupted run.
  std::string resume_from;
  /// Cooperative interrupt flag (e.g. flipped by a SIGINT handler). Polled
  /// at batch boundaries; when it goes true, fit() stops, persists the
  /// epoch-start snapshot as a final checkpoint and returns the curve so
  /// far with interrupted() == true.
  const std::atomic<bool>* stop_requested = nullptr;
};

struct EpochStat {
  double loss = 0.0;
  double train_acc = 0.0;
  double test_acc = 0.0;
};

/// The supervised trainer of every graph model (MvGnn, Dgcnn): one epoch
/// loop, one sharded step, checkpoint/resume/interrupt and the curve. Per
/// model only the construction and the shard loss differ (trainer.cpp).
template <class Model>
class Trainer {
 public:
  Trainer(const Featurizer& feats, const typename Model::Config& cfg,
          const TrainConfig& tc);

  /// Trains on `train_idx`; `test_idx` is evaluated per epoch for the
  /// curve (pass {} to skip). Returns per-epoch stats (Fig. 7).
  std::vector<EpochStat> fit(const std::vector<std::size_t>& train_idx,
                             const std::vector<std::size_t>& test_idx);

  /// GraphSAGE-style unsupervised pretraining (the objective the paper
  /// adopts in section III-E): neighbouring PEG nodes get similar
  /// embeddings, random pairs dissimilar, in both views. Needs no labels —
  /// run it before fit() when labeled data is scarce.
  void pretrain_unsupervised(const std::vector<std::size_t>& idx,
                             std::size_t epochs, std::size_t negatives = 3)
    requires std::same_as<Model, MvGnn>;

  /// During fit(), substitute each sample's input with `alt`'s version with
  /// probability `prob` (the decoupled static/dynamic training of future
  /// work #3: randomly hiding the dynamic features teaches the model to
  /// survive their absence at inference).
  void set_alternate_inputs(const Featurizer* alt, float prob)
    requires std::same_as<Model, MvGnn> {
    alt_feats_ = alt;
    alt_prob_ = prob;
  }

  /// Accuracy when predictions are made from another featurizer's inputs
  /// (e.g. the zero-dynamic one).
  [[nodiscard]] double accuracy_with(const Featurizer& feats,
                                     const std::vector<std::size_t>& idx) const;

  [[nodiscard]] typename Model::Prediction predict(
      std::size_t sample_index) const;
  [[nodiscard]] double accuracy(const std::vector<std::size_t>& idx) const;

  [[nodiscard]] const Model& model() const { return *model_; }
  /// Mutable access for weight loading (core::load_checkpoint).
  [[nodiscard]] Model& model_mutable() { return *model_; }

  /// True when the last fit() stopped early via TrainConfig::stop_requested.
  [[nodiscard]] bool interrupted() const { return interrupted_; }

 private:
  /// One optimizer step over `chunk`: fixed-size shards, forward/backward
  /// on the shared master model on up to TrainConfig::threads workers with
  /// each shard's gradients in its own accumulator (`shard_grads`, grown as
  /// needed), then the fixed-tree reduction and the Adam update as one pass.
  /// Returns the chunk's summed loss and correct-prediction count.
  std::pair<double, std::size_t> data_parallel_step(
      const std::vector<const SampleInput*>& chunk, ag::Adam& opt,
      std::vector<ag::GradAccumulator>& shard_grads, std::uint64_t step_seed);

  const Featurizer* feats_;
  const Featurizer* alt_feats_ = nullptr;
  float alt_prob_ = 0.0f;
  TrainConfig tc_;
  std::unique_ptr<Model> model_;
  par::Rng rng_;
  bool interrupted_ = false;
};

/// MV-GNN; predict() gives the fused and per-view classes (the latter drive
/// the Fig. 8 view-importance analysis).
using MvGnnTrainer = Trainer<MvGnn>;
/// The "Static GNN" baseline: one Dgcnn over the static columns only.
using StaticGnnTrainer = Trainer<Dgcnn>;

/// Default scaled-down model configuration for a dataset (node/struct view
/// widths follow DESIGN.md section 5).
[[nodiscard]] MvGnnConfig default_config(const data::Dataset& ds,
                                         LabelMode mode = LabelMode::Binary);
/// default_config for the featurizer's dataset and label mode; a typed-edge
/// featurizer gets the relational node view.
[[nodiscard]] MvGnnConfig default_config(const Featurizer& feats);

}  // namespace mvgnn::core
