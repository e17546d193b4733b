// Optimizers. Parameters are long-lived Tensors whose values are updated in
// place between graph constructions.
#pragma once

#include <iosfwd>
#include <vector>

#include "tensor/tensor.hpp"

namespace mvgnn::io {
class ByteReader;
class ByteWriter;
}  // namespace mvgnn::io

namespace mvgnn::ag {

/// Dense per-parameter gradient stash for data-parallel training
/// (docs/parallelism.md). Each shard of a mini-batch captures its model
/// replica's gradients into one accumulator; the per-shard accumulators are
/// then combined with `tree_merge` in a fixed order and loaded back into
/// the master parameters for one optimizer step. Keeping the buffers
/// outside the Tensor graph means replicas can run backward concurrently
/// without ever sharing a gradient buffer.
class GradAccumulator {
 public:
  GradAccumulator() = default;
  /// Shapes the buffers like `params` (all zeros).
  explicit GradAccumulator(const std::vector<Tensor>& params);

  /// Adds `scale * params[i].grad()` into buffer i. The shard scale is
  /// `shard_rows / batch_rows`: each shard's loss means over its own rows,
  /// so the weighted sum over shards reproduces the whole-batch mean.
  void accumulate(const std::vector<Tensor>& params, float scale = 1.0f);

  /// Elementwise merge: this += other. The reduction combiner.
  void merge(const GradAccumulator& other);

  /// Copies the buffers into `params`' gradient storage (overwriting).
  void store_to(const std::vector<Tensor>& params) const;

  [[nodiscard]] const std::vector<std::vector<float>>& grads() const {
    return g_;
  }

 private:
  std::vector<std::vector<float>> g_;
};

/// Reduces `shards` pairwise with stride doubling: round k merges
/// shards[i+2^k] into shards[i]. The pairing is a function of
/// shards.size() alone — never of how many threads produced them — so the
/// floats that end up in shards[0] are bit-identical for every thread
/// count, which is what keeps data-parallel training deterministic.
void tree_merge(std::vector<GradAccumulator>& shards);

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  void add_param(const Tensor& t) { params_.push_back(t); }
  void add_params(const std::vector<Tensor>& ts) {
    params_.insert(params_.end(), ts.begin(), ts.end());
  }
  [[nodiscard]] const std::vector<Tensor>& params() const { return params_; }

  void zero_grad() {
    for (Tensor& p : params_) p.zero_grad();
  }
  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;

  /// Adjusts the learning rate (schedules are driven by the trainers).
  virtual void set_lr(float lr) = 0;

  /// Rescales all gradients so their global L2 norm is at most `max_norm`
  /// (no-op when already below). Call between backward() and step(); keeps
  /// recurrent models (LSTM) from diverging on long sequences.
  void clip_gradients(float max_norm);

  /// Zeroed accumulator shaped like the registered parameters.
  [[nodiscard]] GradAccumulator make_accumulator() const {
    return GradAccumulator(params_);
  }

  /// Loads an externally reduced gradient into the registered parameters'
  /// gradient buffers; the next step() then applies it as if a single
  /// backward pass had produced it.
  void load_merged(const GradAccumulator& g) { g.store_to(params_); }

 protected:
  std::vector<Tensor> params_;
};

/// Plain SGD with optional L2 weight decay.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(float lr, float weight_decay = 0.0f)
      : lr_(lr), wd_(weight_decay) {}
  void step() override;
  void set_lr(float lr) override { lr_ = lr; }

 private:
  float lr_;
  float wd_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam final : public Optimizer {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f, float weight_decay = 0.0f)
      : lr_(lr), b1_(beta1), b2_(beta2), eps_(eps), wd_(weight_decay) {}
  void step() override;
  void set_lr(float lr) override { lr_ = lr; }

  /// Serializes the step counter and the first/second-moment buffers so a
  /// checkpoint can restore the exact update trajectory. Layout: i64 t,
  /// u64 buffer count, then per buffer u64 numel followed by m and v floats.
  /// A never-stepped optimizer round-trips as an empty state.
  void save_state(io::ByteWriter& w) const;
  void save_state(std::ostream& os) const;

  /// Restores a state written by save_state(). The buffers must match the
  /// registered parameters; throws std::runtime_error on any mismatch. The
  /// stream form reads the rest of `is`.
  void load_state(io::ByteReader& r);
  void load_state(std::istream& is);

 private:
  float lr_, b1_, b2_, eps_, wd_;
  std::vector<std::vector<float>> m_, v_;
  long t_ = 0;
};

}  // namespace mvgnn::ag
