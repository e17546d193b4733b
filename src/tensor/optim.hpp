// The optimizer (Adam) and the data-parallel gradient accumulators.
// Parameters are long-lived Tensors whose values are updated in place
// between graph constructions.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace mvgnn::io {
class ByteReader;
class ByteWriter;
}  // namespace mvgnn::io

namespace mvgnn::ag {

/// Dense per-parameter gradient buffers for one shard of a data-parallel
/// step (docs/parallelism.md). Every shard runs forward and backward on the
/// shared master parameters. While a `ScopedGradSink` names this
/// accumulator, backward adds each parameter's gradient into the buffer
/// here instead of into the parameter's own gradient, so shards running
/// concurrently never share a gradient buffer. The shards' buffers are then
/// summed in `tree_merge` order, either by `tree_merge` or inside
/// `Adam::step_merged`.
class GradAccumulator {
 public:
  /// Shapes the buffers like `params` (all zeros) and keys buffer i to
  /// `params[i]`'s node.
  explicit GradAccumulator(const std::vector<Tensor>& params);

  /// The buffer backward fills for `leaf`, or nullptr when `leaf` is not
  /// one of the parameters this accumulator was shaped from.
  [[nodiscard]] float* buffer_for(const detail::Node* leaf);

  /// Sets every buffer to zero.
  void zero();

  /// Multiplies every buffer by `s`. A shard's loss means over its own
  /// rows, so the scale `shard_rows / batch_rows` makes the sum over the
  /// shards the whole-batch mean gradient.
  void scale(float s);

  [[nodiscard]] const std::vector<std::vector<float>>& grads() const {
    return g_;
  }

 private:
  friend void tree_merge(std::span<GradAccumulator> shards);
  friend class Adam;

  /// (node, buffer index), sorted by node for buffer_for's binary search.
  std::vector<std::pair<const detail::Node*, std::size_t>> index_;
  std::vector<std::vector<float>> g_;
};

/// Reduces `shards` pairwise with stride doubling: round k merges
/// shards[i+2^k] into shards[i]. The pairing is a function of
/// shards.size() alone — never of how many threads produced them — so the
/// floats that end up in shards[0] are bit-identical for every thread
/// count, which is what keeps data-parallel training deterministic.
void tree_merge(std::span<GradAccumulator> shards);

/// Makes `sink` the calling thread's gradient sink until the guard is
/// destroyed: backward then sends every parameter leaf that `sink` knows to
/// `sink`'s buffer. Guards nest. Each one restores the sink it replaced,
/// also when it is unwound by an exception, so a shard that runs on a
/// thread already inside another sink's scope leaves that scope intact.
class ScopedGradSink {
 public:
  explicit ScopedGradSink(GradAccumulator& sink) noexcept;
  ~ScopedGradSink();
  ScopedGradSink(const ScopedGradSink&) = delete;
  ScopedGradSink& operator=(const ScopedGradSink&) = delete;

 private:
  GradAccumulator* prev_;
};

/// The sink the innermost live ScopedGradSink installed on this thread, or
/// nullptr.
[[nodiscard]] GradAccumulator* current_grad_sink() noexcept;

/// Adam (Kingma & Ba) with bias correction: the optimizer of every trainer.
class Adam {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f, float weight_decay = 0.0f)
      : lr_(lr), b1_(beta1), b2_(beta2), eps_(eps), wd_(weight_decay) {}

  void add_param(const Tensor& t) { params_.push_back(t); }
  void add_params(const std::vector<Tensor>& ts) {
    params_.insert(params_.end(), ts.begin(), ts.end());
  }
  [[nodiscard]] const std::vector<Tensor>& params() const { return params_; }

  void zero_grad() {
    for (Tensor& p : params_) p.zero_grad();
  }
  /// Applies one update from the accumulated gradients.
  void step();

  /// Adjusts the learning rate (schedules are driven by the trainers).
  void set_lr(float lr) { lr_ = lr; }

  /// Rescales all gradients so their global L2 norm is at most `max_norm`
  /// (no-op when already below). Call between backward() and step(); keeps
  /// recurrent models (LSTM) from diverging on long sequences.
  void clip_gradients(float max_norm);

  /// Zeroed accumulator shaped like the registered parameters.
  [[nodiscard]] GradAccumulator make_accumulator() const {
    return GradAccumulator(params_);
  }

  /// One step whose gradient is the sum of `shards` (accumulators made by
  /// make_accumulator()) in tree_merge order. The result is bit for bit
  /// tree_merge, a copy of shards[0] into the gradients and step(), but it
  /// runs as one pass: each fixed range of kMergedStepRange elements of a
  /// parameter is summed over the shards and updated while it is in cache.
  /// Up to `width` tasks on the global pool share the ranges; neither the
  /// ranges nor `width` change a float. The shard buffers are left holding
  /// partial sums, and the parameters' own gradients are not touched.
  void step_merged(std::span<GradAccumulator> shards, std::size_t width);

  /// Elements per range of step_merged. A constant, so the ranges depend on
  /// the parameter sizes alone, never on the thread count.
  static constexpr std::size_t kMergedStepRange = 1024;

  /// Serializes the step counter and the first/second-moment buffers so a
  /// checkpoint can restore the exact update trajectory. Layout: i64 t,
  /// u64 buffer count, then per buffer u64 numel followed by m and v floats.
  /// A never-stepped optimizer round-trips as an empty state.
  void save_state(io::ByteWriter& w) const;

  /// Restores a state written by save_state(). The buffers must match the
  /// registered parameters; throws std::runtime_error on any mismatch.
  void load_state(io::ByteReader& r);

 private:
  /// Sizes the moments on first use and advances the step counter; returns
  /// the bias corrections (1 - beta1^t, 1 - beta2^t).
  std::pair<float, float> begin_step();

  std::vector<Tensor> params_;
  float lr_, b1_, b2_, eps_, wd_;
  std::vector<std::vector<float>> m_, v_;
  long t_ = 0;
};

}  // namespace mvgnn::ag
