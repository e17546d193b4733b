#include "core/dgcnn.hpp"

#include <cmath>
#include <stdexcept>

#include "core/mvgnn.hpp"
#include "data/dataset.hpp"

namespace mvgnn::core {

using ag::Tensor;

Dgcnn::Dgcnn(const DgcnnConfig& cfg, std::size_t in_dim,
             std::size_t num_classes, bool relational, par::Rng& rng)
    : cfg_(cfg), in_dim_(in_dim) {
  if (cfg.gcn_channels.empty() || cfg.gcn_channels.back() != 1) {
    throw std::invalid_argument(
        "DGCNN: the final GCN layer must have 1 channel (SortPooling sorts "
        "on it)");
  }
  if (cfg.sort_k % 2 != 0) {
    throw std::invalid_argument("DGCNN: sort_k must be even");
  }
  const std::size_t pooled_len = cfg.sort_k / 2;
  if (pooled_len < kConv2Kernel) {
    throw std::invalid_argument("DGCNN: sort_k/2 smaller than conv2 kernel");
  }
  std::size_t in = in_dim;
  for (const std::size_t ch : cfg.gcn_channels) {
    if (relational) {
      rconvs_.emplace_back(in, ch, data::GraphSample::kNumRelations, rng);
    } else {
      convs_.emplace_back(in, ch, rng);
    }
    concat_dim_ += ch;
    in = ch;
  }
  const float s1 = std::sqrt(2.0f / static_cast<float>(concat_dim_));
  conv1_w_ = Tensor::randn({kConv1Channels, concat_dim_}, rng, s1);
  conv1_b_ = Tensor::zeros({1, kConv1Channels}, true);
  const float s2 =
      std::sqrt(2.0f / static_cast<float>(kConv1Channels * kConv2Kernel));
  conv2_w_ =
      Tensor::randn({kConv2Channels, kConv1Channels * kConv2Kernel}, rng, s2);
  conv2_b_ = Tensor::zeros({1, kConv2Channels}, true);

  rep_dim_ = kConv2Channels * (pooled_len - kConv2Kernel + 1);
  dense_ = std::make_unique<nn::Linear>(rep_dim_, kDenseHidden, rng);
  head_ = std::make_unique<nn::Linear>(kDenseHidden, num_classes, rng);
}

Dgcnn::Output Dgcnn::forward(const ag::CsrMatrix& ahat,
                             const std::vector<ag::CsrMatrix>& rel_ahats,
                             const ag::Tensor& features,
                             const std::vector<std::uint32_t>& offsets,
                             bool training, par::Rng& rng) const {
  // Stacked graph convolutions with tanh; concatenate every layer's output.
  // A block-diagonal adjacency keeps messages inside each graph, so the
  // whole batch shares one spmm per layer.
  Tensor x = features;
  Tensor z;
  const bool relational = !rconvs_.empty();
  const std::size_t layers = relational ? rconvs_.size() : convs_.size();
  for (std::size_t i = 0; i < layers; ++i) {
    // The plain GCN path fuses tanh into the spmm rows; the relational sum
    // has no single producing kernel, so it keeps the elementwise tanh.
    x = relational ? ag::tanh_t(rconvs_[i].forward(rel_ahats, x))
                   : convs_[i].forward_tanh(ahat, x);
    z = (i == 0) ? x : ag::concat_cols(z, x);
  }

  Output out;
  out.nodes = z;

  // Per-segment SortPooling to [B*k, concat_dim].
  const std::size_t b_count = offsets.size() - 1;
  Tensor sp = ag::sort_pool_segments(z, cfg_.sort_k, offsets);

  // 1-D convolution stage 1: kernel = stride = concat_dim means every conv
  // window is exactly one pooled row, so windows never straddle a graph
  // boundary and the conv is one GEMM over [B*k, concat_dim] (same
  // summation order as im2col conv1d). The fused matmul_bias with tw reads
  // conv1_w_ [c1, concat_dim] transposed in place — no per-forward weight
  // transpose or bias-add intermediate is materialized.
  Tensor c1 = ag::relu(ag::transpose(
      ag::matmul_bias(sp, conv1_w_, conv1_b_, /*tw=*/true)));  // [c1, B*k]
  // Even k (checked at construction): the 2-wide max-pool windows line up
  // with graph boundaries, so pooling runs batched, and the stride-1 second
  // conv is segment-aware — it only computes the windows that live inside
  // one graph's k/2 columns, never the straddling positions.
  const std::size_t half = cfg_.sort_k / 2;
  const std::size_t l = half - kConv2Kernel + 1;
  Tensor p1 = ag::maxpool1d(c1, 2);                         // [c1, B*k/2]
  std::vector<std::uint32_t> starts(b_count);
  for (std::size_t b = 0; b < b_count; ++b) {
    starts[b] = static_cast<std::uint32_t>(b * half);
  }
  Tensor c2 = ag::relu(ag::conv1d_segments(p1, conv2_w_, conv2_b_,
                                           kConv2Kernel, 1, starts,
                                           half));          // [c2, B*l]
  std::vector<std::uint32_t> row_starts(b_count);
  for (std::size_t b = 0; b < b_count; ++b) {
    row_starts[b] = static_cast<std::uint32_t>(b * l);
  }
  out.pooled = ag::segment_cols_to_rows(c2, row_starts, l);  // [B, rep_dim]
  Tensor h = ag::relu(dense_->forward(out.pooled));
  h = ag::dropout(h, cfg_.dropout, training, rng);
  out.logits = head_->forward(h);
  return out;
}

Dgcnn::Output Dgcnn::forward_batch(const GraphBatch& batch, bool training,
                                   par::Rng& rng) const {
  return forward(batch.ahat, batch.rel_ahats,
                 ag::slice_cols(batch.node_feats, 0, in_dim_), batch.offsets,
                 training, rng);
}

std::vector<ag::Tensor> Dgcnn::parameters() const {
  std::vector<ag::Tensor> ps;
  for (const auto& c : convs_) {
    for (const auto& p : c.parameters()) ps.push_back(p);
  }
  for (const auto& c : rconvs_) {
    for (const auto& p : c.parameters()) ps.push_back(p);
  }
  ps.push_back(conv1_w_);
  ps.push_back(conv1_b_);
  ps.push_back(conv2_w_);
  ps.push_back(conv2_b_);
  for (const auto& p : dense_->parameters()) ps.push_back(p);
  for (const auto& p : head_->parameters()) ps.push_back(p);
  return ps;
}

}  // namespace mvgnn::core
