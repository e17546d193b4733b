// Neural-network layers used by the DGCNN / MV-GNN / NCC models.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "nn/module.hpp"
#include "tensor/ops.hpp"

namespace mvgnn::nn {

/// Fully connected layer y = xW + b.
class Linear final : public Module {
 public:
  Linear(std::size_t in, std::size_t out, par::Rng& rng);

  [[nodiscard]] ag::Tensor forward(const ag::Tensor& x) const {
    return ag::matmul_bias(x, w_, b_);  // bias fused into the GEMM epilogue
  }
  [[nodiscard]] std::vector<ag::Tensor> parameters() const override {
    return {w_, b_};
  }
  [[nodiscard]] std::size_t in_dim() const { return w_.rows(); }
  [[nodiscard]] std::size_t out_dim() const { return w_.cols(); }

 private:
  ag::Tensor w_, b_;
};

/// Graph convolution in DGCNN form: Z = act(D^-1 (A+I) X W); the normalized
/// adjacency is precomputed per graph (see dgcnn_adjacency) and passed in
/// as a constant CSR matrix, so message passing costs O(nnz * d) and a
/// block-diagonal `ahat` runs a whole graph batch in one call.
class GcnConv final : public Module {
 public:
  GcnConv(std::size_t in, std::size_t out, par::Rng& rng);

  /// `ahat` is [n,n] CSR, `x` is [n,in]; returns [n,out] pre-activation.
  [[nodiscard]] ag::Tensor forward(const ag::CsrMatrix& ahat,
                                   const ag::Tensor& x) const {
    return ag::spmm(ahat, ag::matmul(x, w_));
  }
  /// tanh(Ahat X W) with the activation fused into the spmm rows — what the
  /// DGCNN stack calls instead of tanh_t(forward(...)).
  [[nodiscard]] ag::Tensor forward_tanh(const ag::CsrMatrix& ahat,
                                        const ag::Tensor& x) const {
    return ag::spmm_tanh(ahat, ag::matmul(x, w_));
  }
  [[nodiscard]] std::vector<ag::Tensor> parameters() const override {
    return {w_};
  }
  [[nodiscard]] std::size_t out_dim() const { return w_.cols(); }

 private:
  ag::Tensor w_;
};

/// Single-layer LSTM over a [T, in] sequence; returns all hidden states
/// [T, h]. Gate order in the packed weight: input, forget, cell, output.
class Lstm final : public Module {
 public:
  Lstm(std::size_t in, std::size_t hidden, par::Rng& rng);

  [[nodiscard]] ag::Tensor forward(const ag::Tensor& seq) const;
  [[nodiscard]] std::vector<ag::Tensor> parameters() const override {
    return {wx_, wh_, b_};
  }
  [[nodiscard]] std::size_t hidden_dim() const { return hidden_; }

 private:
  std::size_t hidden_;
  ag::Tensor wx_, wh_, b_;
};

/// Relational graph convolution (R-GCN, Schlichtkrull et al.): one weight
/// matrix per edge relation plus a self-transform,
///   Z = X W_self + sum_r Ahat_r X W_r.
/// The typed-edge extension runs the node view with PEG relations
/// {hierarchy, RAW, WAR, WAW} instead of one merged adjacency.
class RgcnConv final : public Module {
 public:
  RgcnConv(std::size_t in, std::size_t out, std::size_t relations,
           par::Rng& rng);

  /// `ahats.size()` must equal `relations` (std::invalid_argument
  /// otherwise); each is [n,n] CSR; `x` is [n,in].
  [[nodiscard]] ag::Tensor forward(const std::vector<ag::CsrMatrix>& ahats,
                                   const ag::Tensor& x) const;
  [[nodiscard]] std::vector<ag::Tensor> parameters() const override;
  [[nodiscard]] std::size_t out_dim() const { return w_self_.cols(); }
  [[nodiscard]] std::size_t num_relations() const { return w_rel_.size(); }

 private:
  ag::Tensor w_self_;
  std::vector<ag::Tensor> w_rel_;
};

/// Row-normalized adjacency with self-loops, D^-1 (A+I), as a constant
/// CSR matrix. `edges` are directed (src, dst) pairs; the graph is
/// symmetrized first because GCN message passing in the paper's models is
/// undirected.
[[nodiscard]] ag::CsrMatrix dgcnn_adjacency(
    std::size_t n, const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges);

/// Row-normalized adjacency of ONE edge relation, no self-loops (the R-GCN
/// self-transform plays that role). Rows without edges of this relation
/// stay zero. `kinds[i]` tags `edges[i]`.
[[nodiscard]] ag::CsrMatrix relation_adjacency(
    std::size_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    const std::vector<std::uint8_t>& kinds, std::uint8_t relation);

}  // namespace mvgnn::nn
