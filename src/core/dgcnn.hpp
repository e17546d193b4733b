// DGCNN (Zhang et al. 2018) — the per-view graph network of the paper's
// Fig. 6: stacked graph convolutions with tanh, channel concatenation,
// SortPooling to a fixed k, two 1-D convolution stages with max-pooling,
// and a dense head. The MV-GNN takes the *input of the fully connected
// layer* from each view (section III-D), so forward() exposes both the
// pooled representation and the classification logits.
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace mvgnn::core {

/// Input width, class count and the relational switch come from the model
/// that owns the view (Dgcnn constructor arguments).
struct DgcnnConfig {
  std::vector<std::size_t> gcn_channels = {32, 32, 1};  // last must be 1
                                  // (SortPooling sorts on the final channel)
  std::size_t sort_k = 16;        // SortPooling k (paper: 135, scaled down);
                                  // even, so the 2-wide max-pool windows
                                  // never straddle two graphs of a batch
  float dropout = 0.1f;
};

struct GraphBatch;  // core/mvgnn.hpp

/// One view of MV-GNN; on its own, with `in_dim` = static_dim, the Static
/// GNN baseline (core/trainer.hpp).
class Dgcnn final : public nn::Module {
 public:
  using Config = DgcnnConfig;
  using Prediction = int;  // a single-view model has one head

  static constexpr std::size_t kConv1Channels = 16;  // first 1-D conv
  static constexpr std::size_t kConv2Channels = 32;  // second 1-D conv
  static constexpr std::size_t kConv2Kernel = 5;
  static constexpr std::size_t kDenseHidden = 64;  // dense layer before logits

  /// `relational` (typed-edge extension): relational GCN layers, one weight
  /// bank per PEG edge relation (data::GraphSample::kNumRelations).
  Dgcnn(const DgcnnConfig& cfg, std::size_t in_dim, std::size_t num_classes,
        bool relational, par::Rng& rng);

  struct Output {
    ag::Tensor pooled;  // [B, rep_dim] — input of the FC layer (for MV-GNN)
    ag::Tensor logits;  // [B, num_classes]
    ag::Tensor nodes;   // [N, concat_dim] — per-node embeddings before
                        // SortPooling (the GraphSAGE-style unsupervised
                        // objective trains on these)
  };

  /// Batched forward over a block-diagonal graph batch: `ahat` (or
  /// `rel_ahats` in relational mode) is the block-diagonal [N,N] CSR over
  /// all B graphs, `features` stacks their node rows, and graph b's nodes
  /// live in rows [offsets[b], offsets[b+1]). One pass runs the GCN stack
  /// over all graphs at once; SortPooling and the 1-D conv head pool each
  /// segment independently, so row b of `pooled`/`logits` is element-wise
  /// identical to a B=1 forward of graph b alone (offsets {0, n}).
  [[nodiscard]] Output forward(const ag::CsrMatrix& ahat,
                               const std::vector<ag::CsrMatrix>& rel_ahats,
                               const ag::Tensor& features,
                               const std::vector<std::uint32_t>& offsets,
                               bool training, par::Rng& rng) const;

  /// forward() on the leading `in_dim` columns of the batch's node features
  /// (build_input puts the static columns first).
  [[nodiscard]] Output forward_batch(const GraphBatch& batch, bool training,
                                     par::Rng& rng) const;

  /// Width of `Output::pooled`.
  [[nodiscard]] std::size_t rep_dim() const { return rep_dim_; }

  [[nodiscard]] std::vector<ag::Tensor> parameters() const override;

 private:
  DgcnnConfig cfg_;
  std::size_t in_dim_ = 0;
  std::vector<nn::GcnConv> convs_;
  std::vector<nn::RgcnConv> rconvs_;  // relational mode
  std::size_t concat_dim_ = 0;  // sum of gcn channel widths
  ag::Tensor conv1_w_, conv1_b_;
  ag::Tensor conv2_w_, conv2_b_;
  std::size_t rep_dim_ = 0;
  std::unique_ptr<nn::Linear> dense_;
  std::unique_ptr<nn::Linear> head_;
};

}  // namespace mvgnn::core
