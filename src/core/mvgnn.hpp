// MV-GNN — the paper's primary contribution (section III, Fig. 3).
//
// Two independent DGCNNs examine each loop sub-PEG from two views:
//  * node-feature view: inst2vec static embeddings concatenated with the
//    Table I dynamic features per node;
//  * structural view: per-node anonymous-walk distributions pushed through
//    a learned AW embedding table (eq. 3/4).
// The fusion layer (eq. 5) is h = W · tanh(h_n ⊕ h_s) + b over the two
// pooled representations, followed by the softmax classifier. The per-view
// heads stay attached so the Fig. 8 view-importance probes can read
// single-view predictions off the jointly trained model.
#pragma once

#include <span>

#include "core/dgcnn.hpp"

namespace mvgnn::core {

struct MvGnnConfig {
  DgcnnConfig node_view;
  DgcnnConfig struct_view;
  /// Typed-edge extension: run the node view relationally over the PEG's
  /// {hierarchy, RAW, WAR, WAW} relations (struct view stays untyped).
  /// default_config(const Featurizer&) sets it for typed-edge inputs.
  bool typed_edges = false;
  std::size_t node_dim = 0;     // node-feature input width (set from dataset)
  std::size_t aw_vocab = 0;     // structural input width (set from dataset)
  std::size_t num_classes = 2;  // fused head and both view heads
};

/// Model input for one loop sample. `ahat` is shared by both views.
struct SampleInput {
  ag::CsrMatrix ahat;     // [n, n]
  ag::Tensor node_feats;  // [n, node_dim]
  ag::Tensor aw_dist;     // [n, aw_vocab]
  /// Per-relation adjacencies (built only when the featurizer's typed-edge
  /// mode is on).
  std::vector<ag::CsrMatrix> rel_ahats;
  int label = 0;
};

/// B loop samples fused into one block-diagonal problem: adjacencies are
/// concatenated block-diagonally, node rows are stacked, and graph b's
/// nodes occupy rows [offsets[b], offsets[b+1]). One batched forward then
/// replaces B per-sample forwards — same math, one optimizer step.
struct GraphBatch {
  ag::CsrMatrix ahat;       // [N, N] block-diagonal
  ag::Tensor node_feats;    // [N, node_dim]
  ag::Tensor aw_dist;       // [N, aw_vocab]
  std::vector<ag::CsrMatrix> rel_ahats;  // per relation, block-diagonal
  std::vector<std::uint32_t> offsets;    // size B+1, offsets[0] == 0
  std::vector<int> labels;               // size B
  [[nodiscard]] std::size_t size() const { return labels.size(); }
};

/// Assembles a batch from featurized samples (pointers stay borrowed).
/// Throws std::invalid_argument if typed and untyped inputs are mixed.
[[nodiscard]] GraphBatch make_graph_batch(
    std::span<const SampleInput* const> samples);

/// The predicted class of one sample from each head of the model.
struct ViewPrediction {
  int fused = 0;
  int node_view = 0;
  int struct_view = 0;
};

class MvGnn final : public nn::Module {
 public:
  using Config = MvGnnConfig;
  using Prediction = ViewPrediction;

  static constexpr std::size_t kAwEmbedDim = 16;  // AW embedding table width

  MvGnn(const MvGnnConfig& cfg, par::Rng& rng);

  struct Output {
    ag::Tensor logits;         // fused prediction [B, classes]
    ag::Tensor node_logits;    // node-feature view head [B, classes]
    ag::Tensor struct_logits;  // structural view head [B, classes]
    ag::Tensor node_embed;     // node-view per-node embeddings [N, c]
    ag::Tensor struct_embed;   // structural-view per-node embeddings [N, c]
  };

  /// Batched forward over a block-diagonal GraphBatch; row b of every
  /// logits tensor corresponds to the batch's b-th graph.
  [[nodiscard]] Output forward_batch(const GraphBatch& batch, bool training,
                                     par::Rng& rng) const;

  /// Single-sample (B=1) wrapper over the batched path.
  [[nodiscard]] Output forward(const SampleInput& in, bool training,
                               par::Rng& rng) const;

  [[nodiscard]] std::vector<ag::Tensor> parameters() const override;

 private:
  std::unique_ptr<Dgcnn> node_view_;
  std::unique_ptr<Dgcnn> struct_view_;
  ag::Tensor aw_embed_;  // [aw_vocab, kAwEmbedDim]
  std::unique_ptr<nn::Linear> fusion_;
};

/// Column of the largest entry in row `row` of a logits tensor (the first
/// on ties): the predicted class of that batch row.
[[nodiscard]] inline int argmax_row(const ag::Tensor& logits,
                                    std::size_t row = 0) {
  int best = 0;
  for (std::size_t c = 1; c < logits.cols(); ++c) {
    if (logits.at(row, c) > logits.at(row, static_cast<std::size_t>(best))) {
      best = static_cast<int>(c);
    }
  }
  return best;
}

/// The one inference path, for MvGnn and the single-view Dgcnn: eval-mode
/// forward_batch over `inputs` in chunks of at most `max_batch` samples
/// (0 = one chunk), then the argmax of each head's row. Element i of the
/// result belongs to inputs[i]; the chunking never changes a verdict.
template <class Model>
[[nodiscard]] std::vector<typename Model::Prediction> predict(
    const Model& model, std::span<const SampleInput* const> inputs,
    std::size_t max_batch);

}  // namespace mvgnn::core
