#include "core/mvgnn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvgnn::core {

using ag::Tensor;

GraphBatch make_graph_batch(std::span<const SampleInput* const> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("make_graph_batch: empty sample list");
  }
  obs::ScopedSpan span("core.batch_assembly");
  span.arg("graphs", samples.size());
  static obs::Counter& batches =
      obs::Registry::global().counter("core.graph_batches_total");
  batches.add(1);

  GraphBatch b;
  b.offsets.reserve(samples.size() + 1);
  b.offsets.push_back(0);
  b.labels.reserve(samples.size());
  std::size_t total = 0;
  const std::size_t nf_cols = samples.front()->node_feats.cols();
  const std::size_t aw_cols = samples.front()->aw_dist.cols();
  const std::size_t relations = samples.front()->rel_ahats.size();
  for (const SampleInput* s : samples) {
    if (s->rel_ahats.size() != relations) {
      throw std::invalid_argument(
          "make_graph_batch: samples mix typed and untyped inputs");
    }
    total += s->node_feats.rows();
    b.offsets.push_back(static_cast<std::uint32_t>(total));
    b.labels.push_back(s->label);
  }
  std::vector<float> nf(total * nf_cols);
  std::vector<float> aw(total * aw_cols);
  std::vector<const ag::CsrMatrix*> blocks;
  blocks.reserve(samples.size());
  std::size_t row = 0;
  for (const SampleInput* s : samples) {
    const std::size_t n = s->node_feats.rows();
    std::copy(s->node_feats.data(), s->node_feats.data() + n * nf_cols,
              nf.begin() + static_cast<std::ptrdiff_t>(row * nf_cols));
    std::copy(s->aw_dist.data(), s->aw_dist.data() + n * aw_cols,
              aw.begin() + static_cast<std::ptrdiff_t>(row * aw_cols));
    row += n;
    blocks.push_back(&s->ahat);
  }
  b.node_feats = Tensor::from_data({total, nf_cols}, std::move(nf));
  b.aw_dist = Tensor::from_data({total, aw_cols}, std::move(aw));
  b.ahat = ag::CsrMatrix::block_diag(blocks);
  b.rel_ahats.reserve(relations);
  for (std::size_t r = 0; r < relations; ++r) {
    std::vector<const ag::CsrMatrix*> rel_blocks;
    rel_blocks.reserve(samples.size());
    for (const SampleInput* s : samples) rel_blocks.push_back(&s->rel_ahats[r]);
    b.rel_ahats.push_back(ag::CsrMatrix::block_diag(rel_blocks));
  }
  return b;
}

MvGnn::MvGnn(const MvGnnConfig& cfg, par::Rng& rng) {
  node_view_ = std::make_unique<Dgcnn>(cfg.node_view, cfg.node_dim,
                                       cfg.num_classes, cfg.typed_edges, rng);
  struct_view_ = std::make_unique<Dgcnn>(cfg.struct_view, kAwEmbedDim,
                                         cfg.num_classes,
                                         /*relational=*/false, rng);
  const float scale =
      std::sqrt(2.0f / static_cast<float>(cfg.aw_vocab + kAwEmbedDim));
  aw_embed_ = Tensor::randn({cfg.aw_vocab, kAwEmbedDim}, rng, scale);
  fusion_ = std::make_unique<nn::Linear>(
      node_view_->rep_dim() + struct_view_->rep_dim(), cfg.num_classes, rng);
}

MvGnn::Output MvGnn::forward_batch(const GraphBatch& batch, bool training,
                                   par::Rng& rng) const {
  // Structural-view node features: AW distribution x learned embedding
  // table (the "embedding table lookup" of section III-C).
  const Tensor struct_feats = ag::matmul(batch.aw_dist, aw_embed_);

  // Only a relational (typed-edge) node view reads rel_ahats.
  const Dgcnn::Output on =
      node_view_->forward(batch.ahat, batch.rel_ahats, batch.node_feats,
                          batch.offsets, training, rng);
  const Dgcnn::Output os = struct_view_->forward(
      batch.ahat, {}, struct_feats, batch.offsets, training, rng);

  // Eq. 5: h = W * tanh(h_n (+) h_s) + b, applied row-wise over the batch.
  const Tensor fused = ag::tanh_t(ag::concat_cols(on.pooled, os.pooled));

  Output out;
  out.logits = fusion_->forward(fused);
  out.node_logits = on.logits;
  out.struct_logits = os.logits;
  out.node_embed = on.nodes;
  out.struct_embed = os.nodes;
  return out;
}

MvGnn::Output MvGnn::forward(const SampleInput& in, bool training,
                             par::Rng& rng) const {
  GraphBatch b;
  b.ahat = in.ahat;
  b.node_feats = in.node_feats;
  b.aw_dist = in.aw_dist;
  b.rel_ahats = in.rel_ahats;
  b.offsets = {0, static_cast<std::uint32_t>(in.node_feats.rows())};
  b.labels = {in.label};
  return forward_batch(b, training, rng);
}

namespace {

ViewPrediction row_prediction(const MvGnn::Output& out, std::size_t r) {
  return {argmax_row(out.logits, r), argmax_row(out.node_logits, r),
          argmax_row(out.struct_logits, r)};
}

int row_prediction(const Dgcnn::Output& out, std::size_t r) {
  return argmax_row(out.logits, r);
}

}  // namespace

template <class Model>
std::vector<typename Model::Prediction> predict(
    const Model& model, std::span<const SampleInput* const> inputs,
    std::size_t max_batch) {
  const std::size_t cap = max_batch == 0 ? inputs.size() : max_batch;
  // Eval mode draws nothing from the Rng (dropout is off).
  par::Rng rng(0);
  std::vector<typename Model::Prediction> preds;
  preds.reserve(inputs.size());
  for (std::size_t base = 0; base < inputs.size(); base += cap) {
    const std::size_t n = std::min(cap, inputs.size() - base);
    const GraphBatch gb = make_graph_batch(inputs.subspan(base, n));
    const auto out = model.forward_batch(gb, /*training=*/false, rng);
    for (std::size_t r = 0; r < n; ++r) {
      preds.push_back(row_prediction(out, r));
    }
  }
  return preds;
}

template std::vector<ViewPrediction> predict(
    const MvGnn&, std::span<const SampleInput* const>, std::size_t);
template std::vector<int> predict(const Dgcnn&,
                                  std::span<const SampleInput* const>,
                                  std::size_t);

std::vector<ag::Tensor> MvGnn::parameters() const {
  std::vector<ag::Tensor> ps = node_view_->parameters();
  const auto sp = struct_view_->parameters();
  ps.insert(ps.end(), sp.begin(), sp.end());
  ps.push_back(aw_embed_);
  const auto fp = fusion_->parameters();
  ps.insert(ps.end(), fp.begin(), fp.end());
  return ps;
}

}  // namespace mvgnn::core
