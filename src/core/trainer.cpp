#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "fault/fault.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/task_group.hpp"
#include "tensor/optim.hpp"

namespace mvgnn::core {

using ag::Tensor;

namespace {

struct TrainerMetrics {
  obs::Counter& epochs =
      obs::Registry::global().counter("trainer.epochs_total");
  obs::Counter& samples =
      obs::Registry::global().counter("trainer.samples_total");
  obs::Counter& batches =
      obs::Registry::global().counter("trainer.batches_total");
  obs::Counter& shards =
      obs::Registry::global().counter("trainer.shards_total");
  obs::Gauge& loss = obs::Registry::global().gauge("trainer.epoch_loss");
  obs::Gauge& train_acc =
      obs::Registry::global().gauge("trainer.epoch_train_acc");
  obs::Gauge& test_acc =
      obs::Registry::global().gauge("trainer.epoch_test_acc");

  static TrainerMetrics& get() {
    static TrainerMetrics m;
    return m;
  }
};

/// Matches the historical `std::printf` epoch line byte for byte, so
/// fig7_training (and anything else scraping the curve) keeps parsing.
void log_epoch(std::size_t epoch, const EpochStat& st) {
  obs::log_info("", {{"epoch", obs::logfmt("%3zu", epoch)},
                     {"loss", obs::logfmt("%.4f", st.loss)},
                     {"train_acc", obs::logfmt("%.4f", st.train_acc)},
                     {"test_acc", obs::logfmt("%.4f", st.test_acc)}});
}

/// Batched evaluation block size: big enough to amortize the forward, small
/// enough that the block-diagonal batch stays cache-resident.
constexpr std::size_t kEvalBatch = 32;

/// Rows (samples) per data-parallel shard. The shard layout is part of the
/// numerical recipe — it depends only on the mini-batch, never on the
/// thread count, which is what makes `--threads N` runs bit-identical for
/// every N. Changing this constant changes results the same way changing
/// batch_size does.
constexpr std::size_t kDpShardRows = 4;

/// Step schedule shared by every trainer: drop the rate at 60% and 85% of
/// the budget so late epochs settle instead of oscillating.
float scheduled_lr(float base, std::size_t epoch, std::size_t epochs) {
  if (epoch >= epochs * 6 / 10) base *= 0.3f;
  if (epoch >= epochs * 85 / 100) base *= 0.3f;
  return base;
}

// ---- the per-model pieces of the one trainer ----

std::unique_ptr<MvGnn> make_model(const Featurizer& /*feats*/,
                                  const MvGnnConfig& cfg, std::uint64_t seed) {
  par::Rng init_rng(seed ^ 0x11117777ULL);
  return std::make_unique<MvGnn>(cfg, init_rng);
}

/// The Static GNN reads the static columns only (Dgcnn::forward_batch).
std::unique_ptr<Dgcnn> make_model(const Featurizer& feats,
                                  const DgcnnConfig& cfg, std::uint64_t seed) {
  par::Rng init_rng(seed ^ 0x22225555ULL);
  return std::make_unique<Dgcnn>(cfg, feats.dataset().static_dim,
                                 num_classes(feats.label_mode()),
                                 /*relational=*/false, init_rng);
}

/// MV-GNN's shard loss: the fused head plus `aux_weight` times both view
/// heads.
Tensor training_loss(const MvGnn::Output& out, const std::vector<int>& labels,
                     float aux_weight) {
  Tensor loss = ag::cross_entropy_logits(out.logits, labels);
  if (aux_weight > 0.0f) {
    loss = ag::add(
        loss,
        ag::scale(ag::add(ag::cross_entropy_logits(out.node_logits, labels),
                          ag::cross_entropy_logits(out.struct_logits, labels)),
                  aux_weight));
  }
  return loss;
}

/// The Static GNN's: its one head.
Tensor training_loss(const Dgcnn::Output& out, const std::vector<int>& labels,
                     float /*aux_weight*/) {
  return ag::cross_entropy_logits(out.logits, labels);
}

int predicted_class(const ViewPrediction& p) { return p.fused; }
int predicted_class(int c) { return c; }

}  // namespace

Normalizer Normalizer::fit(const data::Dataset& ds,
                           const std::vector<std::size_t>& train_idx) {
  Normalizer n;
  std::array<double, 7> sum{}, sq{};
  std::size_t count = 0;
  for (const std::size_t i : train_idx) {
    for (const auto& row : ds.samples[i].node_dynamic) {
      for (int k = 0; k < 7; ++k) {
        sum[k] += row[k];
        sq[k] += row[k] * row[k];
      }
      ++count;
    }
  }
  if (count == 0) count = 1;
  for (int k = 0; k < 7; ++k) {
    n.mean[k] = sum[k] / static_cast<double>(count);
    const double var =
        sq[k] / static_cast<double>(count) - n.mean[k] * n.mean[k];
    n.stdev[k] = std::sqrt(std::max(var, 1e-8));
  }
  return n;
}

std::array<float, 7> Normalizer::apply(const std::array<double, 7>& v) const {
  std::array<float, 7> out{};
  for (int k = 0; k < 7; ++k) {
    out[k] = static_cast<float>((v[k] - mean[k]) / stdev[k]);
  }
  return out;
}

SampleInput build_input(const data::GraphSample& s,
                        const data::Dataset& reference,
                        const Normalizer& norm, LabelMode mode,
                        bool zero_dynamic, bool typed_edges) {
  SampleInput in;
  in.ahat = nn::dgcnn_adjacency(s.n, s.edges);
  in.label = mode == LabelMode::Pattern ? s.pattern_label : s.label;

  const std::size_t nd = node_dim(reference);
  std::vector<float> feats(s.n * nd, 0.0f);
  for (std::uint32_t k = 0; k < s.n; ++k) {
    float* row = feats.data() + k * nd;
    std::copy(s.node_static[k].begin(), s.node_static[k].end(), row);
    if (!zero_dynamic) {
      const auto dyn = norm.apply(s.node_dynamic[k]);
      std::copy(dyn.begin(), dyn.end(), row + reference.static_dim);
    }
  }
  in.node_feats = Tensor::from_data({s.n, nd}, std::move(feats));

  std::vector<float> aw(s.n * reference.aw_vocab, 0.0f);
  for (std::uint32_t k = 0; k < s.n; ++k) {
    std::copy(s.aw_dist[k].begin(), s.aw_dist[k].end(),
              aw.data() + k * reference.aw_vocab);
  }
  in.aw_dist = Tensor::from_data({s.n, reference.aw_vocab}, std::move(aw));
  if (typed_edges) {
    for (std::uint8_t r = 0; r < data::GraphSample::kNumRelations; ++r) {
      in.rel_ahats.push_back(
          nn::relation_adjacency(s.n, s.edges, s.edge_kinds, r));
    }
  }
  return in;
}

Featurizer::Featurizer(const data::Dataset& ds, const Normalizer& norm,
                       LabelMode mode, bool zero_dynamic, bool typed_edges)
    : ds_(&ds), mode_(mode), typed_edges_(typed_edges),
      inputs_(ds.samples.size()) {
  OBS_SPAN("trainer.featurize");
  // Each index writes its own slot; grain 1 because one sample is already
  // substantial work (adjacency build + feature copy).
  par::parallel_for(
      0, inputs_.size(),
      [&](std::size_t i) {
        inputs_[i] = build_input(ds.samples[i], ds, norm, mode,
                                 zero_dynamic, typed_edges);
      },
      par::ThreadPool::global(), /*grain=*/1);
}

MvGnnConfig default_config(const data::Dataset& ds, LabelMode mode) {
  MvGnnConfig cfg;
  cfg.num_classes = num_classes(mode);
  cfg.node_dim = node_dim(ds);
  cfg.node_view.gcn_channels = {32, 32, 1};
  cfg.node_view.sort_k = 16;
  cfg.struct_view.gcn_channels = {24, 24, 1};
  cfg.struct_view.sort_k = 16;
  cfg.aw_vocab = ds.aw_vocab;
  return cfg;
}

MvGnnConfig default_config(const Featurizer& feats) {
  MvGnnConfig cfg = default_config(feats.dataset(), feats.label_mode());
  cfg.typed_edges = feats.typed_edges();
  return cfg;
}

// ---------------------------------------------------------------------------
// Trainer
// ---------------------------------------------------------------------------

template <class Model>
Trainer<Model>::Trainer(const Featurizer& feats,
                        const typename Model::Config& cfg,
                        const TrainConfig& tc)
    : feats_(&feats), tc_(tc), model_(make_model(feats, cfg, tc.seed)),
      rng_(tc.seed) {}

template <class Model>
std::vector<EpochStat> Trainer<Model>::fit(
    const std::vector<std::size_t>& train_idx,
    const std::vector<std::size_t>& test_idx) {
  ag::Adam opt(tc_.lr, 0.9f, 0.999f, 1e-8f, tc_.weight_decay);
  opt.add_params(model_->parameters());
  // One gradient accumulator per shard, grown by the first full batch and
  // reused by every step of the fit.
  std::vector<ag::GradAccumulator> shard_grads;

  std::vector<std::size_t> order = train_idx;
  std::vector<EpochStat> curve;
  interrupted_ = false;
  std::size_t start_epoch = 0;
  std::uint64_t global_step = 0;
  if (!tc_.resume_from.empty()) {
    CheckpointMeta meta = load_checkpoint(tc_.resume_from, *model_, opt);
    // load_checkpoint already parse-checked the field; failing here means
    // the in-memory string was clobbered between load and restore.
    if (!rng_.restore(meta.rng_state)) {
      throw std::runtime_error("checkpoint: malformed RNG state in " +
                               tc_.resume_from);
    }
    start_epoch = static_cast<std::size_t>(meta.epoch);
    global_step = meta.step;
    curve = std::move(meta.curve);
    obs::log_info("resumed from checkpoint",
                  {{"path", tc_.resume_from},
                   {"epoch", std::to_string(start_epoch)},
                   {"step", std::to_string(global_step)}});
  }
  const bool ckpt_on = !tc_.checkpoint_dir.empty();
  // Encoded at each epoch start: the last consistent state. An interrupt
  // mid-epoch persists this snapshot, so resume replays the interrupted
  // epoch from its start and the trajectory stays bit-identical. Only paid
  // for when an interrupt is actually possible (a stop flag is registered).
  const bool snapshot_on = ckpt_on && tc_.stop_requested != nullptr;
  std::string epoch_snapshot;
  std::uint64_t snapshot_epoch = 0;

  OBS_SPAN("trainer.fit");
  for (std::size_t epoch = start_epoch; epoch < tc_.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("trainer.epoch");
    epoch_span.arg("epoch", epoch);
    if (snapshot_on) {
      epoch_snapshot = encode_checkpoint(
          {epoch, global_step, rng_.state(), curve}, *model_, opt);
      snapshot_epoch = epoch;
    }
    opt.set_lr(scheduled_lr(tc_.lr, epoch, tc_.epochs));
    // History-free shuffle: each epoch permutes the pristine index list, so
    // the visit order is a function of (train_idx, rng state) alone and a
    // resumed epoch replays the uninterrupted one exactly.
    order = train_idx;
    std::shuffle(order.begin(), order.end(), rng_.engine());
    double loss_sum = 0.0;
    std::size_t correct = 0;
    const std::size_t batch = std::max<std::size_t>(1, tc_.batch_size);
    for (std::size_t start = 0; start < order.size(); start += batch) {
      if (tc_.stop_requested &&
          tc_.stop_requested->load(std::memory_order_relaxed)) {
        interrupted_ = true;
        break;
      }
      fault::check("trainer.step");
      const std::size_t end = std::min(order.size(), start + batch);
      // Decoupled-inputs mode draws one coin per sample to pick its
      // featurizer.
      std::vector<const SampleInput*> chunk;
      chunk.reserve(end - start);
      for (std::size_t j = start; j < end; ++j) {
        const bool alt =
            alt_feats_ && rng_.uniform() < static_cast<double>(alt_prob_);
        chunk.push_back(alt ? &alt_feats_->get(order[j])
                            : &feats_->get(order[j]));
      }
      // Deterministic data-parallel step (docs/parallelism.md). One u64
      // draw seeds every shard's dropout stream: the trainer Rng advances
      // by exactly one engine call per step no matter how many shards or
      // threads ran, so checkpoints and thread-count changes cannot fork
      // the state the next epoch's shuffle sees.
      const std::uint64_t step_seed = rng_.engine()();
      const auto [chunk_loss, chunk_correct] =
          data_parallel_step(chunk, opt, shard_grads, step_seed);
      loss_sum += chunk_loss;
      correct += chunk_correct;
      ++global_step;
      TrainerMetrics::get().batches.add(1);
    }
    if (interrupted_) break;
    EpochStat st;
    st.loss = loss_sum / std::max<std::size_t>(1, order.size());
    st.train_acc =
        static_cast<double>(correct) / std::max<std::size_t>(1, order.size());
    st.test_acc = test_idx.empty() ? 0.0 : accuracy(test_idx);
    TrainerMetrics& metrics = TrainerMetrics::get();
    metrics.epochs.add(1);
    metrics.samples.add(order.size());
    metrics.loss.set(st.loss);
    metrics.train_acc.set(st.train_acc);
    metrics.test_acc.set(st.test_acc);
    if (tc_.verbose) log_epoch(epoch, st);
    curve.push_back(st);
    if (ckpt_on && tc_.checkpoint_every != 0 &&
        (epoch + 1) % tc_.checkpoint_every == 0) {
      save_checkpoint(checkpoint_path(tc_.checkpoint_dir, epoch + 1),
                      {epoch + 1, global_step, rng_.state(), curve}, *model_,
                      opt);
    }
  }
  if (interrupted_ && ckpt_on) {
    // The discarded partial epoch is replayed on resume; the snapshot is
    // exactly the state its first batch saw.
    write_checkpoint_file(checkpoint_path(tc_.checkpoint_dir, snapshot_epoch),
                          epoch_snapshot);
    obs::log_info("interrupt checkpoint written",
                  {{"epoch", std::to_string(snapshot_epoch)}});
  }
  return curve;
}

template <class Model>
std::pair<double, std::size_t> Trainer<Model>::data_parallel_step(
    const std::vector<const SampleInput*>& chunk, ag::Adam& opt,
    std::vector<ag::GradAccumulator>& shard_grads, std::uint64_t step_seed) {
  obs::ScopedSpan step_span("trainer.dp_step");
  const std::size_t rows = chunk.size();
  const std::size_t nshards = (rows + kDpShardRows - 1) / kDpShardRows;
  // Width is how many shards run concurrently; the shard layout and the
  // reduction order below never depend on it.
  const std::size_t width = std::max<std::size_t>(
      1, std::min({tc_.threads, nshards,
                   par::ThreadPool::global().size() + 1}));
  while (shard_grads.size() < nshards) {
    shard_grads.push_back(opt.make_accumulator());
  }
  std::vector<double> shard_loss(nshards, 0.0);
  std::vector<std::size_t> shard_correct(nshards, 0);

  // Every worker runs forward and backward on the master model: forward
  // only reads the weights, and backward sends the parameters' gradients to
  // the shard's own accumulator (the sink), never to the shared
  // Node::grad. Worker r takes the shard slice {r, r+width, ...}; shards
  // write disjoint accumulators and stat slots, and the waiting thread
  // below may execute any worker task itself (help-while-wait) without
  // changing a single float.
  {
    obs::ScopedSpan shards_span("trainer.dp_shards");
    shards_span.arg("rows", rows).arg("shards", nshards);
    par::TaskGroup group(par::ThreadPool::global());
    for (std::size_t r = 0; r < width; ++r) {
      group.run([&, r] {
        OBS_SPAN("trainer.dp_worker");
        for (std::size_t s = r; s < nshards; s += width) {
          const std::size_t b0 = s * kDpShardRows;
          const std::size_t b1 = std::min(rows, b0 + kDpShardRows);
          const std::vector<const SampleInput*> sub(chunk.begin() + b0,
                                                    chunk.begin() + b1);
          const GraphBatch gb = make_graph_batch(sub);
          // Shard-indexed dropout stream: a function of (step_seed, s) only.
          par::Rng shard_rng = par::Rng(step_seed).split(s);
          const auto out = model_->forward_batch(gb, /*training=*/true,
                                                 shard_rng);
          Tensor loss = training_loss(out, gb.labels, tc_.aux_weight);
          ag::GradAccumulator& grads = shard_grads[s];
          grads.zero();
          {
            const ag::ScopedGradSink sink(grads);
            loss.backward();
          }
          // Each shard's loss means over its own rows; weighting by
          // rows_s / rows makes the fixed-tree sum reproduce the
          // whole-batch mean gradient.
          grads.scale(static_cast<float>(b1 - b0) /
                      static_cast<float>(rows));
          shard_loss[s] = loss.item() * static_cast<double>(gb.size());
          for (std::size_t b = 0; b < gb.size(); ++b) {
            shard_correct[s] += (argmax_row(out.logits, b) == gb.labels[b]);
          }
        }
      });
    }
    group.wait();
  }

  // Fixed-order tree reduction over shard indices and the Adam update, as
  // one pass over fixed element ranges: bit-identical for any width.
  {
    OBS_SPAN("trainer.dp_update");
    opt.step_merged(std::span(shard_grads).first(nshards), width);
  }
  TrainerMetrics::get().shards.add(nshards);

  double loss_sum = 0.0;
  std::size_t correct = 0;
  for (std::size_t s = 0; s < nshards; ++s) {
    loss_sum += shard_loss[s];
    correct += shard_correct[s];
  }
  return {loss_sum, correct};
}

template <class Model>
void Trainer<Model>::pretrain_unsupervised(const std::vector<std::size_t>& idx,
                                           std::size_t epochs,
                                           std::size_t negatives)
  requires std::same_as<Model, MvGnn> {
  // Gentle rate: the unsupervised phase should shape the GCN embeddings,
  // not push the whole network far from its init before fine-tuning.
  ag::Adam opt(tc_.lr * 0.2f);
  opt.add_params(model_->parameters());
  std::vector<std::size_t> order = idx;

  // -log(sigmoid(sign * z_u . z_v)) averaged over the pair batch.
  auto pair_loss = [](const Tensor& z, const std::vector<std::uint32_t>& us,
                      const std::vector<std::uint32_t>& vs, float sign) {
    const Tensor u = ag::gather_rows(z, us);
    const Tensor v = ag::gather_rows(z, vs);
    const Tensor ones = Tensor::full({z.cols(), 1}, 1.0f);
    const Tensor dots = ag::matmul(ag::mul(u, v), ones);  // [m, 1]
    return ag::scale(
        ag::mean(ag::log_t(ag::sigmoid(ag::scale(dots, sign)))), -1.0f);
  };

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng_.engine());
    for (const std::size_t i : order) {
      const data::GraphSample& s = feats_->dataset().samples[i];
      if (s.edges.empty() || s.n < 2) continue;
      std::vector<std::uint32_t> us, vs, nus, nvs;
      for (std::size_t e = 0; e < s.edges.size() && us.size() < 32; ++e) {
        us.push_back(s.edges[e].first);
        vs.push_back(s.edges[e].second);
      }
      for (std::size_t k = 0; k < negatives * us.size(); ++k) {
        nus.push_back(static_cast<std::uint32_t>(rng_.uniform_u64(s.n)));
        nvs.push_back(static_cast<std::uint32_t>(rng_.uniform_u64(s.n)));
      }
      const SampleInput& in = feats_->get(i);
      const auto out = model_->forward(in, /*training=*/true, rng_);
      Tensor loss =
          ag::add(ag::add(pair_loss(out.node_embed, us, vs, 1.0f),
                          pair_loss(out.node_embed, nus, nvs, -1.0f)),
                  ag::add(pair_loss(out.struct_embed, us, vs, 1.0f),
                          pair_loss(out.struct_embed, nus, nvs, -1.0f)));
      opt.zero_grad();
      loss.backward();
      opt.clip_gradients(2.0f);
      opt.step();
    }
  }
}

template <class Model>
double Trainer<Model>::accuracy_with(
    const Featurizer& feats, const std::vector<std::size_t>& idx) const {
  if (idx.empty()) return 0.0;
  std::vector<const SampleInput*> inputs;
  inputs.reserve(idx.size());
  for (const std::size_t i : idx) inputs.push_back(&feats.get(i));
  const auto preds = core::predict(*model_, inputs, kEvalBatch);
  std::size_t correct = 0;
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    correct += (predicted_class(preds[j]) == inputs[j]->label);
  }
  return static_cast<double>(correct) / static_cast<double>(idx.size());
}

template <class Model>
typename Model::Prediction Trainer<Model>::predict(std::size_t i) const {
  const SampleInput* in = &feats_->get(i);
  return core::predict(*model_, {&in, 1}, 1).front();
}

template <class Model>
double Trainer<Model>::accuracy(const std::vector<std::size_t>& idx) const {
  return accuracy_with(*feats_, idx);
}

template class Trainer<MvGnn>;
template class Trainer<Dgcnn>;

}  // namespace mvgnn::core
