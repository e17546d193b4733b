// Ablation: sparse CSR + block-diagonal batching vs the seed's dense
// per-sample path.
//
// Two measurements on the generated corpus:
//  1. Layer micro-benchmark: ag::spmm over a block-diagonal CSR adjacency
//     vs ag::matmul over its dense materialization (same [N,N] x [N,d]).
//  2. Training epoch wall-clock: a faithful replica of the seed's dense
//     per-sample DGCNN forward/backward (dense adjacency matmul, one
//     sample at a time, gradient accumulation) vs the batched CSR
//     Dgcnn::forward at B in {1, 8, 32}.
//
// Results go to stdout and, machine-readable, to BENCH_sparse_batch.json
// so the perf trajectory is tracked from this PR onward.
#include <chrono>
#include <cstdio>

#include "bench/common.hpp"
#include "core/dgcnn.hpp"

namespace {

using namespace mvgnn;
using ag::Tensor;

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The seed's Dgcnn forward, reconstructed with dense adjacency matmuls and
/// the same layer shapes as core::Dgcnn with a default core::DgcnnConfig.
/// Weight values don't matter for timing; op structure does.
struct DenseSeedDgcnn {
  static constexpr std::size_t kC1 = core::Dgcnn::kConv1Channels;
  static constexpr std::size_t kC2 = core::Dgcnn::kConv2Channels;
  static constexpr std::size_t kK2 = core::Dgcnn::kConv2Kernel;
  core::DgcnnConfig cfg;
  std::vector<Tensor> gcn_ws;
  Tensor conv1_w, conv1_b, conv2_w, conv2_b;
  std::unique_ptr<nn::Linear> dense, head;
  std::size_t concat_dim = 0, rep_dim = 0;

  DenseSeedDgcnn(const core::DgcnnConfig& c, std::size_t in_dim,
                 par::Rng& rng)
      : cfg(c) {
    std::size_t in = in_dim;
    for (const std::size_t ch : cfg.gcn_channels) {
      gcn_ws.push_back(Tensor::randn({in, ch}, rng, 0.1f));
      concat_dim += ch;
      in = ch;
    }
    conv1_w = Tensor::randn({kC1, concat_dim}, rng, 0.1f);
    conv1_b = Tensor::zeros({1, kC1}, true);
    conv2_w = Tensor::randn({kC2, kC1 * kK2}, rng, 0.1f);
    conv2_b = Tensor::zeros({1, kC2}, true);
    rep_dim = kC2 * (cfg.sort_k / 2 - kK2 + 1);
    dense = std::make_unique<nn::Linear>(rep_dim, core::Dgcnn::kDenseHidden,
                                         rng);
    head = std::make_unique<nn::Linear>(core::Dgcnn::kDenseHidden, 2, rng);
  }

  [[nodiscard]] std::vector<Tensor> parameters() const {
    std::vector<Tensor> ps = gcn_ws;
    ps.insert(ps.end(), {conv1_w, conv1_b, conv2_w, conv2_b});
    for (const auto& p : dense->parameters()) ps.push_back(p);
    for (const auto& p : head->parameters()) ps.push_back(p);
    return ps;
  }

  [[nodiscard]] Tensor forward(const Tensor& ahat, const Tensor& feats,
                               par::Rng& rng) const {
    Tensor x = feats;
    Tensor z;
    for (std::size_t i = 0; i < gcn_ws.size(); ++i) {
      x = ag::tanh_t(ag::matmul(ahat, ag::matmul(x, gcn_ws[i])));
      z = (i == 0) ? x : ag::concat_cols(z, x);
    }
    Tensor sp = ag::sort_pool(z, cfg.sort_k);
    Tensor flat = ag::reshape(sp, {1, cfg.sort_k * concat_dim});
    Tensor c1 = ag::relu(
        ag::conv1d(flat, conv1_w, conv1_b, concat_dim, concat_dim));
    Tensor p1 = ag::maxpool1d(c1, 2);
    Tensor c2 =
        ag::relu(ag::conv1d(p1, conv2_w, conv2_b, kK2, 1));
    Tensor pooled = ag::reshape(c2, {1, rep_dim});
    Tensor h = ag::relu(dense->forward(pooled));
    h = ag::dropout(h, cfg.dropout, /*training=*/true, rng);
    return head->forward(h);
  }
};

}  // namespace

int main() {
  auto programs = data::build_generated_corpus(360, 61);
  data::DatasetOptions opts;
  opts.seed = 37;
  const data::Dataset ds = data::build_dataset(programs, opts);
  std::vector<std::size_t> idx(ds.samples.size());
  std::iota(idx.begin(), idx.end(), 0);
  const core::Normalizer norm = core::Normalizer::fit(ds, idx);
  core::Featurizer feats(ds, norm);

  const core::DgcnnConfig cfg;
  par::Rng rng(11);

  // Dense adjacencies + static-feature handles, materialized up front so
  // neither timed loop pays featurization.
  std::vector<Tensor> dense_ahats;
  dense_ahats.reserve(idx.size());
  for (const std::size_t i : idx) {
    dense_ahats.push_back(feats.get(i).ahat.to_dense());
  }

  // ---- 1. spmm vs dense matmul on one block-diagonal 32-graph batch -----
  std::vector<const ag::CsrMatrix*> blocks;
  std::vector<const core::SampleInput*> chunk32;
  for (std::size_t i = 0; i < 32 && i < idx.size(); ++i) {
    blocks.push_back(&feats.get(i).ahat);
    chunk32.push_back(&feats.get(i));
  }
  const auto big = ag::CsrMatrix::block_diag(blocks);
  const Tensor big_dense = big.to_dense();
  par::Rng xr(12);
  const Tensor x = Tensor::randn({big.rows(), 32}, xr, 1.0f, false);
  const int reps = 200;
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) (void)ag::matmul(big_dense, x);
  const double dense_micro = secs_since(t0) / reps * 1e3;
  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) (void)ag::spmm(big, x);
  const double csr_micro = secs_since(t0) / reps * 1e3;
  std::printf(
      "spmm micro (N=%zu, nnz=%zu, d=32): dense %.3f ms, csr %.3f ms "
      "(%.1fx)\n",
      big.rows(), big.nnz(), dense_micro, csr_micro,
      dense_micro / csr_micro);

  // ---- 2. epoch wall-clock: seed dense per-sample vs batched CSR --------
  // Each epoch is run kReps times (after one warm-up) and the minimum is
  // kept: on a shared single-core box the best-of run is the least noisy
  // estimate of what the code actually costs.
  const std::size_t n_timed = std::min<std::size_t>(idx.size(), 256);
  const int kReps = 3;
  par::Rng seed_rng(13);
  DenseSeedDgcnn seed_model(cfg, core::node_dim(ds), seed_rng);
  ag::Adam seed_opt(1e-3f);
  seed_opt.add_params(seed_model.parameters());
  const auto dense_epoch_once = [&]() {
    const auto e0 = std::chrono::steady_clock::now();
    std::size_t in_batch = 0;
    seed_opt.zero_grad();
    for (std::size_t i = 0; i < n_timed; ++i) {
      Tensor logits =
          seed_model.forward(dense_ahats[i], feats.get(i).node_feats, seed_rng);
      Tensor loss = ag::scale(
          ag::cross_entropy_logits(logits, {feats.get(i).label}), 1.0f / 32.0f);
      loss.backward();
      if (++in_batch == 32) {
        seed_opt.step();
        seed_opt.zero_grad();
        in_batch = 0;
      }
    }
    if (in_batch > 0) seed_opt.step();
    return secs_since(e0);
  };
  (void)dense_epoch_once();  // warm-up
  double dense_epoch = dense_epoch_once();
  for (int r = 1; r < kReps; ++r) {
    dense_epoch = std::min(dense_epoch, dense_epoch_once());
  }
  std::printf(
      "seed dense per-sample epoch (%zu samples, step/32, best of %d): "
      "%.3f s\n",
      n_timed, kReps, dense_epoch);

  par::Rng mrng(14);
  core::Dgcnn model(cfg, core::node_dim(ds), /*num_classes=*/2,
                    /*relational=*/false, mrng);
  ag::Adam opt(1e-3f);
  opt.add_params(model.parameters());
  const auto batched_epoch_once = [&](std::size_t b) {
    const auto e0 = std::chrono::steady_clock::now();
    for (std::size_t start = 0; start < n_timed; start += b) {
      const std::size_t end = std::min(n_timed, start + b);
      std::vector<const core::SampleInput*> chunk;
      std::vector<int> labels;
      for (std::size_t i = start; i < end; ++i) {
        chunk.push_back(&feats.get(i));
        labels.push_back(feats.get(i).label);
      }
      const core::GraphBatch gb = core::make_graph_batch(chunk);
      const auto out = model.forward(gb.ahat, {}, gb.node_feats, gb.offsets,
                                     /*training=*/true, mrng);
      Tensor loss = ag::cross_entropy_logits(out.logits, labels);
      opt.zero_grad();
      loss.backward();
      opt.step();
    }
    return secs_since(e0);
  };
  double csr_epoch_b32 = 0.0;
  std::vector<std::pair<std::size_t, double>> batched;
  for (const std::size_t b : {std::size_t{1}, std::size_t{8}, std::size_t{32}}) {
    (void)batched_epoch_once(b);  // warm-up
    double t = batched_epoch_once(b);
    for (int r = 1; r < kReps; ++r) t = std::min(t, batched_epoch_once(b));
    batched.emplace_back(b, t);
    if (b == 32) csr_epoch_b32 = t;
    std::printf("batched CSR epoch, B=%2zu: %.3f s (%.2fx vs seed dense)\n",
                b, t, dense_epoch / t);
  }

  const double speedup = dense_epoch / csr_epoch_b32;
  std::printf("\nspeedup at B=32: %.2fx (acceptance: >= 2x)\n", speedup);

  obs::BenchReport report("abl_sparse_batch");
  report.config("spmm_n", static_cast<double>(big.rows()));
  report.config("spmm_nnz", static_cast<double>(big.nnz()));
  report.config("epoch_samples", static_cast<double>(n_timed));
  report.metric("spmm_dense_ms", dense_micro, obs::MetricGoal::None, "ms");
  report.metric("spmm_csr_ms", csr_micro, obs::MetricGoal::Lower, "ms");
  report.metric("spmm_speedup", dense_micro / csr_micro,
                obs::MetricGoal::Higher, "x");
  report.metric("dense_persample_s", dense_epoch, obs::MetricGoal::None, "s");
  for (const auto& [b, t] : batched) {
    report.metric("csr_b" + std::to_string(b) + "_s", t,
                  obs::MetricGoal::Lower, "s");
  }
  report.metric("speedup_b32_vs_dense", speedup, obs::MetricGoal::Higher, "x");
  if (report.write("BENCH_sparse_batch.json")) {
    std::printf("wrote BENCH_sparse_batch.json\n");
  }
  return speedup >= 2.0 ? 0 : 1;
}
