#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mvgnn::nn {

namespace {

float glorot_scale(std::size_t in, std::size_t out) {
  return std::sqrt(2.0f / static_cast<float>(in + out));
}

/// Dedups `entries`, then row-normalizes (each kept entry of row i gets
/// value 1/deg(i)) and compresses into CSR.
ag::CsrMatrix normalized_csr(
    std::size_t n,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> entries) {
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  std::vector<std::uint32_t> deg(n, 0);
  for (const auto& [s, d] : entries) ++deg[s];
  std::vector<std::uint32_t> r, c;
  std::vector<float> v;
  r.reserve(entries.size());
  c.reserve(entries.size());
  v.reserve(entries.size());
  for (const auto& [s, d] : entries) {
    r.push_back(s);
    c.push_back(d);
    v.push_back(1.0f / static_cast<float>(deg[s]));
  }
  return ag::CsrMatrix::from_coo(n, n, r, c, v);
}

}  // namespace

Linear::Linear(std::size_t in, std::size_t out, par::Rng& rng)
    : w_(ag::Tensor::randn({in, out}, rng, glorot_scale(in, out))),
      b_(ag::Tensor::zeros({1, out}, /*requires_grad=*/true)) {}

GcnConv::GcnConv(std::size_t in, std::size_t out, par::Rng& rng)
    : w_(ag::Tensor::randn({in, out}, rng, glorot_scale(in, out))) {}

Lstm::Lstm(std::size_t in, std::size_t hidden, par::Rng& rng)
    : hidden_(hidden),
      wx_(ag::Tensor::randn({in, 4 * hidden}, rng, glorot_scale(in, hidden))),
      wh_(ag::Tensor::randn({hidden, 4 * hidden}, rng,
                            glorot_scale(hidden, hidden))),
      b_(ag::Tensor::zeros({1, 4 * hidden}, /*requires_grad=*/true)) {
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  for (std::size_t j = hidden; j < 2 * hidden; ++j) b_.data()[j] = 1.0f;
}

ag::Tensor Lstm::forward(const ag::Tensor& seq) const {
  const std::size_t t_steps = seq.rows();
  const std::size_t h = hidden_;
  ag::Tensor hs = ag::Tensor::zeros({1, h});
  ag::Tensor cs = ag::Tensor::zeros({1, h});
  ag::Tensor out;
  for (std::size_t t = 0; t < t_steps; ++t) {
    const ag::Tensor xt = ag::slice_rows(seq, t, t + 1);
    const ag::Tensor gates =
        ag::add(ag::matmul(xt, wx_), ag::matmul_bias(hs, wh_, b_));
    const ag::Tensor i = ag::sigmoid(ag::slice_cols(gates, 0, h));
    const ag::Tensor f = ag::sigmoid(ag::slice_cols(gates, h, 2 * h));
    const ag::Tensor g = ag::tanh_t(ag::slice_cols(gates, 2 * h, 3 * h));
    const ag::Tensor o = ag::sigmoid(ag::slice_cols(gates, 3 * h, 4 * h));
    cs = ag::add(ag::mul(f, cs), ag::mul(i, g));
    hs = ag::mul(o, ag::tanh_t(cs));
    out = (t == 0) ? hs : ag::concat_rows(out, hs);
  }
  return out;
}

RgcnConv::RgcnConv(std::size_t in, std::size_t out, std::size_t relations,
                   par::Rng& rng)
    : w_self_(ag::Tensor::randn({in, out}, rng, glorot_scale(in, out))) {
  w_rel_.reserve(relations);
  for (std::size_t r = 0; r < relations; ++r) {
    w_rel_.push_back(ag::Tensor::randn({in, out}, rng, glorot_scale(in, out)));
  }
}

ag::Tensor RgcnConv::forward(const std::vector<ag::CsrMatrix>& ahats,
                             const ag::Tensor& x) const {
  if (ahats.size() != w_rel_.size()) {
    throw std::invalid_argument("RgcnConv: one adjacency per relation needed");
  }
  ag::Tensor z = ag::matmul(x, w_self_);
  for (std::size_t r = 0; r < w_rel_.size(); ++r) {
    if (ahats[r].nnz() == 0) continue;  // relation absent from this graph
    z = ag::add(z, ag::spmm(ahats[r], ag::matmul(x, w_rel_[r])));
  }
  return z;
}

std::vector<ag::Tensor> RgcnConv::parameters() const {
  std::vector<ag::Tensor> ps = {w_self_};
  ps.insert(ps.end(), w_rel_.begin(), w_rel_.end());
  return ps;
}

ag::CsrMatrix relation_adjacency(
    std::size_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    const std::vector<std::uint8_t>& kinds, std::uint8_t relation) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (kinds[e] != relation) continue;
    const auto [s, d] = edges[e];
    entries.emplace_back(s, d);
    entries.emplace_back(d, s);
  }
  return normalized_csr(n, std::move(entries));
}

ag::CsrMatrix dgcnn_adjacency(
    std::size_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  entries.reserve(n + 2 * edges.size());
  for (std::uint32_t i = 0; i < n; ++i) entries.emplace_back(i, i);
  for (const auto& [s, d] : edges) {
    entries.emplace_back(s, d);
    entries.emplace_back(d, s);
  }
  return normalized_csr(n, std::move(entries));
}

}  // namespace mvgnn::nn
