#include "tensor/optim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "io/codec.hpp"

namespace mvgnn::ag {

GradAccumulator::GradAccumulator(const std::vector<Tensor>& params) {
  g_.reserve(params.size());
  for (const Tensor& p : params) g_.emplace_back(p.numel(), 0.0f);
}

void GradAccumulator::accumulate(const std::vector<Tensor>& params,
                                 float scale) {
  if (g_.size() != params.size()) {
    throw std::runtime_error("GradAccumulator: " + std::to_string(g_.size()) +
                             " buffers but " + std::to_string(params.size()) +
                             " params");
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    const std::vector<float>& grad = params[k].grad();
    if (grad.size() != g_[k].size()) {
      throw std::runtime_error("GradAccumulator: buffer " + std::to_string(k) +
                               " shape mismatch");
    }
    float* out = g_[k].data();
    for (std::size_t i = 0; i < grad.size(); ++i) out[i] += scale * grad[i];
  }
}

void GradAccumulator::merge(const GradAccumulator& other) {
  if (g_.size() != other.g_.size()) {
    throw std::runtime_error("GradAccumulator::merge: buffer count mismatch");
  }
  for (std::size_t k = 0; k < g_.size(); ++k) {
    if (g_[k].size() != other.g_[k].size()) {
      throw std::runtime_error("GradAccumulator::merge: buffer " +
                               std::to_string(k) + " shape mismatch");
    }
    float* out = g_[k].data();
    const float* in = other.g_[k].data();
    for (std::size_t i = 0; i < g_[k].size(); ++i) out[i] += in[i];
  }
}

void GradAccumulator::store_to(const std::vector<Tensor>& params) const {
  if (g_.size() != params.size()) {
    throw std::runtime_error("GradAccumulator::store_to: buffer count mismatch");
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    // grad() hands back a const ref to the node's buffer; overwrite in
    // place, exactly like clip_gradients does.
    auto& dst = const_cast<std::vector<float>&>(params[k].grad());
    if (dst.size() != g_[k].size()) {
      throw std::runtime_error("GradAccumulator::store_to: buffer " +
                               std::to_string(k) + " shape mismatch");
    }
    std::copy(g_[k].begin(), g_[k].end(), dst.begin());
  }
}

void tree_merge(std::vector<GradAccumulator>& shards) {
  for (std::size_t stride = 1; stride < shards.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < shards.size(); i += 2 * stride) {
      shards[i].merge(shards[i + stride]);
    }
  }
}

void Optimizer::clip_gradients(float max_norm) {
  double sq = 0.0;
  for (Tensor& p : params_) {
    for (const float g : p.grad()) sq += static_cast<double>(g) * g;
  }
  const double norm = std::sqrt(sq);
  if (norm <= max_norm || norm == 0.0) return;
  const float scale = max_norm / static_cast<float>(norm);
  for (Tensor& p : params_) {
    // grad() hands back a const ref to the node's buffer; scale in place.
    auto& g = const_cast<std::vector<float>&>(p.grad());
    for (float& x : g) x *= scale;
  }
}

void Sgd::step() {
  for (Tensor& p : params_) {
    const std::vector<float>& g = p.grad();
    float* x = p.data();
    for (std::size_t i = 0; i < p.numel(); ++i) {
      x[i] -= lr_ * (g[i] + wd_ * x[i]);
    }
  }
}

void Adam::step() {
  if (m_.size() != params_.size()) {
    m_.clear();
    v_.clear();
    for (const Tensor& p : params_) {
      m_.emplace_back(p.numel(), 0.0f);
      v_.emplace_back(p.numel(), 0.0f);
    }
  }
  ++t_;
  const float bc1 = 1.0f - std::pow(b1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(b2_, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Tensor& p = params_[k];
    const std::vector<float>& grad = p.grad();
    float* x = p.data();
    for (std::size_t i = 0; i < p.numel(); ++i) {
      const float g = grad[i] + wd_ * x[i];
      m_[k][i] = b1_ * m_[k][i] + (1.0f - b1_) * g;
      v_[k][i] = b2_ * v_[k][i] + (1.0f - b2_) * g * g;
      const float mhat = m_[k][i] / bc1;
      const float vhat = v_[k][i] / bc2;
      x[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void Adam::save_state(io::ByteWriter& w) const {
  w.i64(t_);
  w.u64(m_.size());
  for (std::size_t k = 0; k < m_.size(); ++k) {
    w.u64(m_[k].size());
    w.f32s(m_[k]);
    w.f32s(v_[k]);
  }
}

void Adam::save_state(std::ostream& os) const {
  io::ByteWriter w(os);
  save_state(w);
  w.flush();
}

void Adam::load_state(io::ByteReader& r) {
  const std::int64_t t = r.i64();
  const std::size_t count_at = r.offset();
  const std::uint64_t count = r.u64();
  if (count == 0) {
    // Checkpoint was taken before the first step(); start fresh.
    t_ = static_cast<long>(t);
    m_.clear();
    v_.clear();
    return;
  }
  if (count != params_.size()) {
    r.fail_at(count_at, "Adam state holds " + std::to_string(count) +
                            " buffers but " + std::to_string(params_.size()) +
                            " params are registered");
  }
  std::vector<std::vector<float>> m(count), v(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t at = r.offset();
    const std::uint64_t n = r.u64();
    if (n != params_[k].numel()) {
      r.fail_at(at, "Adam buffer " + std::to_string(k) + " has " +
                        std::to_string(n) + " elements, param has " +
                        std::to_string(params_[k].numel()));
    }
    m[k].resize(static_cast<std::size_t>(n));
    v[k].resize(static_cast<std::size_t>(n));
    r.f32s(m[k], "Adam moments");
    r.f32s(v[k], "Adam moments");
  }
  t_ = static_cast<long>(t);
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::load_state(std::istream& is) {
  const std::string bytes = io::read_stream(is);
  io::ByteReader r(bytes, "Adam::load_state");
  load_state(r);
}

}  // namespace mvgnn::ag
