#include "tensor/optim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/codec.hpp"
#include "parallel/task_group.hpp"
#include "parallel/thread_pool.hpp"

namespace mvgnn::ag {

namespace {

thread_local GradAccumulator* t_grad_sink = nullptr;

/// Calls body(i) for every i in [lo, hi): whole blocks of kLanes first,
/// whose fixed trip count GCC vectorizes at -O2 (its cost model there
/// refuses a loop of unknown length), then the scalar tail. Every element
/// gets the same arithmetic either way.
template <typename Body>
inline void for_lanes(std::size_t lo, std::size_t hi, Body&& body) {
  constexpr std::size_t kLanes = 16;
  std::size_t i = lo;
  for (; i + kLanes <= hi; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) body(i + j);
  }
  for (; i < hi; ++i) body(i);
}

// The two kernels take their buffers as __restrict parameters and stay out
// of line: GCC vectorizes them only while it still knows the buffers do not
// alias, and inlined into their callers' loops it no longer does.

[[gnu::noinline]] void add_into(float* __restrict a,
                                const float* __restrict b, std::size_t lo,
                                std::size_t hi) {
  for_lanes(lo, hi, [&](std::size_t i) { a[i] += b[i]; });
}

/// Adds bufs[j + stride] into bufs[j] over elements [lo, hi), stride
/// doubling: the one pairing order tree_merge and step_merged share.
void tree_sum(float* const* bufs, std::size_t n, std::size_t lo,
              std::size_t hi) {
  for (std::size_t stride = 1; stride < n; stride *= 2) {
    for (std::size_t j = 0; j + stride < n; j += 2 * stride) {
      add_into(bufs[j], bufs[j + stride], lo, hi);
    }
  }
}

struct AdamCoeffs {
  float lr, b1, b2, eps, wd, bc1, bc2;
};

[[gnu::noinline]] void adam_update(float* __restrict x, float* __restrict m,
                                   float* __restrict v,
                                   const float* __restrict grad,
                                   std::size_t lo, std::size_t hi,
                                   const AdamCoeffs c) {
  for_lanes(lo, hi, [&](std::size_t i) {
    const float g = grad[i] + c.wd * x[i];
    m[i] = c.b1 * m[i] + (1.0f - c.b1) * g;
    v[i] = c.b2 * v[i] + (1.0f - c.b2) * g * g;
    const float mhat = m[i] / c.bc1;
    const float vhat = v[i] / c.bc2;
    x[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  });
}

/// Throws unless `g` holds one buffer of each of `sizes`.
void check_shape(const std::vector<std::vector<float>>& g,
                 const std::vector<std::size_t>& sizes, const char* who) {
  if (g.size() != sizes.size()) {
    throw std::runtime_error(std::string(who) + ": " +
                             std::to_string(g.size()) + " buffers but " +
                             std::to_string(sizes.size()) + " params");
  }
  for (std::size_t k = 0; k < g.size(); ++k) {
    if (g[k].size() != sizes[k]) {
      throw std::runtime_error(std::string(who) + ": buffer " +
                               std::to_string(k) + " shape mismatch");
    }
  }
}

}  // namespace

GradAccumulator::GradAccumulator(const std::vector<Tensor>& params) {
  g_.reserve(params.size());
  index_.reserve(params.size());
  for (std::size_t k = 0; k < params.size(); ++k) {
    g_.emplace_back(params[k].numel(), 0.0f);
    index_.emplace_back(params[k].node().get(), k);
  }
  std::sort(index_.begin(), index_.end(), [](const auto& a, const auto& b) {
    return std::less<const detail::Node*>()(a.first, b.first);
  });
}

float* GradAccumulator::buffer_for(const detail::Node* leaf) {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), leaf,
      [](const auto& e, const detail::Node* n) {
        return std::less<const detail::Node*>()(e.first, n);
      });
  if (it == index_.end() || it->first != leaf) return nullptr;
  return g_[it->second].data();
}

void GradAccumulator::zero() {
  for (std::vector<float>& buf : g_) std::fill(buf.begin(), buf.end(), 0.0f);
}

void GradAccumulator::scale(float s) {
  for (std::vector<float>& buf : g_) {
    // 0.0f + s * x rather than s * x: the value accumulating the shard into
    // a zeroed buffer gives, which turns a -0 product into +0. Adam's
    // moments keep a zero's sign, and so do the checkpoint's bytes.
    float* __restrict x = buf.data();
    for_lanes(0, buf.size(), [&](std::size_t i) { x[i] = 0.0f + s * x[i]; });
  }
}

void tree_merge(std::span<GradAccumulator> shards) {
  if (shards.empty()) return;
  std::vector<std::size_t> sizes;
  for (const std::vector<float>& buf : shards[0].g_) {
    sizes.push_back(buf.size());
  }
  for (const GradAccumulator& s : shards) {
    check_shape(s.g_, sizes, "tree_merge");
  }
  std::vector<float*> bufs(shards.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      bufs[s] = shards[s].g_[k].data();
    }
    tree_sum(bufs.data(), bufs.size(), 0, sizes[k]);
  }
}

ScopedGradSink::ScopedGradSink(GradAccumulator& sink) noexcept
    : prev_(std::exchange(t_grad_sink, &sink)) {}

ScopedGradSink::~ScopedGradSink() { t_grad_sink = prev_; }

GradAccumulator* current_grad_sink() noexcept { return t_grad_sink; }

void Adam::clip_gradients(float max_norm) {
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

std::pair<float, float> Adam::begin_step() {
  if (m_.size() != params_.size()) {
    m_.clear();
    v_.clear();
    for (const Tensor& p : params_) {
      m_.emplace_back(p.numel(), 0.0f);
      v_.emplace_back(p.numel(), 0.0f);
    }
  }
  ++t_;
  return {1.0f - std::pow(b1_, static_cast<float>(t_)),
          1.0f - std::pow(b2_, static_cast<float>(t_))};
}

void Adam::step() {
  const auto [bc1, bc2] = begin_step();
  const AdamCoeffs c{lr_, b1_, b2_, eps_, wd_, bc1, bc2};
  for (std::size_t k = 0; k < params_.size(); ++k) {
    adam_update(params_[k].data(), m_[k].data(), v_[k].data(),
                params_[k].grad().data(), 0, params_[k].numel(), c);
  }
}

void Adam::step_merged(std::span<GradAccumulator> shards, std::size_t width) {
  if (shards.empty()) throw std::runtime_error("Adam::step_merged: no shards");
  std::vector<std::size_t> sizes;
  for (const Tensor& p : params_) sizes.push_back(p.numel());
  for (const GradAccumulator& s : shards) {
    check_shape(s.g_, sizes, "Adam::step_merged");
  }
  const auto [bc1, bc2] = begin_step();
  const AdamCoeffs c{lr_, b1_, b2_, eps_, wd_, bc1, bc2};
  struct Range {
    std::size_t k, lo, hi;
  };
  std::vector<Range> ranges;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    for (std::size_t lo = 0; lo < sizes[k]; lo += kMergedStepRange) {
      ranges.push_back({k, lo, std::min(sizes[k], lo + kMergedStepRange)});
    }
  }
  const std::size_t tasks = std::max<std::size_t>(
      1, std::min(width, ranges.size()));
  // Task t takes ranges t, t + tasks, ...; every element's sum and update
  // is the same whichever task runs it.
  auto run = [&](std::size_t t) {
    std::vector<float*> bufs(shards.size());
    for (std::size_t r = t; r < ranges.size(); r += tasks) {
      const Range& rg = ranges[r];
      for (std::size_t s = 0; s < shards.size(); ++s) {
        bufs[s] = shards[s].g_[rg.k].data();
      }
      tree_sum(bufs.data(), bufs.size(), rg.lo, rg.hi);
      adam_update(params_[rg.k].data(), m_[rg.k].data(), v_[rg.k].data(),
                  bufs[0], rg.lo, rg.hi, c);
    }
  };
  if (tasks == 1) {
    run(0);
    return;
  }
  par::TaskGroup group(par::ThreadPool::global());
  for (std::size_t t = 0; t < tasks; ++t) group.run([&run, t] { run(t); });
  group.wait();
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
