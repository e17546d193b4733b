#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/optim.hpp"

namespace mvgnn::ag {

namespace {

using detail::Node;

[[noreturn]] void shape_fail(const char* op, const Tensor& a, const Tensor& b) {
  throw TensorError(std::string(op) + ": incompatible shapes " +
                    a.shape().str() + " and " + b.shape().str());
}

bool any_rg(const std::vector<Tensor>& inputs) {
  for (const Tensor& t : inputs) {
    if (t.requires_grad()) return true;
  }
  return false;
}

/// Creates an op node with `inputs` and `bw`; value must be filled by the
/// caller through the returned tensor's data().
Tensor make_op(Shape s, std::vector<Tensor> inputs,
               std::function<void(Node&)> bw) {
  auto n = std::make_shared<Node>();
  n->shape = s;
  n->value.assign(s.numel(), 0.0f);
  n->requires_grad = any_rg(inputs);
  for (const Tensor& t : inputs) n->inputs.push_back(t.node());
  if (n->requires_grad) n->backward = std::move(bw);
  return Tensor(std::move(n));
}

/// The buffer backward accumulates input i's gradient into, or nullptr if
/// that input wants none. A leaf (a node without a backward closure) that
/// the calling thread's gradient sink knows, as a data-parallel shard's
/// parameters are, goes to the sink's buffer; every other node to its own
/// grad. Backward closures call this on the thread running backward, never
/// inside a pool task, so the sink is the one that thread installed.
float* grad_target(Node& self, std::size_t i) {
  Node* in = self.inputs[i].get();
  if (!in->requires_grad) return nullptr;
  if (!in->backward) {
    if (GradAccumulator* sink = current_grad_sink()) {
      if (float* g = sink->buffer_for(in)) return g;
    }
  }
  in->ensure_grad();
  return in->grad.data();
}

}  // namespace

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) shape_fail("matmul", a, b);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out = make_op({m, n}, {a, b}, [m, k, n](Node& self) {
    const float* g = self.grad.data();
    const float* av = self.inputs[0]->value.data();
    const float* bv = self.inputs[1]->value.data();
    if (float* ia = grad_target(self, 0)) {
      // dA = dC * B^T
      tensor::gemm(g, bv, ia, m, n, k, false, true, true);
    }
    if (float* ib = grad_target(self, 1)) {
      // dB = A^T * dC
      tensor::gemm(av, g, ib, k, m, n, true, false, true);
    }
  });
  tensor::gemm(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

/// One GEMM with the fused bias epilogue and exact gradients — no
/// materialized `matmul -> add` intermediate. `tw` interprets W as
/// transposed ([n,k] storage), which is what the conv1-as-GEMM head wants.
Tensor matmul_bias(const Tensor& a, const Tensor& w, const Tensor& bias,
                   bool tw) {
  const std::size_t m = a.rows(), k = a.cols();
  const std::size_t wk = tw ? w.cols() : w.rows();
  const std::size_t n = tw ? w.rows() : w.cols();
  if (k != wk) shape_fail("matmul_bias", a, w);
  if (bias.numel() != n) shape_fail("matmul_bias(bias)", w, bias);
  Tensor out = make_op({m, n}, {a, w, bias}, [m, k, n, tw](Node& self) {
    const float* g = self.grad.data();
    const float* av = self.inputs[0]->value.data();
    const float* wv = self.inputs[1]->value.data();
    if (float* ia = grad_target(self, 0)) {
      // dA = dC * op(W)^T — with tw the stored [n,k] W *is* op(W)^T.
      tensor::gemm(g, wv, ia, m, n, k, false, !tw, true);
    }
    if (float* iw = grad_target(self, 1)) {
      if (tw) {
        // dW[n,k] = dC^T * A
        tensor::gemm(g, av, iw, n, m, k, true, false, true);
      } else {
        // dW[k,n] = A^T * dC
        tensor::gemm(av, g, iw, k, m, n, true, false, true);
      }
    }
    if (float* ib = grad_target(self, 2)) {
      for (std::size_t r0 = 0; r0 < m * n; r0 += n) {
        const float* gr = g + r0;
        for (std::size_t j = 0; j < n; ++j) ib[j] += gr[j];
      }
    }
  });
  tensor::Epilogue ep;
  ep.bias_col = bias.data();
  tensor::gemm(a.data(), w.data(), out.data(), m, k, n, false, tw, false, ep);
  return out;
}

namespace {

/// Routes a CSR product through the dispatched backend driver.
/// `accumulate=true` for gradient targets (they sum over consumers).
void spmm_call(const CsrMatrix& a, const float* x, float* out,
               std::size_t cols, bool accumulate, bool tanh = false) {
  tensor::spmm_csr(a.row_ptr().data(), a.col_idx().data(), a.values().data(),
                   a.rows(), x, out, cols, accumulate, tanh);
}

void check_spmm_shapes(const CsrMatrix& a, const Tensor& x) {
  if (!a.defined() || a.cols() != x.rows()) {
    throw TensorError("spmm: incompatible shapes [" + std::to_string(a.rows()) +
                      "," + std::to_string(a.cols()) + "] and " +
                      x.shape().str());
  }
}

}  // namespace

Tensor spmm(const CsrMatrix& a, const Tensor& x) {
  check_spmm_shapes(a, x);
  obs::ScopedSpan span("tensor.spmm");
  span.arg("rows", a.rows()).arg("nnz", a.nnz()).arg("cols", x.cols());
  const std::size_t m = a.rows(), n = x.cols();
  Tensor out = make_op({m, n}, {x}, [a, n](Node& self) {
    if (float* ix = grad_target(self, 0)) {
      spmm_call(a.transposed(), self.grad.data(), ix, n,
                /*accumulate=*/true);
    }
  });
  spmm_call(a, x.data(), out.data(), n, /*accumulate=*/false);
  return out;
}

Tensor spmm_tanh(const CsrMatrix& a, const Tensor& x) {
  check_spmm_shapes(a, x);
  obs::ScopedSpan span("tensor.spmm");
  span.arg("rows", a.rows()).arg("nnz", a.nnz()).arg("cols", x.cols());
  const std::size_t m = a.rows(), n = x.cols();
  Tensor out = make_op({m, n}, {x}, [a, n](Node& self) {
    if (float* ix = grad_target(self, 0)) {
      // dX = A^T (g ⊙ (1 - y²)) over the cached transpose.
      std::vector<float> dz(self.value.size());
      for (std::size_t i = 0; i < dz.size(); ++i) {
        const float y = self.value[i];
        dz[i] = self.grad[i] * (1.0f - y * y);
      }
      spmm_call(a.transposed(), dz.data(), ix, n,
                /*accumulate=*/true);
    }
  });
  spmm_call(a, x.data(), out.data(), n, /*accumulate=*/false, /*tanh=*/true);
  return out;
}

Tensor transpose(const Tensor& a) {
  const std::size_t r = a.rows(), c = a.cols();
  Tensor out = make_op({c, r}, {a}, [r, c](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          in[i * c + j] += self.grad[j * r + i];
        }
      }
    }
  });
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) out.data()[j * r + i] = a.at(i, j);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  const bool bias = (b.rows() == 1 && b.cols() == a.cols() &&
                     !(a.shape() == b.shape()));
  if (!bias && !(a.shape() == b.shape())) shape_fail("add", a, b);
  const std::size_t n = a.numel(), c = a.cols();
  Tensor out = make_op(a.shape(), {a, b}, [n, c, bias](Node& self) {
    if (float* ia = grad_target(self, 0)) {
      for (std::size_t i = 0; i < n; ++i) ia[i] += self.grad[i];
    }
    if (float* ib = grad_target(self, 1)) {
      if (bias) {
        for (std::size_t r0 = 0; r0 < n; r0 += c) {
          const float* g = self.grad.data() + r0;
          for (std::size_t j = 0; j < c; ++j) ib[j] += g[j];
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) ib[i] += self.grad[i];
      }
    }
  });
  if (bias) {
    for (std::size_t r0 = 0; r0 < n; r0 += c) {
      float* o = out.data() + r0;
      const float* av = a.data() + r0;
      for (std::size_t j = 0; j < c; ++j) o[j] = av[j] + b.data()[j];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      out.data()[i] = a.data()[i] + b.data()[i];
    }
  }
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) shape_fail("sub", a, b);
  const std::size_t n = a.numel();
  Tensor out = make_op(a.shape(), {a, b}, [n](Node& self) {
    if (float* ia = grad_target(self, 0)) {
      for (std::size_t i = 0; i < n; ++i) ia[i] += self.grad[i];
    }
    if (float* ib = grad_target(self, 1)) {
      for (std::size_t i = 0; i < n; ++i) ib[i] -= self.grad[i];
    }
  });
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = a.data()[i] - b.data()[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) shape_fail("mul", a, b);
  const std::size_t n = a.numel();
  Tensor out = make_op(a.shape(), {a, b}, [n](Node& self) {
    const float* av = self.inputs[0]->value.data();
    const float* bv = self.inputs[1]->value.data();
    if (float* ia = grad_target(self, 0)) {
      for (std::size_t i = 0; i < n; ++i) ia[i] += self.grad[i] * bv[i];
    }
    if (float* ib = grad_target(self, 1)) {
      for (std::size_t i = 0; i < n; ++i) ib[i] += self.grad[i] * av[i];
    }
  });
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = a.data()[i] * b.data()[i];
  return out;
}

Tensor scale(const Tensor& a, float s) {
  const std::size_t n = a.numel();
  Tensor out = make_op(a.shape(), {a}, [n, s](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < n; ++i) in[i] += self.grad[i] * s;
    }
  });
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = a.data()[i] * s;
  return out;
}

namespace {

template <typename Fwd, typename Bwd>
Tensor unary_ew(const Tensor& a, Fwd fwd, Bwd bwd_from_out) {
  const std::size_t n = a.numel();
  Tensor out = make_op(a.shape(), {a}, [n, bwd_from_out](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < n; ++i) {
        in[i] += self.grad[i] * bwd_from_out(self.value[i],
                                                   self.inputs[0]->value[i]);
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = fwd(a.data()[i]);
  return out;
}

}  // namespace

Tensor relu(const Tensor& a) {
  return unary_ew(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float y, float) { return y > 0.0f ? 1.0f : 0.0f; });
}

// fast_tanh (branchless range-reduced exp2 polynomial, ~1e-7 max error)
// moved to tensor/backend/act.hpp in PR 8 so the elementwise op and the
// fused GEMM/spmm epilogues share one numerics policy.
using tensor::backend::fast_tanh;

Tensor tanh_t(const Tensor& a) {
  return unary_ew(
      a, [](float x) { return fast_tanh(x); },
      [](float y, float) { return 1.0f - y * y; });
}

Tensor sigmoid(const Tensor& a) {
  return unary_ew(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float y, float) { return y * (1.0f - y); });
}

Tensor log_t(const Tensor& a) {
  return unary_ew(
      a, [](float x) { return std::log(std::max(x, 1e-12f)); },
      [](float, float x) { return 1.0f / std::max(x, 1e-12f); });
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Tensor sum(const Tensor& a) {
  const std::size_t n = a.numel();
  Tensor out = make_op({1, 1}, {a}, [n](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < n; ++i) in[i] += self.grad[0];
    }
  });
  out.data()[0] = std::accumulate(a.data(), a.data() + n, 0.0f);
  return out;
}

Tensor mean(const Tensor& a) {
  return scale(sum(a), 1.0f / static_cast<float>(a.numel()));
}

// ---------------------------------------------------------------------------
// Shape ops
// ---------------------------------------------------------------------------

Tensor reshape(const Tensor& a, Shape s) {
  if (s.numel() != a.numel()) {
    throw TensorError("reshape: numel mismatch " + a.shape().str() + " -> " +
                      s.str());
  }
  const std::size_t n = a.numel();
  Tensor out = make_op(s, {a}, [n](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < n; ++i) in[i] += self.grad[i];
    }
  });
  std::copy(a.data(), a.data() + n, out.data());
  return out;
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows()) shape_fail("concat_cols", a, b);
  const std::size_t r = a.rows(), ca = a.cols(), cb = b.cols();
  Tensor out = make_op({r, ca + cb}, {a, b}, [r, ca, cb](Node& self) {
    float* ia = grad_target(self, 0);
    float* ib = grad_target(self, 1);
    for (std::size_t i = 0; i < r; ++i) {
      const float* g = self.grad.data() + i * (ca + cb);
      if (ia) {
        for (std::size_t j = 0; j < ca; ++j) ia[i * ca + j] += g[j];
      }
      if (ib) {
        for (std::size_t j = 0; j < cb; ++j) ib[i * cb + j] += g[ca + j];
      }
    }
  });
  for (std::size_t i = 0; i < r; ++i) {
    float* o = out.data() + i * (ca + cb);
    std::copy(a.data() + i * ca, a.data() + (i + 1) * ca, o);
    std::copy(b.data() + i * cb, b.data() + (i + 1) * cb, o + ca);
  }
  return out;
}

Tensor concat_rows(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.cols()) shape_fail("concat_rows", a, b);
  const std::size_t na = a.numel(), nb = b.numel();
  Tensor out = make_op({a.rows() + b.rows(), a.cols()}, {a, b},
                       [na, nb](Node& self) {
                         if (float* ia = grad_target(self, 0)) {
                           for (std::size_t i = 0; i < na; ++i) {
                             ia[i] += self.grad[i];
                           }
                         }
                         if (float* ib = grad_target(self, 1)) {
                           for (std::size_t i = 0; i < nb; ++i) {
                             ib[i] += self.grad[na + i];
                           }
                         }
                       });
  std::copy(a.data(), a.data() + na, out.data());
  std::copy(b.data(), b.data() + nb, out.data() + na);
  return out;
}

Tensor slice_rows(const Tensor& a, std::size_t r0, std::size_t r1) {
  if (r1 > a.rows() || r0 > r1) {
    throw TensorError("slice_rows: bad range on " + a.shape().str());
  }
  const std::size_t c = a.cols(), r = r1 - r0;
  Tensor out = make_op({r, c}, {a}, [r0, r, c](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < r * c; ++i) {
        in[r0 * c + i] += self.grad[i];
      }
    }
  });
  std::copy(a.data() + r0 * c, a.data() + r1 * c, out.data());
  return out;
}

Tensor slice_cols(const Tensor& a, std::size_t c0, std::size_t c1) {
  if (c1 > a.cols() || c0 > c1) {
    throw TensorError("slice_cols: bad range on " + a.shape().str());
  }
  const std::size_t r = a.rows(), ca = a.cols(), c = c1 - c0;
  Tensor out = make_op({r, c}, {a}, [r, ca, c0, c](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          in[i * ca + c0 + j] += self.grad[i * c + j];
        }
      }
    }
  });
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      out.data()[i * c + j] = a.at(i, c0 + j);
    }
  }
  return out;
}

Tensor gather_rows(const Tensor& a, const std::vector<std::uint32_t>& rows) {
  const std::size_t c = a.cols();
  for (const std::uint32_t r : rows) {
    if (r >= a.rows()) throw TensorError("gather_rows: index out of range");
  }
  auto idx = std::make_shared<std::vector<std::uint32_t>>(rows);
  Tensor out = make_op({rows.size(), c}, {a}, [c, idx](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < idx->size(); ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          in[(*idx)[i] * c + j] += self.grad[i * c + j];
        }
      }
    }
  });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(a.data() + rows[i] * c, a.data() + (rows[i] + 1) * c,
              out.data() + i * c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Regularization / classification
// ---------------------------------------------------------------------------

Tensor dropout(const Tensor& a, float p, bool training, par::Rng& rng) {
  if (!training || p <= 0.0f) return a;
  const std::size_t n = a.numel();
  auto mask = std::make_shared<std::vector<float>>(n);
  const float keep = 1.0f - p;
  for (std::size_t i = 0; i < n; ++i) {
    (*mask)[i] = rng.bernoulli(keep) ? 1.0f / keep : 0.0f;
  }
  Tensor out = make_op(a.shape(), {a}, [n, mask](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < n; ++i) {
        in[i] += self.grad[i] * (*mask)[i];
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = a.data()[i] * (*mask)[i];
  return out;
}

Tensor cross_entropy_logits(const Tensor& logits,
                            const std::vector<int>& labels) {
  const std::size_t r = logits.rows(), c = logits.cols();
  if (labels.size() != r) {
    throw TensorError("cross_entropy_logits: label count mismatch");
  }
  // Cache the softmax for backward.
  auto probs = std::make_shared<std::vector<float>>(r * c);
  auto lab = std::make_shared<std::vector<int>>(labels);
  Tensor out = make_op({1, 1}, {logits}, [r, c, probs, lab](Node& self) {
    if (float* in = grad_target(self, 0)) {
      const float g = self.grad[0] / static_cast<float>(r);
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          const float onehot = (static_cast<int>(j) == (*lab)[i]) ? 1.0f : 0.0f;
          in[i * c + j] += g * ((*probs)[i * c + j] - onehot);
        }
      }
    }
  });
  float loss = 0.0f;
  for (std::size_t i = 0; i < r; ++i) {
    const float* x = logits.data() + i * c;
    const float mx = *std::max_element(x, x + c);
    float z = 0.0f;
    for (std::size_t j = 0; j < c; ++j) z += std::exp(x[j] - mx);
    const float logz = std::log(z) + mx;
    for (std::size_t j = 0; j < c; ++j) {
      (*probs)[i * c + j] = std::exp(x[j] - logz);
    }
    loss += logz - x[labels[i]];
  }
  out.data()[0] = loss / static_cast<float>(r);
  return out;
}

// ---------------------------------------------------------------------------
// DGCNN-specific
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kPadRow = 0xFFFFFFFFu;

}  // namespace

Tensor sort_pool_segments(const Tensor& a, std::size_t k,
                          const std::vector<std::uint32_t>& offsets) {
  const std::size_t c = a.cols();
  if (offsets.size() < 2 || offsets.front() != 0 ||
      offsets.back() != a.rows()) {
    throw TensorError("sort_pool_segments: bad offsets for " +
                      a.shape().str());
  }
  const std::size_t b_count = offsets.size() - 1;
  // Per output row: the selected source row, or kPadRow for zero padding.
  auto sel = std::make_shared<std::vector<std::uint32_t>>(b_count * k, kPadRow);
  std::vector<std::uint32_t> order;
  for (std::size_t b = 0; b < b_count; ++b) {
    const std::uint32_t lo = offsets[b], hi = offsets[b + 1];
    if (hi < lo) throw TensorError("sort_pool_segments: offsets decrease");
    order.resize(hi - lo);
    std::iota(order.begin(), order.end(), lo);
    // Stable order: by last channel descending, ties by original index.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return a.at(x, c - 1) > a.at(y, c - 1);
                     });
    const std::size_t keep = std::min<std::size_t>(k, order.size());
    std::copy(order.begin(), order.begin() + keep, sel->begin() + b * k);
  }
  Tensor out = make_op({b_count * k, c}, {a}, [c, sel](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < sel->size(); ++i) {
        if ((*sel)[i] == kPadRow) continue;
        for (std::size_t j = 0; j < c; ++j) {
          in[(*sel)[i] * c + j] += self.grad[i * c + j];
        }
      }
    }
  });
  for (std::size_t i = 0; i < sel->size(); ++i) {
    if ((*sel)[i] == kPadRow) continue;  // padding rows stay zero
    std::copy(a.data() + (*sel)[i] * c, a.data() + ((*sel)[i] + 1) * c,
              out.data() + i * c);
  }
  return out;
}

Tensor sort_pool(const Tensor& a, std::size_t k) {
  return sort_pool_segments(a, k,
                            {0, static_cast<std::uint32_t>(a.rows())});
}

Tensor segment_cols_to_rows(const Tensor& x,
                            const std::vector<std::uint32_t>& starts,
                            std::size_t width) {
  const std::size_t ch = x.rows(), len = x.cols();
  for (const std::uint32_t s : starts) {
    if (s + width > len) {
      throw TensorError("segment_cols_to_rows: segment exceeds " +
                        x.shape().str());
    }
  }
  const std::size_t b_count = starts.size();
  auto st = std::make_shared<std::vector<std::uint32_t>>(starts);
  Tensor out = make_op({b_count, ch * width}, {x},
                       [ch, len, width, st](Node& self) {
                         if (float* in = grad_target(self, 0)) {
                           for (std::size_t b = 0; b < st->size(); ++b) {
                             const float* g =
                                 self.grad.data() + b * ch * width;
                             for (std::size_t c = 0; c < ch; ++c) {
                               float* row = in + c * len +
                                            (*st)[b];
                               for (std::size_t j = 0; j < width; ++j) {
                                 row[j] += g[c * width + j];
                               }
                             }
                           }
                         }
                       });
  for (std::size_t b = 0; b < b_count; ++b) {
    float* o = out.data() + b * ch * width;
    for (std::size_t c = 0; c < ch; ++c) {
      const float* row = x.data() + c * len + starts[b];
      std::copy(row, row + width, o + c * width);
    }
  }
  return out;
}

namespace {

/// im2col for segmented 1-D conv, transposed layout: for segment s and its
/// window t, colT[(ci*ksize+u), s*lseg+t] = x[ci, starts[s] + t*stride + u].
/// With starts={0} and one full-width segment this is the classic im2col,
/// so the conv is one GEMM W[out_ch,K] * colT[K,lout].
void conv1d_im2col(const float* xv, float* col_t, std::size_t in_ch,
                   std::size_t len, std::size_t ksize, std::size_t stride,
                   const std::vector<std::uint32_t>& starts,
                   std::size_t lseg) {
  const std::size_t lout = starts.size() * lseg;
  for (std::size_t ci = 0; ci < in_ch; ++ci) {
    for (std::size_t u = 0; u < ksize; ++u) {
      float* dst = col_t + (ci * ksize + u) * lout;
      for (std::size_t s = 0; s < starts.size(); ++s) {
        const float* src = xv + ci * len + starts[s] + u;
        for (std::size_t t = 0; t < lseg; ++t) {
          dst[s * lseg + t] = src[t * stride];
        }
      }
    }
  }
}

Tensor conv1d_impl(const Tensor& x, const Tensor& w, const Tensor& b,
                   std::size_t ksize, std::size_t stride,
                   std::vector<std::uint32_t> starts, std::size_t seg_width) {
  const std::size_t in_ch = x.rows(), len = x.cols();
  const std::size_t out_ch = w.rows();
  if (w.cols() != in_ch * ksize) shape_fail("conv1d", x, w);
  if (b.numel() != out_ch) shape_fail("conv1d(bias)", w, b);
  if (seg_width < ksize) throw TensorError("conv1d: input shorter than kernel");
  if (stride == 0) throw TensorError("conv1d: zero stride");
  for (const std::uint32_t s : starts) {
    if (s + seg_width > len) {
      throw TensorError("conv1d: segment past the end of " + x.shape().str());
    }
  }
  const std::size_t lseg = (seg_width - ksize) / stride + 1;
  const std::size_t lout = starts.size() * lseg;
  const std::size_t kdim = in_ch * ksize;

  Tensor out = make_op(
      {out_ch, lout}, {x, w, b},
      [in_ch, len, out_ch, ksize, stride, lseg, lout, kdim,
       starts](Node& self) {
        const float* xv = self.inputs[0]->value.data();
        const float* wv = self.inputs[1]->value.data();
        const float* g = self.grad.data();
        float* ix = grad_target(self, 0);
        float* iw = grad_target(self, 1);
        float* ib = grad_target(self, 2);
        if (ib) {
          for (std::size_t o = 0; o < out_ch; ++o) {
            float acc = 0.0f;
            for (std::size_t t = 0; t < lout; ++t) acc += g[o * lout + t];
            ib[o] += acc;
          }
        }
        if (iw) {
          // dW[out_ch,K] = g[out_ch,lout] * colT^T; colT is rebuilt from the
          // saved input — cheaper than keeping it alive across the graph.
          std::vector<float> col_t(kdim * lout);
          conv1d_im2col(xv, col_t.data(), in_ch, len, ksize, stride, starts,
                        lseg);
          tensor::gemm(g, col_t.data(), iw, out_ch, lout, kdim,
                       false, true, true);
        }
        if (ix) {
          // dcolT[K,lout] = W^T * g, then col2im scatter-adds overlapping
          // windows back into dx.
          std::vector<float> dcol(kdim * lout);
          tensor::gemm(wv, g, dcol.data(), kdim, out_ch, lout, true, false);
          for (std::size_t ci = 0; ci < in_ch; ++ci) {
            for (std::size_t u = 0; u < ksize; ++u) {
              const float* src = dcol.data() + (ci * ksize + u) * lout;
              for (std::size_t s = 0; s < starts.size(); ++s) {
                float* dst = ix + ci * len + starts[s] + u;
                for (std::size_t t = 0; t < lseg; ++t) {
                  dst[t * stride] += src[s * lseg + t];
                }
              }
            }
          }
        }
      });
  std::vector<float> col_t(kdim * lout);
  conv1d_im2col(x.data(), col_t.data(), in_ch, len, ksize, stride, starts,
                lseg);
  // Out-channel bias rides the GEMM's fused per-row epilogue instead of a
  // second pass over the output.
  tensor::Epilogue ep;
  ep.bias_row = b.data();
  tensor::gemm(w.data(), col_t.data(), out.data(), out_ch, kdim, lout, false,
               false, false, ep);
  return out;
}

}  // namespace

Tensor conv1d(const Tensor& x, const Tensor& w, const Tensor& b,
              std::size_t ksize, std::size_t stride) {
  return conv1d_impl(x, w, b, ksize, stride, {0}, x.cols());
}

Tensor conv1d_segments(const Tensor& x, const Tensor& w, const Tensor& b,
                       std::size_t ksize, std::size_t stride,
                       const std::vector<std::uint32_t>& starts,
                       std::size_t seg_width) {
  if (starts.empty()) throw TensorError("conv1d_segments: no segments");
  return conv1d_impl(x, w, b, ksize, stride, starts, seg_width);
}

Tensor maxpool1d(const Tensor& x, std::size_t window) {
  const std::size_t c = x.rows(), len = x.cols();
  if (window == 0 || len < window) {
    throw TensorError("maxpool1d: bad window for " + x.shape().str());
  }
  const std::size_t lout = len / window;
  auto arg = std::make_shared<std::vector<std::uint32_t>>(c * lout);
  Tensor out = make_op({c, lout}, {x}, [c, lout, arg](Node& self) {
    if (float* in = grad_target(self, 0)) {
      for (std::size_t i = 0; i < c * lout; ++i) {
        in[(*arg)[i]] += self.grad[i];
      }
    }
  });
  for (std::size_t ci = 0; ci < c; ++ci) {
    for (std::size_t t = 0; t < lout; ++t) {
      std::size_t best = ci * len + t * window;
      for (std::size_t u = 1; u < window; ++u) {
        const std::size_t cand = ci * len + t * window + u;
        if (x.data()[cand] > x.data()[best]) best = cand;
      }
      out.data()[ci * lout + t] = x.data()[best];
      (*arg)[ci * lout + t] = static_cast<std::uint32_t>(best);
    }
  }
  return out;
}

}  // namespace mvgnn::ag
