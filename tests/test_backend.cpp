// Kernel-backend equivalence and determinism (docs/kernels.md):
//  * every compiled-in usable backend agrees with a naive reference GEMM /
//    spmm within 1e-5 on edge shapes — M/N/K off the 6x16 (and 6x8) tile
//    grid, K=0, single-row panels, empty CSR rows;
//  * the fused bias/tanh epilogues match the unfused reference math;
//  * the fused autograd ops gradcheck against central differences;
//  * a fixed backend is bit-identical across repeated runs and across
//    thread-pool sizes (the per-element fixed-K-order contract);
//  * the drivers fan out to the pool exactly when a call's work fills two
//    tasks of tensor::kMinTaskWork.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/sparse.hpp"

namespace {

using namespace mvgnn;
using ag::Tensor;
using tensor::Epilogue;
using tensor::GemmArgs;
using tensor::KernelBackend;
using tensor::SpmmArgs;

/// Restores automatic dispatch when a test that forces a backend exits.
struct BackendGuard {
  ~BackendGuard() { tensor::backend::force("auto"); }
};

/// Reads how many calls of a driver fanned out to the pool.
std::uint64_t gemm_fan_outs() {
  return obs::Registry::global().counter("gemm.parallel_calls_total").value();
}
std::uint64_t spmm_fan_outs() {
  return obs::Registry::global().counter("tensor.spmm_parallel_total").value();
}

/// A raw CSR matrix of `rows` x `rows` with `deg` seeded entries per row.
struct RawCsr {
  std::vector<std::uint32_t> row_ptr{0}, col_idx;
  std::vector<float> vals;

  RawCsr(std::size_t rows, std::size_t deg, std::uint64_t seed) {
    par::Rng rng(seed);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t e = 0; e < deg; ++e) {
        col_idx.push_back(static_cast<std::uint32_t>(rng.uniform_u64(rows)));
        vals.push_back(0.25f * static_cast<float>(rng.normal()));
      }
      row_ptr.push_back(static_cast<std::uint32_t>(col_idx.size()));
    }
  }
  void spmm(const float* x, float* out, std::size_t cols,
            par::ThreadPool& pool, bool tanh = false) const {
    tensor::spmm_csr(row_ptr.data(), col_idx.data(), vals.data(),
                     row_ptr.size() - 1, x, out, cols, false, tanh, pool);
  }
};

std::vector<float> randu(std::size_t n, std::uint64_t seed, float scale = 0.3f) {
  par::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = scale * static_cast<float>(rng.normal());
  return v;
}

ag::CsrMatrix csr_from(std::size_t rows, std::size_t cols,
                       std::vector<float> dense) {
  return ag::CsrMatrix::from_dense(
      Tensor::from_data({rows, cols}, std::move(dense)));
}

/// Naive triple-loop reference, j-inner, honoring ta/tb.
std::vector<float> ref_gemm(const std::vector<float>& a,
                            const std::vector<float>& b, std::size_t m,
                            std::size_t k, std::size_t n, bool ta, bool tb) {
  std::vector<float> c(m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += av * bv;
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

struct Dims {
  std::size_t m, k, n;
};

// Off-tile M/N/K (6x16 and 6x8 microkernels), exact tiles, single-row
// panels, K=0, degenerate widths, and sizes crossing the KC/MC/NC blocking.
const Dims kEdgeShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {6, 8, 16},  {7, 5, 13},  {5, 0, 9},
    {1, 33, 40}, {13, 64, 1},  {12, 3, 32}, {97, 17, 7}, {3, 300, 19},
    {6, 16, 96}, {31, 19, 23},
};

void expect_block_near(const std::vector<float>& got,
                       const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-5f) << what << " element " << i;
  }
}

TEST(Backend, ScalarIsAlwaysCompiledInAndUsable) {
  EXPECT_TRUE(tensor::backend::scalar_backend().usable());
  EXPECT_STREQ(tensor::backend::scalar_backend().name(), "scalar");
  EXPECT_FALSE(tensor::backend::all().empty());
  EXPECT_EQ(tensor::backend::all().back(),
            &tensor::backend::scalar_backend());
}

TEST(Backend, ForceRejectsUnknownNamesAndRestoresAuto) {
  BackendGuard guard;
  EXPECT_FALSE(tensor::backend::force("gpu"));
  EXPECT_TRUE(tensor::backend::force("scalar"));
  EXPECT_STREQ(tensor::backend::active().name(), "scalar");
  EXPECT_TRUE(tensor::backend::force("auto"));
}

TEST(Backend, NameForIdDecodesFrozenIds) {
  EXPECT_STREQ(tensor::backend::name_for_id(0), "scalar");
  EXPECT_STREQ(tensor::backend::name_for_id(1), "avx2");
  EXPECT_STREQ(tensor::backend::name_for_id(2), "neon");
  EXPECT_STREQ(tensor::backend::name_for_id(42), "unknown");
}

TEST(Backend, GemmMatchesReferenceOnEdgeShapesAllTransposes) {
  for (const KernelBackend* be : tensor::backend::all()) {
    if (!be->usable()) continue;
    for (const Dims& d : kEdgeShapes) {
      const std::vector<float> a = randu(d.m * d.k, 11 * d.m + d.k);
      const std::vector<float> b = randu(d.k * d.n, 7 * d.k + d.n);
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          const std::vector<float> want = ref_gemm(a, b, d.m, d.k, d.n, ta, tb);
          std::vector<float> c(d.m * d.n, -100.0f);  // poison: must be zeroed
          const GemmArgs args{a.data(), b.data(), c.data(),
                              d.m,      d.k,      d.n,
                              ta,       tb,       Epilogue{}};
          std::memset(c.data(), 0, c.size() * sizeof(float));
          be->gemm_block(args, 0, d.m, 0, d.n);
          expect_block_near(c, want, be->name());
        }
      }
    }
  }
}

TEST(Backend, GemmBlockComputesOnlyItsBlock) {
  // A backend handed an interior block must not touch anything outside it.
  const std::size_t m = 20, k = 9, n = 30;
  const std::vector<float> a = randu(m * k, 1), b = randu(k * n, 2);
  const std::vector<float> want = ref_gemm(a, b, m, k, n, false, false);
  for (const KernelBackend* be : tensor::backend::all()) {
    if (!be->usable()) continue;
    std::vector<float> c(m * n, 0.0f);
    const GemmArgs args{a.data(), b.data(), c.data(), m, k, n,
                        false,    false,    Epilogue{}};
    be->gemm_block(args, 3, 17, 5, 29);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const bool inside = i >= 3 && i < 17 && j >= 5 && j < 29;
        if (inside) {
          ASSERT_NEAR(c[i * n + j], want[i * n + j], 1e-5f) << be->name();
        } else {
          ASSERT_EQ(c[i * n + j], 0.0f) << be->name() << " wrote outside its "
                                        << "block at " << i << "," << j;
        }
      }
    }
  }
}

TEST(Backend, FusedEpilogueMatchesUnfusedReference) {
  const std::size_t m = 19, k = 21, n = 27;
  const std::vector<float> a = randu(m * k, 3), b = randu(k * n, 4);
  const std::vector<float> bias_col = randu(n, 5);
  const std::vector<float> bias_row = randu(m, 6);
  const std::vector<float> base = ref_gemm(a, b, m, k, n, false, false);
  for (const KernelBackend* be : tensor::backend::all()) {
    if (!be->usable()) continue;
    {
      std::vector<float> want = base;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          want[i * n + j] =
              std::tanh(want[i * n + j] + bias_col[j] + bias_row[i]);
        }
      }
      Epilogue ep;
      ep.bias_col = bias_col.data();
      ep.bias_row = bias_row.data();
      ep.tanh = true;
      std::vector<float> c(m * n, 0.0f);
      const GemmArgs args{a.data(), b.data(), c.data(), m, k, n,
                          false,    false,    ep};
      be->gemm_block(args, 0, m, 0, n);
      expect_block_near(c, want, be->name());
    }
  }
}

TEST(Backend, GemmKZeroWithEpilogueIsBiasThroughTanh) {
  // K=0: the product is all zeros, so the fused tail alone defines C.
  const std::size_t m = 4, n = 10;
  const std::vector<float> bias = randu(n, 7, 1.0f);
  for (const KernelBackend* be : tensor::backend::all()) {
    if (!be->usable()) continue;
    Epilogue ep;
    ep.bias_col = bias.data();
    ep.tanh = true;
    std::vector<float> c(m * n, 0.0f);
    const GemmArgs args{nullptr, nullptr, c.data(), m, 0, n, false, false, ep};
    be->gemm_block(args, 0, m, 0, n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_NEAR(c[i * n + j], std::tanh(bias[j]), 1e-5f) << be->name();
      }
    }
  }
}

TEST(Backend, SpmmMatchesDenseReferenceIncludingEmptyRows) {
  // 7x5 sparse matrix with rows 1 and 4 completely empty, x is 5x9.
  const std::size_t rows = 7, inner = 5, cols = 9;
  std::vector<float> dense(rows * inner, 0.0f);
  dense[0 * inner + 2] = 0.5f;
  dense[2 * inner + 0] = -1.25f;
  dense[2 * inner + 4] = 2.0f;
  dense[3 * inner + 3] = 0.75f;
  dense[5 * inner + 1] = -0.3f;
  dense[5 * inner + 2] = 1.1f;
  dense[6 * inner + 4] = 4.0f;
  const ag::CsrMatrix csr = csr_from(rows, inner, dense);
  const std::vector<float> x = randu(inner * cols, 8);
  const std::vector<float> want =
      ref_gemm(dense, x, rows, inner, cols, false, false);
  for (const KernelBackend* be : tensor::backend::all()) {
    if (!be->usable()) continue;
    for (const bool tanh : {false, true}) {
      std::vector<float> out(rows * cols, 0.0f);
      const SpmmArgs args{csr.row_ptr().data(), csr.col_idx().data(),
                          csr.values().data(),  x.data(),
                          out.data(),           cols,
                          tanh};
      be->spmm_rows(args, 0, rows);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const float w = tanh ? std::tanh(want[i]) : want[i];
        ASSERT_NEAR(out[i], w, 1e-5f) << be->name() << " tanh=" << tanh;
      }
      // Empty rows must stay exactly tanh(0) == 0.
      for (std::size_t j = 0; j < cols; ++j) {
        ASSERT_EQ(out[1 * cols + j], 0.0f) << be->name();
        ASSERT_EQ(out[4 * cols + j], 0.0f) << be->name();
      }
    }
  }
}

TEST(Backend, DriverRejectsEpilogueWithAccumulate) {
  std::vector<float> a(4, 1.0f), b(4, 1.0f), c(4, 0.0f), bias(2, 1.0f);
  Epilogue ep;
  ep.bias_col = bias.data();
  EXPECT_THROW(
      tensor::gemm(a.data(), b.data(), c.data(), 2, 2, 2, false, false,
                   /*accumulate=*/true, ep),
      std::invalid_argument);
  const ag::CsrMatrix csr = csr_from(2, 2, {1.0f, 0.0f, 0.0f, 1.0f});
  EXPECT_THROW(
      tensor::spmm_csr(csr.row_ptr().data(), csr.col_idx().data(),
                       csr.values().data(), 2, a.data(), c.data(), 2,
                       /*accumulate=*/true, /*tanh=*/true),
      std::invalid_argument);
}

TEST(Backend, FixedBackendBitIdenticalAcrossRunsAndPoolSizes) {
  // The headline determinism contract: same backend => same bits, no matter
  // how the driver splits the work. Large enough for four tasks, and the
  // pool-4 call asserts that it fanned out.
  const std::size_t m = 400, k = 70, n = 90;
  ASSERT_GE(m * k * n, 4 * tensor::kMinTaskWork);
  const std::vector<float> a = randu(m * k, 9), b = randu(k * n, 10);
  const std::vector<float> bias = randu(n, 11);
  par::ThreadPool pool1(1), pool4(4);
  for (const KernelBackend* be : tensor::backend::all()) {
    if (!be->usable()) continue;
    BackendGuard guard;
    ASSERT_TRUE(tensor::backend::force(be->name()));
    Epilogue ep;
    ep.bias_col = bias.data();
    ep.tanh = true;
    std::vector<float> c1(m * n), c2(m * n), c4(m * n);
    tensor::gemm(a.data(), b.data(), c1.data(), m, k, n, false, false, false,
                 ep, pool1);
    tensor::gemm(a.data(), b.data(), c2.data(), m, k, n, false, false, false,
                 ep, pool1);
    const std::uint64_t fan_outs = gemm_fan_outs();
    tensor::gemm(a.data(), b.data(), c4.data(), m, k, n, false, false, false,
                 ep, pool4);
    EXPECT_EQ(gemm_fan_outs() - fan_outs, 1u)
        << be->name() << ": the pool-4 call ran serially";
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)))
        << be->name() << ": repeated run differs";
    EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)))
        << be->name() << ": pool size changed the bits";
  }
}

TEST(Backend, SpmmBitIdenticalAcrossPoolSizes) {
  // 4096 rows x 8 entries x 64 cols is four tasks' work: the pool-4 call
  // splits it into four row blocks.
  const std::size_t rows = 4096, cols = 64;
  const RawCsr csr(rows, 8, 12);
  ASSERT_GE(csr.vals.size() * cols, 4 * tensor::kMinTaskWork);
  const std::vector<float> x = randu(rows * cols, 13);
  par::ThreadPool pool1(1), pool4(4);
  for (const KernelBackend* be : tensor::backend::all()) {
    if (!be->usable()) continue;
    BackendGuard guard;
    ASSERT_TRUE(tensor::backend::force(be->name()));
    std::vector<float> o1(rows * cols), o4(rows * cols);
    csr.spmm(x.data(), o1.data(), cols, pool1, /*tanh=*/true);
    const std::uint64_t fan_outs = spmm_fan_outs();
    csr.spmm(x.data(), o4.data(), cols, pool4, /*tanh=*/true);
    EXPECT_EQ(spmm_fan_outs() - fan_outs, 1u)
        << be->name() << ": the pool-4 call ran serially";
    EXPECT_EQ(0, std::memcmp(o1.data(), o4.data(), o1.size() * sizeof(float)))
        << be->name() << ": pool size changed the bits";
  }
}

TEST(Backend, FanOutNeedsTwoTasksOfMinTaskWork) {
  // Row counts at 1x, 2x and 4x kMinTaskWork: below two tasks' work a call
  // stays on the caller's thread, from there on it goes to the pool.
  const auto cases = [](std::size_t rows_at_min) {
    return std::vector<std::pair<std::size_t, bool>>{
        {rows_at_min - 1, false},
        {2 * rows_at_min - 1, false},
        {2 * rows_at_min, true},
        {4 * rows_at_min, true}};
  };
  par::ThreadPool pool4(4);
  // GNN-shaped products: k = 64, n = 32.
  const std::size_t k = 64, n = 32;
  for (const auto& [m, fans] : cases(tensor::kMinTaskWork / (k * n))) {
    const std::vector<float> a = randu(m * k, 14), b = randu(k * n, 15);
    std::vector<float> c(m * n);
    const std::uint64_t before = gemm_fan_outs();
    tensor::gemm(a.data(), b.data(), c.data(), m, k, n, false, false, false,
                 {}, pool4);
    EXPECT_EQ(gemm_fan_outs() - before, fans ? 1u : 0u) << "m = " << m;
  }
  // spmm: work is nnz * cols, at 4 entries per row.
  const std::size_t deg = 4, cols = 32;
  for (const auto& [rows, fans] : cases(tensor::kMinTaskWork / (deg * cols))) {
    const RawCsr csr(rows, deg, 16);
    const std::vector<float> x = randu(rows * cols, 17);
    std::vector<float> out(rows * cols);
    const std::uint64_t before = spmm_fan_outs();
    csr.spmm(x.data(), out.data(), cols, pool4);
    EXPECT_EQ(spmm_fan_outs() - before, fans ? 1u : 0u) << "rows = " << rows;
  }
}

// ---------------------------------------------------------------------------
// Fused autograd ops
// ---------------------------------------------------------------------------

void gradcheck(const std::vector<Tensor>& inputs,
               const std::function<Tensor()>& fn, float eps = 1e-3f,
               float tol = 2e-2f) {
  Tensor out = fn();
  ASSERT_EQ(out.numel(), 1u);
  for (const Tensor& t : inputs) const_cast<Tensor&>(t).zero_grad();
  out.backward();
  for (std::size_t ti = 0; ti < inputs.size(); ++ti) {
    Tensor t = inputs[ti];
    const std::vector<float> analytic = t.grad();
    for (std::size_t e = 0; e < t.numel(); ++e) {
      const float orig = t.data()[e];
      t.data()[e] = orig + eps;
      const float up = fn().item();
      t.data()[e] = orig - eps;
      const float down = fn().item();
      t.data()[e] = orig;
      EXPECT_NEAR(analytic[e], (up - down) / (2.0f * eps), tol)
          << "input " << ti << " element " << e;
    }
  }
}

Tensor make(ag::Shape s, std::uint64_t seed) {
  par::Rng rng(seed);
  return Tensor::randn(s, rng, 0.7f, /*requires_grad=*/true);
}

TEST(Backend, MatmulBiasMatchesMatmulAddAndGradchecks) {
  Tensor a = make({5, 4}, 20), w = make({4, 3}, 21), bias = make({1, 3}, 22);
  Tensor fused = ag::matmul_bias(a, w, bias);
  Tensor ref = ag::add(ag::matmul(a, w), bias);
  ASSERT_EQ(fused.numel(), ref.numel());
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(fused.data()[i], ref.data()[i], 1e-5f);
  }
  gradcheck({a, w, bias}, [&] { return ag::sum(ag::matmul_bias(a, w, bias)); });
}

TEST(Backend, MatmulBiasTransposedWeightMatchesExplicitTranspose) {
  Tensor a = make({6, 4}, 23), w = make({5, 4}, 24), bias = make({1, 5}, 25);
  Tensor fused = ag::matmul_bias(a, w, bias, /*tw=*/true);
  Tensor ref = ag::add(ag::matmul(a, ag::transpose(w)), bias);
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(fused.data()[i], ref.data()[i], 1e-5f);
  }
  gradcheck({a, w, bias},
            [&] { return ag::sum(ag::matmul_bias(a, w, bias, true)); });
}

TEST(Backend, MatmulBiasTanhMatchesUnfusedChainAndGradchecks) {
  Tensor a = make({3, 7}, 26), w = make({7, 4}, 27), bias = make({1, 4}, 28);
  Tensor fused = ag::matmul_bias_tanh(a, w, bias);
  Tensor ref = ag::tanh_t(ag::add(ag::matmul(a, w), bias));
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(fused.data()[i], ref.data()[i], 1e-5f);
  }
  gradcheck({a, w, bias},
            [&] { return ag::sum(ag::matmul_bias_tanh(a, w, bias)); });
  gradcheck({a, w, bias},
            [&] { return ag::sum(ag::matmul_bias_tanh(a, w, bias)); });
}

TEST(Backend, MatmulBiasShapeMismatchThrows) {
  Tensor a = make({3, 4}, 29), w = make({5, 2}, 30), bias = make({1, 2}, 31);
  EXPECT_THROW((void)ag::matmul_bias(a, w, bias), ag::TensorError);
  Tensor w2 = make({4, 2}, 32), bad_bias = make({1, 3}, 33);
  EXPECT_THROW((void)ag::matmul_bias(a, w2, bad_bias), ag::TensorError);
}

TEST(Backend, SpmmTanhMatchesUnfusedAndGradchecksAgainstNewBackend) {
  // Includes an empty row (node 3 has no in-edges) to pin the tanh(0)=0 path.
  const std::vector<float> dense = {
      0.0f, 0.5f, 0.0f, 0.5f,  //
      1.0f, 0.0f, 0.0f, 0.0f,  //
      0.0f, 0.7f, 0.3f, 0.0f,  //
      0.0f, 0.0f, 0.0f, 0.0f,  //
  };
  const ag::CsrMatrix csr = csr_from(4, 4, dense);
  Tensor x = make({4, 3}, 34);
  Tensor fused = ag::spmm_tanh(csr, x);
  Tensor ref = ag::tanh_t(ag::spmm(csr, x));
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(fused.data()[i], ref.data()[i], 1e-5f);
  }
  gradcheck({x}, [&] { return ag::sum(ag::spmm_tanh(csr, x)); });
  // The plain spmm gradcheck re-run against the dispatched backend.
  gradcheck({x}, [&] { return ag::sum(ag::spmm(csr, x)); });
}

TEST(Backend, ForcedScalarAndActiveBackendAgreeThroughAutogradOps) {
  // End-to-end cross-backend agreement through the ag layer (what the CI
  // forced-scalar leg pins): forward values within 1e-5 of forced-scalar.
  Tensor a = make({33, 17}, 35), w = make({17, 21}, 36),
         bias = make({1, 21}, 37);
  std::vector<float> forced;
  {
    BackendGuard guard;
    ASSERT_TRUE(tensor::backend::force("scalar"));
    Tensor out = ag::matmul_bias_tanh(a, w, bias);
    forced.assign(out.data(), out.data() + out.numel());
  }
  Tensor out = ag::matmul_bias_tanh(a, w, bias);  // auto-dispatched
  for (std::size_t i = 0; i < forced.size(); ++i) {
    EXPECT_NEAR(out.data()[i], forced[i], 1e-5f);
  }
}

}  // namespace
