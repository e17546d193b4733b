#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"

namespace mvgnn::tensor {

namespace {

struct GemmMetrics {
  obs::Counter& calls = obs::Registry::global().counter("gemm.calls_total");
  obs::Counter& flops = obs::Registry::global().counter("gemm.flops_total");
  obs::Counter& parallel_calls =
      obs::Registry::global().counter("gemm.parallel_calls_total");

  static GemmMetrics& get() {
    static GemmMetrics m;
    return m;
  }
};

struct SpmmMetrics {
  obs::Counter& calls = obs::Registry::global().counter("tensor.spmm_total");
  obs::Counter& flops =
      obs::Registry::global().counter("tensor.spmm_flops_total");
  obs::Counter& parallel_calls =
      obs::Registry::global().counter("tensor.spmm_parallel_total");

  static SpmmMetrics& get() {
    static SpmmMetrics m;
    return m;
  }
};

/// The fan-out rule of both kernels: `work` multiply-adds spread over `len`
/// output rows (or columns) split into as many equal blocks as hold at
/// least kMinTaskWork each. Returns the block length, or 0 when that makes
/// fewer than two blocks and the call runs on the caller's thread.
std::size_t task_grain(std::size_t work, std::size_t len,
                       const par::ThreadPool& pool) {
  const std::size_t tasks = std::min(work / kMinTaskWork, len);
  if (tasks < 2 || pool.size() <= 1) return 0;
  return (len + tasks - 1) / tasks;
}

}  // namespace

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool ta, bool tb, bool accumulate,
          const Epilogue& ep, par::ThreadPool& pool) {
  if (m == 0 || n == 0) return;
  if (accumulate && !ep.empty()) {
    throw std::invalid_argument("gemm: fused epilogue requires accumulate=false");
  }
  obs::ScopedSpan span("gemm");
  span.arg("m", m).arg("k", k).arg("n", n);
  GemmMetrics& metrics = GemmMetrics::get();
  metrics.calls.add(1);
  metrics.flops.add(static_cast<std::uint64_t>(2) * m * k * n);

  const KernelBackend& be = backend::active();
  const GemmArgs args{a, b, c, m, k, n, ta, tb, ep};
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));

  // Fan out over whichever output axis is longer: N-panels for the wide
  // activations, row ranges for the tall GNN node blocks. Either way each
  // output element belongs to exactly one task, and the backends accumulate
  // K in a block-independent order, so the split never changes the bits.
  const bool by_rows = m >= n;
  const std::size_t grain = task_grain(m * k * n, by_rows ? m : n, pool);
  if (grain == 0) {
    be.gemm_block(args, 0, m, 0, n);
    return;
  }
  metrics.parallel_calls.add(1);
  if (by_rows) {
    par::parallel_for_blocked(
        0, m,
        [&](std::size_t r0, std::size_t r1) {
          OBS_SPAN("gemm.panel");
          be.gemm_block(args, r0, r1, 0, n);
        },
        pool, grain);
  } else {
    par::parallel_for_blocked(
        0, n,
        [&](std::size_t c0, std::size_t c1) {
          OBS_SPAN("gemm.panel");
          be.gemm_block(args, 0, m, c0, c1);
        },
        pool, grain);
  }
}

void spmm_csr(const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
              const float* vals, std::size_t rows, const float* x, float* out,
              std::size_t cols, bool accumulate, bool tanh,
              par::ThreadPool& pool) {
  if (rows == 0 || cols == 0) return;
  if (accumulate && tanh) {
    throw std::invalid_argument("spmm: fused tanh requires accumulate=false");
  }
  SpmmMetrics& metrics = SpmmMetrics::get();
  const std::size_t work = static_cast<std::size_t>(row_ptr[rows]) * cols;
  metrics.calls.add(1);
  metrics.flops.add(static_cast<std::uint64_t>(2) * work);

  const KernelBackend& be = backend::active();
  const SpmmArgs args{row_ptr, col_idx, vals, x, out, cols, tanh};
  if (!accumulate) std::memset(out, 0, rows * cols * sizeof(float));
  // Each output row is written by exactly one task, so no synchronization
  // is needed. The blocks hold equal row counts, of average width.
  const std::size_t grain = task_grain(work, rows, pool);
  if (grain == 0) {
    be.spmm_rows(args, 0, rows);
    return;
  }
  metrics.parallel_calls.add(1);
  par::parallel_for_blocked(
      0, rows,
      [&](std::size_t r0, std::size_t r1) { be.spmm_rows(args, r0, r1); },
      pool, grain);
}

}  // namespace mvgnn::tensor
