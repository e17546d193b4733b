// Drivers for the raw float32 kernels used by the autograd ops.
//
// C (m x n) += / = A (m x k) * B (k x n), row-major, optionally with either
// input logically transposed, plus the CSR spmm. The actual arithmetic lives
// in a runtime-dispatched KernelBackend (src/tensor/backend/, docs/
// kernels.md); the drivers here own output zeroing, obs metrics, and the
// par::TaskGroup fan-out — GEMM over row/N-panels, spmm over CSR row
// ranges. An optional fused Epilogue (bias add, tanh) runs in the backend's
// tail over the still-hot output block instead of as separate passes.
//
// Both drivers share one fan-out rule: a kernel goes to the pool only in
// tasks of at least kMinTaskWork multiply-adds each, so only when its work
// reaches two such tasks. Below that the call runs on the caller's thread,
// which is where a serve-sized batched forward runs whole (docs/kernels.md).
#pragma once

#include <cstddef>
#include <cstdint>

#include "parallel/thread_pool.hpp"
#include "tensor/backend/backend.hpp"

namespace mvgnn::tensor {

/// The least work worth one pool task, in multiply-adds: m*k*n for a GEMM,
/// nnz*cols for an spmm. Set from the pool's measured hop cost
/// (`BM_GemmFanOut` in bench/abl_gemm.cpp): on a 4-core x86 box, handing a
/// GEMM to the idle pool and joining it cost about 20 us, so a four-way
/// split lost to the serial call up to 2^18 and tied at 2^19, while one task
/// of 2^19 runs about 30 us on its own.
inline constexpr std::size_t kMinTaskWork = std::size_t{1} << 19;

/// C = A * B (+ epilogue). `ta`/`tb` interpret A/B as transposed (their
/// storage shapes are then k x m / n x k respectively). A non-empty `ep`
/// requires accumulate=false. The pool only affects how the output is split
/// into tasks, never the results: a fixed backend is bit-identical across
/// pool sizes (see backend.hpp).
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool ta = false, bool tb = false,
          bool accumulate = false, const Epilogue& ep = {},
          par::ThreadPool& pool = par::ThreadPool::global());

/// out[rows x cols] = / += A * X for CSR A (row_ptr size rows+1). `tanh`
/// fuses the activation into each finished row and requires
/// accumulate=false. Used with A's cached transpose this is also the
/// backward spmm-transpose product.
void spmm_csr(const std::uint32_t* row_ptr, const std::uint32_t* col_idx,
              const float* vals, std::size_t rows, const float* x, float* out,
              std::size_t cols, bool accumulate = false, bool tanh = false,
              par::ThreadPool& pool = par::ThreadPool::global());

}  // namespace mvgnn::tensor
