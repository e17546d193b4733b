// Runtime-dispatched kernel backends for the tensor hot path.
//
// A `KernelBackend` implements the two primitives everything in the model
// bottoms out in — dense GEMM blocks and CSR spmm row-ranges — plus a fused
// bias/tanh epilogue so callers never materialize `matmul -> add -> tanh`
// intermediates. The drivers in gemm.cpp own zeroing, metrics and the
// TaskGroup fan-out; a backend only ever computes a rectangular block of C
// (or a row range of the spmm output) and always *accumulates* into it.
//
// Determinism contract (tested in tests/test_backend.cpp): every output
// element is produced by exactly one task, and each backend accumulates the
// K dimension in a fixed order that does not depend on the block boundaries
// it was handed. A fixed backend is therefore bit-identical across runs and
// across thread counts; *different* backends agree only to ~1e-5 (different
// FMA grouping), which is why the dispatch is observable (`tensor.backend`
// gauge, `--force-backend`) and pinned in CI.
//
// Adding a backend (docs/kernels.md has the walkthrough): implement the
// interface in backend/<name>.cpp, compile-gate it in src/tensor/
// CMakeLists.txt with a MVGNN_HAVE_BACKEND_<NAME> define, and register it in
// the preference list in dispatch.cpp. Callers never change — that is the
// slot a future GPU/MPI backend plugs into.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "tensor/backend/act.hpp"

namespace mvgnn::tensor {

/// Fused tail applied to a finished output block. `bias_col` adds a length-n
/// row vector to every row (linear-layer bias); `bias_row` adds bias_row[i]
/// across row i (conv out-channel bias). Only meaningful with
/// accumulate=false — the driver enforces it.
struct Epilogue {
  const float* bias_col = nullptr;  // [n], added to every row
  const float* bias_row = nullptr;  // [m], added across each row

  [[nodiscard]] bool empty() const {
    return bias_col == nullptr && bias_row == nullptr;
  }
};

/// One GEMM problem: C[m,n] += op(A)[m,k] * op(B)[k,n], row-major. `ta`/`tb`
/// interpret A/B as transposed (storage k x m / n x k); backends read the
/// operands through strided packing, nothing is ever materialized.
struct GemmArgs {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  std::size_t m = 0, k = 0, n = 0;
  bool ta = false, tb = false;
  Epilogue ep;
};

/// One CSR spmm problem: out[r,:] += sum_e vals[e] * x[col_idx[e],:] over
/// row r's entries, row width `cols`. `tanh` maps each finished row through
/// fast_tanh (the GCN-stack activation).
struct SpmmArgs {
  const std::uint32_t* row_ptr = nullptr;
  const std::uint32_t* col_idx = nullptr;
  const float* vals = nullptr;
  const float* x = nullptr;
  float* out = nullptr;
  std::size_t cols = 0;
  bool tanh = false;
};

class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// Stable id surfaced as the `tensor.backend` gauge: 0 scalar, 1 avx2,
  /// 2 neon. Frozen — report rendering decodes it offline.
  [[nodiscard]] virtual int id() const = 0;
  /// Runtime CPU-feature check; compiled-in but non-usable backends are
  /// skipped by the dispatcher and rejected by force().
  [[nodiscard]] virtual bool usable() const = 0;

  /// C rows [i0,i1) x cols [j0,j1) += op(A)*op(B) over the full K range,
  /// then g.ep applied to exactly that block.
  virtual void gemm_block(const GemmArgs& g, std::size_t i0, std::size_t i1,
                          std::size_t j0, std::size_t j1) const = 0;

  /// out rows [r0,r1) += A[r0:r1,:] * X (CSR), then optional tanh per row.
  virtual void spmm_rows(const SpmmArgs& s, std::size_t r0,
                         std::size_t r1) const = 0;
};

namespace backend {

/// The dispatched backend: forced one if set, else MVGNN_BACKEND env when it
/// names a usable backend, else the first usable entry of all(). Selection
/// is published once to the `tensor.backend` gauge and the log.
const KernelBackend& active();

/// Always-available scalar reference backend.
const KernelBackend& scalar_backend();

/// Every compiled-in backend in dispatch preference order (SIMD first,
/// scalar last). Entries may be non-usable on this CPU.
const std::vector<const KernelBackend*>& all();

/// Forces dispatch to `name` ("scalar", "avx2", "neon"); "auto" re-runs the
/// automatic selection. Returns false (and changes nothing) when the name is
/// unknown, not compiled in, or not usable on this CPU.
bool force(std::string_view name);

/// Decodes a `tensor.backend` gauge value; "unknown" for ids never issued.
const char* name_for_id(int id);

/// Shared fused tail, inlined into each backend TU so it vectorizes with
/// that TU's ISA flags. Applies `g.ep` to C rows [i0,i1) x cols [j0,j1).
inline void apply_epilogue(const GemmArgs& g, std::size_t i0, std::size_t i1,
                           std::size_t j0, std::size_t j1) {
  if (g.ep.empty()) return;
  for (std::size_t i = i0; i < i1; ++i) {
    float* row = g.c + i * g.n;
    if (g.ep.bias_col != nullptr) {
      for (std::size_t j = j0; j < j1; ++j) row[j] += g.ep.bias_col[j];
    }
    if (g.ep.bias_row != nullptr) {
      const float bi = g.ep.bias_row[i];
      for (std::size_t j = j0; j < j1; ++j) row[j] += bi;
    }
  }
}

/// Strided element access that folds the transpose flags away — packing
/// routines read operands through these instead of materializing transposes.
inline float gemm_a_at(const GemmArgs& g, std::size_t i, std::size_t p) {
  return g.ta ? g.a[p * g.m + i] : g.a[i * g.k + p];
}
inline float gemm_b_at(const GemmArgs& g, std::size_t p, std::size_t j) {
  return g.tb ? g.b[j * g.k + p] : g.b[p * g.n + j];
}

}  // namespace backend

}  // namespace mvgnn::tensor
