// Differentiable operations over ag::Tensor.
//
// Every function builds one graph node eagerly; backward closures pull the
// output gradient into the inputs. Only what the MV-GNN / DGCNN / LSTM /
// baselines need is implemented — shapes are validated loudly instead of
// broadcast silently.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/sparse.hpp"
#include "tensor/tensor.hpp"

namespace mvgnn::ag {

// ---- linear algebra -------------------------------------------------------
/// C[m,n] = A[m,k] * B[k,n] (parallel GEMM underneath).
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A * op(W) + bias in one GEMM with the bias fused into the kernel
/// epilogue (docs/kernels.md) — no matmul/add intermediates. `tw` reads W as
/// transposed (storage [n,k]); bias is [1,n].
[[nodiscard]] Tensor matmul_bias(const Tensor& a, const Tensor& w,
                                 const Tensor& bias, bool tw = false);
/// tanh(A * op(W) + bias) with bias and activation both fused into the GEMM
/// tail; backward applies the 1-y² chain before the gradient GEMMs.
[[nodiscard]] Tensor matmul_bias_tanh(const Tensor& a, const Tensor& w,
                                      const Tensor& bias, bool tw = false);
[[nodiscard]] Tensor transpose(const Tensor& a);
/// Sparse-dense product Y[m,n] = A[m,k] * X[k,n] with a parallel-for-over-
/// rows kernel. A is a constant (adjacencies carry no gradient); the
/// backward pass computes dX = A^T dY over A's cached transpose.
[[nodiscard]] Tensor spmm(const CsrMatrix& a, const Tensor& x);
/// tanh(A * X) with the activation fused into each finished spmm row — the
/// GCN-stack hot path. Backward: dX = A^T (dY ⊙ (1 - y²)).
[[nodiscard]] Tensor spmm_tanh(const CsrMatrix& a, const Tensor& x);

// ---- elementwise ------------------------------------------------------
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);  // same shape or b=[1,n] row bias
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);  // same shape
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);  // same shape
[[nodiscard]] Tensor scale(const Tensor& a, float s);
[[nodiscard]] Tensor relu(const Tensor& a);
[[nodiscard]] Tensor tanh_t(const Tensor& a);
[[nodiscard]] Tensor sigmoid(const Tensor& a);
[[nodiscard]] Tensor log_t(const Tensor& a);  // input clamped at 1e-12

// ---- reductions -------------------------------------------------------
[[nodiscard]] Tensor sum(const Tensor& a);        // -> [1,1]
[[nodiscard]] Tensor mean(const Tensor& a);       // -> [1,1]

// ---- shape ------------------------------------------------------------
[[nodiscard]] Tensor reshape(const Tensor& a, Shape s);
[[nodiscard]] Tensor concat_cols(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor concat_rows(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor slice_rows(const Tensor& a, std::size_t r0, std::size_t r1);
[[nodiscard]] Tensor slice_cols(const Tensor& a, std::size_t c0, std::size_t c1);
/// Rows may repeat; gradients accumulate into the source rows.
[[nodiscard]] Tensor gather_rows(const Tensor& a,
                                 const std::vector<std::uint32_t>& rows);

// ---- regularization / classification ----------------------------------
/// Inverted dropout; identity when !training or p == 0.
[[nodiscard]] Tensor dropout(const Tensor& a, float p, bool training,
                             par::Rng& rng);
/// Mean cross-entropy over rows from raw logits; numerically stable fused
/// log-softmax ("softmax loss" in the paper). `labels[i]` in [0, cols).
[[nodiscard]] Tensor cross_entropy_logits(const Tensor& logits,
                                          const std::vector<int>& labels);

// ---- DGCNN-specific ----------------------------------------------------
/// SortPooling (Zhang et al. 2018): sorts rows by the last column
/// descending and keeps the first k (zero-padding when n < k). Gradients
/// route back to the selected rows.
[[nodiscard]] Tensor sort_pool(const Tensor& a, std::size_t k);
/// Segment-aware SortPooling for block-diagonal graph batches: rows of
/// segment b live in [offsets[b], offsets[b+1]) and are pooled
/// independently; the output stacks the B per-graph [k, c] blocks into
/// [B*k, c]. `offsets` must start at 0, end at a.rows(), and be
/// non-decreasing. sort_pool(a, k) == sort_pool_segments(a, k, {0, n}).
[[nodiscard]] Tensor sort_pool_segments(
    const Tensor& a, std::size_t k,
    const std::vector<std::uint32_t>& offsets);
/// Flattens per-segment column blocks into rows: for each start s_b, the
/// block x[:, s_b : s_b+width] of x[C, L] becomes row b of the [B, C*width]
/// output (row-major over channels then columns — the same layout
/// reshape(x_b, {1, C*width}) would give for a single segment). Columns
/// outside every block receive zero gradient, which lets a batched stride-1
/// conv over concatenated segments simply discard the outputs that straddle
/// segment boundaries.
[[nodiscard]] Tensor segment_cols_to_rows(
    const Tensor& x, const std::vector<std::uint32_t>& starts,
    std::size_t width);
/// 1-D convolution: x[in_ch, L], w[out_ch, in_ch*ksize], b[out_ch]
/// -> y[out_ch, (L-ksize)/stride + 1].
[[nodiscard]] Tensor conv1d(const Tensor& x, const Tensor& w, const Tensor& b,
                            std::size_t ksize, std::size_t stride);
/// Segment-aware conv1d for block-diagonal batches: segment s covers
/// columns [starts[s], starts[s]+seg_width) of x and is convolved
/// independently, so no window straddles a segment boundary and nothing is
/// computed for the straddling positions a plain conv1d over the
/// concatenation would produce. Output is [out_ch, S*lseg] with
/// lseg = (seg_width-ksize)/stride + 1; segment s's windows land in columns
/// [s*lseg, (s+1)*lseg). conv1d(x,...) == conv1d_segments(x,..., {0}, L).
[[nodiscard]] Tensor conv1d_segments(const Tensor& x, const Tensor& w,
                                     const Tensor& b, std::size_t ksize,
                                     std::size_t stride,
                                     const std::vector<std::uint32_t>& starts,
                                     std::size_t seg_width);
/// Max-pooling along length: x[c, L] -> [c, L/window] (floor).
[[nodiscard]] Tensor maxpool1d(const Tensor& x, std::size_t window);

}  // namespace mvgnn::ag
