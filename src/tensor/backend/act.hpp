// Shared activation numerics for every kernel backend.
//
// fast_tanh is defined here so the fused spmm epilogue and the elementwise
// ag::tanh_t op both evaluate the *same* polynomial — one numerics policy
// (docs/kernels.md §numerics) instead of a per-call-site drift. It is
// header-inline on purpose: each backend TU compiles it with its own ISA
// flags, so the AVX2 TU gets the vectorized form for free while the
// portable TU stays baseline.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

namespace mvgnn::tensor::backend {

/// Branchless float tanh via a range-reduced exp2 polynomial:
/// tanh(x) = (e^{2x}-1)/(e^{2x}+1). Max abs error vs std::tanh is ~1e-7,
/// well inside float round-off for downstream math, and unlike libm tanhf
/// it auto-vectorizes, which matters for the GCN stack where tanh over the
/// node-feature blocks otherwise dominates the forward pass.
inline float fast_tanh(float x) {
  // |2x| > 17.0 => tanh(x) == +/-1 to float precision.
  float u = 2.0f * x;
  u = std::min(17.0f, std::max(-17.0f, u));
  // e^u = 2^n * e^r with n = round(u/ln2), r in [-ln2/2, ln2/2]. Round via
  // the add-magic-number trick so the whole body stays branchless.
  const float kLog2e = 1.44269504088896341f;
  const float kLn2Hi = 0.693359375f;
  const float kLn2Lo = -2.12194440e-4f;
  const float kRound = 12582912.0f;  // 1.5 * 2^23
  const float shifted = u * kLog2e + kRound;
  const std::int32_t n =
      std::bit_cast<std::int32_t>(shifted) - std::bit_cast<std::int32_t>(kRound);
  const float nf = shifted - kRound;
  const float r = (u - nf * kLn2Hi) - nf * kLn2Lo;
  // Degree-5 minimax polynomial for e^r on the reduced range.
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * r * r + r + 1.0f;
  // Scale by 2^n through the exponent bits (n is in [-25, 25] here, so the
  // biased exponent never over/underflows).
  const float t = p * std::bit_cast<float>((n + 127) << 23);
  return (t - 1.0f) / (t + 1.0f);
}

}  // namespace mvgnn::tensor::backend
