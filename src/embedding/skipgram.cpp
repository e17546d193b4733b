#include "embedding/skipgram.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace mvgnn::embedding {

std::vector<float> EmbeddingTable::mean_of(
    std::span<const std::uint32_t> ids) const {
  std::vector<float> out(dim_, 0.0f);
  if (ids.empty() || vocab_ == 0) return out;
  for (const std::uint32_t id : ids) {
    const auto r = row(std::min(id, vocab_ - 1));
    for (std::uint32_t d = 0; d < dim_; ++d) out[d] += r[d];
  }
  const float inv = 1.0f / static_cast<float>(ids.size());
  for (float& x : out) x *= inv;
  return out;
}

float EmbeddingTable::cosine(std::uint32_t a, std::uint32_t b) const {
  const auto ra = row(a), rb = row(b);
  float dot = 0.0f, na = 0.0f, nb = 0.0f;
  for (std::uint32_t d = 0; d < dim_; ++d) {
    dot += ra[d] * rb[d];
    na += ra[d] * ra[d];
    nb += rb[d] * rb[d];
  }
  const float denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 0.0f ? dot / denom : 0.0f;
}

namespace {

using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Dot products of `vc` with kLanes rows, one independent chain per row,
/// each summed over d = 0..W-1 in order: the rounding of one row at a time,
/// with the chains' latencies overlapped. The lanes are unrolled by index
/// sequence so each accumulator lives in a register.
constexpr std::size_t kLanes = 8;

template <std::uint32_t W, std::size_t... J>
void dots(const float* __restrict vc, const float* const* rows,
          float* const* out, std::index_sequence<J...>) {
  float acc[] = {((void)J, 0.0f)...};
  for (std::uint32_t d = 0; d < W; ++d) {
    const float x = vc[d];
    ((acc[J] = std::fma(x, rows[J][d], acc[J])), ...);
  }
  ((*out[J] = acc[J]), ...);
}

template <std::uint32_t W>
float dot(const float* __restrict a, const float* __restrict b) {
  float acc = 0.0f;
  for (std::uint32_t d = 0; d < W; ++d) acc = std::fma(a[d], b[d], acc);
  return acc;
}

/// One target's update: gc += g * vo, then vo += (lr * g) * vc.
template <std::uint32_t W>
void update(float* __restrict gc, float* __restrict vo,
            const float* __restrict vc, float g, float lr_g) {
  for (std::uint32_t d = 0; d < W; ++d) {
    gc[d] = std::fma(g, vo[d], gc[d]);
    vo[d] = std::fma(lr_g, vc[d], vo[d]);
  }
}

/// The SGNS epochs over `pairs` at row width W. Every multiply-add is an
/// explicit std::fma, so the result is the same in every build
/// configuration (docs/pipeline.md, "The skip-gram kernel").
template <std::uint32_t W>
void train_rows(EmbeddingTable& in_table, const Pairs& pairs,
                const std::vector<std::uint32_t>& neg_table,
                const SkipGramParams& params, par::Rng& rng) {
  std::vector<float> out_table(std::size_t{in_table.vocab_size()} * W, 0.0f);
  auto sigmoid = [](float x) {
    return 1.0f / (1.0f + std::exp(-std::clamp(x, -8.0f, 8.0f)));
  };
  // Lanes past the pair's distinct targets read this zero row.
  alignas(64) static constexpr std::array<float, W> kZeroRow{};

  const std::size_t n_targets = std::size_t{params.negatives} + 1;
  std::vector<std::uint32_t> targets(n_targets);
  std::vector<float> target_dot(n_targets);
  std::vector<unsigned char> repeated(n_targets);
  float spill = 0.0f;  // the padding lanes' dots
  alignas(64) std::array<float, W> grad_center;
  const std::uint64_t total_updates =
      std::uint64_t{params.epochs} * pairs.size();
  std::uint64_t done = 0;
  for (std::uint32_t epoch = 0; epoch < params.epochs; ++epoch) {
    for (const auto& [center, context] : pairs) {
      // Linear learning-rate decay to 10% of the initial rate.
      const float lr =
          params.lr *
          std::max(0.1f, 1.0f - static_cast<float>(done++) /
                                    static_cast<float>(total_updates));
      float* __restrict vc = in_table.row(center).data();

      // Target 0 is the context (label 1); then the negatives in draw
      // order, a draw equal to the context skipped.
      std::size_t m = 0;
      targets[m++] = context;
      for (std::uint32_t k = 0; k < params.negatives; ++k) {
        const std::uint32_t t = neg_table[rng.uniform_u64(neg_table.size())];
        if (t != context) targets[m++] = t;
      }

      // A target's first occurrence sees the rows as they were before this
      // pair, so those dots are computed up front, kLanes at a time. A
      // repeat sees its earlier occurrence's update and is recomputed at
      // its own turn below.
      std::array<const float*, kLanes> rows;
      std::array<float*, kLanes> out;
      std::size_t lanes = 0;
      auto flush = [&] {
        for (; lanes < kLanes; ++lanes) {
          rows[lanes] = kZeroRow.data();
          out[lanes] = &spill;
        }
        dots<W>(vc, rows.data(), out.data(),
                std::make_index_sequence<kLanes>{});
        lanes = 0;
      };
      for (std::size_t k = 0; k < m; ++k) {
        repeated[k] = std::find(targets.begin(), targets.begin() + k,
                                targets[k]) != targets.begin() + k;
        if (repeated[k]) continue;
        rows[lanes] = out_table.data() + std::size_t{targets[k]} * W;
        out[lanes++] = &target_dot[k];
        if (lanes == kLanes) flush();
      }
      if (lanes > 0) flush();

      grad_center.fill(0.0f);
      for (std::size_t k = 0; k < m; ++k) {
        float* __restrict vo = out_table.data() + std::size_t{targets[k]} * W;
        const float dk = repeated[k] ? dot<W>(vc, vo) : target_dot[k];
        const float g = (k == 0 ? 1.0f : 0.0f) - sigmoid(dk);
        update<W>(grad_center.data(), vo, vc, g, lr * g);
      }
      for (std::uint32_t d = 0; d < W; ++d) {
        vc[d] = std::fma(lr, grad_center[d], vc[d]);
      }
    }
  }
}

}  // namespace

EmbeddingTable train_skipgram(std::uint32_t vocab_size, const Pairs& pairs,
                              const SkipGramParams& params, par::Rng& rng) {
  const std::uint32_t dim = params.dim;
  decltype(&train_rows<8>) train = nullptr;
  switch (dim) {
    case 8: train = &train_rows<8>; break;
    case 16: train = &train_rows<16>; break;
    case 32: train = &train_rows<32>; break;
    case 64: train = &train_rows<64>; break;
    default:
      throw std::invalid_argument("train_skipgram: unsupported dim " +
                                  std::to_string(dim) +
                                  " (supported: 8, 16, 32, 64)");
  }

  // Negative-sampling table: unigram counts over contexts, raised to 0.75.
  // The same pass rejects ids outside the vocabulary before any row is
  // touched.
  std::vector<double> freq(vocab_size, 1.0);  // +1 smoothing
  for (const auto& [c, ctx] : pairs) {
    if (c >= vocab_size || ctx >= vocab_size) {
      throw std::invalid_argument(
          "train_skipgram: pair (" + std::to_string(c) + ", " +
          std::to_string(ctx) + ") outside vocabulary of " +
          std::to_string(vocab_size));
    }
    freq[ctx] += 1.0;
  }

  EmbeddingTable in_table(vocab_size, dim);

  // Uniform(-0.5/dim, 0.5/dim) init for input vectors (word2vec convention).
  for (std::uint32_t v = 0; v < vocab_size; ++v) {
    auto r = in_table.row(v);
    for (float& x : r) {
      x = static_cast<float>((rng.uniform() - 0.5) / dim);
    }
  }

  std::vector<std::uint32_t> neg_table;
  neg_table.reserve(1 << 16);
  double total = 0.0;
  for (double& f : freq) {
    f = std::pow(f, 0.75);
    total += f;
  }
  for (std::uint32_t v = 0; v < vocab_size; ++v) {
    const auto slots = static_cast<std::size_t>(freq[v] / total * (1 << 16)) + 1;
    for (std::size_t s = 0; s < slots; ++s) neg_table.push_back(v);
  }

  train(in_table, pairs, neg_table, params, rng);
  return in_table;
}

}  // namespace mvgnn::embedding
