// Skip-gram with negative sampling over normalized IR tokens — a from-
// scratch inst2vec. Trained once over the whole corpus; the resulting
// per-token vectors become the static part of every PEG node's features.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/rng.hpp"

namespace mvgnn::embedding {

struct SkipGramParams {
  std::uint32_t dim = 32;
  std::uint32_t negatives = 5;
  float lr = 0.025f;
  std::uint32_t epochs = 3;
};

/// Trained embedding table: one row per vocabulary slot.
class EmbeddingTable {
 public:
  EmbeddingTable() = default;
  EmbeddingTable(std::uint32_t vocab, std::uint32_t dim)
      : vocab_(vocab), dim_(dim), data_(std::size_t{vocab} * dim, 0.0f) {}

  [[nodiscard]] std::uint32_t vocab_size() const { return vocab_; }
  [[nodiscard]] std::uint32_t dim() const { return dim_; }
  [[nodiscard]] std::span<const float> row(std::uint32_t id) const {
    return {data_.data() + std::size_t{id} * dim_, dim_};
  }
  [[nodiscard]] std::span<float> row(std::uint32_t id) {
    return {data_.data() + std::size_t{id} * dim_, dim_};
  }
  /// Mean of several rows (a node's instruction-set embedding); returns a
  /// zero vector for an empty id list or a table without rows.
  [[nodiscard]] std::vector<float> mean_of(
      std::span<const std::uint32_t> ids) const;
  /// Cosine similarity between two vocabulary rows.
  [[nodiscard]] float cosine(std::uint32_t a, std::uint32_t b) const;

 private:
  std::uint32_t vocab_ = 0;
  std::uint32_t dim_ = 0;
  std::vector<float> data_;
};

/// Trains skip-gram/negative-sampling embeddings from (center, context) id
/// pairs. The unigram^0.75 negative-sampling distribution is estimated from
/// the pair stream itself. Throws std::invalid_argument when `params.dim`
/// is not 8, 16, 32 or 64, or when a pair id is not below `vocab_size`.
[[nodiscard]] EmbeddingTable train_skipgram(
    std::uint32_t vocab_size,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    const SkipGramParams& params, par::Rng& rng);

}  // namespace mvgnn::embedding
