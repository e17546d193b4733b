// inst2vec-style embedding tests: statement normalization, context pair
// generation, and skip-gram training sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "embedding/normalizer.hpp"
#include "embedding/skipgram.hpp"
#include "frontend/lower.hpp"

namespace {

using namespace mvgnn;
using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// The one-target-at-a-time skip-gram loop train_skipgram replaced, with
/// every multiply-add written as std::fma (what the optimized build of the
/// old loop contracted them to). The kernel must match it bit for bit.
embedding::EmbeddingTable reference_skipgram(
    std::uint32_t vocab_size, const Pairs& pairs,
    const embedding::SkipGramParams& params, par::Rng& rng) {
  const std::uint32_t dim = params.dim;
  embedding::EmbeddingTable in_table(vocab_size, dim);
  std::vector<float> out_table(std::size_t{vocab_size} * dim, 0.0f);
  for (std::uint32_t v = 0; v < vocab_size; ++v) {
    for (float& x : in_table.row(v)) {
      x = static_cast<float>((rng.uniform() - 0.5) / dim);
    }
  }
  std::vector<double> freq(vocab_size, 1.0);
  for (const auto& [c, ctx] : pairs) {
    (void)c;
    freq[ctx] += 1.0;
  }
  std::vector<std::uint32_t> neg_table;
  double total = 0.0;
  for (double& f : freq) {
    f = std::pow(f, 0.75);
    total += f;
  }
  for (std::uint32_t v = 0; v < vocab_size; ++v) {
    const auto slots = static_cast<std::size_t>(freq[v] / total * (1 << 16)) + 1;
    for (std::size_t s = 0; s < slots; ++s) neg_table.push_back(v);
  }
  auto sigmoid = [](float x) {
    return 1.0f / (1.0f + std::exp(-std::clamp(x, -8.0f, 8.0f)));
  };
  std::vector<float> grad_center(dim);
  const std::uint64_t total_updates =
      std::uint64_t{params.epochs} * pairs.size();
  std::uint64_t done = 0;
  for (std::uint32_t epoch = 0; epoch < params.epochs; ++epoch) {
    for (const auto& [center, context] : pairs) {
      const float lr =
          params.lr *
          std::max(0.1f, 1.0f - static_cast<float>(done++) /
                                    static_cast<float>(total_updates));
      auto vc = in_table.row(center);
      std::fill(grad_center.begin(), grad_center.end(), 0.0f);
      for (std::uint32_t k = 0; k <= params.negatives; ++k) {
        const bool positive = (k == 0);
        const std::uint32_t target =
            positive ? context
                     : neg_table[rng.uniform_u64(neg_table.size())];
        if (!positive && target == context) continue;
        float* vo = out_table.data() + std::size_t{target} * dim;
        float dot = 0.0f;
        for (std::uint32_t d = 0; d < dim; ++d) {
          dot = std::fma(vc[d], vo[d], dot);
        }
        const float g = (positive ? 1.0f : 0.0f) - sigmoid(dot);
        for (std::uint32_t d = 0; d < dim; ++d) {
          grad_center[d] = std::fma(g, vo[d], grad_center[d]);
          vo[d] = std::fma(lr * g, vc[d], vo[d]);
        }
      }
      for (std::uint32_t d = 0; d < dim; ++d) {
        vc[d] = std::fma(lr, grad_center[d], vc[d]);
      }
    }
  }
  return in_table;
}

TEST(Normalizer, AbstractsIdentifiersAndConstants) {
  const ir::Module m = frontend::compile(R"(
float kernel(float[] a, float[] b) {
  float x = a[0] * 2.0;
  float y = b[1] * 3.5;
  return x + y;
}
)",
                                         "t");
  const ir::Function& fn = *m.find("kernel");
  // The two `arrayload * constant` statements normalize to the same token
  // despite different arrays and constants.
  std::vector<std::string> muls;
  for (const ir::Instruction& in : fn.instrs) {
    if (in.op == ir::Opcode::FMul) muls.push_back(embedding::normalize(in));
  }
  ASSERT_EQ(muls.size(), 2u);
  EXPECT_EQ(muls[0], muls[1]);
}

TEST(Normalizer, BuiltinsKeepTheirNamesUserCallsDoNot) {
  const ir::Module m = frontend::compile(R"(
float helper(float x) { return x; }
float kernel(float a) {
  return sqrt(a) + exp(a) + helper(a);
}
)",
                                         "t");
  const ir::Function& fn = *m.find("kernel");
  std::vector<std::string> calls;
  for (const ir::Instruction& in : fn.instrs) {
    if (in.op == ir::Opcode::Call) calls.push_back(embedding::normalize(in));
  }
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_NE(calls[0], calls[1]);  // sqrt vs exp differ
  EXPECT_NE(calls[2].find("@user"), std::string::npos);
}

TEST(Vocab, GrowsAndFreezes) {
  embedding::Vocab v;
  const auto a = v.id_of("tok_a", true);
  const auto b = v.id_of("tok_b", true);
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(v.id_of("tok_a", true), a);
  v.freeze();
  EXPECT_EQ(v.id_of("tok_new", true), 0u);
  EXPECT_EQ(v.size(), 3u);
}

TEST(ContextPairs, SymmetricAndNonEmpty) {
  const ir::Module m = frontend::compile(R"(
float kernel(float a) {
  float x = a * 2.0;
  return x + 1.0;
}
)",
                                         "t");
  embedding::Vocab v;
  const auto pairs =
      embedding::context_pairs(*m.find("kernel"), v, /*grow=*/true);
  ASSERT_FALSE(pairs.empty());
  // Every (a, b) has its mirror (b, a).
  for (const auto& [x, y] : pairs) {
    EXPECT_NE(std::find(pairs.begin(), pairs.end(), std::make_pair(y, x)),
              pairs.end());
  }
}

TEST(SkipGram, CoOccurringTokensEndUpCloser) {
  // Synthetic vocabulary: tokens 1 and 2 always co-occur, token 3 only ever
  // pairs with 4. After training, sim(1,2) should beat sim(1,3).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (int i = 0; i < 400; ++i) {
    pairs.emplace_back(1, 2);
    pairs.emplace_back(2, 1);
    pairs.emplace_back(3, 4);
    pairs.emplace_back(4, 3);
  }
  embedding::SkipGramParams params;
  params.dim = 16;
  params.epochs = 4;
  par::Rng rng(11);
  const auto table = embedding::train_skipgram(5, pairs, params, rng);
  EXPECT_GT(table.cosine(1, 2), table.cosine(1, 3));
  EXPECT_GT(table.cosine(3, 4), table.cosine(3, 2));
}

TEST(SkipGram, MeanOfIsAverageAndHandlesEmpty) {
  embedding::EmbeddingTable t(3, 4);
  for (std::uint32_t d = 0; d < 4; ++d) {
    t.row(1)[d] = 1.0f;
    t.row(2)[d] = 3.0f;
  }
  const std::vector<std::uint32_t> ids = {1, 2};
  const auto mean = t.mean_of(ids);
  for (const float x : mean) EXPECT_FLOAT_EQ(x, 2.0f);
  const auto empty = t.mean_of(std::span<const std::uint32_t>{});
  for (const float x : empty) EXPECT_FLOAT_EQ(x, 0.0f);
}

TEST(SkipGram, DeterministicGivenSeed) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs = {
      {1, 2}, {2, 1}, {1, 3}, {3, 1}};
  embedding::SkipGramParams params;
  params.dim = 8;
  par::Rng r1(5), r2(5);
  const auto a = embedding::train_skipgram(4, pairs, params, r1);
  const auto b = embedding::train_skipgram(4, pairs, params, r2);
  for (std::uint32_t v = 0; v < 4; ++v) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      EXPECT_FLOAT_EQ(a.row(v)[d], b.row(v)[d]);
    }
  }
}

TEST(SkipGram, MatchesSequentialReference) {
  // Three pair streams: a 3-token vocabulary, where most pairs draw a
  // repeated negative and many draw the context itself; a skewed one, where
  // token 1 dominates the negative table; and a wide 40-token one.
  std::vector<std::pair<std::uint32_t, Pairs>> streams;
  Pairs tiny;
  for (int i = 0; i < 300; ++i) {
    tiny.emplace_back(i % 3, (i + 1) % 3);
  }
  streams.emplace_back(3, tiny);
  Pairs skewed;
  for (int i = 0; i < 300; ++i) {
    skewed.emplace_back(1 + i % 5, 1);
    skewed.emplace_back(1, 1 + i % 5);
  }
  streams.emplace_back(6, skewed);
  Pairs wide;
  par::Rng pick(9);
  for (int i = 0; i < 600; ++i) {
    wide.emplace_back(pick.uniform_u64(40), pick.uniform_u64(40));
  }
  streams.emplace_back(40, wide);

  for (const std::uint32_t dim : {8u, 16u, 32u, 64u}) {
    for (const std::uint32_t negatives : {1u, 5u, 7u}) {
      for (const auto& [vocab, pairs] : streams) {
        SCOPED_TRACE("dim " + std::to_string(dim) + " negatives " +
                     std::to_string(negatives) + " vocab " +
                     std::to_string(vocab));
        embedding::SkipGramParams params;
        params.dim = dim;
        params.negatives = negatives;
        params.epochs = 2;
        par::Rng r1(13), r2(13);
        const auto got = embedding::train_skipgram(vocab, pairs, params, r1);
        const auto want = reference_skipgram(vocab, pairs, params, r2);
        for (std::uint32_t v = 0; v < vocab; ++v) {
          ASSERT_EQ(std::memcmp(got.row(v).data(), want.row(v).data(),
                                sizeof(float) * dim),
                    0)
              << "row " << v;
        }
        // Both consumed the same draws.
        EXPECT_EQ(r1.uniform_u64(1u << 30), r2.uniform_u64(1u << 30));
      }
    }
  }
}

TEST(SkipGram, RejectsUnsupportedWidth) {
  embedding::SkipGramParams params;
  params.dim = 12;
  par::Rng rng(1);
  EXPECT_THROW((void)embedding::train_skipgram(4, {{1, 2}}, params, rng),
               std::invalid_argument);
}

TEST(SkipGram, RejectsPairsOutsideTheVocabulary) {
  embedding::SkipGramParams params;
  params.dim = 8;
  par::Rng rng(1);
  EXPECT_THROW(
      (void)embedding::train_skipgram(4, {{1, 2}, {2, 4}}, params, rng),
      std::invalid_argument);
  EXPECT_THROW((void)embedding::train_skipgram(4, {{7, 1}}, params, rng),
               std::invalid_argument);
  EXPECT_THROW((void)embedding::train_skipgram(0, {{0, 0}}, params, rng),
               std::invalid_argument);
}

TEST(SkipGram, MeanOfOnAnEmptyTableIsZero) {
  const embedding::EmbeddingTable t(0, 4);
  const std::vector<std::uint32_t> ids = {0, 3};
  const auto mean = t.mean_of(ids);
  ASSERT_EQ(mean.size(), 4u);
  for (const float x : mean) EXPECT_EQ(x, 0.0f);
}

}  // namespace
