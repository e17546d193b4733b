// Layer tests: shapes, adjacency normalization, LSTM recurrence, weight
// serialization, and end-to-end trainability of small networks.
#include <gtest/gtest.h>

#include <string>

#include "io/codec.hpp"
#include "nn/layers.hpp"
#include "tensor/optim.hpp"

namespace {

using namespace mvgnn;
using ag::Tensor;

TEST(Linear, ShapesAndBias) {
  par::Rng rng(1);
  nn::Linear lin(4, 3, rng);
  Tensor x = Tensor::full({5, 4}, 0.0f);
  Tensor y = lin.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 3u);
  // Zero input -> bias rows; bias initializes to zero.
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_FLOAT_EQ(y.data()[i], 0.0f);
  }
  EXPECT_EQ(lin.num_parameters(), 4 * 3 + 3);
}

TEST(Adjacency, RowsSumToOneAndSymmetrize) {
  const auto csr = nn::dgcnn_adjacency(3, {{0, 1}});
  const Tensor ahat = csr.to_dense();
  for (std::size_t r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) sum += ahat.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  // The directed edge 0->1 appears in both directions.
  EXPECT_GT(ahat.at(1, 0), 0.0f);
  EXPECT_GT(ahat.at(0, 1), 0.0f);
  // Node 2 is isolated: only its self loop.
  EXPECT_FLOAT_EQ(ahat.at(2, 2), 1.0f);
  // CSR invariants: 3 rows, nnz = 2 self loops + symmetric edge + 1.
  EXPECT_EQ(csr.rows(), 3u);
  EXPECT_EQ(csr.nnz(), 5u);
}

TEST(GcnConv, PropagatesNeighbourInformation) {
  par::Rng rng(2);
  nn::GcnConv conv(2, 2, rng);
  const auto ahat = nn::dgcnn_adjacency(2, {{0, 1}});
  // Distinct node features: after one conv the rows differ from a pure
  // self-transform because of neighbour mixing.
  Tensor x = Tensor::from_data({2, 2}, {1.0f, 0.0f, 0.0f, 1.0f});
  Tensor y = conv.forward(ahat, x);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 2u);
  // Both rows see the same mixed input (0.5, 0.5) here, so they're equal.
  EXPECT_NEAR(y.at(0, 0), y.at(1, 0), 1e-6f);
}

TEST(Lstm, OutputShapeAndStateEvolution) {
  par::Rng rng(3);
  nn::Lstm lstm(4, 6, rng);
  par::Rng data_rng(4);
  Tensor seq = Tensor::randn({5, 4}, data_rng, 1.0f, false);
  Tensor h = lstm.forward(seq);
  EXPECT_EQ(h.rows(), 5u);
  EXPECT_EQ(h.cols(), 6u);
  // Hidden states are bounded by tanh and change across steps.
  bool changed = false;
  for (std::size_t t = 1; t < 5; ++t) {
    for (std::size_t d = 0; d < 6; ++d) {
      EXPECT_LE(std::abs(h.at(t, d)), 1.0f);
      if (std::abs(h.at(t, d) - h.at(t - 1, d)) > 1e-6f) changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(Lstm, LearnsLastTokenClassification) {
  // Toy task: classify by the sign of the last input element.
  par::Rng rng(5);
  nn::Lstm lstm(1, 8, rng);
  nn::Linear head(8, 2, rng);
  ag::Adam opt(5e-2f);
  opt.add_params(lstm.parameters());
  opt.add_params(head.parameters());

  par::Rng data(6);
  auto make_seq = [&](int label) {
    std::vector<float> v(4);
    for (float& x : v) x = static_cast<float>(data.normal()) * 0.3f;
    v[3] = label ? 1.0f : -1.0f;
    return Tensor::from_data({4, 1}, std::move(v));
  };
  for (int step = 0; step < 300; ++step) {
    const int label = step % 2;
    Tensor h = lstm.forward(make_seq(label));
    Tensor logits = head.forward(ag::slice_rows(h, 3, 4));
    Tensor loss = ag::cross_entropy_logits(logits, {label});
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  int correct = 0;
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    Tensor h = lstm.forward(make_seq(label));
    Tensor logits = head.forward(ag::slice_rows(h, 3, 4));
    correct += ((logits.at(0, 1) > logits.at(0, 0)) == (label == 1));
  }
  EXPECT_GE(correct, 36);
}

TEST(Serialization, RoundTripsWeightsExactly) {
  par::Rng rng(7);
  nn::Linear a(6, 4, rng);
  nn::Linear b(6, 4, rng);  // different init
  io::ByteWriter w;
  nn::save_weights(a, w);
  const std::string bytes = w.take();
  io::ByteReader r(bytes, "load_weights");
  nn::load_weights(b, r);
  const auto pa = a.parameters(), pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t k = 0; k < pa[i].numel(); ++k) {
      EXPECT_FLOAT_EQ(pa[i].data()[k], pb[i].data()[k]);
    }
  }
}

TEST(Serialization, RejectsShapeMismatch) {
  par::Rng rng(8);
  nn::Linear a(6, 4, rng);
  nn::Linear wrong(6, 5, rng);
  io::ByteWriter w;
  nn::save_weights(a, w);
  const std::string bytes = w.take();
  io::ByteReader r(bytes, "load_weights");
  EXPECT_THROW(nn::load_weights(wrong, r), std::runtime_error);
  io::ByteReader garbage("not a weights file", "load_weights");
  EXPECT_THROW(nn::load_weights(a, garbage), std::runtime_error);
}

TEST(Training, LinearLayerSolvesLinearlySeparableTask) {
  par::Rng rng(9);
  nn::Linear lin(2, 2, rng);
  ag::Adam opt(5e-2f);
  opt.add_params(lin.parameters());
  par::Rng data(10);
  for (int step = 0; step < 400; ++step) {
    const float x0 = static_cast<float>(data.normal());
    const float x1 = static_cast<float>(data.normal());
    const int label = (x0 + x1 > 0.0f) ? 1 : 0;
    Tensor x = Tensor::from_data({1, 2}, {x0, x1});
    Tensor loss = ag::cross_entropy_logits(lin.forward(x), {label});
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  int correct = 0;
  for (int i = 0; i < 100; ++i) {
    const float x0 = static_cast<float>(data.normal());
    const float x1 = static_cast<float>(data.normal());
    const int label = (x0 + x1 > 0.0f) ? 1 : 0;
    Tensor logits = lin.forward(Tensor::from_data({1, 2}, {x0, x1}));
    correct += ((logits.at(0, 1) > logits.at(0, 0)) == (label == 1));
  }
  EXPECT_GE(correct, 95);
}

}  // namespace
