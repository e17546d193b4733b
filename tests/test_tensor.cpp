// Autograd correctness: every op's analytic gradient is compared against a
// central-difference numerical gradient, plus shape/validation and
// optimizer behaviour tests.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"

namespace {

using namespace mvgnn;
using ag::Shape;
using ag::Tensor;

/// Central-difference gradient check: builds the graph via `fn` (a scalar
/// function of `inputs`), backprops, and compares input gradients against
/// numerical estimates.
void gradcheck(const std::vector<Tensor>& inputs,
               const std::function<Tensor()>& fn, float eps = 1e-3f,
               float tol = 2e-2f) {
  Tensor out = fn();
  ASSERT_EQ(out.numel(), 1u) << "gradcheck needs a scalar objective";
  for (const Tensor& t : inputs) {
    const_cast<Tensor&>(t).zero_grad();
  }
  out.backward();

  for (std::size_t ti = 0; ti < inputs.size(); ++ti) {
    Tensor t = inputs[ti];
    const std::vector<float> analytic = t.grad();
    for (std::size_t k = 0; k < t.numel(); ++k) {
      const float orig = t.data()[k];
      t.data()[k] = orig + eps;
      const float up = fn().item();
      t.data()[k] = orig - eps;
      const float down = fn().item();
      t.data()[k] = orig;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic[k], numeric, tol)
          << "input " << ti << " element " << k;
    }
  }
}

Tensor make(Shape s, std::uint64_t seed) {
  par::Rng rng(seed);
  return Tensor::randn(s, rng, 0.7f, /*requires_grad=*/true);
}

TEST(Autograd, MatmulGradients) {
  Tensor a = make({3, 4}, 1), b = make({4, 2}, 2);
  gradcheck({a, b}, [&] { return ag::sum(ag::matmul(a, b)); });
}

TEST(Autograd, MatmulShapeMismatchThrows) {
  Tensor a = make({3, 4}, 1), b = make({3, 2}, 2);
  EXPECT_THROW((void)ag::matmul(a, b), ag::TensorError);
}

TEST(Autograd, AddSubMulGradients) {
  Tensor a = make({2, 3}, 3), b = make({2, 3}, 4);
  gradcheck({a, b}, [&] { return ag::sum(ag::add(a, b)); });
  gradcheck({a, b}, [&] { return ag::sum(ag::sub(a, b)); });
  gradcheck({a, b}, [&] { return ag::sum(ag::mul(a, b)); });
}

TEST(Autograd, BiasBroadcastGradients) {
  Tensor a = make({4, 3}, 5), bias = make({1, 3}, 6);
  gradcheck({a, bias}, [&] { return ag::sum(ag::add(a, bias)); });
}

TEST(Autograd, UnaryGradients) {
  Tensor a = make({2, 5}, 7);
  gradcheck({a}, [&] { return ag::sum(ag::tanh_t(a)); });
  gradcheck({a}, [&] { return ag::sum(ag::sigmoid(a)); });
  gradcheck({a}, [&] { return ag::sum(ag::scale(a, -1.7f)); });
}

TEST(Autograd, ReluGradientAwayFromKink) {
  // Shift inputs away from 0 so the finite difference is well-defined.
  Tensor a = make({3, 3}, 8);
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(a.data()[i]) < 0.05f) a.data()[i] = 0.3f;
  }
  gradcheck({a}, [&] { return ag::sum(ag::relu(a)); });
}

TEST(Autograd, ReductionGradients) {
  Tensor a = make({3, 4}, 9);
  gradcheck({a}, [&] { return ag::mean(a); });
}

TEST(Autograd, ShapeOpsGradients) {
  Tensor a = make({2, 6}, 11), b = make({2, 3}, 12);
  gradcheck({a}, [&] { return ag::sum(ag::reshape(a, {3, 4})); });
  gradcheck({a}, [&] { return ag::sum(ag::transpose(a)); });
  gradcheck({a, b}, [&] { return ag::sum(ag::concat_cols(a, b)); });
  Tensor c = make({3, 6}, 13);
  gradcheck({a, c}, [&] { return ag::sum(ag::concat_rows(a, c)); });
  gradcheck({a}, [&] { return ag::sum(ag::slice_rows(a, 0, 1)); });
  gradcheck({a}, [&] { return ag::sum(ag::slice_cols(a, 2, 5)); });
}

TEST(Autograd, GatherRowsAccumulatesRepeats) {
  Tensor a = make({3, 2}, 14);
  gradcheck({a}, [&] {
    return ag::sum(ag::gather_rows(a, {0, 2, 0, 0}));
  });
  // Row 0 gathered three times -> its gradient must be 3x.
  a.zero_grad();
  Tensor s = ag::sum(ag::gather_rows(a, {0, 2, 0, 0}));
  s.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 3.0f);
  EXPECT_FLOAT_EQ(a.grad()[2 * 2], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[1 * 2], 0.0f);
}

TEST(Autograd, CrossEntropyGradients) {
  Tensor logits = make({3, 2}, 17);
  const std::vector<int> labels = {0, 1, 1};
  gradcheck({logits}, [&] {
    return ag::cross_entropy_logits(logits, labels);
  });
  // Loss decreases as the correct logit grows.
  const float before = ag::cross_entropy_logits(logits, labels).item();
  logits.data()[0 * 2 + 0] += 2.0f;
  const float after = ag::cross_entropy_logits(logits, labels).item();
  EXPECT_LT(after, before);
}

TEST(Autograd, SortPoolGradientsAndPadding) {
  Tensor a = make({5, 3}, 18);
  gradcheck({a}, [&] { return ag::sum(ag::sort_pool(a, 3)); });
  // Padding case: k > n leaves zero rows.
  Tensor sp = ag::sort_pool(a, 8);
  EXPECT_EQ(sp.rows(), 8u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(sp.at(7, c), 0.0f);
  }
  // Sorted descending on the last channel.
  for (std::size_t r = 0; r + 1 < 5; ++r) {
    EXPECT_GE(sp.at(r, 2), sp.at(r + 1, 2));
  }
  gradcheck({a}, [&] { return ag::sum(ag::sort_pool(a, 8)); });
}

TEST(Sparse, FromCooSumsDuplicatesAndOrders) {
  // Entries out of order, one duplicate (1,2) that must sum.
  const auto m = ag::CsrMatrix::from_coo(3, 4, {1, 0, 1, 2, 1}, {2, 3, 0, 1, 2},
                                         {1.0f, 2.0f, 3.0f, 4.0f, 5.0f});
  EXPECT_EQ(m.nnz(), 4u);
  const Tensor d = m.to_dense();
  EXPECT_FLOAT_EQ(d.at(1, 2), 6.0f);
  EXPECT_FLOAT_EQ(d.at(0, 3), 2.0f);
  EXPECT_FLOAT_EQ(d.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(d.at(2, 1), 4.0f);
  // Round trip through from_dense preserves the matrix.
  const auto m2 = ag::CsrMatrix::from_dense(d);
  EXPECT_EQ(m2.nnz(), 4u);
  const Tensor d2 = m2.to_dense();
  for (std::size_t i = 0; i < d.numel(); ++i) {
    EXPECT_FLOAT_EQ(d2.data()[i], d.data()[i]);
  }
}

TEST(Sparse, TransposeAndBlockDiag) {
  const auto m = ag::CsrMatrix::from_coo(2, 3, {0, 1, 1}, {2, 0, 1},
                                         {1.0f, 2.0f, 3.0f});
  const Tensor t = m.transposed().to_dense();
  const Tensor d = m.to_dense();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(t.at(j, i), d.at(i, j));
    }
  }
  const auto bd = ag::CsrMatrix::block_diag({&m, &m});
  EXPECT_EQ(bd.rows(), 4u);
  EXPECT_EQ(bd.cols(), 6u);
  EXPECT_EQ(bd.nnz(), 6u);
  const Tensor b = bd.to_dense();
  EXPECT_FLOAT_EQ(b.at(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(b.at(2, 5), 1.0f);  // second block shifted by (2, 3)
  EXPECT_FLOAT_EQ(b.at(3, 3), 2.0f);
  EXPECT_FLOAT_EQ(b.at(0, 5), 0.0f);  // off-diagonal block stays empty
}

TEST(Sparse, SpmmMatchesDenseMatmulValuesAndGradients) {
  // Sparse adjacency vs its dense materialization: forward values and input
  // gradients must agree to 1e-5 through an identical downstream graph.
  const auto a = ag::CsrMatrix::from_coo(
      4, 4, {0, 0, 1, 2, 3, 3}, {1, 3, 2, 0, 1, 2},
      {0.5f, 0.5f, 1.0f, 1.0f, 0.25f, 0.75f});
  const Tensor ad = a.to_dense();
  Tensor xs = make({4, 3}, 40);
  Tensor xd = make({4, 3}, 40);  // same seed -> same values
  Tensor ys = ag::sum(ag::tanh_t(ag::spmm(a, xs)));
  Tensor yd = ag::sum(ag::tanh_t(ag::matmul(ad, xd)));
  EXPECT_NEAR(ys.item(), yd.item(), 1e-5f);
  xs.zero_grad();
  xd.zero_grad();
  ys.backward();
  yd.backward();
  for (std::size_t k = 0; k < xs.numel(); ++k) {
    EXPECT_NEAR(xs.grad()[k], xd.grad()[k], 1e-5f) << "element " << k;
  }
}

TEST(Sparse, SpmmGradcheckAndShapeValidation) {
  const auto a = ag::CsrMatrix::from_coo(3, 3, {0, 1, 2, 2}, {1, 0, 0, 2},
                                         {1.0f, 0.5f, 0.25f, 0.75f});
  Tensor x = make({3, 2}, 41);
  gradcheck({x}, [&] { return ag::sum(ag::tanh_t(ag::spmm(a, x))); });
  Tensor bad = make({4, 2}, 42);
  EXPECT_THROW((void)ag::spmm(a, bad), ag::TensorError);
}

TEST(Autograd, SortPoolSegmentsPoolsEachGraphIndependently) {
  // Segments: rows [0,2) and [2,5). Segment-aware pooling must equal the
  // two per-segment sort_pool results stacked.
  Tensor a = make({5, 3}, 43);
  const std::vector<std::uint32_t> offsets = {0, 2, 5};
  Tensor seg = ag::sort_pool_segments(a, 3, offsets);
  EXPECT_EQ(seg.rows(), 6u);
  Tensor top = ag::sort_pool(ag::slice_rows(a, 0, 2), 3);
  Tensor bot = ag::sort_pool(ag::slice_rows(a, 2, 5), 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(seg.at(r, c), top.at(r, c));
      EXPECT_FLOAT_EQ(seg.at(3 + r, c), bot.at(r, c));
    }
  }
  gradcheck({a}, [&] { return ag::sum(ag::sort_pool_segments(a, 3, offsets)); });
  EXPECT_THROW((void)ag::sort_pool_segments(a, 3, {0, 2}), ag::TensorError);
}

TEST(Autograd, SegmentColsToRowsLayoutAndGradients) {
  // x[2, 6]; segments of width 2 at columns 0 and 4; column 2-3 is skipped
  // and must get zero gradient.
  Tensor x = make({2, 6}, 44);
  const std::vector<std::uint32_t> starts = {0, 4};
  Tensor r = ag::segment_cols_to_rows(x, starts, 2);
  EXPECT_EQ(r.rows(), 2u);
  EXPECT_EQ(r.cols(), 4u);
  // Row b flattens channels-major: [x(0,s), x(0,s+1), x(1,s), x(1,s+1)].
  EXPECT_FLOAT_EQ(r.at(0, 0), x.at(0, 0));
  EXPECT_FLOAT_EQ(r.at(0, 1), x.at(0, 1));
  EXPECT_FLOAT_EQ(r.at(0, 2), x.at(1, 0));
  EXPECT_FLOAT_EQ(r.at(1, 0), x.at(0, 4));
  EXPECT_FLOAT_EQ(r.at(1, 3), x.at(1, 5));
  gradcheck({x}, [&] {
    return ag::sum(ag::tanh_t(ag::segment_cols_to_rows(x, starts, 2)));
  });
  x.zero_grad();
  ag::Tensor s = ag::sum(ag::segment_cols_to_rows(x, starts, 2));
  s.backward();
  EXPECT_FLOAT_EQ(x.grad()[2], 0.0f);  // skipped column
  EXPECT_FLOAT_EQ(x.grad()[3], 0.0f);
  EXPECT_THROW((void)ag::segment_cols_to_rows(x, {5}, 2), ag::TensorError);
}

TEST(Autograd, Conv1dGradientsAndShape) {
  Tensor x = make({2, 9}, 19);           // 2 channels, length 9
  Tensor w = make({3, 2 * 3}, 20);       // 3 out-channels, kernel 3
  Tensor b = make({1, 3}, 21);
  Tensor y = ag::conv1d(x, w, b, 3, 2);  // stride 2 -> length (9-3)/2+1 = 4
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 4u);
  gradcheck({x, w, b}, [&] { return ag::sum(ag::conv1d(x, w, b, 3, 2)); });
}

TEST(Autograd, Conv1dSegmentsMatchesPerSegmentConv) {
  // Two width-6 segments of a [2, 12] input, kernel 3, stride 1: the
  // segmented conv must equal running conv1d on each column slice, with no
  // outputs for windows that would straddle the segment boundary.
  Tensor x = make({2, 12}, 23);
  Tensor w = make({3, 2 * 3}, 24);
  Tensor b = make({1, 3}, 25);
  const std::vector<std::uint32_t> starts = {0, 6};
  Tensor seg = ag::conv1d_segments(x, w, b, 3, 1, starts, 6);
  EXPECT_EQ(seg.rows(), 3u);
  EXPECT_EQ(seg.cols(), 8u);  // 2 segments * ((6-3)/1+1)
  Tensor left = ag::conv1d(ag::slice_cols(x, 0, 6), w, b, 3, 1);
  Tensor right = ag::conv1d(ag::slice_cols(x, 6, 12), w, b, 3, 1);
  for (std::size_t o = 0; o < 3; ++o) {
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_FLOAT_EQ(seg.at(o, t), left.at(o, t));
      EXPECT_FLOAT_EQ(seg.at(o, 4 + t), right.at(o, t));
    }
  }
  gradcheck({x, w, b}, [&] {
    return ag::sum(ag::conv1d_segments(x, w, b, 3, 1, starts, 6));
  });
  // A segment that runs past the end of the input must be rejected.
  EXPECT_THROW((void)ag::conv1d_segments(x, w, b, 3, 1, {8}, 6),
               ag::TensorError);
  EXPECT_THROW((void)ag::conv1d_segments(x, w, b, 3, 1, {}, 6),
               ag::TensorError);
}

TEST(Autograd, Maxpool1dGradients) {
  Tensor x = make({2, 8}, 22);
  Tensor y = ag::maxpool1d(x, 2);
  EXPECT_EQ(y.cols(), 4u);
  gradcheck({x}, [&] { return ag::sum(ag::maxpool1d(x, 2)); });
}

TEST(Autograd, DropoutInvertedScalingAndEvalIdentity) {
  par::Rng rng(5);
  Tensor a = Tensor::full({1, 1000}, 1.0f, true);
  Tensor d = ag::dropout(a, 0.4f, /*training=*/true, rng);
  double mean = 0.0;
  for (std::size_t i = 0; i < d.numel(); ++i) mean += d.data()[i];
  mean /= static_cast<double>(d.numel());
  EXPECT_NEAR(mean, 1.0, 0.1);  // inverted dropout preserves expectation
  Tensor e = ag::dropout(a, 0.4f, /*training=*/false, rng);
  EXPECT_EQ(e.node().get(), a.node().get());  // identity when not training
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor a = make({2, 2}, 23);
  EXPECT_THROW(a.backward(), ag::TensorError);
}

TEST(Autograd, GradDoesNotFlowIntoConstInputs) {
  Tensor a = make({2, 2}, 24);
  Tensor c = Tensor::full({2, 2}, 3.0f, /*requires_grad=*/false);
  Tensor s = ag::sum(ag::mul(a, c));
  s.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 3.0f);
  EXPECT_TRUE(c.grad().empty() ||
              std::all_of(c.grad().begin(), c.grad().end(),
                          [](float g) { return g == 0.0f; }));
}

// ---------------------------------------------------------------------------
// GEMM kernel
// ---------------------------------------------------------------------------

TEST(Gemm, MatchesNaiveReferenceIncludingTransposes) {
  par::Rng rng(7);
  const std::size_t m = 17, k = 9, n = 13;
  std::vector<float> a(m * k), b(k * n), at(k * m), bt(n * k);
  for (auto* v : {&a, &b}) {
    for (float& x : *v) x = static_cast<float>(rng.normal());
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
  }
  std::vector<float> ref(m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) {
        ref[i * n + j] += a[i * k + p] * b[p * n + j];
      }
    }
  }
  std::vector<float> c(m * n);
  tensor::gemm(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  tensor::gemm(at.data(), b.data(), c.data(), m, k, n, true, false);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  tensor::gemm(a.data(), bt.data(), c.data(), m, k, n, false, true);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  // accumulate=true adds on top.
  tensor::gemm(a.data(), b.data(), c.data(), m, k, n, false, false, true);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], 2 * ref[i], 1e-3f);
}

// ---------------------------------------------------------------------------
// Optimizers
// ---------------------------------------------------------------------------

TEST(Optim, AdamMinimizesQuadratic) {
  Tensor x = Tensor::from_data({1, 2}, {4.0f, -3.0f}, true);
  ag::Adam opt(0.1f);
  opt.add_param(x);
  for (int step = 0; step < 200; ++step) {
    Tensor loss = ag::sum(ag::mul(x, x));
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(x.data()[0], 0.0f, 0.05f);
  EXPECT_NEAR(x.data()[1], 0.0f, 0.05f);
}

TEST(Optim, GradientClippingBoundsGlobalNorm) {
  Tensor x = Tensor::from_data({1, 2}, {100.0f, 0.0f}, true);
  ag::Adam opt(1.0f);
  opt.add_param(x);
  Tensor loss = ag::sum(ag::mul(x, x));  // grad = 2x = (200, 0)
  opt.zero_grad();
  loss.backward();
  opt.clip_gradients(1.0f);
  double norm = 0.0;
  for (const float g : x.grad()) norm += g * g;
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
}

}  // namespace
