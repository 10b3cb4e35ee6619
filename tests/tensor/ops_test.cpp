#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/softmax.hpp"

namespace dchag::tensor::ops {
namespace {

Tensor t2x3() { return Tensor::from_data(Shape{2, 3}, {1, 2, 3, 4, 5, 6}); }

TEST(ElementwiseOps, AddSameShape) {
  Tensor c = add(t2x3(), t2x3());
  EXPECT_EQ(c.at({1, 2}), 12.0f);
}

TEST(ElementwiseOps, SubMulDiv) {
  Tensor a = t2x3();
  EXPECT_EQ(sub(a, a).at({1, 1}), 0.0f);
  EXPECT_EQ(mul(a, a).at({1, 0}), 16.0f);
  EXPECT_EQ(div(a, a).at({0, 2}), 1.0f);
}

TEST(ElementwiseOps, BroadcastBiasOverLastDim) {
  Tensor bias = Tensor::from_data(Shape{3}, {10, 20, 30});
  Tensor c = add(t2x3(), bias);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 2}), 36.0f);
}

TEST(ElementwiseOps, BroadcastScalarTensor) {
  Tensor c = mul(t2x3(), Tensor::scalar(2.0f));
  EXPECT_EQ(c.at({1, 2}), 12.0f);
}

TEST(ElementwiseOps, BroadcastInteriorDim) {
  // [2,1,3] * [2,2,3]: middle dim broadcast
  Tensor a = Tensor::from_data(Shape{2, 1, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{2, 2, 3}, 1.0f);
  Tensor c = mul(b, a);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 3}));
  EXPECT_EQ(c.at({0, 0, 1}), 2.0f);
  EXPECT_EQ(c.at({0, 1, 1}), 2.0f);
  EXPECT_EQ(c.at({1, 1, 2}), 6.0f);
}

TEST(ElementwiseOps, IncompatibleBroadcastThrows) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{2, 4});
  EXPECT_THROW(add(a, b), Error);
}

TEST(ElementwiseOps, ScaleAndNeg) {
  EXPECT_EQ(scale(t2x3(), 0.5f).at({1, 2}), 3.0f);
  EXPECT_EQ(neg(t2x3()).at({0, 0}), -1.0f);
  EXPECT_EQ(add_scalar(t2x3(), 1.0f).at({0, 0}), 2.0f);
}

TEST(ReduceToShape, FoldsLeadingAndInteriorDims) {
  Tensor g(Shape{4, 2, 3}, 1.0f);
  Tensor r = reduce_to_shape(g, Shape{3});
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_EQ(r.at({0}), 8.0f);
  Tensor r2 = reduce_to_shape(g, Shape{2, 3});
  EXPECT_EQ(r2.at({1, 2}), 4.0f);
  Tensor r3 = reduce_to_shape(g, Shape{4, 1, 3});
  EXPECT_EQ(r3.at({0, 0, 0}), 2.0f);
}

TEST(Matmul, Simple2D) {
  Tensor a = Tensor::from_data(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_EQ(c.at({1, 1}), 154.0f);
}

TEST(Matmul, BatchedEqualRanks) {
  Rng rng(1);
  Tensor a = rng.normal_tensor(Shape{4, 2, 3});
  Tensor b = rng.normal_tensor(Shape{4, 3, 5});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{4, 2, 5}));
  // Spot-check batch 2 against 2D matmul of the slices.
  Tensor a2 = slice(a, 0, 2, 1).reshape(Shape{2, 3});
  Tensor b2 = slice(b, 0, 2, 1).reshape(Shape{3, 5});
  Tensor c2 = matmul(a2, b2);
  Tensor c_slice = slice(c, 0, 2, 1).reshape(Shape{2, 5});
  EXPECT_LT(max_abs_diff(c2, c_slice), 1e-5f);
}

TEST(Matmul, SharedRhsBroadcastsOverBatch) {
  Rng rng(2);
  Tensor a = rng.normal_tensor(Shape{4, 2, 3});
  Tensor w = rng.normal_tensor(Shape{3, 5});
  Tensor c = matmul(a, w);
  EXPECT_EQ(c.shape(), (Shape{4, 2, 5}));
  Tensor a0 = slice(a, 0, 0, 1).reshape(Shape{2, 3});
  EXPECT_LT(max_abs_diff(matmul(a0, w),
                         slice(c, 0, 0, 1).reshape(Shape{2, 5})),
            1e-5f);
}

TEST(Matmul, InnerDimMismatchThrows) {
  EXPECT_THROW(matmul(Tensor(Shape{2, 3}), Tensor(Shape{4, 2})), Error);
}

TEST(Matmul, FlopLedgerCounts) {
  reset_flops();
  (void)matmul(Tensor(Shape{2, 3}), Tensor(Shape{3, 5}));
  EXPECT_EQ(flops_executed(), 2ull * 2 * 5 * 3);
  (void)matmul(Tensor(Shape{4, 2, 3}), Tensor(Shape{4, 3, 5}));
  EXPECT_EQ(flops_executed(), 2ull * 2 * 5 * 3 + 4ull * 2 * 2 * 5 * 3);
}

TEST(Permute, TransposeLast2) {
  Tensor a = t2x3();
  Tensor b = transpose_last2(a);
  EXPECT_EQ(b.shape(), (Shape{3, 2}));
  EXPECT_EQ(b.at({2, 1}), 6.0f);
  EXPECT_EQ(b.at({0, 1}), 4.0f);
}

TEST(Permute, Rank4AttentionLayout) {
  // [B, S, h, dh] -> [B, h, S, dh], the reshape used by attention.
  Rng rng(3);
  Tensor a = rng.normal_tensor(Shape{2, 4, 3, 5});
  Tensor b = permute(a, {0, 2, 1, 3});
  EXPECT_EQ(b.shape(), (Shape{2, 3, 4, 5}));
  EXPECT_EQ(b.at({1, 2, 3, 4}), a.at({1, 3, 2, 4}));
  // Inverse permutation restores the original.
  Tensor c = permute(b, {0, 2, 1, 3});
  EXPECT_LT(max_abs_diff(a, c), 0.0f + 1e-7f);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(4);
  Tensor a = rng.normal_tensor(Shape{5, 7});
  Tensor y = softmax_lastdim(a);
  for (Index i = 0; i < 5; ++i) {
    float s = 0.0f;
    for (Index j = 0; j < 7; ++j) s += y.at({i, j});
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Tensor a = Tensor::from_data(Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor y = softmax_lastdim(a);
  EXPECT_NEAR(y.at({0, 0}), 1.0f / 3.0f, 1e-5f);
}

// ----- the shared softmax row (tensor/softmax.hpp) ---------------------------

/// The pre-vectorisation row, kept here as the reference for NaN/inf
/// behaviour and accuracy: sequential std::max, std::exp, sum.
std::vector<float> std_exp_softmax(const std::vector<float>& row) {
  float mx = row[0];
  for (float x : row) mx = std::max(mx, x);
  std::vector<float> out(row.size());
  float sum = 0.0f;
  for (std::size_t j = 0; j < row.size(); ++j) {
    out[j] = std::exp(row[j] - mx);
    sum += out[j];
  }
  for (float& x : out) x *= 1.0f / sum;
  return out;
}

Tensor softmax_of(const std::vector<float>& row) {
  return softmax_lastdim(
      Tensor::from_data(Shape{static_cast<Index>(row.size())}, row));
}

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Softmax, VectorTailLengthsMatchStdExp) {
  Rng rng(41);
  std::vector<Index> lengths;
  for (Index d = 1; d <= 17; ++d) lengths.push_back(d);
  lengths.push_back(32);
  lengths.push_back(64);
  for (Index d : lengths) {
    Tensor a = rng.normal_tensor(Shape{3, d}, 0.0f, 3.0f);
    Tensor y = softmax_lastdim(a);
    Tensor twin(a.shape());
    for (Index r = 0; r < 3; ++r) {
      softmax::detail::softmax_row_scalar(a.data() + r * d,
                                          twin.data() + r * d, d);
      const std::vector<float> row(a.data() + r * d, a.data() + (r + 1) * d);
      const std::vector<float> ref = std_exp_softmax(row);
      float sum = 0.0f;
      for (Index j = 0; j < d; ++j) {
        EXPECT_NEAR(y.at({r, j}), ref[static_cast<std::size_t>(j)], 1e-6f)
            << "D=" << d << " row " << r << " col " << j;
        sum += y.at({r, j});
      }
      EXPECT_NEAR(sum, 1.0f, 1e-5f) << "D=" << d;
    }
    for (Index i = 0; i < a.numel(); ++i)
      EXPECT_TRUE(same_bits(y.data()[i], twin.data()[i]))
          << "dispatched row and scalar twin differ at D=" << d;
  }
}

TEST(Softmax, AllEqualRowsAreExactlyUniform) {
  for (Index d : {1, 3, 8, 9, 17, 64}) {
    for (float level : {0.0f, -3.5f, 1000.0f}) {
      Tensor y =
          softmax_of(std::vector<float>(static_cast<std::size_t>(d), level));
      for (Index j = 0; j < d; ++j)
        EXPECT_EQ(y.at({j}), 1.0f / static_cast<float>(d))
            << "D=" << d << " level " << level;
    }
  }
}

TEST(Softmax, GapsBelowTheExpClampUnderflowToZero) {
  // std::exp is 0 or subnormal (< 2^-126) for every gap here; the vector
  // exp must give exactly 0, not its clamp value 2^-126.
  for (float gap : {88.0f, 90.0f, 104.0f, 200.0f, 1e4f, 1e30f}) {
    for (Index d : {2, 11}) {  // lane in the vector body, then in the tail
      std::vector<float> row(static_cast<std::size_t>(d), -gap);
      row[0] = 0.0f;
      Tensor y = softmax_of(row);
      EXPECT_EQ(y.at({0}), 1.0f) << "gap " << gap;
      for (Index j = 1; j < d; ++j)
        EXPECT_EQ(y.at({j}), 0.0f) << "gap " << gap << " D=" << d;
      EXPECT_LE(std::exp(-gap), std::ldexp(1.0f, -126));
    }
  }
  float e = 1.0f;
  softmax::detail::exp_row_scalar(&softmax::kExpUnderflow, &e, 1);
  EXPECT_GE(e, std::ldexp(1.0f, -126)) << "the clamp itself is still normal";
}

TEST(Softmax, NanAndInfKeepTheStdExpResult) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::vector<float>> specials = {
      {nan, 1.0f, 2.0f}, {1.0f, nan, 2.0f},  {inf, 1.0f, 2.0f},
      {1.0f, 2.0f, inf}, {-inf, 0.0f, 1.0f}, {-inf, -inf, -inf},
      {inf, inf, 0.0f},  {inf, -inf, 0.0f},  {0.0f, -inf, -inf}};
  for (const auto& base : specials) {
    for (std::size_t pad : {std::size_t{0}, std::size_t{8}, std::size_t{14}}) {
      // Padding moves the special values across vector body and tail.
      std::vector<float> row(pad, 0.5f);
      row.insert(row.end(), base.begin(), base.end());
      const std::vector<float> ref = std_exp_softmax(row);
      Tensor y = softmax_of(row);
      for (std::size_t j = 0; j < row.size(); ++j) {
        const float got = y.at({static_cast<Index>(j)});
        EXPECT_EQ(std::isnan(got), std::isnan(ref[j]))
            << "pad " << pad << " col " << j << ": " << got << " vs "
            << ref[j];
        if (!std::isnan(ref[j])) {
          EXPECT_NEAR(got, ref[j], 1e-6f);
        }
        if (ref[j] == 0.0f) {
          EXPECT_EQ(got, 0.0f);
        }
      }
    }
  }
}

/// About 2 M points over [-87, 0], 1.3e-5 apart near 0 and spreading in
/// proportion to |x| past -8.
std::vector<float> dense_sweep() {
  std::vector<float> xs;
  for (float x = 0.0f; x >= -87.0f; x -= 1.3e-5f * std::max(1.0f, -x / 8.0f))
    xs.push_back(x);
  xs.push_back(-87.0f);
  return xs;
}

TEST(Softmax, ExpRelativeErrorBelow1e6OverItsRange) {
  const std::vector<float> xs = dense_sweep();
  ASSERT_GT(xs.size(), 1000000u);
  std::vector<float> ys(xs.size());
  softmax::detail::exp_row_scalar(xs.data(), ys.data(),
                                  static_cast<Index>(xs.size()));
  double worst = 0.0;
  float worst_x = 0.0f;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ref = std::exp(static_cast<double>(xs[i]));
    const double rel = std::abs(static_cast<double>(ys[i]) - ref) / ref;
    if (rel > worst) {
      worst = rel;
      worst_x = xs[i];
    }
  }
  EXPECT_LE(worst, 1e-6) << "worst at x = " << worst_x;
}

TEST(Softmax, ScalarTwinBitIdenticalToAvx2Body) {
  if (!softmax::avx2_active()) {
    std::printf("AVX2 body not active on this build/CPU; twin runs alone\n");
    return;
  }
  const std::vector<float> xs = dense_sweep();
  const Index n = static_cast<Index>(xs.size());
  std::vector<float> twin(xs.size());
  std::vector<float> avx2(xs.size());
  softmax::detail::exp_row_scalar(xs.data(), twin.data(), n);
  softmax::detail::exp_row_avx2(xs.data(), avx2.data(), n);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (!same_bits(twin[i], avx2[i]) && mismatches++ < 5)
      ADD_FAILURE() << "exp(" << xs[i] << "): twin " << twin[i] << ", avx2 "
                    << avx2[i];
  EXPECT_EQ(mismatches, 0u);

  // Whole rows: the lane-wise max, sum order and tails must match too.
  Rng rng(43);
  for (Index d = 1; d <= 67; ++d) {
    Tensor a = rng.normal_tensor(Shape{d}, 0.0f, 4.0f);
    std::vector<float> t(static_cast<std::size_t>(d));
    std::vector<float> v(static_cast<std::size_t>(d));
    softmax::detail::softmax_row_scalar(a.data(), t.data(), d);
    softmax::detail::softmax_row_avx2(a.data(), v.data(), d);
    for (Index j = 0; j < d; ++j)
      EXPECT_TRUE(same_bits(t[static_cast<std::size_t>(j)],
                            v[static_cast<std::size_t>(j)]))
          << "softmax row D=" << d << " col " << j;
  }
}

TEST(Gelu, KnownValues) {
  Tensor a = Tensor::from_data(Shape{3}, {0.0f, 1.0f, -1.0f});
  Tensor y = gelu(a);
  EXPECT_NEAR(y.at({0}), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at({1}), 0.8412f, 1e-3f);
  EXPECT_NEAR(y.at({2}), -0.1588f, 1e-3f);
}

TEST(Gelu, GradMatchesFiniteDifference) {
  Rng rng(5);
  Tensor x = rng.normal_tensor(Shape{32});
  Tensor g = gelu_grad(x);
  const float eps = 1e-3f;
  for (Index i = 0; i < x.numel(); ++i) {
    Tensor up = x.clone();
    up.data()[i] += eps;
    Tensor dn = x.clone();
    dn.data()[i] -= eps;
    const float fd = (gelu(up).data()[i] - gelu(dn).data()[i]) / (2 * eps);
    EXPECT_NEAR(g.data()[i], fd, 1e-3f);
  }
}

TEST(LayerNorm, NormalisesRows) {
  Rng rng(6);
  Tensor a = rng.normal_tensor(Shape{4, 16}, 3.0f, 2.0f);
  Tensor gamma(Shape{16}, 1.0f);
  Tensor beta(Shape{16}, 0.0f);
  auto r = layernorm(a, gamma, beta);
  for (Index i = 0; i < 4; ++i) {
    float m = 0.0f;
    for (Index j = 0; j < 16; ++j) m += r.y.at({i, j});
    EXPECT_NEAR(m / 16.0f, 0.0f, 1e-5f);
    float v = 0.0f;
    for (Index j = 0; j < 16; ++j) v += r.y.at({i, j}) * r.y.at({i, j});
    EXPECT_NEAR(v / 16.0f, 1.0f, 1e-3f);
  }
}

TEST(LayerNorm, GammaBetaApplied) {
  Tensor a = Tensor::from_data(Shape{1, 2}, {0.0f, 2.0f});
  Tensor gamma(Shape{2}, 2.0f);
  Tensor beta(Shape{2}, 5.0f);
  auto r = layernorm(a, gamma, beta);
  EXPECT_NEAR(r.y.at({0, 0}), 5.0f - 2.0f, 1e-3f);
  EXPECT_NEAR(r.y.at({0, 1}), 5.0f + 2.0f, 1e-3f);
}

TEST(ConcatSlice, RoundTripDim0) {
  Tensor a(Shape{2, 3}, 1.0f);
  Tensor b(Shape{1, 3}, 2.0f);
  std::vector<Tensor> parts{a, b};
  Tensor c = concat(parts, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 3}));
  EXPECT_EQ(c.at({2, 0}), 2.0f);
  EXPECT_LT(max_abs_diff(slice(c, 0, 0, 2), a), 1e-7f);
  EXPECT_LT(max_abs_diff(slice(c, 0, 2, 1), b), 1e-7f);
}

TEST(ConcatSlice, MiddleDim) {
  Rng rng(7);
  Tensor a = rng.normal_tensor(Shape{2, 3, 4});
  Tensor b = rng.normal_tensor(Shape{2, 2, 4});
  std::vector<Tensor> parts{a, b};
  Tensor c = concat(parts, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 5, 4}));
  EXPECT_LT(max_abs_diff(slice(c, 1, 0, 3), a), 1e-7f);
  EXPECT_LT(max_abs_diff(slice(c, 1, 3, 2), b), 1e-7f);
}

TEST(ConcatSlice, NegativeDimIndex) {
  Tensor a(Shape{2, 3}, 1.0f);
  std::vector<Tensor> parts{a, a};
  Tensor c = concat(parts, -1);
  EXPECT_EQ(c.shape(), (Shape{2, 6}));
}

TEST(ConcatSlice, MismatchThrows) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{3, 3});
  std::vector<Tensor> parts{a, b};
  EXPECT_THROW(concat(parts, 1), Error);
}

TEST(AddSliceInplace, AccumulatesIntoRegion) {
  Tensor dst(Shape{2, 4}, 1.0f);
  Tensor src(Shape{2, 2}, 3.0f);
  add_slice_inplace(dst, src, 1, 1);
  EXPECT_EQ(dst.at({0, 0}), 1.0f);
  EXPECT_EQ(dst.at({0, 1}), 4.0f);
  EXPECT_EQ(dst.at({0, 2}), 4.0f);
  EXPECT_EQ(dst.at({0, 3}), 1.0f);
}

TEST(Reductions, SumMeanAll) {
  EXPECT_EQ(sum_all(t2x3()).item(), 21.0f);
  EXPECT_EQ(mean_all(t2x3()).item(), 3.5f);
}

TEST(Reductions, SumDimMiddle) {
  Tensor a = Tensor::from_data(Shape{2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor s = sum_dim(a, 1);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.at({0, 0}), 4.0f);   // 1+3
  EXPECT_EQ(s.at({1, 1}), 14.0f);  // 6+8
}

TEST(Reductions, MeanDimLast) {
  Tensor m = mean_dim(t2x3(), -1);
  EXPECT_EQ(m.shape(), (Shape{2}));
  EXPECT_EQ(m.at({0}), 2.0f);
  EXPECT_EQ(m.at({1}), 5.0f);
}

TEST(Reductions, ExpandDimInverseOfSum) {
  Tensor a = Tensor::from_data(Shape{2}, {1, 2});
  Tensor e = expand_dim(a, 1, 3);
  EXPECT_EQ(e.shape(), (Shape{2, 3}));
  EXPECT_EQ(e.at({0, 2}), 1.0f);
  EXPECT_EQ(e.at({1, 0}), 2.0f);
  Tensor e0 = expand_dim(a, 0, 4);
  EXPECT_EQ(e0.shape(), (Shape{4, 2}));
  EXPECT_EQ(e0.at({3, 1}), 2.0f);
}

TEST(Compare, AllcloseAndMaxAbsDiff) {
  Tensor a(Shape{3}, 1.0f);
  Tensor b(Shape{3}, 1.0f);
  b.data()[1] = 1.00001f;
  EXPECT_TRUE(allclose(a, b));
  b.data()[1] = 2.0f;
  EXPECT_FALSE(allclose(a, b));
  EXPECT_NEAR(max_abs_diff(a, b), 1.0f, 1e-6f);
}

}  // namespace
}  // namespace dchag::tensor::ops
