#include "dlscale/tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace dt = dlscale::tensor;
namespace du = dlscale::util;

TEST(Tensor, ConstructionZeroFilled) {
  dt::Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.numel(), 120u);
  EXPECT_EQ(t.ndim(), 4u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(Tensor, InvalidShapeThrows) {
  EXPECT_THROW(dt::Tensor({2, 0}), std::invalid_argument);
  EXPECT_THROW(dt::Tensor({-1}), std::invalid_argument);
}

TEST(Tensor, ElementCountOverflowThrowsNamingShape) {
  // 2^64 elements: an unchecked product wraps to 0 and builds an empty
  // tensor with a null data pointer.
  const dt::Shape wraps{65536, 65536, 65536, 65536};
  try {
    const dt::Tensor t(wraps);
    FAIL() << "built a tensor with numel " << t.numel();
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("(65536,65536,65536,65536)"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)dt::Tensor({1}).reshaped(wraps), std::overflow_error);
}

TEST(Tensor, Indexing4D) {
  dt::Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.5f;
  EXPECT_FLOAT_EQ(t[t.numel() - 1], 7.5f);
  t.at(0, 0, 0, 0) = 1.0f;
  EXPECT_FLOAT_EQ(t[0], 1.0f);
}

TEST(Tensor, ReshapePreservesData) {
  dt::Tensor t({2, 6});
  t.at(1, 3) = 9.0f;
  const auto r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_FLOAT_EQ(r[9], 9.0f);
  EXPECT_THROW(t.reshaped({5, 5}), std::invalid_argument);
}

TEST(Tensor, FillAndScale) {
  dt::Tensor t({4});
  t.fill(2.0f);
  t.scale_(3.0f);
  EXPECT_FLOAT_EQ(t.sum(), 24.0f);
}

TEST(Tensor, AddInPlace) {
  dt::Tensor a = dt::Tensor::full({3}, 1.0f);
  const dt::Tensor b = dt::Tensor::full({3}, 2.0f);
  a.add_(b);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  dt::Tensor wrong({4});
  EXPECT_THROW(a.add_(wrong), std::invalid_argument);
}

TEST(Tensor, AbsMax) {
  dt::Tensor t({3});
  t[0] = -5.0f;
  t[1] = 2.0f;
  EXPECT_FLOAT_EQ(t.abs_max(), 5.0f);
}

TEST(Tensor, RandnDeterministic) {
  du::Rng rng1(7), rng2(7);
  const auto a = dt::Tensor::randn({100}, rng1);
  const auto b = dt::Tensor::randn({100}, rng2);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(Tensor, HeInitVariance) {
  du::Rng rng(7);
  // fan_in = 64*3*3 = 576 -> stddev = sqrt(2/576) ~ 0.0589
  const auto w = dt::Tensor::he_init({128, 64, 3, 3}, rng);
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < w.numel(); ++i) sum_sq += static_cast<double>(w[i]) * w[i];
  const double stddev = std::sqrt(sum_sq / static_cast<double>(w.numel()));
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 576.0), 0.002);
}

TEST(Tensor, ShapeStr) {
  EXPECT_EQ(dt::Tensor({2, 3}).shape_str(), "[2x3]");
}

TEST(Tensor, SameShape) {
  EXPECT_TRUE(dt::same_shape(dt::Tensor({2, 3}), dt::Tensor({2, 3})));
  EXPECT_FALSE(dt::same_shape(dt::Tensor({2, 3}), dt::Tensor({3, 2})));
}
