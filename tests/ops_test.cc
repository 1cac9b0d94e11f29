#include "engine/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "engine/tensor.h"

namespace aptserve {
namespace {

TEST(OpsTest, MatVec) {
  // W = [[1,2],[3,4],[5,6]], x = [1, -1] -> y = [-1, -1, -1].
  const float w[] = {1, 2, 3, 4, 5, 6};
  const float x[] = {1, -1};
  float y[3];
  ops::MatVec(w, x, y, 3, 2);
  EXPECT_FLOAT_EQ(y[0], -1);
  EXPECT_FLOAT_EQ(y[1], -1);
  EXPECT_FLOAT_EQ(y[2], -1);
}

TEST(OpsTest, AddAndScaleInPlace) {
  float x[] = {1, 2, 3};
  const float y[] = {10, 20, 30};
  ops::AddInPlace(x, y, 3);
  EXPECT_FLOAT_EQ(x[1], 22);
  ops::ScaleInPlace(x, 0.5f, 3);
  EXPECT_FLOAT_EQ(x[1], 11);
}

TEST(OpsTest, Dot) {
  const float a[] = {1, 2, 3};
  const float b[] = {4, 5, 6};
  EXPECT_FLOAT_EQ(ops::Dot(a, b, 3), 32);
}

TEST(OpsTest, SoftmaxNormalizesAndOrders) {
  float x[] = {1.0f, 2.0f, 3.0f};
  ops::Softmax(x, 3);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0f, 1e-6);
  EXPECT_LT(x[0], x[1]);
  EXPECT_LT(x[1], x[2]);
}

TEST(OpsTest, SoftmaxNumericallyStableForLargeInputs) {
  float x[] = {1000.0f, 1000.0f};
  ops::Softmax(x, 2);
  EXPECT_NEAR(x[0], 0.5f, 1e-6);
  EXPECT_NEAR(x[1], 0.5f, 1e-6);
}

TEST(OpsTest, SoftmaxSingleElement) {
  float x[] = {42.0f};
  ops::Softmax(x, 1);
  EXPECT_FLOAT_EQ(x[0], 1.0f);
}

TEST(OpsTest, LayerNormZeroMeanUnitVariance) {
  const float x[] = {1, 2, 3, 4};
  const float gain[] = {1, 1, 1, 1};
  const float bias[] = {0, 0, 0, 0};
  float out[4];
  ops::LayerNorm(x, gain, bias, out, 4);
  float mean = std::accumulate(out, out + 4, 0.0f) / 4;
  EXPECT_NEAR(mean, 0.0f, 1e-6);
  float var = 0;
  for (float v : out) var += v * v;
  EXPECT_NEAR(var / 4, 1.0f, 1e-3);
}

TEST(OpsTest, LayerNormGainBias) {
  const float x[] = {-1, 1};
  const float gain[] = {2, 2};
  const float bias[] = {5, 5};
  float out[2];
  ops::LayerNorm(x, gain, bias, out, 2);
  EXPECT_NEAR(out[0], 5 - 2.0f, 1e-4);
  EXPECT_NEAR(out[1], 5 + 2.0f, 1e-4);
}

TEST(OpsTest, ReluClamps) {
  float x[] = {-2, 0, 3};
  ops::Relu(x, 3);
  EXPECT_FLOAT_EQ(x[0], 0);
  EXPECT_FLOAT_EQ(x[1], 0);
  EXPECT_FLOAT_EQ(x[2], 3);
}

TEST(OpsTest, GeluShape) {
  float x[] = {-10.0f, 0.0f, 10.0f, 1.0f};
  ops::Gelu(x, 4);
  EXPECT_NEAR(x[0], 0.0f, 1e-3);   // large negative -> ~0
  EXPECT_FLOAT_EQ(x[1], 0.0f);
  EXPECT_NEAR(x[2], 10.0f, 1e-3);  // large positive -> identity
  EXPECT_NEAR(x[3], 0.8412f, 1e-3);
}

TEST(OpsTest, ArgMaxFirstOnTies) {
  const float x[] = {1, 5, 5, 2};
  EXPECT_EQ(ops::ArgMax(x, 4), 1);
  const float y[] = {-3};
  EXPECT_EQ(ops::ArgMax(y, 1), 0);
}

TEST(TensorTest, ShapeAndFill) {
  Tensor t({2, 3});
  EXPECT_EQ(t.NumElements(), 6);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(1), 3);
  t.Fill(2.5f);
  EXPECT_FLOAT_EQ(t.at(5), 2.5f);
}

TEST(TensorTest, RowAccess) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_FLOAT_EQ(t.Row(1)[0], 3);
  t.Row(0)[2] = 9;
  EXPECT_FLOAT_EQ(t.at(2), 9);
}

TEST(TensorDeathTest, ShapeMismatchAborts) {
  EXPECT_DEATH(Tensor({2, 2}, {1.0f}), "does not match");
}

}  // namespace
}  // namespace aptserve
