// The standard Laplace DP baseline, analyzed by LaplaceDpUnified and
// released through the one release primitive, ReleaseVector.
#include "pufferfish/mechanism.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pf {
namespace {

TEST(LaplaceDpTest, ScaleIsSensitivityOverEpsilon) {
  EXPECT_DOUBLE_EQ(LaplaceDpUnified(2.0).Analyze(0.5).ValueOrDie().sigma, 4.0);
  EXPECT_DOUBLE_EQ(LaplaceDpUnified(3.0).Analyze(0.5).ValueOrDie().sigma, 6.0);
}

TEST(LaplaceDpTest, Validation) {
  EXPECT_FALSE(LaplaceDpUnified(1.0).Analyze(0.0).ok());
  EXPECT_FALSE(LaplaceDpUnified(-1.0).Analyze(1.0).ok());
  EXPECT_TRUE(LaplaceDpUnified(0.0).Analyze(1.0).ok());
}

TEST(LaplaceDpTest, ScalarNoiseMagnitude) {
  const auto plan = LaplaceDpUnified(1.0).Analyze(1.0).ValueOrDie();
  Rng rng(3);
  double abs_err = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    abs_err += std::fabs(ReleaseVector(plan, {5.0}, 1.0, &rng).ValueOrDie()[0] -
                         5.0);
  }
  EXPECT_NEAR(abs_err / n, 1.0, 0.02);
}

TEST(LaplaceDpTest, VectorReleasePerCoordinate) {
  const auto plan = LaplaceDpUnified(0.0).Analyze(1.0).ValueOrDie();
  Rng rng(3);
  EXPECT_EQ(ReleaseVector(plan, {1.0, 2.0}, 1.0, &rng).ValueOrDie(),
            (Vector{1.0, 2.0}));
}

}  // namespace
}  // namespace pf
