#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace pf {
namespace {

TEST(RandomTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RandomTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RandomTest, LaplaceMeanAndScale) {
  Rng rng(7);
  const double scale = 2.5;
  double sum = 0.0, abs_sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Laplace(scale);
    sum += x;
    abs_sum += std::fabs(x);
  }
  // E[X] = 0, E[|X|] = scale.
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(abs_sum / n, scale, 0.05);
}

TEST(RandomTest, LaplaceZeroScaleIsZero) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(rng.Laplace(0.0), 0.0);
}

// Regression: Uniform() can return exactly 0.0, and the inverse CDF maps
// the boundary draw to log(0) = -infinity — an infinite released noise
// value. Laplace() must redraw past the boundary; the inverse-CDF map must
// be finite everywhere on its open-interval domain.
TEST(RandomTest, LaplaceInverseCdfFiniteOnOpenInterval) {
  const double scale = 1.5;
  // Every draw — including the boundary that used to map to log(0) =
  // -infinity and its representable neighbors — yields finite noise.
  for (const double u :
       {0.0, std::nextafter(0.0, 1.0), std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(), 1e-300, 1e-17,
        std::exp2(-53.0), 0.25, 0.5, 0.75, 1.0 - 1e-16,
        std::nextafter(1.0, 0.0)}) {
    const double x = LaplaceInverseCdf(u, scale);
    EXPECT_TRUE(std::isfinite(x)) << "u = " << u << " -> " << x;
  }
  // Median and symmetry about it.
  EXPECT_DOUBLE_EQ(LaplaceInverseCdf(0.5, scale), 0.0);
  EXPECT_DOUBLE_EQ(LaplaceInverseCdf(0.25, scale),
                   -LaplaceInverseCdf(0.75, scale));
}

// LaplaceInverseCdf takes sgn(u - 1/2) with copysign, not a compare (the
// compare's branch mispredicts on every other draw). Pin it bit for bit to
// the compare form, signed zeros included: the median u = 1/2 (t = +0
// counts as positive), both ends, and a stream of generator draws.
TEST(RandomTest, LaplaceInverseCdfMatchesCompareSignForm) {
  std::vector<double> draws = {0.5,
                               std::nextafter(0.5, 0.0),
                               std::nextafter(0.5, 1.0),
                               0.0,
                               std::numeric_limits<double>::denorm_min(),
                               std::nextafter(1.0, 0.0),
                               0.25,
                               0.75};
  Rng rng(2024);
  for (int i = 0; i < 100000; ++i) draws.push_back(rng.Uniform());
  for (const double scale : {0.0, 1.5}) {
    for (const double u : draws) {
      const double t = u - 0.5;
      const double tail = std::max(1.0 - 2.0 * std::fabs(t),
                                   std::numeric_limits<double>::min());
      const double expected =
          -scale * ((t >= 0.0) ? 1.0 : -1.0) * std::log(tail);
      const double actual = LaplaceInverseCdf(u, scale);
      ASSERT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
          << "u = " << u << ", scale = " << scale << ": " << actual
          << " vs " << expected;
    }
  }
}

TEST(RandomTest, LaplaceDrawsAreAlwaysFinite) {
  Rng rng(123);
  for (int i = 0; i < 200000; ++i) {
    EXPECT_TRUE(std::isfinite(rng.Laplace(3.0)));
  }
}

TEST(RandomTest, CategoricalFrequencies) {
  Rng rng(11);
  const Vector probs = {0.2, 0.5, 0.3};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.Categorical(probs)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.3, 0.01);
}

TEST(RandomTest, CategoricalDegenerate) {
  Rng rng(5);
  const Vector probs = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Categorical(probs), 1u);
}

// Regression: an all-zero weight vector used to return index 0 silently
// (r = Uniform() * 0 satisfied r <= 0 immediately) and a NaN-poisoned one
// returned the last index; both must now be rejected explicitly.
TEST(RandomTest, CategoricalRejectsDegenerateWeights) {
  Rng rng(5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Vector& bad :
       {Vector{}, Vector{0.0, 0.0, 0.0}, Vector{0.2, nan, 0.3},
        Vector{0.2, -0.1, 0.9}, Vector{1.0, inf},
        Vector{1e308, 1e308, 1e308}}) {  // Finite weights, overflowing sum.
    const auto draw = rng.TryCategorical(bad);
    ASSERT_FALSE(draw.ok()) << "weights of size " << bad.size();
    EXPECT_EQ(draw.status().code(), StatusCode::kInvalidArgument);
  }
  // Valid weights still draw, and rejected calls consumed no randomness:
  // the next accepted draw matches a fresh generator with the same seed.
  Rng fresh(5);
  EXPECT_EQ(rng.TryCategorical({0.5, 0.5}).ValueOrDie(),
            fresh.TryCategorical({0.5, 0.5}).ValueOrDie());
}

TEST(RandomTest, UniformSimplexIsDistribution) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const Vector v = rng.UniformSimplex(4);
    EXPECT_TRUE(IsProbabilityVector(v, 1e-9));
  }
}

TEST(RandomTest, UniformSimplexMeanIsCentroid) {
  Rng rng(17);
  Vector mean(3, 0.0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const Vector v = rng.UniformSimplex(3);
    for (std::size_t j = 0; j < 3; ++j) mean[j] += v[j];
  }
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(mean[j] / n, 1.0 / 3.0, 0.01);
  }
}

TEST(RandomTest, UniformIntBounds) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(7), 7u);
  }
}

}  // namespace
}  // namespace pf
