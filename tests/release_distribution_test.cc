// Statistical checks of the released outputs: the noise actually follows the
// calibrated Laplace law (location, scale, per-coordinate independence), and
// repeated releases compose as Theorem 4.4 promises (density-ratio check at
// the composed budget).
#include <gtest/gtest.h>

#include <cmath>

#include "graphical/bayesian_network.h"
#include "pufferfish/mechanism.h"
#include "pufferfish/mqm_exact.h"
#include "pufferfish/wasserstein_mechanism.h"

namespace pf {
namespace {

TEST(ReleaseDistributionTest, VectorReleaseMomentsMatchLaplace) {
  Rng rng(1);
  const Vector truth = {0.25, 0.5, 0.25};
  const double lipschitz = 0.1;
  const double sigma = 4.0;
  const double scale = lipschitz * sigma;
  const auto plan = LaplaceDpUnified(sigma).Analyze(1.0).ValueOrDie();
  const int n = 60000;
  Vector mean(3, 0.0), meanabs(3, 0.0);
  double cross = 0.0;
  for (int t = 0; t < n; ++t) {
    const Vector noisy =
        ReleaseVector(plan, truth, lipschitz, &rng).ValueOrDie();
    for (std::size_t j = 0; j < 3; ++j) {
      mean[j] += noisy[j] - truth[j];
      meanabs[j] += std::fabs(noisy[j] - truth[j]);
    }
    cross += (noisy[0] - truth[0]) * (noisy[1] - truth[1]);
  }
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(mean[j] / n, 0.0, 0.02);           // Unbiased.
    EXPECT_NEAR(meanabs[j] / n, scale, 0.02);      // E|Lap(b)| = b.
  }
  // Coordinates are independent: covariance ~ 0 (var of Lap is 2 b^2).
  EXPECT_NEAR(cross / n, 0.0, 0.05 * 2.0 * scale * scale + 0.01);
}

TEST(ReleaseDistributionTest, MedianIsTruth) {
  Rng rng(2);
  const auto plan = LaplaceDpUnified(1.0).Analyze(1.0).ValueOrDie();
  int above = 0;
  const int n = 50000;
  for (int t = 0; t < n; ++t) {
    if (ReleaseVector(plan, {10.0}, 1.0, &rng).ValueOrDie()[0] > 10.0) ++above;
  }
  EXPECT_NEAR(above / static_cast<double>(n), 0.5, 0.01);
}

TEST(ReleaseDistributionTest, TailDecayIsExponential) {
  // P(|noise| > t) = exp(-t / b) for Laplace(b).
  Rng rng(3);
  const auto plan = GroupDpUnified(2.0).Analyze(1.0).ValueOrDie();  // b = 2.
  const int n = 200000;
  int beyond2 = 0, beyond4 = 0;
  for (int t = 0; t < n; ++t) {
    const double err =
        std::fabs(ReleaseVector(plan, {0.0}, 1.0, &rng).ValueOrDie()[0]);
    if (err > 2.0) ++beyond2;
    if (err > 4.0) ++beyond4;
  }
  EXPECT_NEAR(beyond2 / static_cast<double>(n), std::exp(-1.0), 0.01);
  EXPECT_NEAR(beyond4 / static_cast<double>(n), std::exp(-2.0), 0.01);
}

// Output density of F(X) + Lap(scale) given a conditional distribution of F.
double OutputDensity(const DiscreteDistribution& conditional, double scale,
                     double w) {
  double density = 0.0;
  for (const auto& atom : conditional.atoms()) {
    density += atom.p * std::exp(-std::fabs(w - atom.x) / scale) / (2.0 * scale);
  }
  return density;
}

// Theorem 4.4 in density form: K independent releases at epsilon each keep
// the joint likelihood ratio within e^{+-K epsilon}. The joint density
// factorizes over releases, so the bound is the product of per-release
// bounds — checked here on a grid of output pairs for K = 2.
TEST(CompositionDistributionTest, TwoReleasesStayWithinComposedBudget) {
  const double epsilon = 0.8;
  const Vector q = {0.8, 0.2};
  const Matrix p{{0.9, 0.1}, {0.4, 0.6}};
  const std::size_t n = 5;
  const MarkovChain chain = MarkovChain::Make(q, p).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = epsilon;
  options.max_nearby = n;
  const ChainMqmResult r = MqmExactAnalyze({chain}, n, options).ValueOrDie();
  const BayesianNetwork bn = BayesianNetwork::FromMarkovChain(q, p, n).ValueOrDie();
  const auto sum_query = [](const Assignment& a) {
    double s = 0.0;
    for (int v : a) s += v;
    return s;
  };
  const double scale = r.sigma_max;  // Sum query is 1-Lipschitz.
  for (int i = 0; i < static_cast<int>(n); ++i) {
    const auto mu0 =
        ConditionalOutputDistribution(bn, sum_query, i, 0).ValueOrDie();
    const auto mu1 =
        ConditionalOutputDistribution(bn, sum_query, i, 1).ValueOrDie();
    for (double w1 = -2.0; w1 <= 7.0; w1 += 0.5) {
      for (double w2 = -2.0; w2 <= 7.0; w2 += 0.5) {
        const double joint0 =
            OutputDensity(mu0, scale, w1) * OutputDensity(mu0, scale, w2);
        const double joint1 =
            OutputDensity(mu1, scale, w1) * OutputDensity(mu1, scale, w2);
        const double ratio = joint0 / joint1;
        EXPECT_LE(ratio, std::exp(2.0 * epsilon) * (1 + 1e-9));
        EXPECT_GE(ratio, std::exp(-2.0 * epsilon) * (1 - 1e-9));
      }
    }
  }
}

TEST(ReleaseDistributionTest, WassersteinReleaseReproducible) {
  const auto mu0 = DiscreteDistribution::FromMasses({0.5, 0.5}).ValueOrDie();
  const auto mu1 = DiscreteDistribution::FromMasses({0.2, 0.8}).ValueOrDie();
  const auto plan = WassersteinUnified({{mu0, mu1}}).Analyze(1.0).ValueOrDie();
  Rng a(9), b(9);
  for (int t = 0; t < 20; ++t) {
    EXPECT_DOUBLE_EQ(ReleaseVector(plan, {1.0}, 1.0, &a).ValueOrDie()[0],
                     ReleaseVector(plan, {1.0}, 1.0, &b).ValueOrDie()[0]);
  }
}

}  // namespace
}  // namespace pf
