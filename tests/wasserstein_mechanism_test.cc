#include "pufferfish/wasserstein_mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "data/flu.h"
#include "pufferfish/mechanism.h"

namespace pf {
namespace {

// Section 3.1 worked example: the flu clique of 4 with
// p_N = (0.1, 0.15, 0.5, 0.15, 0.1). W = 2, so the mechanism adds Lap(2/eps)
// noise — half the group-DP scale of 4/eps.
TEST(WassersteinMechanismTest, FluExampleSensitivityIsTwo) {
  const FluCliqueModel clique = FluCliqueModel::PaperExample();
  const ConditionalOutputPair pair = clique.CountQueryOutputPair().ValueOrDie();
  const auto plan = WassersteinUnified({pair}).Analyze(1.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan.value().wasserstein_w, 2.0, 1e-9);
  EXPECT_NEAR(plan.value().sigma, 2.0, 1e-9);
  EXPECT_LT(plan.value().wasserstein_w, clique.GroupSensitivity());
}

TEST(WassersteinMechanismTest, NoiseScaleInverseInEpsilon) {
  const ConditionalOutputPair pair =
      FluCliqueModel::PaperExample().CountQueryOutputPair().ValueOrDie();
  const WassersteinUnified mech({pair});
  EXPECT_NEAR(mech.Analyze(5.0).ValueOrDie().sigma, 0.4, 1e-9);
  EXPECT_NEAR(mech.Analyze(0.2).ValueOrDie().sigma, 10.0, 1e-9);
}

TEST(WassersteinMechanismTest, ValidatesInputs) {
  const ConditionalOutputPair pair =
      FluCliqueModel::PaperExample().CountQueryOutputPair().ValueOrDie();
  EXPECT_FALSE(WassersteinSensitivity({}).ok());
  EXPECT_FALSE(WassersteinUnified({}).Analyze(1.0).ok());
  EXPECT_FALSE(WassersteinUnified({pair}).Analyze(0.0).ok());
  // Epsilon is validated before the pairs.
  const Status both_bad = WassersteinUnified({}).Analyze(0.0).status();
  EXPECT_EQ(both_bad.ToString(),
            WassersteinUnified({pair}).Analyze(0.0).status().ToString());
}

TEST(WassersteinMechanismTest, ReleaseAddsCalibratedNoise) {
  const ConditionalOutputPair pair =
      FluCliqueModel::PaperExample().CountQueryOutputPair().ValueOrDie();
  const auto plan = WassersteinUnified({pair}).Analyze(1.0).ValueOrDie();
  Rng rng(99);
  double abs_err = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    abs_err +=
        std::fabs(ReleaseVector(plan, {2.0}, 1.0, &rng).ValueOrDie()[0] - 2.0);
  }
  EXPECT_NEAR(abs_err / n, plan.sigma, 0.05);
}

// When Pufferfish reduces to differential privacy (independent records), the
// Wasserstein Mechanism reduces to the Laplace mechanism: W = sensitivity.
TEST(WassersteinMechanismTest, ReducesToLaplaceForIndependentRecords) {
  // Three independent binary records, query = sum. Changing one record
  // changes the sum by 1, so W should be exactly 1.
  BayesianNetwork bn;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        bn.AddNode("X" + std::to_string(i), 2, {}, Matrix{{0.7, 0.3}}).ok());
  }
  const auto query = [](const Assignment& a) {
    return static_cast<double>(std::accumulate(a.begin(), a.end(), 0));
  };
  const auto pairs = EnumerateBayesNetOutputPairs({bn}, query);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs.value().size(), 3u);
  EXPECT_NEAR(WassersteinSensitivity(pairs.value()).ValueOrDie(), 1.0, 1e-9);
}

// Theorem 3.3 check: W never exceeds the group-DP sensitivity. For a
// perfectly correlated pair (X1 = X2), the group sensitivity of the sum is
// 2 and W is exactly 2 (flipping X1 forces X2).
TEST(WassersteinMechanismTest, PerfectCorrelationMatchesGroupSensitivity) {
  BayesianNetwork bn;
  ASSERT_TRUE(bn.AddNode("X0", 2, {}, Matrix{{0.5, 0.5}}).ok());
  ASSERT_TRUE(bn.AddNode("X1", 2, {0}, Matrix{{1.0, 0.0}, {0.0, 1.0}}).ok());
  const auto query = [](const Assignment& a) {
    return static_cast<double>(a[0] + a[1]);
  };
  const auto pairs = EnumerateBayesNetOutputPairs({bn}, query).ValueOrDie();
  EXPECT_NEAR(WassersteinSensitivity(pairs).ValueOrDie(), 2.0, 1e-9);
}

// Partial correlation gives W strictly between the DP sensitivity (1) and
// the group sensitivity (2).
TEST(WassersteinMechanismTest, PartialCorrelationBetweenBounds) {
  BayesianNetwork bn;
  ASSERT_TRUE(bn.AddNode("X0", 2, {}, Matrix{{0.5, 0.5}}).ok());
  ASSERT_TRUE(bn.AddNode("X1", 2, {0}, Matrix{{0.7, 0.3}, {0.3, 0.7}}).ok());
  const auto query = [](const Assignment& a) {
    return static_cast<double>(a[0] + a[1]);
  };
  const auto pairs = EnumerateBayesNetOutputPairs({bn}, query).ValueOrDie();
  const double w = WassersteinSensitivity(pairs).ValueOrDie();
  EXPECT_GE(w, 1.0 - 1e-9);
  EXPECT_LE(w, 2.0 + 1e-9);
}

TEST(WassersteinMechanismTest, ConditionalOutputDistribution) {
  BayesianNetwork bn;
  ASSERT_TRUE(bn.AddNode("X0", 2, {}, Matrix{{0.5, 0.5}}).ok());
  ASSERT_TRUE(bn.AddNode("X1", 2, {0}, Matrix{{0.9, 0.1}, {0.2, 0.8}}).ok());
  const auto query = [](const Assignment& a) {
    return static_cast<double>(a[0] + a[1]);
  };
  const auto d = ConditionalOutputDistribution(bn, query, 0, 1).ValueOrDie();
  // Given X0=1: sum is 1 w.p. 0.2 and 2 w.p. 0.8.
  EXPECT_NEAR(d.MassAt(1.0), 0.2, 1e-12);
  EXPECT_NEAR(d.MassAt(2.0), 0.8, 1e-12);
}

TEST(WassersteinMechanismTest, ZeroProbabilitySecretsSkipped) {
  BayesianNetwork bn;
  ASSERT_TRUE(bn.AddNode("X0", 3, {}, Matrix{{0.5, 0.5, 0.0}}).ok());
  const auto query = [](const Assignment& a) { return static_cast<double>(a[0]); };
  // Value 2 has probability zero; only the (0, 1) pair remains.
  const auto pairs = EnumerateBayesNetOutputPairs({bn}, query).ValueOrDie();
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(WassersteinMechanismTest, MaxOverThetaClass) {
  // Two thetas for one independent bit with different query scalings via
  // correlated partner: W is the max over the class.
  BayesianNetwork weak;
  ASSERT_TRUE(weak.AddNode("X0", 2, {}, Matrix{{0.5, 0.5}}).ok());
  ASSERT_TRUE(weak.AddNode("X1", 2, {0}, Matrix{{0.5, 0.5}, {0.5, 0.5}}).ok());
  BayesianNetwork strong;
  ASSERT_TRUE(strong.AddNode("X0", 2, {}, Matrix{{0.5, 0.5}}).ok());
  ASSERT_TRUE(strong.AddNode("X1", 2, {0}, Matrix{{1.0, 0.0}, {0.0, 1.0}}).ok());
  const auto query = [](const Assignment& a) {
    return static_cast<double>(a[0] + a[1]);
  };
  const double weak_only =
      WassersteinSensitivity(
          EnumerateBayesNetOutputPairs({weak}, query).ValueOrDie())
          .ValueOrDie();
  const double both =
      WassersteinSensitivity(
          EnumerateBayesNetOutputPairs({weak, strong}, query).ValueOrDie())
          .ValueOrDie();
  EXPECT_NEAR(weak_only, 1.0, 1e-9);
  EXPECT_NEAR(both, 2.0, 1e-9);
}

}  // namespace
}  // namespace pf
