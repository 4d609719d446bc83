#include "dist/wasserstein.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "reference/wasserstein_reference.h"

namespace pf {
namespace {

constexpr WinfSolver kSolvers[] = {WinfSolver::kQuantile, WinfSolver::kMaxFlow,
                                   WinfSolver::kLp};

DiscreteDistribution Masses(const std::vector<double>& m) {
  return DiscreteDistribution::FromMasses(m).ValueOrDie();
}

TEST(WassersteinTest, IdenticalDistributionsZero) {
  const auto d = Masses({0.3, 0.7});
  for (auto solver : kSolvers) {
    EXPECT_NEAR(WassersteinInfBySolver(d, d, solver).ValueOrDie(), 0.0,
                1e-12);
  }
}

TEST(WassersteinTest, PointMassShift) {
  const auto a = DiscreteDistribution::PointMass(1.0);
  const auto b = DiscreteDistribution::PointMass(4.5);
  for (auto solver : kSolvers) {
    EXPECT_NEAR(WassersteinInfBySolver(a, b, solver).ValueOrDie(), 3.5,
                1e-12);
  }
}

// The Section 3.1 flu worked example: the two conditional distributions of
// the infected count have W_inf = 2 (vs. group sensitivity 4).
TEST(WassersteinTest, PaperFluExampleIsTwo) {
  const auto mu0 = Masses({0.2, 0.225, 0.5, 0.075, 0.0});
  const auto mu1 = Masses({0.0, 0.075, 0.5, 0.225, 0.2});
  for (auto solver : kSolvers) {
    EXPECT_NEAR(WassersteinInfBySolver(mu0, mu1, solver).ValueOrDie(), 2.0,
                1e-9)
        << "solver " << static_cast<int>(solver);
  }
}

TEST(WassersteinTest, AsymmetricMassMove) {
  // mu puts 0.9 at 0, 0.1 at 10; nu puts 0.1 at 0, 0.9 at 10. Monotone
  // coupling moves the middle 0.8 across distance 10.
  const auto mu = DiscreteDistribution::Make({{0.0, 0.9}, {10.0, 0.1}}).ValueOrDie();
  const auto nu = DiscreteDistribution::Make({{0.0, 0.1}, {10.0, 0.9}}).ValueOrDie();
  EXPECT_NEAR(WassersteinInf(mu, nu).ValueOrDie(), 10.0, 1e-12);
}

TEST(WassersteinTest, SmallShiftNeedsOnlyOneStep) {
  // Shifting mass one slot: W_inf = 1 even though W_1 is small.
  const auto mu = Masses({0.5, 0.5, 0.0});
  const auto nu = Masses({0.5, 0.4, 0.1});
  EXPECT_NEAR(WassersteinInf(mu, nu).ValueOrDie(), 1.0, 1e-12);
  EXPECT_NEAR(Wasserstein1(mu, nu).ValueOrDie(), 0.1, 1e-12);
}

TEST(WassersteinTest, SymmetryOfArguments) {
  const auto mu = Masses({0.2, 0.3, 0.5});
  const auto nu = Masses({0.6, 0.1, 0.3});
  const double fwd = WassersteinInf(mu, nu).ValueOrDie();
  const double bwd = WassersteinInf(nu, mu).ValueOrDie();
  EXPECT_NEAR(fwd, bwd, 1e-12);
}

TEST(WassersteinTest, EmptyRejected) {
  DiscreteDistribution empty;
  const auto d = Masses({1.0});
  EXPECT_FALSE(WassersteinInf(empty, d).ok());
  EXPECT_FALSE(WassersteinInf(d, empty).ok());
  EXPECT_FALSE(Wasserstein1(empty, d).ok());
}

TEST(WassersteinTest, CouplingFeasibilityThreshold) {
  const auto mu = Masses({1.0, 0.0});
  const auto nu = Masses({0.0, 1.0});
  for (auto solver : kSolvers) {
    EXPECT_FALSE(
        CouplingFeasibleWithinBySolver(mu, nu, 0.5, solver).ValueOrDie());
    EXPECT_TRUE(
        CouplingFeasibleWithinBySolver(mu, nu, 1.0, solver).ValueOrDie());
  }
}

TEST(WassersteinTest, CouplingThresholdMustBeANonNegativeNumber) {
  const auto mu = Masses({1.0, 0.0});
  const auto nu = Masses({0.0, 1.0});
  for (const double threshold :
       {-1.0, std::nan(""), -std::numeric_limits<double>::infinity()}) {
    const Result<bool> r = CouplingFeasibleWithin(mu, nu, threshold);
    ASSERT_FALSE(r.ok()) << threshold;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << threshold;
  }
  EXPECT_TRUE(CouplingFeasibleWithin(mu, nu, 0.0).ok());
  EXPECT_TRUE(
      CouplingFeasibleWithin(mu, nu, std::numeric_limits<double>::infinity())
          .ValueOrDie());
}

TEST(WassersteinTest, Wasserstein1CdfArea) {
  const auto mu = Masses({1.0, 0.0});
  const auto nu = Masses({0.0, 1.0});
  EXPECT_NEAR(Wasserstein1(mu, nu).ValueOrDie(), 1.0, 1e-12);
}

TEST(WassersteinTest, WinfAtLeastW1) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const Vector a = rng.UniformSimplex(5);
    const Vector b = rng.UniformSimplex(5);
    const auto mu = Masses({a[0], a[1], a[2], a[3], a[4]});
    const auto nu = Masses({b[0], b[1], b[2], b[3], b[4]});
    EXPECT_GE(WassersteinInf(mu, nu).ValueOrDie() + 1e-12,
              Wasserstein1(mu, nu).ValueOrDie());
  }
}

// Property sweep: the three solvers agree on random distribution pairs over
// integer supports (random sizes), validating the hand-written LP/flow
// solvers against the closed-form quantile coupling.
class WassersteinBackendAgreement : public ::testing::TestWithParam<int> {};

TEST_P(WassersteinBackendAgreement, BackendsAgreeOnRandomPairs) {
  Rng rng(1000 + GetParam());
  const std::size_t support = 2 + rng.UniformInt(6);
  Vector a = rng.UniformSimplex(support);
  Vector b = rng.UniformSimplex(support);
  const auto mu = DiscreteDistribution::FromMasses(a).ValueOrDie();
  const auto nu = DiscreteDistribution::FromMasses(b).ValueOrDie();
  const double quantile =
      WassersteinInfBySolver(mu, nu, WinfSolver::kQuantile).ValueOrDie();
  const double flow =
      WassersteinInfBySolver(mu, nu, WinfSolver::kMaxFlow).ValueOrDie();
  const double lp =
      WassersteinInfBySolver(mu, nu, WinfSolver::kLp).ValueOrDie();
  EXPECT_NEAR(quantile, flow, 1e-7);
  EXPECT_NEAR(quantile, lp, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(RandomPairs, WassersteinBackendAgreement,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace pf
