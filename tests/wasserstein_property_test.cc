// Property-based tests of the infinity-Wasserstein implementation: metric
// axioms, behaviour under transformations, and consistency of the
// feasibility primitive across solvers on randomized instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "dist/wasserstein.h"
#include "reference/wasserstein_reference.h"

namespace pf {
namespace {

DiscreteDistribution RandomOnGrid(std::size_t support, Rng* rng) {
  return DiscreteDistribution::FromMasses(rng->UniformSimplex(support))
      .ValueOrDie();
}

// Random distribution on non-uniformly spaced real locations.
DiscreteDistribution RandomOffGrid(std::size_t support, Rng* rng) {
  const Vector masses = rng->UniformSimplex(support);
  std::vector<DiscreteDistribution::Atom> atoms;
  double x = 0.0;
  for (std::size_t i = 0; i < support; ++i) {
    x += rng->Uniform(0.1, 3.0);
    atoms.push_back({x, masses[i]});
  }
  return DiscreteDistribution::Make(std::move(atoms)).ValueOrDie();
}

class WinfMetricAxioms : public ::testing::TestWithParam<int> {};

TEST_P(WinfMetricAxioms, IdentityOfIndiscernibles) {
  Rng rng(100 + GetParam());
  const auto mu = RandomOffGrid(2 + rng.UniformInt(8), &rng);
  EXPECT_NEAR(WassersteinInf(mu, mu).ValueOrDie(), 0.0, 1e-12);
}

TEST_P(WinfMetricAxioms, Symmetry) {
  Rng rng(200 + GetParam());
  const std::size_t n = 2 + rng.UniformInt(8);
  const auto mu = RandomOffGrid(n, &rng);
  const auto nu = RandomOffGrid(n, &rng);
  EXPECT_NEAR(WassersteinInf(mu, nu).ValueOrDie(),
              WassersteinInf(nu, mu).ValueOrDie(), 1e-12);
}

TEST_P(WinfMetricAxioms, TriangleInequality) {
  Rng rng(300 + GetParam());
  const std::size_t n = 2 + rng.UniformInt(6);
  const auto a = RandomOnGrid(n, &rng);
  const auto b = RandomOnGrid(n, &rng);
  const auto c = RandomOnGrid(n, &rng);
  const double ab = WassersteinInf(a, b).ValueOrDie();
  const double bc = WassersteinInf(b, c).ValueOrDie();
  const double ac = WassersteinInf(a, c).ValueOrDie();
  EXPECT_LE(ac, ab + bc + 1e-9);
}

TEST_P(WinfMetricAxioms, TranslationInvariance) {
  Rng rng(400 + GetParam());
  const std::size_t n = 2 + rng.UniformInt(6);
  const auto mu = RandomOffGrid(n, &rng);
  const auto nu = RandomOffGrid(n, &rng);
  const double shift = rng.Uniform(-5.0, 5.0);
  const double base = WassersteinInf(mu, nu).ValueOrDie();
  const double shifted =
      WassersteinInf(mu.Shift(shift), nu.Shift(shift)).ValueOrDie();
  EXPECT_NEAR(base, shifted, 1e-9);
}

TEST_P(WinfMetricAxioms, ShiftingOneDistributionByDelta) {
  // W_inf(mu, mu + delta) = |delta| for any mu.
  Rng rng(500 + GetParam());
  const auto mu = RandomOffGrid(2 + rng.UniformInt(6), &rng);
  const double delta = rng.Uniform(0.5, 4.0);
  EXPECT_NEAR(WassersteinInf(mu, mu.Shift(delta)).ValueOrDie(), delta, 1e-9);
}

TEST_P(WinfMetricAxioms, BoundedBySupportSpan) {
  Rng rng(600 + GetParam());
  const std::size_t n = 2 + rng.UniformInt(6);
  const auto mu = RandomOffGrid(n, &rng);
  const auto nu = RandomOffGrid(n, &rng);
  const double span = std::max(mu.Max(), nu.Max()) - std::min(mu.Min(), nu.Min());
  EXPECT_LE(WassersteinInf(mu, nu).ValueOrDie(), span + 1e-9);
}

TEST_P(WinfMetricAxioms, MixtureContraction) {
  // Lemma B.2: W_inf of shared-weight mixtures <= max component W_inf.
  Rng rng(700 + GetParam());
  const std::size_t n = 3 + rng.UniformInt(4);
  const auto mu1 = RandomOnGrid(n, &rng);
  const auto nu1 = RandomOnGrid(n, &rng);
  const auto mu2 = RandomOnGrid(n, &rng);
  const auto nu2 = RandomOnGrid(n, &rng);
  const double w = rng.Uniform(0.1, 0.9);
  const auto mu =
      DiscreteDistribution::Mixture({mu1, mu2}, {w, 1 - w}).ValueOrDie();
  const auto nu =
      DiscreteDistribution::Mixture({nu1, nu2}, {w, 1 - w}).ValueOrDie();
  const double mixed = WassersteinInf(mu, nu).ValueOrDie();
  const double worst = std::max(WassersteinInf(mu1, nu1).ValueOrDie(),
                                WassersteinInf(mu2, nu2).ValueOrDie());
  EXPECT_LE(mixed, worst + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Randomized, WinfMetricAxioms, ::testing::Range(0, 20));

class FeasibilityConsistency : public ::testing::TestWithParam<int> {};

TEST_P(FeasibilityConsistency, MonotoneInDistanceAndTightAtWinf) {
  Rng rng(800 + GetParam());
  const std::size_t n = 2 + rng.UniformInt(5);
  const auto mu = RandomOnGrid(n, &rng);
  const auto nu = RandomOnGrid(n, &rng);
  const double w = WassersteinInf(mu, nu).ValueOrDie();
  for (auto solver :
       {WinfSolver::kQuantile, WinfSolver::kMaxFlow, WinfSolver::kLp}) {
    EXPECT_TRUE(CouplingFeasibleWithinBySolver(mu, nu, w, solver).ValueOrDie());
    EXPECT_TRUE(
        CouplingFeasibleWithinBySolver(mu, nu, w + 0.5, solver).ValueOrDie());
    if (w > 0.5) {
      EXPECT_FALSE(
          CouplingFeasibleWithinBySolver(mu, nu, w - 0.5, solver).ValueOrDie());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Randomized, FeasibilityConsistency,
                         ::testing::Range(0, 15));

TEST(WassersteinStressTest, LargeSupportQuantileVsMaxflow) {
  Rng rng(4242);
  const auto mu = RandomOnGrid(80, &rng);
  const auto nu = RandomOnGrid(80, &rng);
  const double q = WassersteinInfBySolver(mu, nu, WinfSolver::kQuantile)
                       .ValueOrDie();
  const double f =
      WassersteinInfBySolver(mu, nu, WinfSolver::kMaxFlow).ValueOrDie();
  EXPECT_NEAR(q, f, 1e-7);
}

}  // namespace
}  // namespace pf
