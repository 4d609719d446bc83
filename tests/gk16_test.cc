#include "baselines/gk16.h"

#include <gtest/gtest.h>

#include <cmath>

#include "pufferfish/framework.h"
#include "pufferfish/mechanism.h"

namespace pf {
namespace {

TEST(Gk16Test, PairwiseInfluenceBinaryChain) {
  // nu = (1/4) |log(p0 p1 / ((1-p0)(1-p1)))| for a binary chain.
  const Matrix p = BinaryChainIntervalClass::TransitionFor(0.7, 0.6);
  const double expected = 0.25 * std::log(0.7 * 0.6 / (0.3 * 0.4));
  EXPECT_NEAR(Gk16PairwiseInfluence(p), expected, 1e-12);
}

TEST(Gk16Test, UniformChainZeroInfluence) {
  const Matrix p = BinaryChainIntervalClass::TransitionFor(0.5, 0.5);
  EXPECT_NEAR(Gk16PairwiseInfluence(p), 0.0, 1e-12);
}

TEST(Gk16Test, ZeroTransitionGivesInfiniteInfluence) {
  const Matrix p{{1.0, 0.0}, {0.5, 0.5}};
  EXPECT_TRUE(std::isinf(Gk16PairwiseInfluence(p)));
}

TEST(Gk16Test, SpectralNormFormula) {
  const Matrix p = BinaryChainIntervalClass::TransitionFor(0.6, 0.6);
  const Gk16Analysis a = Gk16Analyze({p}, 100, 1.0).ValueOrDie();
  const double nu = Gk16PairwiseInfluence(p);
  EXPECT_NEAR(a.spectral_norm, 2.0 * nu * std::cos(M_PI / 101.0), 1e-9);
}

TEST(Gk16Test, ApplicabilityThresholdIndependentOfEpsilon) {
  // Paper: "the position of this line does not change as a function of eps".
  const Matrix wide = BinaryChainIntervalClass::TransitionFor(0.9, 0.9);
  for (double eps : {0.2, 1.0, 5.0}) {
    const Gk16Analysis a = Gk16Analyze({wide}, 100, eps).ValueOrDie();
    EXPECT_FALSE(a.applicable) << eps;
  }
  const Matrix narrow = BinaryChainIntervalClass::TransitionFor(0.55, 0.55);
  for (double eps : {0.2, 1.0, 5.0}) {
    const Gk16Analysis a = Gk16Analyze({narrow}, 100, eps).ValueOrDie();
    EXPECT_TRUE(a.applicable) << eps;
  }
}

TEST(Gk16Test, SigmaApproachesLaplaceForNarrowClasses) {
  // As the class tightens to uniform chains, rho -> 0 and the noise scale
  // approaches the plain 1/epsilon Laplace level.
  const Matrix p = BinaryChainIntervalClass::TransitionFor(0.501, 0.501);
  const Gk16Analysis a = Gk16Analyze({p}, 100, 1.0).ValueOrDie();
  EXPECT_NEAR(a.sigma, 1.0, 0.02);
}

TEST(Gk16Test, ClassTakesWorstNu) {
  const Matrix tame = BinaryChainIntervalClass::TransitionFor(0.5, 0.5);
  const Matrix wild = BinaryChainIntervalClass::TransitionFor(0.8, 0.8);
  const Gk16Analysis a = Gk16Analyze({tame, wild}, 50, 1.0).ValueOrDie();
  EXPECT_NEAR(a.nu, Gk16PairwiseInfluence(wild), 1e-12);
}

TEST(Gk16Test, ReleaseNoiseCalibrated) {
  const Matrix p = BinaryChainIntervalClass::TransitionFor(0.55, 0.55);
  const MechanismPlan plan = Gk16Unified({p}, 100).Analyze(1.0).ValueOrDie();
  Rng rng(2);
  double abs_err = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    abs_err += std::fabs(ReleaseVector(plan, {0.0}, 1.0, &rng).ValueOrDie()[0]);
  }
  EXPECT_NEAR(abs_err / n, plan.sigma, 0.05 * plan.sigma + 0.01);
}

TEST(Gk16Test, ValidatesInputs) {
  EXPECT_FALSE(Gk16Analyze(std::vector<Matrix>{}, 100, 1.0).ok());
  EXPECT_FALSE(
      Gk16Analyze({BinaryChainIntervalClass::TransitionFor(0.5, 0.5)}, 1, 1.0)
          .ok());
  EXPECT_FALSE(Gk16Analyze({Matrix{{0.9, 0.2}, {0.4, 0.6}}}, 10, 1.0).ok());
}

}  // namespace
}  // namespace pf
