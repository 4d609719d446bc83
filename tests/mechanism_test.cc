// The unified Mechanism engine: every mechanism reachable through the
// analyze/release split, plans agreeing with the per-mechanism analyses,
// and the one release primitive behaving identically for all.
#include "pufferfish/mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "data/flu.h"
#include "graphical/markov_chain.h"

namespace pf {
namespace {

MarkovChain TestChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

std::vector<BayesianNetwork> TestNetworks(std::size_t length) {
  const MarkovChain chain = TestChain(0.8, 0.7);
  return {BayesianNetwork::FromMarkovChain(chain.initial(), chain.transition(),
                                           length)
              .ValueOrDie()};
}

// All seven mechanisms constructible and analyzable through the base class.
TEST(MechanismTest, AllSevenMechanismsReachable) {
  const MarkovChain chain = TestChain(0.8, 0.7);
  const auto pair = FluCliqueModel::PaperExample().CountQueryOutputPair()
                        .ValueOrDie();
  std::vector<std::unique_ptr<Mechanism>> mechanisms;
  mechanisms.push_back(std::make_unique<LaplaceDpUnified>(1.0));
  mechanisms.push_back(std::make_unique<GroupDpUnified>(8.0));
  // GK16 needs a near-uniform chain for its spectral condition rho < 1.
  mechanisms.push_back(std::make_unique<Gk16Unified>(
      std::vector<Matrix>{TestChain(0.6, 0.6).transition()}, 20));
  mechanisms.push_back(std::make_unique<WassersteinUnified>(
      std::vector<ConditionalOutputPair>{pair}));
  mechanisms.push_back(std::make_unique<MqmGeneralUnified>(TestNetworks(6)));
  mechanisms.push_back(std::make_unique<MqmExactUnified>(
      std::vector<MarkovChain>{chain}, 50));
  mechanisms.push_back(std::make_unique<MqmApproxUnified>(
      std::vector<MarkovChain>{chain}, 50));
  ASSERT_EQ(mechanisms.size(), 7u);

  Rng rng(7);
  for (const auto& mechanism : mechanisms) {
    SCOPED_TRACE(MechanismKindName(mechanism->kind()));
    const Result<MechanismPlan> plan = mechanism->Analyze(1.0);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan.value().kind, mechanism->kind());
    EXPECT_EQ(plan.value().epsilon, 1.0);
    EXPECT_TRUE(plan.value().applicable);
    EXPECT_GT(plan.value().sigma, 0.0);
    EXPECT_TRUE(std::isfinite(plan.value().sigma));
    EXPECT_EQ(plan.value().cache_hit_count(), 0u);
    const Result<Vector> released = ReleaseVector(plan.value(), {5.0}, 1.0, &rng);
    ASSERT_TRUE(released.ok());
    EXPECT_TRUE(std::isfinite(released.value()[0]));
  }
}

TEST(MechanismTest, PlanMatchesLegacyMqmExact) {
  const MarkovChain chain = TestChain(0.9, 0.6);
  ChainMqmOptions options;
  options.epsilon = 1.0;
  const auto legacy = MqmExactAnalyze({chain}, 100, options).ValueOrDie();
  const auto plan =
      MqmExactUnified(std::vector<MarkovChain>{chain}, 100).Analyze(1.0)
          .ValueOrDie();
  EXPECT_DOUBLE_EQ(plan.sigma, legacy.sigma_max);
  EXPECT_EQ(plan.chain.worst_node, legacy.worst_node);
}

// Known-answer pin of the one release primitive: a GroupDP plan and an
// applicable GK16 plan, each released from a fixed seed, bit for bit. A
// change to the draw order or to the scale arithmetic shows here.
TEST(MechanismTest, SeededReleaseKnownAnswer) {
  const auto group = GroupDpUnified(4.0).Analyze(2.0).ValueOrDie();
  Rng rng_a(123);
  EXPECT_EQ(ReleaseVector(group, {1.5, -2.0, 0.0}, 0.5, &rng_a).ValueOrDie(),
            (Vector{0x1.084084193af46p+0, -0x1.e19a7bf2446fep+0,
                    0x1.0bc95ed50e384p+1}));
  const Matrix near_uniform{{0.6, 0.4}, {0.4, 0.6}};
  const auto gk16 = Gk16Unified(std::vector<Matrix>{near_uniform}, 20)
                        .Analyze(1.0)
                        .ValueOrDie();
  ASSERT_TRUE(gk16.applicable);
  EXPECT_EQ(gk16.sigma, 0x1.2b55662eb264p+1);
  Rng rng_b(77);
  EXPECT_EQ(ReleaseVector(gk16, {0.25, -1.0}, 0.5, &rng_b).ValueOrDie(),
            (Vector{-0x1.422c487de431bp-1, -0x1.03d6eb67aebb4p+0}));
}

// Many scalar values under one plan are one Vector: the same stream as
// releasing them one at a time.
TEST(MechanismTest, ReleaseVectorMatchesPerValueLoop) {
  const auto plan = LaplaceDpUnified(1.0).Analyze(1.0).ValueOrDie();
  const Vector values = {1.0, 2.0, 3.0, 4.0};
  Rng rng_a(9), rng_b(9);
  const Vector batch = ReleaseVector(plan, values, 1.0, &rng_a).ValueOrDie();
  ASSERT_EQ(batch.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i],
                     ReleaseVector(plan, {values[i]}, 1.0, &rng_b).ValueOrDie()[0]);
  }
}

TEST(MechanismTest, Gk16InapplicablePlanRefusesRelease) {
  // A near-deterministic chain: nu (hence rho) far above 1.
  const Matrix sticky{{0.999, 0.001}, {0.001, 0.999}};
  const auto plan =
      Gk16Unified(std::vector<Matrix>{sticky}, 100).Analyze(1.0).ValueOrDie();
  EXPECT_FALSE(plan.applicable);
  Rng rng(1);
  const Result<Vector> released = ReleaseVector(plan, {0.0}, 1.0, &rng);
  EXPECT_FALSE(released.ok());
  EXPECT_EQ(released.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MechanismTest, AnalyzeRejectsBadEpsilon) {
  EXPECT_FALSE(LaplaceDpUnified(1.0).Analyze(0.0).ok());
  EXPECT_FALSE(LaplaceDpUnified(1.0).Analyze(-2.0).ok());
}

TEST(MechanismTest, ApproxSigmaDominatesExact) {
  // The Lemma 4.8 bound can only add noise relative to exact influence.
  const MarkovChain chain = TestChain(0.7, 0.6);
  const auto exact =
      MqmExactUnified(std::vector<MarkovChain>{chain}, 200).Analyze(1.0)
          .ValueOrDie();
  const auto approx =
      MqmApproxUnified(std::vector<MarkovChain>{chain}, 200).Analyze(1.0)
          .ValueOrDie();
  EXPECT_GE(approx.sigma + 1e-9, exact.sigma);
}

TEST(MechanismTest, FingerprintsSeparateKindsAndModels) {
  EXPECT_NE(LaplaceDpUnified(1.0).Fingerprint(),
            GroupDpUnified(1.0).Fingerprint());
  EXPECT_NE(LaplaceDpUnified(1.0).Fingerprint(),
            LaplaceDpUnified(2.0).Fingerprint());
  const MarkovChain a = TestChain(0.8, 0.7);
  const MarkovChain b = TestChain(0.8, 0.6);
  EXPECT_NE(MqmExactUnified({a}, 50).Fingerprint(),
            MqmExactUnified({b}, 50).Fingerprint());
  EXPECT_NE(MqmExactUnified({a}, 50).Fingerprint(),
            MqmExactUnified({a}, 51).Fingerprint());
  // Quilt-width cap is part of the key.
  ChainUnifiedOptions narrow;
  narrow.max_nearby = 8;
  EXPECT_NE(MqmExactUnified({a}, 50).Fingerprint(),
            MqmExactUnified({a}, 50, narrow).Fingerprint());
  EXPECT_EQ(MqmExactUnified({a}, 50).Fingerprint(),
            MqmExactUnified({a}, 50).Fingerprint());
}

}  // namespace
}  // namespace pf
