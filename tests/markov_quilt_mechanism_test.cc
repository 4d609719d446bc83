#include "pufferfish/markov_quilt_mechanism.h"

#include <gtest/gtest.h>

#include <cmath>

#include "pufferfish/mechanism.h"
#include "pufferfish/mqm_exact.h"
#include "reference/enumeration.h"

namespace pf {
namespace {

BayesianNetwork Chain(const Vector& q, const Matrix& p, std::size_t n) {
  return BayesianNetwork::FromMarkovChain(q, p, n).ValueOrDie();
}

// The general Algorithm 2 machinery must reproduce the Section 4.3 worked
// example when run on the chain expressed as a Bayesian network.
TEST(MarkovQuiltMechanismTest, CompositionExampleInfluences) {
  const BayesianNetwork bn =
      Chain({0.8, 0.2}, Matrix{{0.9, 0.1}, {0.4, 0.6}}, 3);
  const MoralGraph g(bn);
  // Quilt {X1, X3} (0-indexed {0, 2}) for the middle node: influence log 36.
  const MarkovQuilt q = QuiltFromSeparator(g, 1, {0, 2});
  EXPECT_NEAR(QuiltMaxInfluence({bn}, q).ValueOrDie(), std::log(36.0), 1e-9);
  EXPECT_NEAR(QuiltMaxInfluenceByEnumeration({bn}, q).ValueOrDie(),
              std::log(36.0), 1e-9);
  // One-sided {X3} (0-indexed {2}): influence log 6.
  const MarkovQuilt right = QuiltFromSeparator(g, 1, {2});
  EXPECT_NEAR(QuiltMaxInfluence({bn}, right).ValueOrDie(), std::log(6.0), 1e-9);
  EXPECT_NEAR(QuiltMaxInfluenceByEnumeration({bn}, right).ValueOrDie(),
              std::log(6.0), 1e-9);
}

// Cross-validation: the general influence, by elimination and by
// enumeration, equals the Eq. (5) dynamic-programming influence on chains.
TEST(MarkovQuiltMechanismTest, GeneralMatchesChainSpecialization) {
  const Vector q = {0.6, 0.4};
  const Matrix p{{0.7, 0.3}, {0.2, 0.8}};
  const std::size_t n = 8;
  const BayesianNetwork bn = Chain(q, p, n);
  const MarkovChain chain = MarkovChain::Make(q, p).ValueOrDie();
  const MoralGraph g(bn);
  struct Case {
    int target, a, b;
  };
  for (const Case& c : {Case{4, 2, 2}, Case{4, 1, 3}, Case{3, 3, 0},
                        Case{2, 0, 2}, Case{5, 2, 1}}) {
    std::vector<int> separator;
    if (c.a > 0) separator.push_back(c.target - c.a);
    if (c.b > 0) separator.push_back(c.target + c.b);
    const MarkovQuilt general = QuiltFromSeparator(g, c.target, separator);
    const MarkovQuilt special =
        ChainQuilt(n, c.target, c.a, c.b).ValueOrDie();
    EXPECT_EQ(general.NearbyCount(), special.NearbyCount());
    const double e_general = QuiltMaxInfluence({bn}, general).ValueOrDie();
    const double e_enumerated =
        QuiltMaxInfluenceByEnumeration({bn}, general).ValueOrDie();
    const double e_special =
        ChainQuiltInfluenceExact(chain, n, special).ValueOrDie();
    EXPECT_NEAR(e_general, e_special, 1e-9)
        << "target=" << c.target << " a=" << c.a << " b=" << c.b;
    EXPECT_NEAR(e_enumerated, e_special, 1e-9)
        << "target=" << c.target << " a=" << c.a << " b=" << c.b;
  }
}

TEST(MarkovQuiltMechanismTest, TrivialQuiltInfluenceZero) {
  const BayesianNetwork bn =
      Chain({0.5, 0.5}, Matrix{{0.9, 0.1}, {0.4, 0.6}}, 4);
  EXPECT_DOUBLE_EQ(QuiltMaxInfluence({bn}, TrivialQuilt(2, 4)).ValueOrDie(), 0.0);
}

TEST(MarkovQuiltMechanismTest, AnalyzeProducesFiniteSigma) {
  const BayesianNetwork bn =
      Chain({0.8, 0.2}, Matrix{{0.9, 0.1}, {0.4, 0.6}}, 6);
  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({bn}, 1.0, {}).ValueOrDie();
  EXPECT_TRUE(std::isfinite(analysis.sigma_max));
  EXPECT_GT(analysis.sigma_max, 0.0);
  // Never worse than the trivial quilt's n/epsilon.
  EXPECT_LE(analysis.sigma_max, 6.0 / 1.0 + 1e-9);
  EXPECT_EQ(analysis.active.size(), 6u);
}

TEST(MarkovQuiltMechanismTest, AnalyzeOnDiamondNetwork) {
  // Non-chain topology: the Figure 2 diamond.
  BayesianNetwork bn;
  ASSERT_TRUE(bn.AddNode("X1", 2, {}, Matrix{{0.6, 0.4}}).ok());
  ASSERT_TRUE(bn.AddNode("X2", 2, {0}, Matrix{{0.7, 0.3}, {0.2, 0.8}}).ok());
  ASSERT_TRUE(bn.AddNode("X3", 2, {0}, Matrix{{0.9, 0.1}, {0.5, 0.5}}).ok());
  ASSERT_TRUE(bn.AddNode("X4", 2, {1, 2},
                         Matrix{{0.8, 0.2}, {0.6, 0.4}, {0.3, 0.7}, {0.1, 0.9}})
                  .ok());
  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({bn}, 2.0, {}).ValueOrDie();
  EXPECT_TRUE(std::isfinite(analysis.sigma_max));
  EXPECT_LE(analysis.sigma_max, 4.0 / 2.0 + 1e-9);
}

TEST(MarkovQuiltMechanismTest, QuiltSetsMustContainTrivial) {
  const BayesianNetwork bn =
      Chain({0.5, 0.5}, Matrix{{0.9, 0.1}, {0.4, 0.6}}, 3);
  const MoralGraph g(bn);
  std::vector<std::vector<MarkovQuilt>> sets(3);
  for (int i = 0; i < 3; ++i) {
    sets[static_cast<std::size_t>(i)] = {TrivialQuilt(i, 3)};
  }
  EXPECT_TRUE(
      AnalyzeMarkovQuiltMechanismWithQuilts({bn}, 1.0, sets, {}).ok());
  sets[1] = {QuiltFromSeparator(g, 1, {0})};  // Missing trivial quilt.
  EXPECT_FALSE(
      AnalyzeMarkovQuiltMechanismWithQuilts({bn}, 1.0, sets, {}).ok());
}

TEST(MarkovQuiltMechanismTest, WorstNodeIsArgmax) {
  const BayesianNetwork bn =
      Chain({0.8, 0.2}, Matrix{{0.9, 0.1}, {0.4, 0.6}}, 5);
  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({bn}, 1.0, {}).ValueOrDie();
  double max_score = 0.0;
  for (const QuiltScore& qs : analysis.active) {
    max_score = std::max(max_score, qs.score);
  }
  EXPECT_NEAR(analysis.sigma_max, max_score, 1e-12);
  EXPECT_NEAR(analysis.sigma_max,
              analysis.active[static_cast<std::size_t>(analysis.worst_node)].score,
              1e-12);
}

TEST(MarkovQuiltMechanismTest, ReleaseScalesNoiseByLipschitz) {
  // sigma = 3; the release scales it by the Lipschitz constant 0.5.
  const auto plan = LaplaceDpUnified(3.0).Analyze(1.0).ValueOrDie();
  Rng rng(5);
  double abs_sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    abs_sum +=
        std::fabs(ReleaseVector(plan, {1.0}, 0.5, &rng).ValueOrDie()[0] - 1.0);
  }
  EXPECT_NEAR(abs_sum / n, 1.5, 0.02);  // E|Lap(L * sigma)| = 1.5.
}

TEST(MarkovQuiltMechanismTest, EnumerationLimitEnforced) {
  // A 12-node binary chain has 4096 joint assignments: a limit below that
  // must fail the influence computation (and the full analysis) with
  // InvalidArgument instead of silently enumerating past the guard.
  const BayesianNetwork bn =
      Chain({0.5, 0.5}, Matrix{{0.9, 0.1}, {0.4, 0.6}}, 12);
  const MoralGraph g(bn);
  const MarkovQuilt quilt = QuiltFromSeparator(g, 5, {3, 7});
  const Result<double> blocked =
      QuiltMaxInfluenceByEnumeration({bn}, quilt, 1000);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kInvalidArgument);
  // A limit that admits the space computes normally.
  EXPECT_TRUE(QuiltMaxInfluenceByEnumeration({bn}, quilt, 4096).ok());
  // The trivial quilt never enumerates, so it passes under any limit.
  EXPECT_DOUBLE_EQ(
      QuiltMaxInfluenceByEnumeration({bn}, TrivialQuilt(5, 12), 1).ValueOrDie(),
      0.0);
  const Result<MqmAnalysis> analysis =
      AnalyzeByEnumeration({bn}, 1.0, MqmAnalyzeOptions{}, 1000);
  ASSERT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      AnalyzeByEnumeration({bn}, 1.0, MqmAnalyzeOptions{}, 1u << 14).ok());
  // Variable elimination is guarded by clique-table size, not the
  // joint-assignment space: the same quilt passes under the same tiny
  // limit (chain cliques are 4 cells).
  EXPECT_TRUE(QuiltMaxInfluence({bn}, quilt, 1000).ok());
}

TEST(MarkovQuiltMechanismTest, RejectsMismatchedThetas) {
  const BayesianNetwork a = Chain({0.5, 0.5}, Matrix{{0.9, 0.1}, {0.4, 0.6}}, 3);
  const BayesianNetwork b = Chain({0.5, 0.5}, Matrix{{0.9, 0.1}, {0.4, 0.6}}, 4);
  EXPECT_FALSE(AnalyzeMarkovQuiltMechanism({a, b}, 1.0, {}).ok());
  EXPECT_FALSE(AnalyzeMarkovQuiltMechanism({}, 1.0, {}).ok());
  // The enumeration oracles refuse the same classes instead of indexing
  // one network with another's assignments.
  const MarkovQuilt quilt = QuiltFromSeparator(MoralGraph(a), 0, {1});
  EXPECT_EQ(QuiltMaxInfluenceByEnumeration({a, b}, quilt).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AnalyzeByEnumeration({a, b}, 1.0, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AnalyzeByEnumeration({}, 1.0, {}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pf
