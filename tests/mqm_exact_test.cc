#include "pufferfish/mqm_exact.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/fingerprint.h"
#include "common/random.h"
#include "graphical/markov_quilt.h"
#include "pufferfish/markov_quilt_mechanism.h"

namespace pf {
namespace {

// Section 4.4 running example: T = 100 binary chain, epsilon = 1.
MarkovChain Theta1() {
  return MarkovChain::Make({1.0, 0.0}, Matrix{{0.9, 0.1}, {0.4, 0.6}})
      .ValueOrDie();
}
MarkovChain Theta2() {
  return MarkovChain::Make({0.9, 0.1}, Matrix{{0.8, 0.2}, {0.3, 0.7}})
      .ValueOrDie();
}

// Section 4.3 composition example: T = 3 chain with q = (0.8, 0.2),
// P = [[0.9, 0.1], [0.4, 0.6]], epsilon = 10. The quilts of the middle node
// have max-influence 0, log 6, log 6, log 36 and scores 0.3, 0.2437,
// 0.2437, 0.1558.
TEST(MqmExactTest, CompositionExampleInfluences) {
  const MarkovChain theta =
      MarkovChain::Make({0.8, 0.2}, Matrix{{0.9, 0.1}, {0.4, 0.6}}).ValueOrDie();
  const double log6 = std::log(6.0);
  const double log36 = std::log(36.0);
  // Trivial quilt: influence 0.
  EXPECT_NEAR(
      ChainQuiltInfluenceExact(theta, 3, TrivialQuilt(1, 3)).ValueOrDie(), 0.0,
      1e-12);
  // {X1} (left, 0-indexed {0}): log 6.
  EXPECT_NEAR(ChainQuiltInfluenceExact(theta, 3,
                                       ChainQuilt(3, 1, 1, 0).ValueOrDie())
                  .ValueOrDie(),
              log6, 1e-9);
  // {X3} (right, 0-indexed {2}): log 6.
  EXPECT_NEAR(ChainQuiltInfluenceExact(theta, 3,
                                       ChainQuilt(3, 1, 0, 1).ValueOrDie())
                  .ValueOrDie(),
              log6, 1e-9);
  // {X1, X3}: log 36.
  EXPECT_NEAR(ChainQuiltInfluenceExact(theta, 3,
                                       ChainQuilt(3, 1, 1, 1).ValueOrDie())
                  .ValueOrDie(),
              log36, 1e-9);
}

TEST(MqmExactTest, CompositionExampleScoresAndActiveQuilt) {
  const MarkovChain theta =
      MarkovChain::Make({0.8, 0.2}, Matrix{{0.9, 0.1}, {0.4, 0.6}}).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 10.0;
  options.max_nearby = 3;
  // Scores for the middle node: 3/10 = 0.3, 2/(10 - log 6) = 0.2437,
  // 1/(10 - log 36) = 0.1558. The active quilt is {X1, X3}.
  const double score_two_sided = 1.0 / (10.0 - std::log(36.0));
  EXPECT_NEAR(score_two_sided, 0.1558, 5e-4);
  const double score_one_sided = 2.0 / (10.0 - std::log(6.0));
  EXPECT_NEAR(score_one_sided, 0.2437, 5e-4);
  // The full analysis takes the max over nodes of min over quilts; verify
  // the middle node's active quilt through a single-node family check.
  const ChainMqmResult r = MqmExactAnalyze({theta}, 3, options).ValueOrDie();
  EXPECT_LE(r.sigma_max, 3.0 / 10.0 + 1e-12);  // Never worse than trivial.
}

// Running example numbers (Section 4.4.1): with ell = T and epsilon = 1,
// theta1's worst node is X8 (0-indexed 7) with quilt {X3, X13} and score
// 13.0219; theta2's worst node is X6 (0-indexed 5) with quilt {X10} and
// score 10.6402.
TEST(MqmExactTest, RunningExampleTheta1) {
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 100;
  const ChainMqmResult r = MqmExactAnalyze({Theta1()}, 100, options).ValueOrDie();
  EXPECT_NEAR(r.sigma_max, 13.0219, 1e-3);
  EXPECT_EQ(r.worst_node, 7);
  EXPECT_EQ(r.active_quilt.quilt, (std::vector<int>{2, 12}));
}

TEST(MqmExactTest, RunningExampleTheta2) {
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 100;
  const ChainMqmResult r = MqmExactAnalyze({Theta2()}, 100, options).ValueOrDie();
  EXPECT_NEAR(r.sigma_max, 10.6402, 1e-3);
  EXPECT_EQ(r.worst_node, 5);
  EXPECT_EQ(r.active_quilt.quilt, (std::vector<int>{9}));
}

TEST(MqmExactTest, ClassTakesWorstTheta) {
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 100;
  const ChainMqmResult r =
      MqmExactAnalyze({Theta1(), Theta2()}, 100, options).ValueOrDie();
  EXPECT_NEAR(r.sigma_max, 13.0219, 1e-3);  // theta1 dominates.
}

TEST(MqmExactTest, SigmaNeverExceedsTrivialScore) {
  ChainMqmOptions options;
  options.epsilon = 0.5;
  options.max_nearby = 50;
  const ChainMqmResult r = MqmExactAnalyze({Theta1()}, 60, options).ValueOrDie();
  EXPECT_LE(r.sigma_max, 60.0 / 0.5 + 1e-9);
  EXPECT_GT(r.sigma_max, 0.0);
}

TEST(MqmExactTest, StationaryShortcutMatchesFullScan) {
  // Stationary initial distribution: shortcut must agree with full scan.
  const Matrix p{{0.9, 0.1}, {0.4, 0.6}};
  const MarkovChain chain = MarkovChain::Make({0.8, 0.2}, p).ValueOrDie();
  ChainMqmOptions fast;
  fast.epsilon = 1.0;
  fast.max_nearby = 40;
  ChainMqmOptions slow = fast;
  slow.allow_stationary_shortcut = false;
  const ChainMqmResult rf = MqmExactAnalyze({chain}, 200, fast).ValueOrDie();
  const ChainMqmResult rs = MqmExactAnalyze({chain}, 200, slow).ValueOrDie();
  EXPECT_TRUE(rf.used_stationary_shortcut);
  EXPECT_FALSE(rs.used_stationary_shortcut);
  EXPECT_NEAR(rf.sigma_max, rs.sigma_max, 1e-9);
}

TEST(MqmExactTest, FreeInitialDominatesAnyFixedInitial) {
  // The C.4 class (all initial distributions) must require at least as much
  // noise as any particular initial distribution with the same transitions.
  const Matrix p{{0.9, 0.1}, {0.4, 0.6}};
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 60;
  const double free_sigma =
      MqmExactAnalyzeFreeInitial({p}, 60, options).ValueOrDie().sigma_max;
  for (const Vector& q :
       {Vector{1.0, 0.0}, Vector{0.0, 1.0}, Vector{0.8, 0.2}, Vector{0.5, 0.5}}) {
    const MarkovChain chain = MarkovChain::Make(q, p).ValueOrDie();
    const double fixed_sigma =
        MqmExactAnalyze({chain}, 60, options).ValueOrDie().sigma_max;
    EXPECT_GE(free_sigma + 1e-9, fixed_sigma) << "q = (" << q[0] << "," << q[1] << ")";
  }
}

TEST(MqmExactTest, InfluenceMonotoneInQuiltDistance) {
  // Widening the quilt (larger a, b) cannot increase the exact influence.
  const MarkovChain theta = Theta1();
  double prev = 1e9;
  for (int a = 2; a <= 10; a += 2) {
    const MarkovQuilt q = ChainQuilt(100, 50, a, a).ValueOrDie();
    const double e = ChainQuiltInfluenceExact(theta, 100, q).ValueOrDie();
    EXPECT_LE(e, prev + 1e-9);
    prev = e;
  }
}

TEST(MqmExactTest, DeterministicChainHasInfiniteInfluenceQuilts) {
  // A near-deterministic chain: tiny epsilon forces large quilts or the
  // trivial quilt; sigma stays finite because the trivial quilt exists.
  const MarkovChain sticky =
      MarkovChain::Make({0.5, 0.5}, Matrix{{0.999, 0.001}, {0.001, 0.999}})
          .ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 0.1;
  options.max_nearby = 10;
  const ChainMqmResult r = MqmExactAnalyze({sticky}, 50, options).ValueOrDie();
  EXPECT_TRUE(std::isfinite(r.sigma_max));
  EXPECT_LE(r.sigma_max, 50.0 / 0.1 + 1e-9);
}

// ------------------------------------------------- marginal-dedup scan --
//
// The dedup fast path must be BIT-identical to the exhaustive scan —
// sigma_max, worst node, active quilt, and influence — since the two are
// interchangeable under one plan fingerprint.

void ExpectBitIdentical(const ChainMqmResult& dedup,
                        const ChainMqmResult& exhaustive) {
  EXPECT_EQ(dedup.sigma_max, exhaustive.sigma_max);
  EXPECT_EQ(dedup.worst_node, exhaustive.worst_node);
  EXPECT_EQ(dedup.influence, exhaustive.influence);
  EXPECT_EQ(dedup.active_quilt.target, exhaustive.active_quilt.target);
  EXPECT_EQ(dedup.active_quilt.quilt, exhaustive.active_quilt.quilt);
  EXPECT_EQ(dedup.active_quilt.nearby_count,
            exhaustive.active_quilt.nearby_count);
  EXPECT_EQ(dedup.used_stationary_shortcut,
            exhaustive.used_stationary_shortcut);
}

TEST(MqmExactDedupTest, BitIdenticalAcrossInitialDistributions) {
  const Matrix p{{0.9, 0.1}, {0.4, 0.6}};
  // Stationary (the shortcut's home turf), a point mass, and a generic
  // non-stationary initial — with the shortcut both allowed and disabled.
  const Vector stationary =
      MarkovChain::Make({0.5, 0.5}, p).ValueOrDie().StationaryDistribution()
          .ValueOrDie();
  for (const Vector& q :
       {stationary, Vector{1.0, 0.0}, Vector{0.3, 0.7}}) {
    const MarkovChain chain = MarkovChain::Make(q, p).ValueOrDie();
    for (bool shortcut : {true, false}) {
      ChainMqmOptions options;
      options.epsilon = 1.0;
      options.max_nearby = 12;
      options.allow_stationary_shortcut = shortcut;
      options.num_threads = 1;
      ChainMqmOptions exhaustive = options;
      exhaustive.dedup_nodes = false;
      const ChainMqmResult rd =
          MqmExactAnalyze({chain}, 150, options).ValueOrDie();
      const ChainMqmResult re =
          MqmExactAnalyze({chain}, 150, exhaustive).ValueOrDie();
      ExpectBitIdentical(rd, re);
    }
  }
}

TEST(MqmExactDedupTest, BitIdenticalOnThreeStateChainAndThreads) {
  // Non-reversible 3-state chain, delta initial; also cross-check that the
  // dedup result is thread-count invariant.
  const Matrix p{{0.7, 0.2, 0.1}, {0.1, 0.6, 0.3}, {0.3, 0.1, 0.6}};
  const MarkovChain chain = MarkovChain::Make({0.0, 1.0, 0.0}, p).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 0.8;
  options.max_nearby = 9;
  options.num_threads = 1;
  ChainMqmOptions exhaustive = options;
  exhaustive.dedup_nodes = false;
  const ChainMqmResult rd = MqmExactAnalyze({chain}, 90, options).ValueOrDie();
  const ChainMqmResult re =
      MqmExactAnalyze({chain}, 90, exhaustive).ValueOrDie();
  ExpectBitIdentical(rd, re);
  options.num_threads = 8;
  ExpectBitIdentical(MqmExactAnalyze({chain}, 90, options).ValueOrDie(), re);
}

TEST(MqmExactDedupTest, FreeInitialBitIdentical) {
  const Matrix p{{0.85, 0.15}, {0.25, 0.75}};
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 10;
  options.num_threads = 1;
  ChainMqmOptions exhaustive = options;
  exhaustive.dedup_nodes = false;
  const ChainMqmResult rd =
      MqmExactAnalyzeFreeInitial({p}, 80, options).ValueOrDie();
  const ChainMqmResult re =
      MqmExactAnalyzeFreeInitial({p}, 80, exhaustive).ValueOrDie();
  ExpectBitIdentical(rd, re);
}

TEST(MqmExactDedupTest, BitIdenticalWhenClassStoreOverflows) {
  // A slow-mixing chain produces more bit-distinct transient marginals
  // than the class store holds (cap >= 256), forcing the blocked-overflow
  // scoring and the folded reduction — which must still be bit-identical
  // to the exhaustive scan.
  const MarkovChain chain =
      MarkovChain::Make({1.0, 0.0}, Matrix{{0.99, 0.01}, {0.03, 0.97}})
          .ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 4;
  options.allow_stationary_shortcut = false;
  options.num_threads = 1;
  ChainMqmOptions exhaustive = options;
  exhaustive.dedup_nodes = false;
  const ChainMqmResult rd =
      MqmExactAnalyze({chain}, 1500, options).ValueOrDie();
  const ChainMqmResult re =
      MqmExactAnalyze({chain}, 1500, exhaustive).ValueOrDie();
  // The transient really must exceed the class-store cap for this test to
  // exercise the overflow path.
  EXPECT_GT(rd.scored_nodes, 256u);
  ExpectBitIdentical(rd, re);
  options.num_threads = 4;
  ExpectBitIdentical(MqmExactAnalyze({chain}, 1500, options).ValueOrDie(), re);
}

TEST(MqmExactDedupTest, StatsReportCollapsedScan) {
  // On a long mixing chain almost all interior nodes share one class, so
  // the scan must score far fewer nodes than it covers.
  const MarkovChain chain =
      MarkovChain::Make({1.0, 0.0}, Matrix{{0.9, 0.1}, {0.4, 0.6}})
          .ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 8;
  options.allow_stationary_shortcut = false;
  const ChainMqmResult r = MqmExactAnalyze({chain}, 5000, options).ValueOrDie();
  EXPECT_EQ(r.total_nodes, 5000u);
  EXPECT_GT(r.scored_nodes, 0u);
  EXPECT_LT(r.scored_nodes, 500u);  // Mixing time + boundary classes only.
  EXPECT_GT(r.dedup_ratio(), 10.0);
  EXPECT_GT(r.memory.peak_bytes, 0u);
}

TEST(MqmExactDedupTest, FreeInitialLadderMemoryIsLengthIndependent) {
  // The streamed power ladder must hold O(k^2 * max_nearby) doubles no
  // matter how long the chain is: growing T by 50x may not grow memory.
  const Matrix p{{0.85, 0.15}, {0.25, 0.75}};
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 8;
  const std::size_t short_bytes =
      MqmExactAnalyzeFreeInitial({p}, 2000, options).ValueOrDie()
          .memory.peak_bytes;
  const std::size_t long_bytes =
      MqmExactAnalyzeFreeInitial({p}, 20000, options).ValueOrDie()
          .memory.peak_bytes;
  EXPECT_GT(short_bytes, 0u);
  EXPECT_EQ(short_bytes, long_bytes);
}

// ------------------------------------------- bounded scan vs brute force --
//
// ScoreNode stops a quilt loop once nearby / epsilon (the score at
// influence 0, a lower bound on every later quilt in the loop) reaches
// the best score so far. The reference below scores EVERY quilt of the
// Lemma 4.6 family, one at a time through the public single-quilt entry
// point, with the analysis's tie rules: the family in ChainQuiltFamily
// order, strict < per node with the trivial quilt last, strict > across
// nodes. The analysis must match it bit for bit.

struct BruteForce {
  double sigma_max = 0.0;
  int worst_node = -1;
  MarkovQuilt quilt;
  double influence = 0.0;
  bool trivial_wins_worst = false;
};

BruteForce BruteForceScan(const MarkovChain& chain, std::size_t length,
                          double epsilon, std::size_t max_nearby) {
  BruteForce out;
  for (int i = 0; i < static_cast<int>(length); ++i) {
    // The trivial quilt comes last and always scores T / epsilon < inf, so
    // strict < from +inf always picks a quilt.
    double best = std::numeric_limits<double>::infinity();
    MarkovQuilt best_quilt;
    double best_influence = 0.0;
    for (const MarkovQuilt& q : ChainQuiltFamily(length, i, max_nearby)) {
      const double e =
          ChainQuiltInfluenceExact(chain, length, q).ValueOrDie();
      const double score = QuiltScoreFromInfluence(q.NearbyCount(), epsilon, e);
      if (score < best) {
        best = score;
        best_quilt = q;
        best_influence = e;
      }
    }
    if (out.worst_node < 0 || best > out.sigma_max) {
      out.sigma_max = best;
      out.worst_node = i;
      out.quilt = best_quilt;
      out.influence = best_influence;
      out.trivial_wins_worst = best_quilt.quilt.empty();
    }
  }
  return out;
}

// Row-stochastic k x k matrix: entries floor / k + U[0, 1), normalised.
Matrix RandomTransition(std::size_t k, double floor, Rng* rng) {
  Matrix p(k, k);
  for (std::size_t r = 0; r < k; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      p(r, c) = floor / static_cast<double>(k) + rng->Uniform();
      sum += p(r, c);
    }
    for (std::size_t c = 0; c < k; ++c) p(r, c) /= sum;
  }
  return p;
}

Vector RandomDistribution(std::size_t k, Rng* rng) {
  Vector q(k);
  double sum = 0.0;
  for (double& v : q) {
    v = 0.1 + rng->Uniform();
    sum += v;
  }
  for (double& v : q) v /= sum;
  return q;
}

TEST(MqmExactBoundTest, MatchesBruteForceBitForBit) {
  // Per chain: an epsilon small enough that, with ell = 4, every
  // non-trivial quilt is too influential, so the trivial quilt wins at the
  // worst node (with ell = 12 the fast-mixing chains find a far quilt that
  // beats it); one in between; and one large enough that a non-trivial
  // quilt wins there.
  struct Case {
    MarkovChain chain;
    double trivial_eps, middle_eps, nontrivial_eps;
  };
  std::vector<Case> cases;
  Rng rng(20170514);
  for (std::size_t k : {2u, 3u, 4u}) {
    cases.push_back({MarkovChain::Make(RandomDistribution(k, &rng),
                                       RandomTransition(k, 0.5, &rng))
                         .ValueOrDie(),
                     0.05, 1.0, 4.0});
  }
  // Sticky: long-range dependence, so the winning quilts sit far out.
  cases.push_back({MarkovChain::Make({0.7, 0.3},
                                     Matrix{{0.96, 0.04}, {0.03, 0.97}})
                       .ValueOrDie(),
                   0.05, 4.0, 12.0});
  for (const Case& c : cases) {
    for (std::size_t length : {9u, 23u, 40u}) {
      for (std::size_t max_nearby : {4u, 12u}) {
        // The three anchors plus a sweep: the bound only prunes a quilt
        // when the best score so far lies within about 1/epsilon of its
        // nearby count / epsilon, so a pruning rule that is off by one
        // nearby node shows only at some epsilons.
        std::vector<double> epsilons = {c.trivial_eps, c.middle_eps,
                                        c.nontrivial_eps};
        for (double e = 0.2; e < 16.0; e *= 1.4) epsilons.push_back(e);
        for (double epsilon : epsilons) {
          const std::string where =
              "k=" + std::to_string(c.chain.num_states()) +
              " T=" + std::to_string(length) +
              " ell=" + std::to_string(max_nearby) +
              " eps=" + std::to_string(epsilon);
          const BruteForce ref =
              BruteForceScan(c.chain, length, epsilon, max_nearby);
          if (epsilon == c.trivial_eps && max_nearby == 4) {
            EXPECT_TRUE(ref.trivial_wins_worst) << where;
          }
          if (epsilon == c.nontrivial_eps) {
            EXPECT_FALSE(ref.trivial_wins_worst) << where;
          }
          for (bool dedup : {true, false}) {
            ChainMqmOptions options;
            options.epsilon = epsilon;
            options.max_nearby = max_nearby;
            options.allow_stationary_shortcut = false;
            options.dedup_nodes = dedup;
            options.num_threads = 1;
            const ChainMqmResult r =
                MqmExactAnalyze({c.chain}, length, options).ValueOrDie();
            const std::string at = where + " dedup=" + std::to_string(dedup);
            EXPECT_EQ(DoubleBits(r.sigma_max), DoubleBits(ref.sigma_max)) << at;
            EXPECT_EQ(r.worst_node, ref.worst_node) << at;
            EXPECT_EQ(r.active_quilt.quilt, ref.quilt.quilt) << at;
            EXPECT_EQ(r.active_quilt.nearby_count, ref.quilt.nearby_count)
                << at;
            EXPECT_EQ(DoubleBits(r.influence), DoubleBits(ref.influence)) << at;
          }
        }
      }
    }
  }
}

TEST(MqmExactTest, ValidatesInputs) {
  ChainMqmOptions options;
  options.epsilon = -1.0;
  EXPECT_FALSE(MqmExactAnalyze({Theta1()}, 10, options).ok());
  options.epsilon = 1.0;
  EXPECT_FALSE(MqmExactAnalyze({}, 10, options).ok());
  EXPECT_FALSE(MqmExactAnalyze({Theta1()}, 0, options).ok());
  EXPECT_FALSE(MqmExactAnalyzeFreeInitial({}, 10, options).ok());
  EXPECT_FALSE(
      MqmExactAnalyzeFreeInitial({Matrix{{0.9, 0.2}, {0.4, 0.6}}}, 10, options)
          .ok());
}

}  // namespace
}  // namespace pf
