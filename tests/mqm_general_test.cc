// Algorithm 2 at scale: the canonical node-class dedup, the inference
// backends, and the separator quilt search must all be exact refinements —
// bit-identical where bit-identity is promised (dedup on/off, any thread
// count), numerically identical across backends, and able to analyze
// networks far past the old enumeration cap.
#include <gtest/gtest.h>

#include <cmath>

#include "common/fingerprint.h"
#include "data/topologies.h"
#include "pufferfish/markov_quilt_mechanism.h"
#include "pufferfish/node_classes.h"
#include "reference/enumeration.h"

namespace pf {
namespace {

// Dyadic CPTs keep every conditional probability exactly representable, so
// even cross-backend comparisons are exact (sums and products of dyadic
// rationals of this scale round nowhere).
const Vector kRoot = {0.5, 0.5};
const Matrix kEdge = BinaryNoisyCopyCpt(0.25);
const Matrix kMerge = BinaryNoisyOrCpt(0.25);

std::vector<BayesianNetwork> TestTopologies() {
  std::vector<BayesianNetwork> nets;
  nets.push_back(TreeNetwork(13, 2, kRoot, kEdge).ValueOrDie());
  nets.push_back(TreeNetwork(8, 1, kRoot, kEdge).ValueOrDie());  // Chain.
  nets.push_back(GridNetwork(3, 3, kRoot, kEdge, kMerge).ValueOrDie());
  nets.push_back(HubSpokeNetwork(1, 9, kRoot, kEdge, kEdge).ValueOrDie());
  nets.push_back(HubSpokeNetwork(3, 3, kRoot, kEdge, kEdge).ValueOrDie());
  return nets;
}

void ExpectBitIdentical(const MqmAnalysis& a, const MqmAnalysis& b) {
  EXPECT_EQ(DoubleBits(a.sigma_max), DoubleBits(b.sigma_max));
  EXPECT_EQ(a.worst_node, b.worst_node);
  ASSERT_EQ(a.active.size(), b.active.size());
  for (std::size_t i = 0; i < a.active.size(); ++i) {
    EXPECT_EQ(DoubleBits(a.active[i].score), DoubleBits(b.active[i].score));
    EXPECT_EQ(DoubleBits(a.active[i].influence),
              DoubleBits(b.active[i].influence));
    EXPECT_EQ(a.active[i].quilt.quilt, b.active[i].quilt.quilt) << "node " << i;
    EXPECT_EQ(a.active[i].quilt.nearby_count, b.active[i].quilt.nearby_count);
    EXPECT_EQ(a.active[i].quilt.nearby, b.active[i].quilt.nearby);
    EXPECT_EQ(a.active[i].quilt.remote, b.active[i].quilt.remote);
  }
}

TEST(MqmGeneralDedupTest, OnOffBitIdentityAcrossTopologies) {
  for (const BayesianNetwork& bn : TestTopologies()) {
    for (const QuiltSearchMode search :
         {QuiltSearchMode::kExhaustive, QuiltSearchMode::kSeparator}) {
      MqmAnalyzeOptions options;
      options.quilt_search = search;
      options.dedup_nodes = true;
      const MqmAnalysis dedup =
          AnalyzeMarkovQuiltMechanism({bn}, 1.0, options).ValueOrDie();
      options.dedup_nodes = false;
      const MqmAnalysis exhaustive =
          AnalyzeMarkovQuiltMechanism({bn}, 1.0, options).ValueOrDie();
      ExpectBitIdentical(dedup, exhaustive);
      EXPECT_EQ(exhaustive.scored_nodes, exhaustive.total_nodes);
      EXPECT_LE(dedup.scored_nodes, dedup.total_nodes);
      EXPECT_EQ(dedup.total_nodes, bn.num_nodes());
    }
  }
}

TEST(MqmGeneralDedupTest, ThreadCountInvariance) {
  for (const BayesianNetwork& bn : TestTopologies()) {
    MqmAnalyzeOptions options;
    options.num_threads = 1;
    const MqmAnalysis serial =
        AnalyzeMarkovQuiltMechanism({bn}, 0.7, options).ValueOrDie();
    options.num_threads = 8;
    const MqmAnalysis parallel =
        AnalyzeMarkovQuiltMechanism({bn}, 0.7, options).ValueOrDie();
    ExpectBitIdentical(serial, parallel);
    EXPECT_EQ(serial.scored_nodes, parallel.scored_nodes);
  }
}

TEST(MqmGeneralDedupTest, SymmetricTopologiesCollapse) {
  // A star: the hub is one class, the 9 interchangeable spokes another.
  const BayesianNetwork star =
      HubSpokeNetwork(1, 9, kRoot, kEdge, kEdge).ValueOrDie();
  const MqmAnalysis star_analysis =
      AnalyzeMarkovQuiltMechanism({star}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_EQ(star_analysis.total_nodes, 10u);
  EXPECT_EQ(star_analysis.scored_nodes, 2u);
  EXPECT_GT(star_analysis.dedup_ratio(), 4.0);
  // A perfect binary tree with uniform CPTs: one class per depth.
  const BayesianNetwork tree = TreeNetwork(31, 2, kRoot, kEdge).ValueOrDie();
  const MqmAnalysis tree_analysis =
      AnalyzeMarkovQuiltMechanism({tree}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_EQ(tree_analysis.total_nodes, 31u);
  EXPECT_EQ(tree_analysis.scored_nodes, 5u);  // Depths 0..4.
}

TEST(MqmGeneralBackendTest, EliminationMatchesEnumerationBitwise) {
  // Dyadic CPTs: both backends do exact arithmetic, so sigma_max agrees to
  // the last bit on every network small enough for enumeration.
  for (const BayesianNetwork& bn : TestTopologies()) {
    const MqmAnalyzeOptions options;
    const MqmAnalysis elim =
        AnalyzeMarkovQuiltMechanism({bn}, 1.0, options).ValueOrDie();
    const MqmAnalysis enu = AnalyzeByEnumeration({bn}, 1.0, options).ValueOrDie();
    EXPECT_EQ(DoubleBits(elim.sigma_max), DoubleBits(enu.sigma_max));
    EXPECT_EQ(elim.worst_node, enu.worst_node);
  }
}

TEST(MqmGeneralScaleTest, HundredNodeTreeAnalyzesUnderTheOldGuard) {
  // 100 binary nodes: the enumeration reference refuses under the default
  // guard (2^100 joint assignments); the structured path analyzes it.
  const BayesianNetwork tree = TreeNetwork(100, 2, kRoot, kEdge).ValueOrDie();
  const Result<MqmAnalysis> refused =
      AnalyzeByEnumeration({tree}, 1.0, MqmAnalyzeOptions{});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({tree}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_TRUE(std::isfinite(analysis.sigma_max));
  EXPECT_GT(analysis.sigma_max, 0.0);
  // Never worse than the trivial quilt's n / epsilon.
  EXPECT_LE(analysis.sigma_max, 100.0 + 1e-9);
  EXPECT_EQ(analysis.active.size(), 100u);
  EXPECT_EQ(analysis.treewidth_bound, 1u);
  EXPECT_LT(analysis.scored_nodes, 40u);  // Dedup collapses most of the tree.
  EXPECT_GT(analysis.memory.peak_bytes, 0u);
}

TEST(MqmGeneralTest, StatsAreFilledAndConsistent) {
  // Square grid: the transpose (r, c) <-> (c, r) maps the factor system
  // onto itself (the merge CPT is parent-symmetric), so off-diagonal cells
  // pair up into classes; diagonal cells stay singletons.
  const BayesianNetwork grid =
      GridNetwork(3, 3, kRoot, kEdge, kMerge).ValueOrDie();
  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({grid}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_EQ(analysis.total_nodes, 9u);
  EXPECT_EQ(analysis.scored_nodes, 6u);  // 3 diagonal + 3 mirrored pairs.
  EXPECT_GE(analysis.dedup_ratio(), 1.0);
  EXPECT_GE(analysis.induced_width, 1u);
  EXPECT_GE(analysis.treewidth_bound, 2u);
  EXPECT_GT(analysis.memory.peak_bytes, 0u);
  // A non-square grid has no factor-graph symmetry at all: every node is
  // its own class, and the analysis says so rather than guessing.
  const BayesianNetwork skew =
      GridNetwork(3, 4, kRoot, kEdge, kMerge).ValueOrDie();
  const MqmAnalysis skew_analysis =
      AnalyzeMarkovQuiltMechanism({skew}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_EQ(skew_analysis.scored_nodes, skew_analysis.total_nodes);
}

TEST(MqmGeneralTest, MultiThetaClassesUseTheUnionGraph) {
  // Two thetas over 4 nodes with different structures: a chain 0-1-2-3 and
  // a star centered at 0. A quilt must separate in BOTH; the union moral
  // graph enforces it.
  BayesianNetwork chain = TreeNetwork(4, 1, kRoot, kEdge).ValueOrDie();
  BayesianNetwork star = HubSpokeNetwork(1, 3, kRoot, kEdge, kEdge).ValueOrDie();
  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({chain, star}, 1.0, MqmAnalyzeOptions{})
          .ValueOrDie();
  EXPECT_TRUE(std::isfinite(analysis.sigma_max));
  // Node 3 is a leaf of both structures, but its union-graph neighborhood
  // is {0, 2}; any active non-trivial quilt for node 1 must block node 0
  // (its neighbor in both graphs).
  for (const QuiltScore& qs : analysis.active) {
    if (qs.quilt.quilt.empty()) continue;
    const MoralGraph g = UnionMoralGraph({chain, star});
    for (int r : qs.quilt.remote) {
      EXPECT_TRUE(g.Separates(qs.quilt.quilt, qs.quilt.target, r));
    }
  }
}

TEST(MqmGeneralTest, CanonicalFormsGroupExactlyNotByHashAlone) {
  // Two leaves of a uniform star share their canonical form; a leaf with a
  // different CPT must not join their class even though the topology
  // matches.
  BayesianNetwork star;
  ASSERT_TRUE(star.AddNode("hub", 2, {}, Matrix{{0.5, 0.5}}).ok());
  ASSERT_TRUE(star.AddNode("s0", 2, {0}, kEdge).ok());
  ASSERT_TRUE(star.AddNode("s1", 2, {0}, kEdge).ok());
  ASSERT_TRUE(star.AddNode("odd", 2, {0}, BinaryNoisyCopyCpt(0.125)).ok());
  const MoralGraph graph = UnionMoralGraph({star});
  const CanonicalBasis basis({star}, graph);
  const NodeCanonicalForm s0 = basis.Canonicalize(1);
  const NodeCanonicalForm s1 = basis.Canonicalize(2);
  const NodeCanonicalForm odd = basis.Canonicalize(3);
  EXPECT_EQ(s0.key, s1.key);
  EXPECT_TRUE(s0.SameProblem(s1));
  EXPECT_FALSE(s0.SameProblem(odd));
  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({star}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_EQ(analysis.scored_nodes, 3u);  // hub, {s0, s1}, odd.
}

// ------------------------------------------------ known answers at scale --

// Order-sensitive digest of every node's outcome: influence bits, score
// bits, and the full active quilt (target, quilt, nearby count, nearby and
// remote sets).
std::uint64_t AnalysisDigest(const MqmAnalysis& a) {
  Fingerprint fp;
  fp.Add(a.active.size());
  for (const QuiltScore& qs : a.active) {
    fp.Add(DoubleBits(qs.influence));
    fp.Add(DoubleBits(qs.score));
    fp.Add(qs.quilt.target);
    for (const std::vector<int>* ids :
         {&qs.quilt.quilt, &qs.quilt.nearby, &qs.quilt.remote}) {
      fp.Add(ids->size());
      for (int v : *ids) fp.Add(v);
    }
    fp.Add(qs.quilt.nearby_count);
  }
  return fp.hash();
}

struct KnownAnswer {
  const char* name;
  std::vector<BayesianNetwork> thetas;
  double epsilon;
  std::uint64_t sigma_bits;
  std::uint64_t digest;
  std::size_t scored_nodes;
  std::size_t induced_width;
};

// Pinned at a build whose elimination, min-fill and canonicalisation were
// the straightforward rescans; any exact work-skipping in the analysis
// plane must reproduce these bits. Each epsilon is large enough that the
// worst node's active quilt is non-trivial, and the non-dyadic CPTs make
// the values sensitive to every summation order.
std::vector<KnownAnswer> KnownAnswers() {
  std::vector<KnownAnswer> out;
  out.push_back({"tree127_flip0.25",
                 {TreeNetwork(127, 2, BinaryRoot(0.4), BinaryNoisyCopyCpt(0.25))
                      .ValueOrDie()},
                 2.0, 0x404514f46de56313, 0x2c77af2bdfc157db, 7, 8});
  out.push_back({"tree127_flip0.1",
                 {TreeNetwork(127, 2, BinaryRoot(0.4), BinaryNoisyCopyCpt(0.1))
                      .ValueOrDie()},
                 5.0, 0x40348a47fa2fd414, 0x5ecf84805714e25a, 7, 8});
  out.push_back({"grid3x8_nondyadic",
                 {GridNetwork(3, 8, BinaryRoot(0.3), BinaryNoisyCopyCpt(0.2),
                              BinaryNoisyOrCpt(0.15))
                      .ValueOrDie()},
                 5.0, 0x40127c44351de6d6, 0x520c6d5f095d6d57, 24, 7});
  out.push_back({"hubspoke6x5",
                 {HubSpokeNetwork(6, 5, BinaryRoot(0.45), BinaryNoisyCopyCpt(0.2),
                                  BinaryNoisyCopyCpt(0.3))
                      .ValueOrDie()},
                 3.0, 0x4027d45e9c9e2e88, 0x17adba19522c1157, 12, 6});
  out.push_back({"tree31_two_thetas",
                 {TreeNetwork(31, 2, BinaryRoot(0.4), BinaryNoisyCopyCpt(0.2))
                      .ValueOrDie(),
                  TreeNetwork(31, 2, BinaryRoot(0.6), BinaryNoisyCopyCpt(0.15))
                      .ValueOrDie()},
                 5.0, 0x40113e0c2498bb70, 0xcbfd512cb13c1309, 5, 6});
  return out;
}

TEST(MqmGeneralKnownAnswerTest, SigmaAndEveryNodeArePinnedBitwise) {
  for (const KnownAnswer& ka : KnownAnswers()) {
    const MqmAnalysis analysis =
        AnalyzeMarkovQuiltMechanism(ka.thetas, ka.epsilon, MqmAnalyzeOptions{})
            .ValueOrDie();
    EXPECT_EQ(DoubleBits(analysis.sigma_max), ka.sigma_bits) << ka.name;
    EXPECT_EQ(AnalysisDigest(analysis), ka.digest) << ka.name;
    EXPECT_EQ(analysis.scored_nodes, ka.scored_nodes) << ka.name;
    EXPECT_EQ(analysis.induced_width, ka.induced_width) << ka.name;
  }
}

}  // namespace
}  // namespace pf
