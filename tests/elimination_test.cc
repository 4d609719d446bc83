#include "graphical/elimination.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "common/random.h"
#include "data/topologies.h"
#include "graphical/bayesian_network.h"
#include "graphical/moral_graph.h"

namespace pf {
namespace {

// ------------------------------------------------------ factor kernels ----

TEST(FactorTest, CptFactorLayout) {
  // P(child | parent): scope (parent, child), child least significant.
  const Factor f = CptFactor({0}, {2}, 1, 3,
                             Matrix{{0.5, 0.3, 0.2}, {0.1, 0.1, 0.8}});
  EXPECT_EQ(f.scope, (std::vector<int>{0, 1}));
  EXPECT_EQ(f.arity, (std::vector<int>{2, 3}));
  EXPECT_EQ(f.values, (Vector{0.5, 0.3, 0.2, 0.1, 0.1, 0.8}));
  EXPECT_TRUE(f.Contains(0));
  EXPECT_FALSE(f.Contains(2));
}

TEST(FactorTest, ReduceKeepsTheMatchingSlice) {
  const Factor f = CptFactor({0}, {2}, 1, 3,
                             Matrix{{0.5, 0.3, 0.2}, {0.1, 0.1, 0.8}});
  const Factor r0 = Reduce(f, 0, 1);  // Parent = 1: second CPT row.
  EXPECT_EQ(r0.scope, (std::vector<int>{1}));
  EXPECT_EQ(r0.values, (Vector{0.1, 0.1, 0.8}));
  const Factor r1 = Reduce(f, 1, 2);  // Child = 2: last column.
  EXPECT_EQ(r1.scope, (std::vector<int>{0}));
  EXPECT_EQ(r1.values, (Vector{0.2, 0.8}));
  // Absent variable: unchanged.
  EXPECT_EQ(Reduce(f, 7, 0).values, f.values);
}

TEST(FactorTest, MultiplyAllAndMarginalizeLast) {
  const Factor a = CptFactor({}, {}, 0, 2, Matrix{{0.25, 0.75}});
  const Factor b =
      CptFactor({0}, {2}, 1, 2, Matrix{{0.5, 0.5}, {0.125, 0.875}});
  const Factor joint = MultiplyAll({&a, &b}, {0, 1}, {2, 2});
  EXPECT_EQ(joint.values,
            (Vector{0.25 * 0.5, 0.25 * 0.5, 0.75 * 0.125, 0.75 * 0.875}));
  const Factor marg = MarginalizeLast(joint);  // Sum out variable 1.
  EXPECT_EQ(marg.scope, (std::vector<int>{0}));
  EXPECT_DOUBLE_EQ(marg.values[0], 0.25);
  EXPECT_DOUBLE_EQ(marg.values[1], 0.75);
}

// ----------------------------------------------------- min-fill ordering ----

TEST(MinFillTest, TreeTopologiesHaveWidthOne) {
  const Vector root = {0.5, 0.5};
  const Matrix edge = BinaryNoisyCopyCpt(0.25);
  for (const BayesianNetwork& bn :
       {TreeNetwork(15, 2, root, edge).ValueOrDie(),
        TreeNetwork(9, 1, root, edge).ValueOrDie(),  // Chain.
        HubSpokeNetwork(3, 4, root, edge, edge).ValueOrDie()}) {
    EXPECT_EQ(MinFillWidth(MoralGraph(bn).adjacency()), 1u);
  }
}

TEST(MinFillTest, GridWidthIsBounded) {
  const BayesianNetwork grid =
      GridNetwork(3, 4, {0.5, 0.5}, BinaryNoisyCopyCpt(0.25),
                  BinaryNoisyOrCpt(0.25))
          .ValueOrDie();
  const std::size_t width = MinFillWidth(MoralGraph(grid).adjacency());
  EXPECT_GE(width, 2u);  // A moralized grid is not a tree.
  EXPECT_LE(width, 4u);  // ... but stays near min(rows, cols).
}

TEST(MinFillTest, OrderIsDeterministicAndSkipsProtectedVertices) {
  const std::vector<std::vector<int>> triangle = {{1, 2}, {0, 2}, {0, 1}};
  std::size_t width = 0;
  const std::vector<int> all =
      MinFillOrder(triangle, {true, true, true}, &width);
  EXPECT_EQ(all, MinFillOrder(triangle, {true, true, true}, nullptr));
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(width, 2u);
  const std::vector<int> keep1 =
      MinFillOrder(triangle, {true, false, true}, nullptr);
  EXPECT_EQ(keep1.size(), 2u);
  for (int v : keep1) EXPECT_NE(v, 1);
}

// The pre-incremental min-fill, kept verbatim as the reference: rescans
// every vertex's fill over std::set neighborhoods at every step.
std::vector<int> ReferenceMinFillOrder(
    const std::vector<std::vector<int>>& adjacency,
    const std::vector<bool>& eliminable, std::size_t* induced_width) {
  const std::size_t n = adjacency.size();
  std::vector<std::set<int>> adj(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (int w : adjacency[v]) {
      if (w != static_cast<int>(v)) adj[v].insert(w);
    }
  }
  std::vector<bool> removed(n, false);
  std::vector<int> order;
  std::size_t width = 0;
  std::size_t to_remove = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (eliminable[v]) ++to_remove;
  }
  for (std::size_t step = 0; step < to_remove; ++step) {
    int best = -1;
    std::size_t best_fill = std::numeric_limits<std::size_t>::max();
    for (std::size_t v = 0; v < n; ++v) {
      if (!eliminable[v] || removed[v]) continue;
      std::size_t fill = 0;
      for (auto a = adj[v].begin(); a != adj[v].end(); ++a) {
        auto b = a;
        for (++b; b != adj[v].end(); ++b) {
          if (adj[static_cast<std::size_t>(*a)].count(*b) == 0) ++fill;
        }
      }
      if (fill < best_fill) {
        best_fill = fill;
        best = static_cast<int>(v);
      }
    }
    const std::size_t bv = static_cast<std::size_t>(best);
    width = std::max(width, adj[bv].size());
    for (auto a = adj[bv].begin(); a != adj[bv].end(); ++a) {
      auto b = a;
      for (++b; b != adj[bv].end(); ++b) {
        adj[static_cast<std::size_t>(*a)].insert(*b);
        adj[static_cast<std::size_t>(*b)].insert(*a);
      }
    }
    for (int a : adj[bv]) adj[static_cast<std::size_t>(a)].erase(best);
    adj[bv].clear();
    removed[bv] = true;
    order.push_back(best);
  }
  if (induced_width != nullptr) *induced_width = width;
  return order;
}

void ExpectSameMinFill(const std::vector<std::vector<int>>& adjacency,
                       const std::vector<bool>& eliminable,
                       const std::string& what) {
  std::size_t width = 0;
  std::size_t ref_width = 0;
  EXPECT_EQ(MinFillOrder(adjacency, eliminable, &width),
            ReferenceMinFillOrder(adjacency, eliminable, &ref_width))
      << what;
  EXPECT_EQ(width, ref_width) << what;
}

TEST(MinFillTest, IncrementalMatchesFullRescanOnBenchTopologies) {
  const Vector root = {0.5, 0.5};
  const Matrix edge = BinaryNoisyCopyCpt(0.25);
  const Matrix merge = BinaryNoisyOrCpt(0.25);
  const std::vector<std::pair<std::string, BayesianNetwork>> nets = {
      {"tree127", TreeNetwork(127, 2, root, edge).ValueOrDie()},
      {"grid3x40", GridNetwork(3, 40, root, edge, merge).ValueOrDie()},
      {"hub250", HubSpokeNetwork(50, 4, root, edge, edge).ValueOrDie()},
  };
  for (const auto& [name, bn] : nets) {
    const std::vector<std::vector<int>> adj = MoralGraph(bn).adjacency();
    const std::vector<bool> all(adj.size(), true);
    ExpectSameMinFill(adj, all, name);
    std::size_t ref_width = 0;
    ReferenceMinFillOrder(adj, all, &ref_width);
    EXPECT_EQ(MinFillWidth(adj), ref_width) << name;
    // The elimination queries keep a target and pin an evidence variable.
    std::vector<bool> query(adj.size(), true);
    query[0] = false;
    query[adj.size() / 2] = false;
    ExpectSameMinFill(adj, query, name + " with protected vertices");
  }
}

TEST(MinFillTest, IncrementalMatchesFullRescanOnRandomGraphs) {
  // Small dense-ish random graphs: fill counts collide constantly, so the
  // smallest-id tie rule decides most steps.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.UniformInt(30);
    const double p = 0.05 + 0.5 * rng.Uniform();
    std::vector<std::vector<int>> adj(n);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (rng.Uniform() < p) {
          adj[a].push_back(static_cast<int>(b));
          adj[b].push_back(static_cast<int>(a));
        }
      }
    }
    const std::string what = "trial " + std::to_string(trial);
    ExpectSameMinFill(adj, std::vector<bool>(n, true), what);
    // A random non-eliminable subset (targets and evidence).
    std::vector<bool> eliminable(n);
    for (std::size_t v = 0; v < n; ++v) eliminable[v] = rng.Uniform() < 0.7;
    ExpectSameMinFill(adj, eliminable, what + " subset");
  }
}

// ------------------------------- elimination vs enumeration (property) ----

Matrix RandomCpt(std::size_t rows, int arity, Rng* rng) {
  Matrix cpt(rows, static_cast<std::size_t>(arity));
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (int c = 0; c < arity; ++c) {
      cpt(r, static_cast<std::size_t>(c)) = 0.05 + rng->Uniform();
      sum += cpt(r, static_cast<std::size_t>(c));
    }
    for (int c = 0; c < arity; ++c) cpt(r, static_cast<std::size_t>(c)) /= sum;
  }
  return cpt;
}

// Re-CPTs a topology with fresh random tables (keeping structure/arities).
BayesianNetwork Randomized(const BayesianNetwork& shape, Rng* rng) {
  BayesianNetwork bn;
  for (std::size_t i = 0; i < shape.num_nodes(); ++i) {
    const BayesianNetwork::Node& node = shape.node(i);
    std::size_t rows = 1;
    for (int p : node.parents) {
      rows *= static_cast<std::size_t>(
          shape.node(static_cast<std::size_t>(p)).arity);
    }
    EXPECT_TRUE(bn.AddNode(node.name, node.arity, node.parents,
                           RandomCpt(rows, node.arity, rng))
                    .ok());
  }
  return bn;
}

BayesianNetwork Collider(Rng* rng) {
  // V-structure plus tail: X0 -> X2 <- X1, X2 -> X3, X3 -> X4.
  BayesianNetwork bn;
  EXPECT_TRUE(bn.AddNode("A", 2, {}, RandomCpt(1, 2, rng)).ok());
  EXPECT_TRUE(bn.AddNode("B", 3, {}, RandomCpt(1, 3, rng)).ok());
  EXPECT_TRUE(bn.AddNode("C", 2, {0, 1}, RandomCpt(6, 2, rng)).ok());
  EXPECT_TRUE(bn.AddNode("D", 2, {2}, RandomCpt(2, 2, rng)).ok());
  EXPECT_TRUE(bn.AddNode("E", 3, {3}, RandomCpt(2, 3, rng)).ok());
  return bn;
}

void ExpectBackendsAgree(const BayesianNetwork& bn,
                         const std::vector<int>& targets,
                         const std::vector<std::pair<int, int>>& evidence) {
  const Result<Vector> elim = bn.ConditionalJoint(
      targets, evidence, 1u << 24, InferenceBackend::kVariableElimination);
  const Result<Vector> enu = bn.ConditionalJoint(
      targets, evidence, 1u << 24, InferenceBackend::kEnumeration);
  ASSERT_EQ(elim.ok(), enu.ok());
  if (!elim.ok()) {
    EXPECT_EQ(elim.status().code(), enu.status().code());
    return;
  }
  const Vector& a = elim.value();
  const Vector& b = enu.value();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12) << "cell " << i;
  }
}

TEST(EliminationPropertyTest, MatchesEnumerationOnRandomNetworks) {
  Rng rng(20260727);
  const Vector root = {0.5, 0.5};
  const Matrix edge = BinaryNoisyCopyCpt(0.25);
  const Matrix merge = BinaryNoisyOrCpt(0.25);
  for (int trial = 0; trial < 5; ++trial) {
    const BayesianNetwork shapes[] = {
        Randomized(TreeNetwork(9, 1, root, edge).ValueOrDie(), &rng),  // Chain.
        Randomized(TreeNetwork(11, 2, root, edge).ValueOrDie(), &rng),
        Randomized(GridNetwork(3, 3, root, edge, merge).ValueOrDie(), &rng),
        Collider(&rng),
        Randomized(HubSpokeNetwork(2, 3, root, edge, edge).ValueOrDie(), &rng),
    };
    for (const BayesianNetwork& bn : shapes) {
      const int n = static_cast<int>(bn.num_nodes());
      const int t0 = static_cast<int>(rng.Uniform() * n) % n;
      const int t1 = (t0 + 1 + static_cast<int>(rng.Uniform() * (n - 1))) % n;
      const int ev = (t1 + 1) % n;
      const int ev_val =
          static_cast<int>(rng.Uniform() * bn.node(static_cast<std::size_t>(ev)).arity);
      ExpectBackendsAgree(bn, {t0}, {});
      ExpectBackendsAgree(bn, {t0, t1}, {{ev, ev_val}});
      // Duplicate target and target pinned by evidence: the expansion
      // conventions must match too.
      ExpectBackendsAgree(bn, {t0, t0}, {});
      ExpectBackendsAgree(bn, {ev, t0}, {{ev, ev_val}});
    }
  }
}

TEST(EliminationPropertyTest, ZeroProbabilityEvidenceFailsOnBothBackends) {
  // X1 deterministically copies X0; conditioning on a disagreement is a
  // zero-probability event.
  BayesianNetwork bn;
  ASSERT_TRUE(bn.AddNode("A", 2, {}, Matrix{{1.0, 0.0}}).ok());
  ASSERT_TRUE(bn.AddNode("B", 2, {0},
                         Matrix{{1.0, 0.0}, {0.0, 1.0}}).ok());
  for (const InferenceBackend backend :
       {InferenceBackend::kVariableElimination, InferenceBackend::kEnumeration}) {
    const Result<Vector> r = bn.ConditionalJoint({0}, {{1, 1}}, 1u << 24, backend);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(EliminationPropertyTest, DuplicateEvidenceConventionsMatch) {
  Rng rng(99);
  const BayesianNetwork bn =
      Randomized(TreeNetwork(7, 2, {0.5, 0.5}, BinaryNoisyCopyCpt(0.25))
                     .ValueOrDie(),
                 &rng);
  // Consistent duplicates behave like a single pair on both backends.
  const Vector once =
      bn.ConditionalJoint({3}, {{1, 1}}, 1u << 24).ValueOrDie();
  const Vector twice =
      bn.ConditionalJoint({3}, {{1, 1}, {1, 1}}, 1u << 24).ValueOrDie();
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(once[i], twice[i], 1e-15);
  }
  // Conflicting duplicates pin one variable to two values: no assignment
  // matches, so BOTH backends must report zero-probability evidence (the
  // elimination path must not silently answer as if only the first pair
  // existed).
  for (const InferenceBackend backend :
       {InferenceBackend::kVariableElimination, InferenceBackend::kEnumeration}) {
    const Result<Vector> r =
        bn.ConditionalJoint({3}, {{1, 0}, {1, 1}}, 1u << 24, backend);
    ASSERT_FALSE(r.ok()) << InferenceBackendName(backend);
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(EliminationTest, LimitGuardsLargestCliqueTable) {
  // A 5-parent collider: eliminating any parent builds a table over the
  // other four plus the child (64 cells > 16).
  Rng rng(7);
  BayesianNetwork bn;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(bn.AddNode("P" + std::to_string(i), 2, {},
                           RandomCpt(1, 2, &rng)).ok());
  }
  ASSERT_TRUE(bn.AddNode("C", 2, {0, 1, 2, 3, 4},
                         RandomCpt(32, 2, &rng)).ok());
  const Result<Vector> blocked = bn.ConditionalJoint(
      {5}, {}, /*limit=*/16, InferenceBackend::kVariableElimination);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(bn.ConditionalJoint({5}, {}, /*limit=*/64,
                                  InferenceBackend::kVariableElimination)
                  .ok());
}

TEST(EliminationTest, StatsReportWidthAndPeakBytes) {
  const BayesianNetwork bn =
      TreeNetwork(31, 2, {0.5, 0.5}, BinaryNoisyCopyCpt(0.25)).ValueOrDie();
  EliminationStats stats;
  const Result<Vector> r =
      FactorConditionalJoint(bn.Factors(), bn.Arities(), {30}, {{0, 1}},
                             1u << 24, InferenceBackend::kVariableElimination,
                             &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(stats.induced_width, 1u);
  EXPECT_LE(stats.induced_width, 2u);  // A tree stays near width 1.
  EXPECT_GT(stats.peak_factor_bytes, 0u);
  EliminationStats merged;
  merged.MergeMax(stats);
  EliminationStats bigger;
  bigger.induced_width = 99;
  merged.MergeMax(bigger);
  EXPECT_EQ(merged.induced_width, 99u);
  EXPECT_EQ(merged.peak_factor_bytes, stats.peak_factor_bytes);
}

TEST(EliminationTest, ScalesFarBeyondTheEnumerationGuard) {
  // 120 binary nodes: 2^120 joint assignments — enumeration refuses under
  // any sane limit, elimination answers in microseconds.
  const BayesianNetwork bn =
      TreeNetwork(120, 3, {0.5, 0.5}, BinaryNoisyCopyCpt(0.1)).ValueOrDie();
  const Result<Vector> refused =
      bn.ConditionalJoint({119}, {{0, 0}}, 1u << 24,
                          InferenceBackend::kEnumeration);
  ASSERT_FALSE(refused.ok());
  const Vector marginal =
      bn.ConditionalJoint({119}, {{0, 0}}, 1u << 24).ValueOrDie();
  EXPECT_NEAR(marginal[0] + marginal[1], 1.0, 1e-12);
  EXPECT_GT(marginal[0], 0.5);  // Noisy copies of state 0 stay biased to 0.
}

}  // namespace
}  // namespace pf
