// Property-based validation of the hand-written simplex solver against
// independent oracles: random transport polytopes checked against Dinic
// max-flow feasibility, and tiny random LPs checked against brute-force
// vertex enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "reference/maxflow.h"
#include "reference/simplex.h"

namespace pf {
namespace {

// Builds the transport-feasibility LP for supplies `mu`, demands `nu`, and
// allowed-cell mask `allowed` (row-major n x m).
struct TransportLp {
  Matrix a;
  Vector b;
  std::size_t num_vars;
};

TransportLp BuildTransportLp(const Vector& mu, const Vector& nu,
                             const std::vector<bool>& allowed) {
  const std::size_t n = mu.size(), m = nu.size();
  std::vector<std::pair<std::size_t, std::size_t>> vars;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (allowed[i * m + j]) vars.emplace_back(i, j);
    }
  }
  TransportLp lp;
  lp.num_vars = vars.size();
  lp.a = Matrix(n + m, std::max<std::size_t>(vars.size(), 1), 0.0);
  lp.b = Vector(n + m, 0.0);
  for (std::size_t v = 0; v < vars.size(); ++v) {
    lp.a(vars[v].first, v) = 1.0;
    lp.a(n + vars[v].second, v) = 1.0;
  }
  for (std::size_t i = 0; i < n; ++i) lp.b[i] = mu[i];
  for (std::size_t j = 0; j < m; ++j) lp.b[n + j] = nu[j];
  return lp;
}

// Max-flow oracle for the same instance.
bool FlowFeasible(const Vector& mu, const Vector& nu,
                  const std::vector<bool>& allowed) {
  const std::size_t n = mu.size(), m = nu.size();
  MaxFlow flow(n + m + 2);
  const std::size_t source = 0, sink = n + m + 1;
  for (std::size_t i = 0; i < n; ++i) flow.AddEdge(source, 1 + i, mu[i]);
  for (std::size_t j = 0; j < m; ++j) flow.AddEdge(n + 1 + j, sink, nu[j]);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (allowed[i * m + j]) flow.AddEdge(1 + i, n + 1 + j, 2.0);
    }
  }
  return flow.Compute(source, sink) >= 1.0 - 1e-7;
}

class TransportFeasibilityAgreement : public ::testing::TestWithParam<int> {};

TEST_P(TransportFeasibilityAgreement, SimplexMatchesMaxflow) {
  Rng rng(900 + GetParam());
  const std::size_t n = 2 + rng.UniformInt(4);
  const std::size_t m = 2 + rng.UniformInt(4);
  const Vector mu = rng.UniformSimplex(n);
  const Vector nu = rng.UniformSimplex(m);
  std::vector<bool> allowed(n * m);
  for (std::size_t c = 0; c < allowed.size(); ++c) {
    allowed[c] = rng.Uniform() < 0.5;
  }
  const TransportLp lp = BuildTransportLp(mu, nu, allowed);
  const Result<Vector> point =
      lp.num_vars == 0 ? Result<Vector>(Status::FailedPrecondition("no vars"))
                       : FindFeasiblePoint(lp.a, lp.b);
  const bool flow_says = FlowFeasible(mu, nu, allowed);
  EXPECT_EQ(point.ok(), flow_says) << "n=" << n << " m=" << m;
  if (point.ok()) {
    // Verify the certificate: nonnegative, satisfies all equalities.
    const Vector& x = point.value();
    for (double v : x) EXPECT_GE(v, -1e-8);
    const Vector residual = lp.a.Apply(x);
    for (std::size_t r = 0; r < lp.b.size(); ++r) {
      EXPECT_NEAR(residual[r], lp.b[r], 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Randomized, TransportFeasibilityAgreement,
                         ::testing::Range(0, 30));

// Brute-force LP oracle: enumerate all basic solutions (choices of m columns
// from n variables), keep feasible ones, take the best objective.
double BruteForceLpMin(const Matrix& a, const Vector& b, const Vector& c) {
  const std::size_t m = a.rows(), n = a.cols();
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> cols(m);
  // Enumerate m-subsets of columns via bitmask (n small).
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<std::size_t>(__builtin_popcount(mask)) != m) continue;
    std::size_t idx = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (mask & (1u << j)) cols[idx++] = j;
    }
    Matrix basis(m, m, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t k = 0; k < m; ++k) basis(r, k) = a(r, cols[k]);
    }
    const Result<Vector> sol = basis.Solve(b);
    if (!sol.ok()) continue;
    bool feasible = true;
    double obj = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      if (sol.value()[k] < -1e-9) {
        feasible = false;
        break;
      }
      obj += c[cols[k]] * sol.value()[k];
    }
    if (feasible) best = std::min(best, obj);
  }
  return best;
}

class RandomLpAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpAgreement, SimplexMatchesVertexEnumeration) {
  Rng rng(1500 + GetParam());
  const std::size_t m = 2;
  const std::size_t n = 4 + rng.UniformInt(3);
  Matrix a(m, n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t j = 0; j < n; ++j) a(r, j) = rng.Uniform(0.1, 2.0);
  }
  Vector b(m);
  for (std::size_t r = 0; r < m; ++r) b[r] = rng.Uniform(0.5, 2.0);
  Vector c(n);
  for (std::size_t j = 0; j < n; ++j) c[j] = rng.Uniform(-1.0, 2.0);
  const double brute = BruteForceLpMin(a, b, c);
  const Result<LpSolution> sol = SolveStandardFormLp(a, b, c);
  if (std::isinf(brute)) {
    // All-positive A with positive b is always feasible here, so this
    // should not occur; guard anyway.
    EXPECT_FALSE(sol.ok());
    return;
  }
  // Our objective may be unbounded below when some c_j < 0 column can grow
  // without bound - not possible: all A entries positive bound every var.
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol.value().objective, brute, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Randomized, RandomLpAgreement, ::testing::Range(0, 30));

TEST(SimplexDegenerateTest, ZeroRhsFeasibleAtOrigin) {
  Matrix a{{1.0, 1.0}};
  const Result<Vector> x = FindFeasiblePoint(a, {0.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0] + x.value()[1], 0.0, 1e-9);
}

TEST(SimplexDegenerateTest, UnboundedDetected) {
  // min -x0 s.t. x0 - x1 = 0: x0 = x1 -> -x0 unbounded below.
  Matrix a{{1.0, -1.0}};
  const Result<LpSolution> sol = SolveStandardFormLp(a, {0.0}, {-1.0, 0.0});
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kNumericalError);
}

}  // namespace
}  // namespace pf
