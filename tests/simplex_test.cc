#include "reference/simplex.h"

#include <gtest/gtest.h>

namespace pf {
namespace {

TEST(SimplexTest, SimpleEqualityLp) {
  // min x0 + 2 x1  s.t.  x0 + x1 = 1, x >= 0  ->  x = (1, 0), obj 1.
  Matrix a(1, 2, 1.0);
  const Result<LpSolution> sol = SolveStandardFormLp(a, {1.0}, {1.0, 2.0});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.value().objective, 1.0, 1e-9);
  EXPECT_NEAR(sol.value().x[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.value().x[1], 0.0, 1e-9);
}

TEST(SimplexTest, MaximizationViaNegation) {
  // max x0 s.t. x0 + x1 = 2 -> min -x0 -> x0 = 2.
  Matrix a(1, 2, 1.0);
  const Result<LpSolution> sol = SolveStandardFormLp(a, {2.0}, {-1.0, 0.0});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.value().x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.value().objective, -2.0, 1e-9);
}

TEST(SimplexTest, TwoConstraints) {
  // min x0 + x1 + x2 s.t. x0 + x1 = 1, x1 + x2 = 1 -> x1 = 1 optimal, obj 1.
  Matrix a{{1.0, 1.0, 0.0}, {0.0, 1.0, 1.0}};
  const Result<LpSolution> sol =
      SolveStandardFormLp(a, {1.0, 1.0}, {1.0, 1.0, 1.0});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.value().objective, 1.0, 1e-9);
  EXPECT_NEAR(sol.value().x[1], 1.0, 1e-9);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x0 = 1 and x0 = 2 cannot both hold.
  Matrix a{{1.0}, {1.0}};
  const Result<LpSolution> sol = SolveStandardFormLp(a, {1.0, 2.0}, {1.0});
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SimplexTest, NegativeRhsNormalized) {
  // -x0 = -3 -> x0 = 3.
  Matrix a(1, 1, -1.0);
  const Result<LpSolution> sol = SolveStandardFormLp(a, {-3.0}, {1.0});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.value().x[0], 3.0, 1e-9);
}

TEST(SimplexTest, RedundantConstraintHandled) {
  // Duplicate rows: x0 + x1 = 1 twice.
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  const Result<LpSolution> sol =
      SolveStandardFormLp(a, {1.0, 1.0}, {2.0, 1.0});
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.value().objective, 1.0, 1e-9);
}

TEST(SimplexTest, FeasiblePointTransportPolytope) {
  // Coupling of (0.5, 0.5) and (0.25, 0.75) with all four cells allowed:
  // row sums and column sums must match.
  Matrix a(4, 4, 0.0);
  // Variables: g00 g01 g10 g11. Rows: row0, row1, col0, col1.
  a(0, 0) = a(0, 1) = 1.0;
  a(1, 2) = a(1, 3) = 1.0;
  a(2, 0) = a(2, 2) = 1.0;
  a(3, 1) = a(3, 3) = 1.0;
  const Result<Vector> x = FindFeasiblePoint(a, {0.5, 0.5, 0.25, 0.75});
  ASSERT_TRUE(x.ok());
  const Vector& g = x.value();
  EXPECT_NEAR(g[0] + g[1], 0.5, 1e-9);
  EXPECT_NEAR(g[2] + g[3], 0.5, 1e-9);
  EXPECT_NEAR(g[0] + g[2], 0.25, 1e-9);
  EXPECT_NEAR(g[1] + g[3], 0.75, 1e-9);
  for (double v : g) EXPECT_GE(v, -1e-9);
}

TEST(SimplexTest, FeasiblePointInfeasible) {
  // x0 = 1, x0 = 0.
  Matrix a{{1.0}, {1.0}};
  const Result<Vector> x = FindFeasiblePoint(a, {1.0, 0.0});
  EXPECT_FALSE(x.ok());
}

TEST(SimplexTest, DimensionMismatchRejected) {
  Matrix a(1, 2, 1.0);
  EXPECT_FALSE(SolveStandardFormLp(a, {1.0, 2.0}, {1.0, 1.0}).ok());
  EXPECT_FALSE(SolveStandardFormLp(a, {1.0}, {1.0}).ok());
}

}  // namespace
}  // namespace pf
