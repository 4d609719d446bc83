#include "reference/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace pf {

namespace {

constexpr double kPivotEps = 1e-9;
constexpr double kFeasibilityTol = 1e-7;

// Dense simplex tableau over the columns [original | artificial]. The cost
// row holds reduced costs and is updated jointly with every pivot, so the
// entering rule can read it directly.
struct Tableau {
  std::size_t m, n;               // Constraints, original variables.
  Matrix t;                       // m x (n + m).
  Vector rhs;                     // Length m, kept >= 0.
  Vector cost;                    // Reduced-cost row, length n + m.
  double objective = 0.0;         // Negated accumulated objective shift.
  std::vector<std::size_t> basis;  // basis[r] = column basic in row r.

  void Pivot(std::size_t row, std::size_t col) {
    const double pivot = t(row, col);
    for (std::size_t j = 0; j < t.cols(); ++j) t(row, j) /= pivot;
    rhs[row] /= pivot;
    for (std::size_t r = 0; r < m; ++r) {
      if (r == row) continue;
      const double factor = t(r, col);
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < t.cols(); ++j) t(r, j) -= factor * t(row, j);
      rhs[r] -= factor * rhs[row];
      if (rhs[r] < 0.0 && rhs[r] > -kPivotEps) rhs[r] = 0.0;
    }
    const double cfactor = cost[col];
    if (cfactor != 0.0) {
      for (std::size_t j = 0; j < t.cols(); ++j) cost[j] -= cfactor * t(row, j);
      objective -= cfactor * rhs[row];
    }
    basis[row] = col;
  }

  // Runs simplex over entering candidates [0, limit) with Bland's rule.
  // Returns false when the objective is unbounded below.
  bool Iterate(std::size_t limit) {
    while (true) {
      std::size_t entering = limit;
      for (std::size_t j = 0; j < limit; ++j) {
        if (cost[j] < -kPivotEps) {
          entering = j;
          break;  // Bland: smallest eligible index.
        }
      }
      if (entering == limit) return true;  // Optimal.
      std::size_t leaving = m;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m; ++r) {
        if (t(r, entering) <= kPivotEps) continue;
        const double ratio = rhs[r] / t(r, entering);
        if (ratio < best_ratio - kPivotEps ||
            (ratio < best_ratio + kPivotEps &&
             (leaving == m || basis[r] < basis[leaving]))) {
          best_ratio = ratio;
          leaving = r;
        }
      }
      if (leaving == m) return false;  // Unbounded direction.
      Pivot(leaving, entering);
    }
  }
};

Status CheckDimensions(const Matrix& a, const Vector& b, const Vector& c,
                       bool with_cost) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("empty constraint matrix");
  }
  if (b.size() != a.rows()) {
    return Status::InvalidArgument("rhs size must match constraint rows");
  }
  if (with_cost && c.size() != a.cols()) {
    return Status::InvalidArgument("cost size must match variable count");
  }
  return Status::OK();
}

// Builds the phase-1 tableau (artificial basis) and minimizes the sum of
// artificials. On success the tableau holds a feasible basis.
Result<Tableau> Phase1(const Matrix& a, const Vector& b) {
  Tableau tab;
  tab.m = a.rows();
  tab.n = a.cols();
  tab.t = Matrix(tab.m, tab.n + tab.m, 0.0);
  tab.rhs = Vector(tab.m, 0.0);
  tab.basis.resize(tab.m);
  for (std::size_t r = 0; r < tab.m; ++r) {
    const double sign = (b[r] < 0.0) ? -1.0 : 1.0;
    for (std::size_t j = 0; j < tab.n; ++j) tab.t(r, j) = sign * a(r, j);
    tab.rhs[r] = sign * b[r];
    tab.t(r, tab.n + r) = 1.0;
    tab.basis[r] = tab.n + r;
  }
  // Phase-1 reduced costs: artificials cost 1 and are basic, so the reduced
  // cost row is the negated column sum of the original columns.
  tab.cost = Vector(tab.n + tab.m, 0.0);
  tab.objective = 0.0;
  for (std::size_t r = 0; r < tab.m; ++r) {
    for (std::size_t j = 0; j < tab.n; ++j) tab.cost[j] -= tab.t(r, j);
    tab.objective -= tab.rhs[r];
  }
  // Phase 1 is bounded below by 0, so Iterate cannot report unbounded.
  tab.Iterate(tab.n);
  if (-tab.objective > kFeasibilityTol) {
    return Status::FailedPrecondition("LP constraints are infeasible");
  }
  // Drive any residual artificial out of the basis; rows where no original
  // column can pivot are redundant constraints and stay harmlessly at zero
  // (their artificial remains basic at value 0 and never re-enters because
  // phase 2 restricts entering columns to the originals).
  for (std::size_t r = 0; r < tab.m; ++r) {
    if (tab.basis[r] < tab.n) continue;
    for (std::size_t j = 0; j < tab.n; ++j) {
      if (std::abs(tab.t(r, j)) > kPivotEps) {
        tab.Pivot(r, j);
        break;
      }
    }
  }
  return tab;
}

Vector ExtractSolution(const Tableau& tab) {
  Vector x(tab.n, 0.0);
  for (std::size_t r = 0; r < tab.m; ++r) {
    if (tab.basis[r] < tab.n) x[tab.basis[r]] = std::max(0.0, tab.rhs[r]);
  }
  return x;
}

}  // namespace

Result<LpSolution> SolveStandardFormLp(const Matrix& a, const Vector& b,
                                       const Vector& c) {
  PF_RETURN_NOT_OK(CheckDimensions(a, b, c, /*with_cost=*/true));
  PF_ASSIGN_OR_RETURN(Tableau tab, Phase1(a, b));
  // Phase 2: install the real objective as a reduced-cost row.
  tab.cost.assign(tab.n + tab.m, 0.0);
  tab.objective = 0.0;
  for (std::size_t j = 0; j < tab.n; ++j) tab.cost[j] = c[j];
  for (std::size_t r = 0; r < tab.m; ++r) {
    if (tab.basis[r] >= tab.n) continue;  // Artificial stuck at zero.
    const double cb = c[tab.basis[r]];
    if (cb == 0.0) continue;
    for (std::size_t j = 0; j < tab.t.cols(); ++j) {
      tab.cost[j] -= cb * tab.t(r, j);
    }
    tab.objective -= cb * tab.rhs[r];
  }
  if (!tab.Iterate(tab.n)) {
    return Status::NumericalError("LP objective is unbounded below");
  }
  LpSolution solution;
  solution.x = ExtractSolution(tab);
  solution.objective = Dot(c, solution.x);
  return solution;
}

Result<Vector> FindFeasiblePoint(const Matrix& a, const Vector& b) {
  PF_RETURN_NOT_OK(CheckDimensions(a, b, {}, /*with_cost=*/false));
  PF_ASSIGN_OR_RETURN(Tableau tab, Phase1(a, b));
  return ExtractSolution(tab);
}

}  // namespace pf
