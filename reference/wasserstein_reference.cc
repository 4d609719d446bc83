#include "reference/wasserstein_reference.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dist/wasserstein.h"
#include "reference/maxflow.h"
#include "reference/simplex.h"

namespace pf {

namespace {

constexpr double kDistanceTol = 1e-9;

// Coupling feasibility within distance t, decided by Dinic max-flow on the
// bipartite transport network (edges only between atoms within distance t).
bool FlowFeasible(const DiscreteDistribution& mu, const DiscreteDistribution& nu,
                  double t) {
  const auto& a = mu.atoms();
  const auto& b = nu.atoms();
  MaxFlow flow(a.size() + b.size() + 2);
  const std::size_t source = 0;
  const std::size_t sink = a.size() + b.size() + 1;
  for (std::size_t i = 0; i < a.size(); ++i) {
    flow.AddEdge(source, 1 + i, a[i].p);
  }
  for (std::size_t j = 0; j < b.size(); ++j) {
    flow.AddEdge(1 + a.size() + j, sink, b[j].p);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (std::abs(a[i].x - b[j].x) <= t + kDistanceTol) {
        flow.AddEdge(1 + i, 1 + a.size() + j, 2.0);
      }
    }
  }
  return flow.Compute(source, sink) >= 1.0 - 1e-7;
}

// The same feasibility question as a transport-polytope LP (row sums mu,
// column sums nu, variables only for allowed cells).
bool LpFeasible(const DiscreteDistribution& mu, const DiscreteDistribution& nu,
                double t) {
  const auto& a = mu.atoms();
  const auto& b = nu.atoms();
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (std::abs(a[i].x - b[j].x) <= t + kDistanceTol) cells.emplace_back(i, j);
    }
  }
  if (cells.empty()) return false;
  Matrix constraints(a.size() + b.size(), cells.size(), 0.0);
  Vector rhs(a.size() + b.size(), 0.0);
  for (std::size_t v = 0; v < cells.size(); ++v) {
    constraints(cells[v].first, v) = 1.0;
    constraints(a.size() + cells[v].second, v) = 1.0;
  }
  for (std::size_t i = 0; i < a.size(); ++i) rhs[i] = a[i].p;
  for (std::size_t j = 0; j < b.size(); ++j) rhs[a.size() + j] = b[j].p;
  return FindFeasiblePoint(constraints, rhs).ok();
}

bool FeasibleWithin(const DiscreteDistribution& mu,
                    const DiscreteDistribution& nu, double t,
                    WinfSolver solver) {
  return solver == WinfSolver::kMaxFlow ? FlowFeasible(mu, nu, t)
                                        : LpFeasible(mu, nu, t);
}

// Smallest feasible candidate distance via bisection over the sorted set of
// pairwise atom distances (W_inf always equals one of them).
double BisectWinf(const DiscreteDistribution& mu, const DiscreteDistribution& nu,
                  WinfSolver solver) {
  const auto& a = mu.atoms();
  const auto& b = nu.atoms();
  std::vector<double> candidates;
  candidates.reserve(a.size() * b.size());
  for (const auto& atom_a : a) {
    for (const auto& atom_b : b) {
      candidates.push_back(std::abs(atom_a.x - atom_b.x));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::size_t lo = 0, hi = candidates.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (FeasibleWithin(mu, nu, candidates[mid], solver)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return candidates[lo];
}

}  // namespace

Result<double> WassersteinInfBySolver(const DiscreteDistribution& mu,
                                      const DiscreteDistribution& nu,
                                      WinfSolver solver) {
  if (solver == WinfSolver::kQuantile) return WassersteinInf(mu, nu);
  if (mu.empty() || nu.empty()) {
    return Status::InvalidArgument("empty distribution");
  }
  return BisectWinf(mu, nu, solver);
}

Result<bool> CouplingFeasibleWithinBySolver(const DiscreteDistribution& mu,
                                            const DiscreteDistribution& nu,
                                            double threshold,
                                            WinfSolver solver) {
  // pf_core validates the arguments and answers for the quantile solver.
  PF_ASSIGN_OR_RETURN(const bool quantile,
                      CouplingFeasibleWithin(mu, nu, threshold));
  if (solver == WinfSolver::kQuantile) return quantile;
  return FeasibleWithin(mu, nu, threshold, solver);
}

}  // namespace pf
