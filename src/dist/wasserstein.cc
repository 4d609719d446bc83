#include "dist/wasserstein.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace pf {

namespace {

constexpr double kMassEps = 1e-12;
constexpr double kDistanceTol = 1e-9;

Status CheckPair(const DiscreteDistribution& mu,
                 const DiscreteDistribution& nu) {
  if (mu.empty() || nu.empty()) {
    return Status::InvalidArgument("empty distribution");
  }
  return Status::OK();
}

// W_inf of the monotone (quantile) coupling: walk both atom lists in
// parallel, pairing mass greedily in location order, and record the largest
// distance any mass travels. On the line this coupling minimizes the
// maximum displacement, so the result is exact.
double QuantileWinf(const DiscreteDistribution& mu,
                    const DiscreteDistribution& nu) {
  const auto& a = mu.atoms();
  const auto& b = nu.atoms();
  std::size_t i = 0, j = 0;
  double rem_a = a[0].p, rem_b = b[0].p;
  double worst = 0.0;
  while (i < a.size() && j < b.size()) {
    worst = std::max(worst, std::abs(a[i].x - b[j].x));
    const double moved = std::min(rem_a, rem_b);
    rem_a -= moved;
    rem_b -= moved;
    if (rem_a <= kMassEps) {
      ++i;
      if (i < a.size()) rem_a = a[i].p;
    }
    if (rem_b <= kMassEps) {
      ++j;
      if (j < b.size()) rem_b = b[j].p;
    }
  }
  return worst;
}

}  // namespace

Result<double> WassersteinInf(const DiscreteDistribution& mu,
                              const DiscreteDistribution& nu) {
  PF_RETURN_NOT_OK(CheckPair(mu, nu));
  return QuantileWinf(mu, nu);
}

Result<double> Wasserstein1(const DiscreteDistribution& mu,
                            const DiscreteDistribution& nu) {
  PF_RETURN_NOT_OK(CheckPair(mu, nu));
  // W_1 on the line is the area between the CDFs.
  std::vector<double> points;
  points.reserve(mu.size() + nu.size());
  for (const auto& atom : mu.atoms()) points.push_back(atom.x);
  for (const auto& atom : nu.atoms()) points.push_back(atom.x);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  double total = 0.0;
  for (std::size_t k = 0; k + 1 < points.size(); ++k) {
    const double gap = points[k + 1] - points[k];
    total += gap * std::abs(mu.Cdf(points[k]) - nu.Cdf(points[k]));
  }
  return total;
}

Result<bool> CouplingFeasibleWithin(const DiscreteDistribution& mu,
                                    const DiscreteDistribution& nu,
                                    double threshold) {
  PF_RETURN_NOT_OK(CheckPair(mu, nu));
  // Written so that NaN fails too.
  if (!(threshold >= 0.0)) {
    return Status::InvalidArgument("threshold must be a number >= 0");
  }
  return QuantileWinf(mu, nu) <= threshold + kDistanceTol;
}

}  // namespace pf
