// The infinity-Wasserstein distance W_inf (Definition 3.1) between finitely
// supported distributions on R: the smallest t such that some coupling moves
// every unit of mass a distance at most t. On the line the monotone
// (quantile) coupling is W_inf-optimal, so W_inf has the closed form
// sup_u |F_mu^{-1}(u) - F_nu^{-1}(u)|, computed here in one merge pass.
//
// Max-flow and LP solvers that cross-check this closed form live in the
// test-only reference library (reference/wasserstein_reference.h).
#ifndef PUFFERFISH_DIST_WASSERSTEIN_H_
#define PUFFERFISH_DIST_WASSERSTEIN_H_

#include "common/status.h"
#include "dist/discrete_distribution.h"

namespace pf {

/// \brief W_inf(mu, nu). Fails on empty distributions.
Result<double> WassersteinInf(const DiscreteDistribution& mu,
                              const DiscreteDistribution& nu);

/// \brief W_1(mu, nu) = integral |F_mu - F_nu| (earth-mover distance).
Result<double> Wasserstein1(const DiscreteDistribution& mu,
                            const DiscreteDistribution& nu);

/// \brief True iff a coupling of (mu, nu) exists moving every unit of mass a
/// distance <= `threshold` (within a small tolerance). Fails on empty
/// distributions and on a threshold that is not a number >= 0.
Result<bool> CouplingFeasibleWithin(const DiscreteDistribution& mu,
                                    const DiscreteDistribution& nu,
                                    double threshold);

}  // namespace pf

#endif  // PUFFERFISH_DIST_WASSERSTEIN_H_
