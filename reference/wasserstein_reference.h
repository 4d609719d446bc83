// Reference W_inf solvers that cross-check pf_core's closed-form quantile
// coupling (dist/wasserstein.h): bisection over the candidate distances,
// with coupling feasibility decided by Dinic max-flow or by the simplex
// solver on the transport polytope. kQuantile calls pf_core, so a test can
// loop over all three.
#ifndef PUFFERFISH_REFERENCE_WASSERSTEIN_REFERENCE_H_
#define PUFFERFISH_REFERENCE_WASSERSTEIN_REFERENCE_H_

#include "common/status.h"
#include "dist/discrete_distribution.h"

namespace pf {

enum class WinfSolver { kQuantile = 0, kMaxFlow = 1, kLp = 2 };

/// \brief WassersteinInf(mu, nu) computed by `solver`.
Result<double> WassersteinInfBySolver(const DiscreteDistribution& mu,
                                      const DiscreteDistribution& nu,
                                      WinfSolver solver);

/// \brief CouplingFeasibleWithin(mu, nu, threshold) decided by `solver`.
Result<bool> CouplingFeasibleWithinBySolver(const DiscreteDistribution& mu,
                                            const DiscreteDistribution& nu,
                                            double threshold,
                                            WinfSolver solver);

}  // namespace pf

#endif  // PUFFERFISH_REFERENCE_WASSERSTEIN_REFERENCE_H_
