// The Wasserstein Mechanism (Algorithm 1): the first mechanism that applies
// to *any* Pufferfish instantiation. For a scalar query F it computes
//   W = sup_{(s_i, s_j) in Q, theta in Theta}
//         W_inf( P(F(X)|s_i, theta), P(F(X)|s_j, theta) )
// and releases F(D) + Lap(W / epsilon). Theorem 3.2 shows this is
// epsilon-Pufferfish private; when Pufferfish reduces to differential
// privacy, W reduces to the global sensitivity and the mechanism to the
// Laplace mechanism.
#ifndef PUFFERFISH_PUFFERFISH_WASSERSTEIN_MECHANISM_H_
#define PUFFERFISH_PUFFERFISH_WASSERSTEIN_MECHANISM_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "dist/discrete_distribution.h"
#include "dist/wasserstein.h"
#include "graphical/bayesian_network.h"
#include "pufferfish/framework.h"

namespace pf {

/// \brief One secret pair under one theta, reduced to the pair of
/// conditional output distributions the mechanism must make
/// indistinguishable: mu_i = P(F(X)|s_i, theta), mu_j = P(F(X)|s_j, theta).
struct ConditionalOutputPair {
  DiscreteDistribution mu_i;
  DiscreteDistribution mu_j;
};

/// \brief The sensitivity W of Algorithm 1 over explicitly supplied
/// conditional output distributions: the max over pairs of W_inf(mu_i,
/// mu_j). Fails with InvalidArgument if `pairs` is empty.
///
/// This is the fully general entry point: *any* Pufferfish instantiation can
/// be used by enumerating its secret pairs and thetas and supplying the
/// conditional distributions of F(X). Helpers below do this enumeration for
/// Bayesian-network instantiations. The mechanism itself is
/// WassersteinUnified (pufferfish/mechanism.h): its plan's sigma is
/// W / epsilon, and ReleaseVector adds the noise.
Result<double> WassersteinSensitivity(
    const std::vector<ConditionalOutputPair>& pairs);

/// \brief Enumerates the Section 4.1 instantiation over a Bayesian-network
/// class: for every variable i, every value pair (a, b) with positive
/// probability, and every theta, computes P(F(X)|X_i=a, theta) and
/// P(F(X)|X_i=b, theta) by exact enumeration.
///
/// `query` maps a complete assignment to the scalar F(X). All networks in
/// `thetas` must have identical shape (node count and arities).
Result<std::vector<ConditionalOutputPair>> EnumerateBayesNetOutputPairs(
    const std::vector<BayesianNetwork>& thetas,
    const std::function<double(const Assignment&)>& query,
    std::size_t enumeration_limit = 1u << 22);

/// \brief Convenience: conditional output distribution P(F(X) | X_i = a)
/// for a single network (exposed for tests and examples).
Result<DiscreteDistribution> ConditionalOutputDistribution(
    const BayesianNetwork& bn,
    const std::function<double(const Assignment&)>& query, int variable,
    int value, std::size_t enumeration_limit = 1u << 22);

}  // namespace pf

#endif  // PUFFERFISH_PUFFERFISH_WASSERSTEIN_MECHANISM_H_
