#include "pufferfish/wasserstein_mechanism.h"

#include <algorithm>
#include <map>

namespace pf {

Result<double> WassersteinSensitivity(
    const std::vector<ConditionalOutputPair>& pairs,
    WassersteinBackend backend) {
  if (pairs.empty()) {
    return Status::InvalidArgument("no secret pairs supplied");
  }
  double w = 0.0;
  for (const ConditionalOutputPair& pair : pairs) {
    PF_ASSIGN_OR_RETURN(double wij, WassersteinInf(pair.mu_i, pair.mu_j, backend));
    w = std::max(w, wij);
  }
  return w;
}

Result<DiscreteDistribution> ConditionalOutputDistribution(
    const BayesianNetwork& bn,
    const std::function<double(const Assignment&)>& query, int variable,
    int value, std::size_t enumeration_limit) {
  std::map<double, double> mass;  // F value -> conditional mass.
  double total = 0.0;
  PF_RETURN_NOT_OK(bn.ForEachAssignment(
      [&](const Assignment& a, double p) {
        if (a[static_cast<std::size_t>(variable)] != value) return;
        mass[query(a)] += p;
        total += p;
      },
      enumeration_limit));
  if (total <= 0.0) {
    return Status::FailedPrecondition("secret has probability zero");
  }
  std::vector<DiscreteDistribution::Atom> atoms;
  atoms.reserve(mass.size());
  for (const auto& [x, p] : mass) atoms.push_back({x, p / total});
  return DiscreteDistribution::Make(std::move(atoms), 1e-6);
}

Result<std::vector<ConditionalOutputPair>> EnumerateBayesNetOutputPairs(
    const std::vector<BayesianNetwork>& thetas,
    const std::function<double(const Assignment&)>& query,
    std::size_t enumeration_limit) {
  if (thetas.empty()) return Status::InvalidArgument("empty distribution class");
  std::vector<ConditionalOutputPair> pairs;
  for (const BayesianNetwork& bn : thetas) {
    for (std::size_t i = 0; i < bn.num_nodes(); ++i) {
      const int arity = bn.node(i).arity;
      // Cache per-value conditionals; skip zero-probability secrets
      // (Definition 2.1 only constrains pairs with positive probability).
      std::vector<Result<DiscreteDistribution>> per_value;
      per_value.reserve(static_cast<std::size_t>(arity));
      for (int a = 0; a < arity; ++a) {
        per_value.push_back(ConditionalOutputDistribution(
            bn, query, static_cast<int>(i), a, enumeration_limit));
      }
      for (int a = 0; a < arity; ++a) {
        if (!per_value[static_cast<std::size_t>(a)].ok()) {
          if (per_value[static_cast<std::size_t>(a)].status().code() ==
              StatusCode::kFailedPrecondition) {
            continue;  // Zero-probability secret.
          }
          return per_value[static_cast<std::size_t>(a)].status();
        }
        for (int b = a + 1; b < arity; ++b) {
          if (!per_value[static_cast<std::size_t>(b)].ok()) {
            if (per_value[static_cast<std::size_t>(b)].status().code() ==
                StatusCode::kFailedPrecondition) {
              continue;
            }
            return per_value[static_cast<std::size_t>(b)].status();
          }
          pairs.push_back({per_value[static_cast<std::size_t>(a)].value(),
                           per_value[static_cast<std::size_t>(b)].value()});
        }
      }
    }
  }
  if (pairs.empty()) {
    return Status::FailedPrecondition(
        "all secret pairs have zero probability under every theta");
  }
  return pairs;
}

}  // namespace pf
