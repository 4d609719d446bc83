// End-to-end *privacy* validation: for small instantiations we can compute
// the mechanism's output density under each secret exactly (Laplace noise
// convolved with the conditional distribution of F(X)) and check the
// Definition 2.1 likelihood-ratio bound e^{-eps} <= ratio <= e^{eps}
// pointwise, rather than by sampling.
#include <gtest/gtest.h>

#include <cmath>

#include "data/flu.h"
#include "graphical/bayesian_network.h"
#include "pufferfish/mechanism.h"
#include "pufferfish/mqm_approx.h"
#include "pufferfish/mqm_exact.h"
#include "pufferfish/wasserstein_mechanism.h"

namespace pf {
namespace {

// Output density of "F(X) + Lap(scale)" at w when F(X) | secret has the
// given discrete distribution.
double OutputDensity(const DiscreteDistribution& conditional, double scale,
                     double w) {
  double density = 0.0;
  for (const auto& atom : conditional.atoms()) {
    density += atom.p * std::exp(-std::fabs(w - atom.x) / scale) / (2.0 * scale);
  }
  return density;
}

void ExpectRatioBounded(const DiscreteDistribution& mu_i,
                        const DiscreteDistribution& mu_j, double scale,
                        double epsilon) {
  // Sweep the output space well past both supports.
  const double lo = std::min(mu_i.Min(), mu_j.Min()) - 6.0 * scale;
  const double hi = std::max(mu_i.Max(), mu_j.Max()) + 6.0 * scale;
  for (double w = lo; w <= hi; w += (hi - lo) / 400.0) {
    const double pi = OutputDensity(mu_i, scale, w);
    const double pj = OutputDensity(mu_j, scale, w);
    ASSERT_GT(pj, 0.0);
    const double ratio = pi / pj;
    EXPECT_LE(ratio, std::exp(epsilon) * (1.0 + 1e-9)) << "w=" << w;
    EXPECT_GE(ratio, std::exp(-epsilon) * (1.0 - 1e-9)) << "w=" << w;
  }
}

class WassersteinPrivacySweep : public ::testing::TestWithParam<double> {};

// The Wasserstein Mechanism satisfies the Definition 2.1 bound on the flu
// worked example at every epsilon regime the paper uses.
TEST_P(WassersteinPrivacySweep, FluExampleSatisfiesPufferfish) {
  const double epsilon = GetParam();
  const FluCliqueModel clique = FluCliqueModel::PaperExample();
  const ConditionalOutputPair pair = clique.CountQueryOutputPair().ValueOrDie();
  const auto plan = WassersteinUnified({pair}).Analyze(epsilon).ValueOrDie();
  ExpectRatioBounded(pair.mu_i, pair.mu_j, plan.sigma, epsilon);
}

INSTANTIATE_TEST_SUITE_P(EpsilonRegimes, WassersteinPrivacySweep,
                         ::testing::Values(0.2, 1.0, 5.0));

// A smaller noise scale than W/epsilon must *violate* the bound somewhere —
// the mechanism's calibration is tight, not vacuous.
TEST(WassersteinPrivacyTest, UnderscaledNoiseViolatesBound) {
  const double epsilon = 1.0;
  const FluCliqueModel clique = FluCliqueModel::PaperExample();
  const ConditionalOutputPair pair = clique.CountQueryOutputPair().ValueOrDie();
  const double w = WassersteinSensitivity({pair}).ValueOrDie();
  const double cheating_scale = 0.4 * w / epsilon;
  bool violated = false;
  for (double out = -4.0; out <= 8.0; out += 0.02) {
    const double pi = OutputDensity(pair.mu_i, cheating_scale, out);
    const double pj = OutputDensity(pair.mu_j, cheating_scale, out);
    const double ratio = pi / pj;
    if (ratio > std::exp(epsilon) || ratio < std::exp(-epsilon)) {
      violated = true;
      break;
    }
  }
  EXPECT_TRUE(violated);
}

// MQM privacy on a small chain, checked exhaustively: for every node i and
// value pair (a, b), the conditional output distributions of the sum query
// under the chain theta are computed by enumeration, and the Laplace noise
// L * sigma_max must keep the likelihood ratio within e^{+-eps}.
class MqmPrivacySweep : public ::testing::TestWithParam<double> {};

TEST_P(MqmPrivacySweep, SmallChainSatisfiesPufferfish) {
  const double epsilon = GetParam();
  const Vector q = {0.8, 0.2};
  const Matrix p{{0.9, 0.1}, {0.4, 0.6}};
  const std::size_t n = 6;
  const MarkovChain chain = MarkovChain::Make(q, p).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = epsilon;
  options.max_nearby = n;
  const ChainMqmResult r = MqmExactAnalyze({chain}, n, options).ValueOrDie();
  // Sum query: 1-Lipschitz.
  const BayesianNetwork bn = BayesianNetwork::FromMarkovChain(q, p, n).ValueOrDie();
  const auto query = [](const Assignment& a) {
    double s = 0.0;
    for (int v : a) s += v;
    return s;
  };
  const double scale = 1.0 * r.sigma_max;
  for (int i = 0; i < static_cast<int>(n); ++i) {
    const auto mu0 = ConditionalOutputDistribution(bn, query, i, 0).ValueOrDie();
    const auto mu1 = ConditionalOutputDistribution(bn, query, i, 1).ValueOrDie();
    ExpectRatioBounded(mu0, mu1, scale, epsilon);
  }
}

INSTANTIATE_TEST_SUITE_P(EpsilonRegimes, MqmPrivacySweep,
                         ::testing::Values(0.5, 1.0, 5.0));

// MQMApprox uses an upper bound on the max-influence, so its (larger) noise
// also satisfies the bound.
TEST(MqmApproxPrivacyTest, SmallChainSatisfiesPufferfish) {
  const double epsilon = 1.0;
  const Vector q = {0.8, 0.2};
  const Matrix p{{0.9, 0.1}, {0.4, 0.6}};
  const std::size_t n = 40;
  const MarkovChain chain = MarkovChain::Make(q, p).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = epsilon;
  options.max_nearby = 0;
  const ChainMqmResult approx =
      MqmApproxAnalyze({chain}, n, options).ValueOrDie();
  ChainMqmOptions exact_options;
  exact_options.epsilon = epsilon;
  exact_options.max_nearby = n;
  const ChainMqmResult exact =
      MqmExactAnalyze({chain}, n, exact_options).ValueOrDie();
  // Approx noise dominates exact noise, which is already sufficient.
  EXPECT_GE(approx.sigma_max + 1e-12, exact.sigma_max);
}

}  // namespace
}  // namespace pf
