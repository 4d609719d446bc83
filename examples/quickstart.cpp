// Quickstart: release private statistics of a correlated time series
// through the serving API in ~40 lines.
//
//   cmake -B build -S . && cmake --build build -j
//   ./build/example_quickstart
//
// Scenario: a length-1000 binary time series (e.g. device on/off per
// minute) whose dynamics are one of two plausible Markov chains. We open a
// PrivacyEngine over that model class (it picks MQMExact and analyzes
// once, cached), then serve queries from a Session holding an epsilon
// budget — every release is charged, and the session refuses to overspend.
#include <algorithm>
#include <cstdio>
#include <future>
#include <vector>

#include "engine/engine.h"
#include "graphical/markov_chain.h"

int main() {
  // 1. The distribution class Theta: two plausible models of the data.
  const pf::MarkovChain theta1 =
      pf::MarkovChain::Make({0.8, 0.2}, pf::Matrix{{0.9, 0.1}, {0.4, 0.6}})
          .ValueOrDie();
  const pf::MarkovChain theta2 =
      pf::MarkovChain::Make({0.6, 0.4}, pf::Matrix{{0.8, 0.2}, {0.3, 0.7}})
          .ValueOrDie();

  // 2. The data: a trajectory drawn from one of the models.
  pf::Rng rng(42);
  const std::size_t kLength = 1000;
  const pf::StateSequence data = theta1.Sample(kLength, &rng);

  // 3. The engine: picks the mechanism (MQMExact for a chain class of this
  // length), owns the plan cache and the serving thread pool.
  auto engine = pf::PrivacyEngine::Create(
                    pf::ModelSpec::ChainClass({theta1, theta2}, kLength))
                    .ValueOrDie();

  // 4. A session with a total budget of 8: Theorem 4.4 prices K releases
  // at K * max epsilon, and the session enforces it.
  pf::SessionOptions session_options;
  session_options.epsilon_budget = 8.0;
  session_options.seed = 42;
  auto session = engine->CreateSession(session_options);

  // 5. Declarative queries. One point release, then a batch of 7 "daily"
  // queries served concurrently on the engine's pool.
  const pf::QuerySpec query = pf::QuerySpec::StateFrequency(1, /*epsilon=*/1.0);
  const pf::ReleaseResult noisy = session->Release(query, data).ValueOrDie();
  std::vector<std::future<pf::Result<pf::ReleaseResult>>> week;
  for (int day = 0; day < 7; ++day) {
    week.push_back(session->Submit(query, data));
  }

  const double truth = static_cast<double>(
                           std::count(data.begin(), data.end(), 1)) /
                       static_cast<double>(kLength);
  std::printf("true frequency of state 1 : %.4f\n", truth);
  std::printf("private release (eps = 1) : %.4f   [%s, sigma = %.2f]\n",
              noisy.value[0], pf::MechanismKindName(noisy.mechanism),
              noisy.sigma);
  std::printf("batch of 7 releases       :");
  for (auto& f : week) std::printf(" %.3f", f.get().ValueOrDie().value[0]);
  std::printf("\nbudget after 8 releases   : spent %.1f of %.1f\n",
              session->EpsilonSpent(), session->epsilon_budget());

  // 6. The 9th release would overspend: the session says so.
  const auto refused = session->Release(query, data);
  std::printf("9th release               : %s\n",
              refused.status().ToString().c_str());
  return 0;
}
