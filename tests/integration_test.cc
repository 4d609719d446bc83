// Cross-module integration tests through the serving API: the full
// pipelines the benchmarks run, shrunk to test size — simulate data,
// estimate the chain, declare the model to a PrivacyEngine, compile
// declarative queries, release through sessions, and compare utility
// orderings across mechanisms.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <vector>

#include "baselines/group_dp.h"
#include "common/histogram.h"
#include "data/activity.h"
#include "data/electricity.h"
#include "data/synthetic.h"
#include "engine/engine.h"

namespace pf {
namespace {

// The Section 5.2 synthetic pipeline at reduced trial count: MQMExact's
// noise is at most MQMApprox's, and both beat GroupDP for a moderate class.
TEST(IntegrationTest, SyntheticPipelineOrdering) {
  const double alpha = 0.3;
  const double epsilon = 1.0;
  const std::size_t length = 100;
  const auto cls = BinaryChainIntervalClass::Make(alpha, 1.0 - alpha).ValueOrDie();

  // The free-initial chain class (Appendix C.4) auto-selects MQMExact.
  EngineOptions exact_options;
  exact_options.exact_max_nearby = 60;
  auto exact_engine =
      PrivacyEngine::Create(
          ModelSpec::ChainClassFreeInitial(cls.TransitionGrid(0.1), length),
          exact_options)
          .ValueOrDie();
  ASSERT_EQ(exact_engine->mechanism_kind(), MechanismKind::kMqmExact);
  const auto exact =
      exact_engine->Compile(QuerySpec::Mean(epsilon)).ValueOrDie().plan;

  // The mixing-summary model can only be served by MQMApprox.
  auto approx_engine =
      PrivacyEngine::Create(ModelSpec::ChainSummary(cls.Summary(), 2, length))
          .ValueOrDie();
  ASSERT_EQ(approx_engine->mechanism_kind(), MechanismKind::kMqmApprox);
  const auto approx =
      approx_engine->Compile(QuerySpec::Mean(epsilon)).ValueOrDie().plan;

  EXPECT_LE(exact->sigma, approx->sigma + 1e-9);

  // Expected L1 error of the mean-state query: sigma * L with L = 1/T for
  // binary chains.
  const double exact_err = exact->sigma / static_cast<double>(length);
  const double approx_err = approx->sigma / static_cast<double>(length);
  const double group_err = 1.0 / epsilon;  // GroupDP: Lap(1/eps).
  EXPECT_LT(exact_err, group_err);
  EXPECT_LT(approx_err, group_err);
}

TEST(IntegrationTest, SyntheticGk16ComparisonAtWideAndNarrowClasses) {
  const double epsilon = 1.0;
  const std::size_t length = 100;
  EngineOptions options;
  options.mechanism = MechanismKind::kGk16;  // Explicit override.
  // Wide class (alpha = 0.1): GK16 inapplicable — the plan says so, and a
  // release through a session is refused.
  {
    const auto cls = BinaryChainIntervalClass::Make(0.1, 0.9).ValueOrDie();
    auto engine =
        PrivacyEngine::Create(
            ModelSpec::ChainClassFreeInitial(cls.TransitionGrid(0.1), length),
            options)
            .ValueOrDie();
    const auto plan = engine->Compile(QuerySpec::Mean(epsilon)).ValueOrDie().plan;
    EXPECT_FALSE(plan->applicable);
    auto session = engine->CreateSession();
    StateSequence data(length, 0);
    const auto refused = session->Release(QuerySpec::Mean(epsilon), data);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  }
  // Narrow class (alpha = 0.4): GK16 applicable.
  {
    const auto cls = BinaryChainIntervalClass::Make(0.4, 0.6).ValueOrDie();
    auto engine =
        PrivacyEngine::Create(
            ModelSpec::ChainClassFreeInitial(cls.TransitionGrid(0.05), length),
            options)
            .ValueOrDie();
    const auto plan = engine->Compile(QuerySpec::Mean(epsilon)).ValueOrDie().plan;
    EXPECT_TRUE(plan->applicable);
    EXPECT_TRUE(std::isfinite(plan->sigma));
  }
}

// Shrunk Section 5.3.1 pipeline: per-group, the private aggregated histogram
// from MQM is much closer to the truth than GroupDP's.
TEST(IntegrationTest, ActivityPipelineMqmBeatsGroupDp) {
  Rng rng(2024);
  ActivitySimOptions sim;
  sim.mean_observations_per_person = 3000;
  sim.mean_segment_length = 600;
  const ActivityGroupData data =
      SimulateActivityGroup(ActivityGroup::kCyclist, sim, &rng).ValueOrDie();
  const std::vector<StateSequence> chains = data.AllChains();
  const Vector truth =
      AggregateRelativeFrequencyHistogram(chains, kNumActivityStates)
          .ValueOrDie();
  const double epsilon = 1.0;
  const MarkovChain est =
      MarkovChain::Estimate(chains, kNumActivityStates).ValueOrDie();

  EngineOptions options;
  options.mechanism = MechanismKind::kMqmApprox;
  auto engine = PrivacyEngine::Create(
                    ModelSpec::ChainClass({est}, data.LongestChain()), options)
                    .ValueOrDie();
  const auto approx =
      engine->Compile(QuerySpec::FrequencyHistogram(epsilon)).ValueOrDie().plan;

  // MQMApprox noise scale for the aggregate histogram (2/total-Lipschitz).
  const double lipschitz = 2.0 / static_cast<double>(data.TotalObservations());
  const double mqm_expected_l1 =
      static_cast<double>(kNumActivityStates) * lipschitz * approx->sigma;

  const double group_sens =
      RelativeFrequencyGroupSensitivity(chains).ValueOrDie();
  const double group_expected_l1 =
      static_cast<double>(kNumActivityStates) * group_sens / epsilon;

  EXPECT_LT(mqm_expected_l1, group_expected_l1);

  // And realized releases through a session track the truth reasonably:
  // release the pooled relative-frequency histogram 20 times and average.
  StateSequence pooled;
  pooled.reserve(data.TotalObservations());
  for (const StateSequence& s : chains) {
    pooled.insert(pooled.end(), s.begin(), s.end());
  }
  const QuerySpec aggregate = QuerySpec::CustomVector(
      "aggregate-relfreq",
      [](const StateSequence& seq) {
        return RelativeFrequencyHistogram(seq, kNumActivityStates).ValueOrDie();
      },
      lipschitz, kNumActivityStates, epsilon);
  SessionOptions session_options;
  session_options.seed = 7;
  auto session = engine->CreateSession(session_options);
  double err = 0.0;
  const int trials = 20;
  std::vector<std::future<Result<ReleaseResult>>> futures;
  for (int t = 0; t < trials; ++t) {
    futures.push_back(session->Submit(aggregate, pooled));
  }
  for (auto& f : futures) {
    err += DistanceL1(f.get().ValueOrDie().value, truth);
  }
  EXPECT_LT(err / trials, 0.2);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), trials * epsilon);
}

// Shrunk Section 5.3.2 pipeline: estimate the 51-state chain; the engine
// policy picks MQMApprox at this length on its own, the exact engine is
// capped just above the approx width (the paper's protocol).
TEST(IntegrationTest, ElectricityPipeline) {
  ElectricitySimOptions sim;
  sim.length = 120000;
  Rng rng(5);
  const StateSequence seq = SimulateElectricity(sim, &rng).ValueOrDie();
  const MarkovChain est =
      MarkovChain::Estimate({seq}, kNumPowerLevels).ValueOrDie();
  const double epsilon = 1.0;
  const ModelSpec model = ModelSpec::ChainClass({est}, sim.length);

  // 120000 > the default approx_length_cutoff: policy says MQMApprox.
  auto approx_engine = PrivacyEngine::Create(model).ValueOrDie();
  ASSERT_EQ(approx_engine->mechanism_kind(), MechanismKind::kMqmApprox);
  const auto approx =
      approx_engine->Compile(QuerySpec::FrequencyHistogram(epsilon))
          .ValueOrDie()
          .plan;
  EXPECT_TRUE(approx->chain.used_stationary_shortcut);

  EngineOptions exact_options;
  exact_options.mechanism = MechanismKind::kMqmExact;
  exact_options.exact_max_nearby =
      approx->chain.active_quilt.NearbyCount() + 2;
  auto exact_engine = PrivacyEngine::Create(model, exact_options).ValueOrDie();
  const auto exact =
      exact_engine->Compile(QuerySpec::FrequencyHistogram(epsilon))
          .ValueOrDie()
          .plan;
  EXPECT_TRUE(exact->chain.used_stationary_shortcut);
  EXPECT_LE(exact->sigma, approx->sigma + 1e-9);

  const double lipschitz = 2.0 / static_cast<double>(sim.length);
  const double expected_l1 =
      static_cast<double>(kNumPowerLevels) * lipschitz * exact->sigma;
  // GroupDP would be 51 * 2/eps = 102; MQM must be orders better.
  EXPECT_LT(expected_l1, 5.0);
}

// The DP baseline is biased down for aggregate tasks with few individuals —
// this mirrors Table 1's "DP" row being worse than MQM. Scales come from
// the sensitivity-model engines now.
TEST(IntegrationTest, EntryDpWorseThanMqmOnAggregates) {
  const double epsilon = 1.0;
  const std::size_t total = 10000;
  auto dp_engine =
      PrivacyEngine::Create(ModelSpec::Sensitivity(2.0 / total)).ValueOrDie();
  auto group_engine =
      PrivacyEngine::Create(ModelSpec::GroupSensitivity(2.0)).ValueOrDie();
  const double dp_sigma =
      dp_engine->Compile(QuerySpec::Sum(epsilon)).ValueOrDie().plan->sigma;
  const double group_sigma =
      group_engine->Compile(QuerySpec::Sum(epsilon)).ValueOrDie().plan->sigma;
  EXPECT_LT(dp_sigma, group_sigma);
}

}  // namespace
}  // namespace pf
