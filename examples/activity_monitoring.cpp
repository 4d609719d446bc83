// Example 1 of the paper end to end, on the serving API: physical activity
// monitoring of single subjects. Simulates a cyclist cohort (4 activities
// sampled every ~12 s, gaps > 10 min split chains), estimates the group
// Markov chain, opens one engine per mechanism, and then:
//  - releases the group aggregate histogram (MQMExact vs GroupDP);
//  - batch-releases every subject's count histogram through one session —
//    K releases at epsilon compose to K * epsilon (Theorem 4.4: they all
//    share the one plan's active quilts), and the session ledger shows it.
#include <cstdio>
#include <future>
#include <vector>

#include "baselines/group_dp.h"
#include "common/histogram.h"
#include "data/activity.h"
#include "engine/engine.h"

int main() {
  pf::Rng rng(7);
  pf::ActivitySimOptions sim;
  sim.mean_observations_per_person = 9500;  // ~7 days of waking 12 s epochs.
  const pf::ActivityGroupData data =
      pf::SimulateActivityGroup(pf::ActivityGroup::kCyclist, sim, &rng)
          .ValueOrDie();
  std::printf("simulated %zu cyclists, %zu observations, longest chain %zu\n",
              data.people.size(), data.TotalObservations(), data.LongestChain());

  // Model: the empirical transition matrix with stationary initial
  // distribution (the paper's singleton Theta).
  const pf::MarkovChain chain =
      pf::MarkovChain::Estimate(data.AllChains(), pf::kNumActivityStates)
          .ValueOrDie();
  const pf::ModelSpec model =
      pf::ModelSpec::ChainClass({chain}, data.LongestChain());

  const double epsilon = 1.0;
  // MQMApprox engine (Lemma 4.9 automatic width) to size the search, then
  // the MQMExact engine capped just above the approx width — the paper's
  // protocol, expressed as two engine configurations.
  pf::EngineOptions approx_options;
  approx_options.mechanism = pf::MechanismKind::kMqmApprox;
  auto approx_engine =
      pf::PrivacyEngine::Create(model, approx_options).ValueOrDie();
  const auto approx =
      approx_engine->Compile(pf::QuerySpec::CountHistogram(epsilon))
          .ValueOrDie()
          .plan;

  pf::EngineOptions exact_options;
  exact_options.mechanism = pf::MechanismKind::kMqmExact;
  exact_options.exact_max_nearby = approx->chain.active_quilt.NearbyCount() + 2;
  auto engine = pf::PrivacyEngine::Create(model, exact_options).ValueOrDie();
  const auto exact = engine->Compile(pf::QuerySpec::CountHistogram(epsilon))
                         .ValueOrDie()
                         .plan;
  std::printf("sigma: MQMApprox %.1f (active %s), MQMExact %.1f (active %s)\n",
              approx->sigma, approx->chain.active_quilt.ToString().c_str(),
              exact->sigma, exact->chain.active_quilt.ToString().c_str());

  // Aggregate task: the cohort's relative-frequency histogram, as a custom
  // vector query over the pooled observations (2/N-Lipschitz).
  pf::StateSequence pooled;
  pooled.reserve(data.TotalObservations());
  for (const pf::StateSequence& s : data.AllChains()) {
    pooled.insert(pooled.end(), s.begin(), s.end());
  }
  // One query body, two specs: MQM releases it at its 2/N Lipschitz
  // constant, GroupDP at L = 1 (the group sensitivity lives in its plan).
  const auto relfreq_fn = [](const pf::StateSequence& seq) {
    return pf::RelativeFrequencyHistogram(seq, pf::kNumActivityStates)
        .ValueOrDie();
  };
  const double lipschitz = 2.0 / static_cast<double>(data.TotalObservations());
  const pf::QuerySpec aggregate = pf::QuerySpec::CustomVector(
      "aggregate-relfreq", relfreq_fn, lipschitz, pf::kNumActivityStates,
      epsilon);

  // Explicit (distinct) seeds keep the example reproducible; leaving them
  // unset gives every session a fresh engine-assigned noise stream.
  pf::SessionOptions aggregate_options;
  aggregate_options.seed = 71;
  auto aggregate_session = engine->CreateSession(aggregate_options);
  const pf::Vector mqm_release = pf::ClampToUnit(
      aggregate_session->Release(aggregate, pooled).ValueOrDie().value);

  const double group_sens =
      pf::RelativeFrequencyGroupSensitivity(data.AllChains()).ValueOrDie();
  auto group_engine =
      pf::PrivacyEngine::Create(pf::ModelSpec::GroupSensitivity(group_sens))
          .ValueOrDie();
  pf::SessionOptions group_options;
  group_options.seed = 72;
  auto group_session = group_engine->CreateSession(group_options);
  const pf::QuerySpec group_aggregate = pf::QuerySpec::CustomVector(
      "aggregate-relfreq", relfreq_fn, /*lipschitz=*/1.0,
      pf::kNumActivityStates, epsilon);
  const pf::Vector group_release = pf::ClampToUnit(
      group_session->Release(group_aggregate, pooled).ValueOrDie().value);

  const pf::Vector truth = pf::AggregateRelativeFrequencyHistogram(
                               data.AllChains(), pf::kNumActivityStates)
                               .ValueOrDie();
  std::printf("\n%-14s %10s %10s %10s\n", "activity", "exact", "MQMExact",
              "GroupDP");
  for (std::size_t j = 0; j < pf::kNumActivityStates; ++j) {
    std::printf("%-14s %10.4f %10.4f %10.4f\n",
                pf::ActivityStateName(static_cast<int>(j)), truth[j],
                mqm_release[j], group_release[j]);
  }

  // Individual task: every subject's count histogram (2-Lipschitz for
  // everyone) batched through one session — the futures run on the
  // engine's pool, and the ledger prices the K releases at K * epsilon.
  std::vector<pf::StateSequence> subjects;
  subjects.reserve(data.people.size());
  for (const pf::ActivityPerson& person : data.people) {
    pf::StateSequence merged;
    for (const pf::StateSequence& s : person.chains) {
      merged.insert(merged.end(), s.begin(), s.end());
    }
    subjects.push_back(std::move(merged));
  }
  pf::SessionOptions cohort_options;
  cohort_options.seed = 73;
  auto cohort_session = engine->CreateSession(cohort_options);
  std::vector<std::future<pf::Result<pf::ReleaseResult>>> futures;
  for (const pf::StateSequence& subject : subjects) {
    futures.push_back(
        cohort_session->Submit(pf::QuerySpec::CountHistogram(epsilon), subject));
  }
  std::printf("\nper-subject '%s' observation count (true vs released, "
              "first 5 subjects):\n",
              pf::ActivityStateName(0));
  for (std::size_t p = 0; p < futures.size(); ++p) {
    const pf::ReleaseResult r = futures[p].get().ValueOrDie();
    if (p < 5) {
      const double true_count =
          pf::CountHistogram(subjects[p], pf::kNumActivityStates)
              .ValueOrDie()[0];
      std::printf("  subject %zu: %8.0f vs %8.0f\n", p, true_count,
                  r.value[0]);
    }
  }
  std::printf("cohort session: %zu releases, composed guarantee %.1f "
              "(Theorem 4.4)\n",
              cohort_session->num_releases(), cohort_session->EpsilonSpent());
  return 0;
}
