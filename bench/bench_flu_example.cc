// Regenerates the Section 3.1 worked example: a flu clique of 4 people with
// count distribution (0.1, 0.15, 0.5, 0.15, 0.1). The Wasserstein Mechanism
// adds Lap(2/epsilon) noise to the infected count (W = 2) against group
// differential privacy's Lap(4/epsilon) — half the noise at the same
// epsilon-Pufferfish guarantee. Also benchmarks the three W_inf solvers on
// the clique pair (two of them from reference/wasserstein_reference.h).
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.h"
#include "data/flu.h"
#include "dist/wasserstein.h"
#include "pufferfish/markov_quilt_mechanism.h"
#include "pufferfish/mechanism.h"
#include "reference/wasserstein_reference.h"

namespace pf {
namespace {

constexpr int kTrials = 2000;
const double kEpsilons[] = {0.2, 1.0, 5.0};

struct Row {
  double w = 0.0, err_wasserstein = 0.0, err_group = 0.0;
};
Row g_rows[3];

void BM_FluExample(benchmark::State& state) {
  const double epsilon = kEpsilons[state.range(0)];
  const FluCliqueModel clique = FluCliqueModel::PaperExample();
  const ConditionalOutputPair pair = clique.CountQueryOutputPair().ValueOrDie();
  const MechanismPlan wasserstein =
      WassersteinUnified({pair}).Analyze(epsilon).ValueOrDie();
  const MechanismPlan group =
      GroupDpUnified(clique.GroupSensitivity()).Analyze(epsilon).ValueOrDie();
  Rng rng(17 + state.range(0));
  Row row;
  row.w = wasserstein.wasserstein_w;
  for (auto _ : state) {
    double werr = 0.0, gerr = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const std::vector<int> status = clique.Sample(&rng);
      double count = 0.0;
      for (int s : status) count += s;
      werr += std::fabs(
          ReleaseVector(wasserstein, {count}, 1.0, &rng).ValueOrDie()[0] -
          count);
      gerr += std::fabs(
          ReleaseVector(group, {count}, 1.0, &rng).ValueOrDie()[0] - count);
    }
    row.err_wasserstein = werr / kTrials;
    row.err_group = gerr / kTrials;
  }
  g_rows[state.range(0)] = row;
  state.counters["W"] = row.w;
  state.counters["err_Wasserstein"] = row.err_wasserstein;
  state.counters["err_GroupDP"] = row.err_group;
}
BENCHMARK(BM_FluExample)->Arg(0)->Arg(1)->Arg(2)->Iterations(1);

// Flu at contact-network scale: the Markov Quilt Mechanism (Algorithm 2)
// sigma analysis over the 150-person household/commuter Bayesian network —
// a size the enumeration reference refuses outright (2^150 joint
// assignments) — under the structured variable-elimination backend.
void BM_FluContactNetworkAnalyze(benchmark::State& state) {
  const std::size_t households = static_cast<std::size_t>(state.range(0));
  const BayesianNetwork city =
      FluContactNetwork(households, /*household_size=*/4,
                        /*community_rate=*/0.05, /*transmission=*/0.3)
          .ValueOrDie();
  MqmAnalyzeOptions options;
  options.num_threads = 1;
  MqmAnalysis analysis;
  for (auto _ : state) {
    analysis = AnalyzeMarkovQuiltMechanism({city}, /*epsilon=*/5.0, options)
                   .ValueOrDie();
    benchmark::DoNotOptimize(analysis.sigma_max + 0.0);
  }
  state.counters["people"] = static_cast<double>(city.num_nodes());
  state.counters["sigma"] = analysis.sigma_max;
  state.counters["scored"] = static_cast<double>(analysis.scored_nodes);
  state.counters["dedup_ratio"] = analysis.dedup_ratio();
}
BENCHMARK(BM_FluContactNetworkAnalyze)->Arg(10)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_WinfBackend(benchmark::State& state) {
  const auto solver = static_cast<WinfSolver>(state.range(0));
  const ConditionalOutputPair pair =
      FluCliqueModel::Contagion(24, 0.25).ValueOrDie()
          .CountQueryOutputPair()
          .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        WassersteinInfBySolver(pair.mu_i, pair.mu_j, solver));
  }
  switch (solver) {
    case WinfSolver::kQuantile: state.SetLabel("quantile"); break;
    case WinfSolver::kMaxFlow: state.SetLabel("maxflow"); break;
    case WinfSolver::kLp: state.SetLabel("simplex LP"); break;
  }
}
BENCHMARK(BM_WinfBackend)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace pf

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pf::bench::PrintHeader(
      "Section 3.1 flu example: |error| of infected-count release "
      "(W = 2 vs group sensitivity 4)",
      {"eps=0.2", "eps=1", "eps=5"});
  pf::bench::PrintRow("Wasserstein Mechanism",
                      {pf::g_rows[0].err_wasserstein,
                       pf::g_rows[1].err_wasserstein,
                       pf::g_rows[2].err_wasserstein});
  pf::bench::PrintRow("GroupDP Laplace",
                      {pf::g_rows[0].err_group, pf::g_rows[1].err_group,
                       pf::g_rows[2].err_group});
  return 0;
}
