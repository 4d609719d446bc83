// Ablation: cost of the three W_inf solvers as the support size grows. All
// three return identical distances (cross-checked in
// tests/wasserstein_test.cc). The closed-form quantile coupling, the only
// one pf_core ships, is near-linear; the max-flow feasibility search is
// polynomial; the simplex-LP feasibility search solves the
// transport-polytope formulation directly. The latter two come from the
// test-only reference library (reference/wasserstein_reference.h).
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "reference/wasserstein_reference.h"

namespace pf {
namespace {

DiscreteDistribution RandomDistribution(std::size_t support, Rng* rng) {
  return DiscreteDistribution::FromMasses(rng->UniformSimplex(support))
      .ValueOrDie();
}

void BM_WassersteinBackend(benchmark::State& state) {
  const auto solver = static_cast<WinfSolver>(state.range(0));
  const std::size_t support = static_cast<std::size_t>(state.range(1));
  Rng rng(1234 + support);
  const DiscreteDistribution mu = RandomDistribution(support, &rng);
  const DiscreteDistribution nu = RandomDistribution(support, &rng);
  double w = 0.0;
  for (auto _ : state) {
    w = WassersteinInfBySolver(mu, nu, solver).ValueOrDie();
    benchmark::DoNotOptimize(w);
  }
  state.counters["support"] = static_cast<double>(support);
  state.counters["W_inf"] = w;
  switch (solver) {
    case WinfSolver::kQuantile: state.SetLabel("quantile"); break;
    case WinfSolver::kMaxFlow: state.SetLabel("maxflow"); break;
    case WinfSolver::kLp: state.SetLabel("simplex LP"); break;
  }
}

BENCHMARK(BM_WassersteinBackend)
    ->ArgsProduct({{0, 1, 2}, {4, 8, 16, 32}})
    ->Unit(benchmark::kMicrosecond);

// Larger supports for the scalable solvers only.
BENCHMARK(BM_WassersteinBackend)
    ->ArgsProduct({{0, 1}, {64, 128}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pf

BENCHMARK_MAIN();
