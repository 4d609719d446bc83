// Thread-scaling of the mechanism analyses — the internal SPI layer *under*
// the PrivacyEngine front door (serving-path benches live in
// bench_batch_serving.cc):
//
//  - AnalyzeByEnumeration (reference/enumeration.h) on a 20-node binary
//    Bayesian network (enumeration inference dominates; the per-node
//    sigma_i searches fan out across the pool);
//  - MQMExact free-initial analysis (matrix-power tables + per-node scans).
//
// Run with --benchmark_filter=. on a multicore host; the Arg is the thread
// count, so e.g. threads:8 vs threads:1 shows the scaling. On a 1-core
// container the numbers collapse to parity — the determinism tests still
// guarantee identical sigma_max for every thread count.
//
// A warm AnalysisCache is also measured: the second Analyze of an identical
// (model, epsilon, width) key must be ~free and bump the plan's hit counter.
#include <benchmark/benchmark.h>

#include <cassert>

#include "bench/bench_util.h"
#include "graphical/bayesian_network.h"
#include "graphical/markov_chain.h"
#include "pufferfish/analysis_cache.h"
#include "pufferfish/markov_quilt_mechanism.h"
#include "pufferfish/mechanism.h"
#include "reference/enumeration.h"

namespace pf {
namespace {

constexpr std::size_t kNetworkNodes = 20;
constexpr double kEpsilon = 1.0;

const std::vector<BayesianNetwork>& TwentyNodeClass() {
  static auto* thetas = new std::vector<BayesianNetwork>([] {
    const MarkovChain chain =
        MarkovChain::Make({0.5, 0.5}, Matrix{{0.8, 0.2}, {0.3, 0.7}})
            .ValueOrDie();
    return std::vector<BayesianNetwork>{
        BayesianNetwork::FromMarkovChain(chain.initial(), chain.transition(),
                                         kNetworkNodes)
            .ValueOrDie()};
  }());
  return *thetas;
}

// The acceptance workload: Algorithm 2 on a 20-node network, scaled over
// the per-node sigma_i loop. It runs the enumeration oracle from the
// reference library: pf_core's variable elimination (see
// bench_general_network) would turn this from a thread-scaling workload
// into a microbenchmark.
void BM_GeneralAnalyze20Nodes(benchmark::State& state) {
  MqmAnalyzeOptions options;
  options.max_quilt_size = 1;  // Width-1 separators: ~20 quilts per node.
  options.quilt_search = QuiltSearchMode::kExhaustive;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  MqmAnalysis analysis;
  for (auto _ : state) {
    analysis =
        AnalyzeByEnumeration(TwentyNodeClass(), kEpsilon, options).ValueOrDie();
    // bench_util's const-ref DoNotOptimize, not benchmark::DoNotOptimize:
    // the library's mutable-lvalue overload ("+m,r" inline asm)
    // miscompiles under GCC 12 / benchmark 1.7, leaving the variable
    // clobbered after the loop (counters then report garbage). The
    // const-ref version only escapes the address, so the value survives.
    bench::DoNotOptimize(analysis.sigma_max);
  }
  state.counters["sigma_max"] = analysis.sigma_max;
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(BM_GeneralAnalyze20Nodes)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// MQMExact free-initial: power-table construction + per-node scans.
void BM_ExactFreeInitialThreads(benchmark::State& state) {
  std::vector<Matrix> transitions;
  for (int i = 10; i <= 90; i += 20) {
    for (int j = 10; j <= 90; j += 20) {
      transitions.push_back(
          BinaryChainIntervalClass::TransitionFor(i / 100.0, j / 100.0));
    }
  }
  ChainMqmOptions options;
  options.epsilon = kEpsilon;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto result = MqmExactAnalyzeFreeInitial(transitions, 1000, options);
    bench::DoNotOptimize(result.ValueOrDie().sigma_max);
  }
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(BM_ExactFreeInitialThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Warm-cache amortization: second Analyze of an identical key is a lookup.
void BM_WarmAnalysisCache(benchmark::State& state) {
  const MarkovChain chain =
      MarkovChain::Make({0.5, 0.5}, Matrix{{0.8, 0.2}, {0.3, 0.7}})
          .ValueOrDie();
  const MqmExactUnified mechanism({chain}, 2000);
  AnalysisCache cache;
  const auto cold = cache.GetOrExtend(mechanism, kEpsilon).ValueOrDie();
  for (auto _ : state) {
    const auto warm = cache.GetOrExtend(mechanism, kEpsilon).ValueOrDie();
    bench::DoNotOptimize(warm->sigma);
  }
  assert(cold->cache_hit_count() > 0);
  state.counters["cache_hits"] = static_cast<double>(cold->cache_hit_count());
}
BENCHMARK(BM_WarmAnalysisCache)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pf

BENCHMARK_MAIN();
