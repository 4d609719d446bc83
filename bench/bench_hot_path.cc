// Hot-path acceptance benches for the arena / SIMD / warm-restart work.
// Four claims, each measured directly:
//
//  1. Steady-state streaming appends (ChainMqmAnalysis::ExtendTo) and warm
//     elimination inferences (FactorConditionalJointInto) perform ZERO
//     heap allocations — counted by a real operator-new interposer, not a
//     proxy metric (counters allocs_per_append / allocs_per_call).
//  2. The AVX2-dispatched MultiplyBlocked kernel beats the portable kernel
//     at k >= 32 (counter flops; compare level:1 vs level:0 rows) while
//     staying bit-identical (pinned by matrix_test, re-checked here).
//  3. A warm restart (LoadAnalyses from a plan snapshot) replaces the cold
//     T=1e5 analysis with a file read (compare BM_Restart/warm:1 vs
//     warm:0).
//  4. The analysis-cache key of a k-state chain model costs about a
//     nanosecond per model double (BM_ModelFingerprint, counter
//     ns_per_word), so a warm restart's first Compile is not spent hashing.
//
// CI runs this with --benchmark_format=json --benchmark_out=
// BENCH_hot_path.json and archives the file.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "data/topologies.h"
#include "engine/engine.h"
#include "graphical/elimination.h"
#include "graphical/markov_chain.h"
#include "pufferfish/mechanism.h"
#include "pufferfish/mqm_exact.h"

// ---------------------------------------------------------------------------
// Allocation interposer: counts every operator-new in the binary. Replacing
// the global operators in one TU covers the whole program, so the deltas
// around a measured call are exact — if the hot path mallocs, it shows.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pf {
namespace {

std::size_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

Matrix RandomStochastic(std::size_t k, Rng* rng) {
  Matrix m(k, k);
  for (std::size_t r = 0; r < k; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      m(r, c) = 0.05 + rng->Uniform();
      row_sum += m(r, c);
    }
    for (std::size_t c = 0; c < k; ++c) m(r, c) /= row_sum;
  }
  return m;
}

// --------------------------------------------------- 1a. streaming appends --

// Steady-state +1 appends on a mixed chain: the resumable analysis swaps
// retained buffers and re-joins existing dedup classes. allocs_per_append
// must be 0.000 — any malloc on the append path is a regression. The
// iteration count is pinned so the measured window sits inside the
// per-node index array's capacity (its amortized doubling — 1 malloc per
// 2^n appends, and the only allocation on this path — fires during
// warm-up, not the window; run with more iterations and you count exactly
// those doublings, in agreement with the tracked_mallocs counter).
void BM_SteadyAppendAllocs(benchmark::State& state) {
  const MarkovChain chain =
      MarkovChain::Make({1.0, 0.0}, Matrix{{0.9, 0.1}, {0.4, 0.6}})
          .ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 8;
  options.allow_stationary_shortcut = false;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 10000, options).ValueOrDie();
  std::size_t length = 10000;
  // Warm-up appends absorb the one-time scratch growth after the cold run.
  for (int i = 0; i < 4; ++i) {
    if (!analysis.ExtendTo(++length).ok()) state.SkipWithError("extend");
  }
  std::size_t allocs = 0;
  std::size_t appends = 0;
  std::size_t tracked_mallocs = 0;
  for (auto _ : state) {
    const std::size_t before = AllocCount();
    if (!analysis.ExtendTo(++length).ok()) state.SkipWithError("extend");
    allocs += AllocCount() - before;
    tracked_mallocs += analysis.result().memory.mallocs;
    ++appends;
  }
  bench::DoNotOptimize(analysis.result().sigma_max);
  state.counters["allocs_per_append"] =
      static_cast<double>(allocs) / static_cast<double>(appends);
  // The library's own MemoryStats tracker must agree with the interposer.
  state.counters["tracked_mallocs"] = static_cast<double>(tracked_mallocs);
  state.counters["retained_bytes"] =
      static_cast<double>(analysis.result().memory.arena_retained_bytes);
}
BENCHMARK(BM_SteadyAppendAllocs)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(8000);

// ------------------------------------------------ 1b. warm elimination ----

// Repeated conditional-joint inferences on a 127-node tree: after the
// first call warms the thread's elimination workspace, every later call
// runs entirely in the retained arena. allocs_per_call must be 0.000.
void BM_WarmEliminationAllocs(benchmark::State& state) {
  const BayesianNetwork net =
      TreeNetwork(127, 2, Vector{0.6, 0.4}, BinaryNoisyCopyCpt(0.25))
          .ValueOrDie();
  const std::vector<Factor> factors = net.Factors();
  const std::vector<int> arities = net.Arities();
  const std::vector<int> targets{63, 100};
  const std::vector<std::pair<int, int>> evidence{{0, 0}, {126, 1}};
  Vector out;
  // Warm the thread-local workspace (first call allocates the arena).
  for (int i = 0; i < 3; ++i) {
    const Status s =
        FactorConditionalJointInto(factors, arities, targets, evidence,
                                   1u << 22, nullptr, &out);
    if (!s.ok()) state.SkipWithError("inference");
  }
  std::size_t allocs = 0;
  std::size_t calls = 0;
  for (auto _ : state) {
    const std::size_t before = AllocCount();
    const Status s =
        FactorConditionalJointInto(factors, arities, targets, evidence,
                                   1u << 22, nullptr, &out);
    if (!s.ok()) state.SkipWithError("inference");
    allocs += AllocCount() - before;
    ++calls;
  }
  bench::DoNotOptimize(out);
  state.counters["allocs_per_call"] =
      static_cast<double>(allocs) / static_cast<double>(calls);
  state.counters["scratch_retained_bytes"] =
      static_cast<double>(EliminationScratchRetainedBytes());
}
BENCHMARK(BM_WarmEliminationAllocs)->Unit(benchmark::kMicrosecond);

// ----------------------------------------------------- 2. kernel GFLOP/s --

// MultiplyBlocked at the dispatch levels; Arg0: 0 = portable, 1 = AVX2
// (clamped to the CPU), Arg1: k. The flops counter is a rate — compare
// level:1 to level:0 at the same k for the SIMD speedup. Both levels are
// bit-identical by contract; verified per iteration below on the cheap.
void BM_MultiplyBlockedKernel(benchmark::State& state) {
  const SimdLevel requested =
      state.range(0) == 0 ? SimdLevel::kPortable : SimdLevel::kAvx2;
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  if (requested == SimdLevel::kAvx2 &&
      DetectedSimdLevel() != SimdLevel::kAvx2) {
    state.SkipWithError("no AVX2 on this host");
    return;
  }
  Rng rng(7);
  const Matrix a = RandomStochastic(k, &rng);
  const Matrix b = RandomStochastic(k, &rng);
  SetSimdLevel(SimdLevel::kPortable);
  const Matrix reference = MultiplyBlocked(a, b);
  SetSimdLevel(requested);
  Matrix out;
  for (auto _ : state) {
    MultiplyBlockedInto(a, b, &out);
    bench::DoNotOptimize(out);
  }
  SetSimdLevel(DetectedSimdLevel());
  if (!(out == reference)) {
    state.SkipWithError("kernel diverged from portable reference");
    return;
  }
  state.counters["flops"] = benchmark::Counter(
      2.0 * static_cast<double>(k) * k * k *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["level"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MultiplyBlockedKernel)
    ->Args({0, 32})
    ->Args({1, 32})
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 128})
    ->Args({1, 128});

// --------------------------------------------------- 3. warm vs cold boot --

std::string SnapshotPath() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") +
         "/pf_bench_hot_path.snapshot";
}

ModelSpec RestartModel() {
  Rng rng(11);
  return ModelSpec::ChainClassFreeInitial({RandomStochastic(32, &rng)},
                                          100000);
}

// One process boot serving the first query: Arg 0 = cold (full T=1e5
// free-initial analysis), Arg 1 = warm (LoadAnalyses from a snapshot, the
// analysis becomes a cache hit). The warm:1 / warm:0 time ratio is the
// restart speedup; the acceptance bar is >= 100x.
void BM_Restart(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const std::string path = SnapshotPath();
  if (warm) {
    auto saver = PrivacyEngine::Create(RestartModel()).ValueOrDie();
    (void)saver->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
    if (!saver->SaveAnalyses(path).ok()) {
      state.SkipWithError("save failed");
      return;
    }
  }
  double sigma = 0.0;
  std::size_t loaded = 0;
  for (auto _ : state) {
    auto engine = PrivacyEngine::Create(RestartModel()).ValueOrDie();
    if (warm) loaded = engine->LoadAnalyses(path).ValueOrDie();
    sigma = engine->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma;
    bench::DoNotOptimize(sigma);
  }
  state.counters["sigma"] = sigma;  // Warm and cold rows must print equal.
  if (warm) {
    state.counters["plans_loaded"] = static_cast<double>(loaded);
    std::remove(path.c_str());
  }
}
BENCHMARK(BM_Restart)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// ------------------------------------------------ 4. model fingerprints --

// MqmExactUnified::Fingerprint() on a one-theta k-state chain: the
// analysis-cache key every cold Compile derives (twice, plus the prefix
// fingerprint on an exact miss). Arg: k. ns_per_word divides the time by
// the k + k^2 model doubles hashed; compare it with BM_Restart/1, whose
// first Compile pays these hashes.
void BM_ModelFingerprint(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  const MarkovChain chain =
      MarkovChain::Make(Vector(k, 1.0 / static_cast<double>(k)),
                        RandomStochastic(k, &rng))
          .ValueOrDie();
  const MqmExactUnified mechanism({chain}, 100000);
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) bench::DoNotOptimize(mechanism.Fingerprint());
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const double words = static_cast<double>(k + k * k);
  state.counters["ns_per_word"] =
      elapsed.count() / (words * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ModelFingerprint)->Arg(8)->Arg(32)->Arg(64);

}  // namespace
}  // namespace pf

BENCHMARK_MAIN();
