// Serving-path benchmarks for the Session front door. The main legs
// compare the same mixed-kind workload served through Session::SubmitBatch
// (one 1-row plan, one future, one executor task per row) and through
// Session::SubmitColumnar (one compiled batch plan, one composed charge,
// one vectorized aggregate -> derive -> clip -> noise pass), across batch
// size x executor thread count on a T = 4096, k = 8 chain model. Two
// fixed-overhead legs ride along: BM_CompileWarm (a warm Compile, both
// caches hot — the lookup every served query pays) and BM_SessionCharge
// (a synchronous Release of a trivial query on a sensitivity model, so the
// ledger charge and plan bookkeeping dominate). BM_BatchLaplaceNoise times
// the noise kernel on its own, rows {1, 1024} x width {1, 8}.
//
// The acceptance claim is the items_per_second ratio of
// BM_ColumnarSubmit/1024/1 over BM_ScalarSubmitBatch/1024/1 (single
// thread, warm compile cache): >= 10x, with bit-identical released values
// (pinned by batch_serving_test, not re-checked here).
//
// CI runs this with --benchmark_format=json --benchmark_out=
// BENCH_batch_serving.json and archives the file.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/batch_kernels.h"
#include "engine/engine.h"
#include "graphical/markov_chain.h"

namespace pf {
namespace {

constexpr std::size_t kLength = 4096;
constexpr std::size_t kStates = 8;
constexpr double kEpsilon = 0.5;

/// A lazy cycle over 8 states: irreducible, aperiodic, quick to analyze.
MarkovChain ServingChain() {
  Matrix transitions(kStates, kStates, 0.0);
  for (std::size_t s = 0; s < kStates; ++s) {
    transitions(s, s) = 0.5;
    transitions(s, (s + 1) % kStates) = 0.5;
  }
  return MarkovChain::Make(Vector(kStates, 1.0 / kStates),
                           std::move(transitions))
      .ValueOrDie();
}

std::unique_ptr<PrivacyEngine> ServingEngine(std::size_t threads) {
  EngineOptions options;
  options.num_threads = threads;
  // Unbounded queue: the scalar path must not shed its way to a fast
  // (error-filled) run at 4096 futures per call.
  options.max_queue_depth = 0;
  options.exact_max_nearby = 16;
  return PrivacyEngine::Create(
             ModelSpec::ChainClass({ServingChain()}, kLength), options)
      .ValueOrDie();
}

StateSequence ServingData() {
  StateSequence data(kLength);
  for (std::size_t i = 0; i < kLength; ++i) {
    data[i] = static_cast<int>((i * 5 + i / 7) % kStates);
  }
  return data;
}

/// The serving mix, cycled to `rows`: sums, means, per-state frequencies,
/// and histograms — all at one epsilon (one plan, one quilt), which is the
/// fleet-scale continual-release shape ROADMAP item 5 describes.
std::vector<QuerySpec> ScalarSpecs(std::size_t rows) {
  std::vector<QuerySpec> specs;
  specs.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    switch (i % 4) {
      case 0: specs.push_back(QuerySpec::Sum(kEpsilon)); break;
      case 1: specs.push_back(QuerySpec::Mean(kEpsilon)); break;
      case 2:
        specs.push_back(QuerySpec::StateFrequency(
            static_cast<int>(i % kStates), kEpsilon));
        break;
      default: specs.push_back(QuerySpec::FrequencyHistogram(kEpsilon)); break;
    }
  }
  return specs;
}

BatchQuerySpec ColumnarSpecs(std::size_t rows) {
  BatchQuerySpec batch;
  for (QuerySpec& spec : ScalarSpecs(rows)) batch.Add(std::move(spec));
  return batch;
}

/// Warm the compile cache (and the one sigma analysis) so the timed loops
/// measure serving, not analysis.
void Warm(PrivacyEngine* engine) {
  for (const QuerySpec& spec : ScalarSpecs(4 + kStates)) {
    benchmark::DoNotOptimize(engine->Compile(spec).ValueOrDie());
  }
}

void BM_ScalarSubmitBatch(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  auto engine = ServingEngine(threads);
  Warm(engine.get());
  const StateSequence data = ServingData();
  const std::vector<QuerySpec> specs = ScalarSpecs(rows);
  SessionOptions options;
  options.seed = 42;
  for (auto _ : state) {
    auto session = engine->CreateSession(options);
    auto futures = session->SubmitBatch(specs, data);
    for (auto& f : futures) {
      Result<ReleaseResult> r = f.get();
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
      bench::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_ColumnarSubmit(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  auto engine = ServingEngine(threads);
  Warm(engine.get());
  const StateSequence data = ServingData();
  const BatchQuerySpec batch = ColumnarSpecs(rows);
  SessionOptions options;
  options.seed = 42;
  for (auto _ : state) {
    auto session = engine->CreateSession(options);
    Result<BatchReleaseResult> r = session->SubmitColumnar(batch, data).get();
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    bench::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["threads"] = static_cast<double>(threads);
}

/// Compile-only leg: what the plan frontend costs when the batch shape is
/// fresh each call (the worst case for SubmitColumnar; the engine's
/// compiled-query cache still serves the per-unique lookups).
void BM_CompileBatchPlan(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  auto engine = ServingEngine(1);
  Warm(engine.get());
  const BatchQuerySpec batch = ColumnarSpecs(rows);
  for (auto _ : state) {
    Result<CompiledBatchPlan> plan =
        CompileBatchPlan(engine.get(), batch, kLength);
    if (!plan.ok()) state.SkipWithError(plan.status().ToString().c_str());
    bench::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}

// Wall-clock throughput: both paths hand work to executor threads, so
// main-thread CPU time under-counts the scalar path's per-row dispatch.
BENCHMARK(BM_ScalarSubmitBatch)
    ->ArgsProduct({{64, 256, 1024, 4096}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColumnarSubmit)
    ->ArgsProduct({{64, 256, 1024, 4096}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompileBatchPlan)->Arg(1024)->Unit(benchmark::kMicrosecond);

/// The noise kernel alone: `rows` rows of `width` draws each, one fresh
/// per-ticket generator per row (the cost SubmitColumnar's noise stage and
/// every 1-row Release pay), isolated from planning and aggregation.
void BM_BatchLaplaceNoise(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t width = static_cast<std::size_t>(state.range(1));
  std::vector<std::size_t> offsets(rows + 1);
  for (std::size_t r = 0; r <= rows; ++r) offsets[r] = r * width;
  std::vector<double> values(rows * width, 0.0);
  std::vector<double> scales(rows, 2.0);
  std::vector<std::uint64_t> seeds(rows);
  std::uint64_t ticket = 0;
  for (auto _ : state) {
    for (std::uint64_t& seed : seeds) seed = TicketNoiseSeed(42, ++ticket);
    BatchLaplaceNoise(values.data(), offsets.data(), scales.data(),
                      seeds.data(), rows);
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["width"] = static_cast<double>(width);
}
BENCHMARK(BM_BatchLaplaceNoise)->ArgsProduct({{1, 1024}, {1, 8}});

void BM_CompileWarm(benchmark::State& state) {
  auto engine = ServingEngine(1);
  Warm(engine.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Compile(QuerySpec::Mean(kEpsilon)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileWarm);

void BM_SessionCharge(benchmark::State& state) {
  auto engine =
      PrivacyEngine::Create(ModelSpec::Sensitivity(1.0)).ValueOrDie();
  const StateSequence tiny{1, 0, 1};
  for (auto _ : state) {
    state.PauseTiming();
    auto session = engine->CreateSession();
    state.ResumeTiming();
    for (int k = 0; k < 64; ++k) {
      benchmark::DoNotOptimize(session->Release(QuerySpec::Sum(1.0), tiny));
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SessionCharge);

}  // namespace
}  // namespace pf

BENCHMARK_MAIN();
