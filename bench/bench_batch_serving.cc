// Serving-path benchmarks for the Session front door. The main legs
// compare the same mixed-kind workload served as a loop of Session::Submit
// over one shared copy of the data (one 1-row plan, one future, one
// executor task per row; BM_ScalarSubmitBatch) and through
// Session::SubmitColumnar (one compiled batch plan, one composed charge,
// one vectorized aggregate -> derive -> clip -> noise pass), across batch
// size x executor thread count on a T = 4096, k = 8 chain model.
// BM_PrepareBatchPlan{Hit,Miss} time planning alone, with the shape served
// from the prepared-plan cache and compiled cold; BM_PreparedCacheFill
// reports the RSS the cache holds when filled past its row budget. Two fixed-overhead legs
// ride along: BM_CompileWarm (a warm Compile: the query rebuilt and the
// plan an AnalysisCache hit) and BM_SessionCharge
// (a synchronous Release of a trivial query on a sensitivity model, so the
// ledger charge and plan bookkeeping dominate). BM_BatchLaplaceNoise times
// the noise kernel on its own, rows {1, 1024} x width {1, 8} plus the
// 1024-row columnar mix (width arg 0: every 4th row 8 wide, the rest 1,
// perfbench's k = 8 mix), each at SimdLevel kPortable (last arg 0) and at
// the detected level (1); the label names the kernel full row groups took
// (scalar, or the AVX-512 wide kernel avx512x32), so the JSON records both
// paths side by side.
//
// The acceptance claim is the items_per_second ratio of
// BM_ColumnarSubmit/1024/1 over BM_ScalarSubmitBatch/1024/1 (single
// thread, warm plan cache): >= 10x, with bit-identical released values
// (pinned by batch_serving_test, not re-checked here).
//
// CI runs this with --benchmark_format=json --benchmark_out=
// BENCH_batch_serving.json and archives the file.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/batch_kernels.h"
#include "engine/batch_plan_internal.h"
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

/// Run the one sigma analysis (and warm the plan cache) so the timed loops
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
    auto shared = std::make_shared<const StateSequence>(data);
    std::vector<std::future<Result<ReleaseResult>>> futures;
    futures.reserve(specs.size());
    for (const QuerySpec& spec : specs) {
      futures.push_back(session->Submit(spec, shared));
    }
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

/// Planning legs, rows {1, 1024} (1 row is what every Release and Submit
/// plans). Hit: a resubmitted shape served from the engine's prepared-plan
/// cache, each row's window and compiled shape re-checked against the plan
/// — what SubmitColumnar pays per batch in steady state. Miss: every call
/// plans a shape the cache has never seen (data_size walks through fresh
/// values; all rows are full-record, so only the key changes), paying the
/// full resolve -> dedupe -> compile -> lower pipeline; each unique
/// query's plan is still an AnalysisCache hit.
void BM_PrepareBatchPlanHit(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  auto engine = ServingEngine(1);
  Warm(engine.get());
  const BatchQuerySpec batch = ColumnarSpecs(rows);
  // A plan is stored on the second sighting of its shape.
  for (int i = 0; i < 2; ++i) {
    benchmark::DoNotOptimize(
        PrepareBatchPlan(engine.get(), batch, kLength).ValueOrDie());
  }
  for (auto _ : state) {
    Result<std::shared_ptr<const CompiledBatchPlan>> plan =
        PrepareBatchPlan(engine.get(), batch, kLength);
    if (!plan.ok()) state.SkipWithError(plan.status().ToString().c_str());
    bench::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}

void BM_PrepareBatchPlanMiss(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  auto engine = ServingEngine(1);
  Warm(engine.get());
  const BatchQuerySpec batch = ColumnarSpecs(rows);
  std::size_t data_size = kLength;
  for (auto _ : state) {
    data_size = data_size % (std::size_t{1} << 24) + 1;
    Result<std::shared_ptr<const CompiledBatchPlan>> plan =
        PrepareBatchPlan(engine.get(), batch, data_size);
    if (!plan.ok()) state.SkipWithError(plan.status().ToString().c_str());
    bench::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}

/// Resident set size of this process in bytes (VmRSS; 0 where
/// /proc/self/status is unavailable).
double ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
    }
  }
  return 0.0;
}

/// The prepared-plan cache's memory bound. Fills a fresh engine (default
/// cache_capacity) with kPlans distinct 1024-row shapes, each submitted
/// twice so that it is stored, and reports the process's RSS growth and
/// its share per resident row. Arg 0: the serving mix (11 unique queries
/// per plan); arg 1: every row a distinct custom query, the largest plan
/// per row. The row budget keeps PreparedPlanAccess::kRowBudget rows
/// resident of the kPlans * 1024 offered.
void BM_PreparedCacheFill(benchmark::State& state) {
  constexpr std::size_t kRows = 1024;
  constexpr std::size_t kPlans = 64;
  BatchQuerySpec batch = ColumnarSpecs(kRows);
  if (state.range(0) == 1) {
    batch.items.clear();
    for (std::size_t r = 0; r < kRows; ++r) {
      batch.Add(QuerySpec::CustomScalar(
          "prepared_fill_custom_" + std::to_string(r),
          [](const StateSequence& d) { return static_cast<double>(d[0]); },
          1.0, kEpsilon));
    }
  }
  double growth = 0.0;
  for (auto _ : state) {
    auto engine = ServingEngine(1);
    Warm(engine.get());
    const double before = ResidentBytes();
    for (std::size_t p = 0; p < kPlans; ++p) {
      for (int sighting = 0; sighting < 2; ++sighting) {
        Result<std::shared_ptr<const CompiledBatchPlan>> plan =
            PrepareBatchPlan(engine.get(), batch, kLength + p);
        if (!plan.ok()) state.SkipWithError(plan.status().ToString().c_str());
        bench::DoNotOptimize(plan);
      }
    }
    growth = ResidentBytes() - before;
  }
  const double resident_rows = static_cast<double>(
      std::min(kPlans * kRows, PreparedPlanAccess::kRowBudget));
  state.counters["rss_growth_mib"] = growth / (1024.0 * 1024.0);
  state.counters["bytes_per_resident_row"] = growth / resident_rows;
  state.counters["resident_rows"] = resident_rows;
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
BENCHMARK(BM_PrepareBatchPlanHit)
    ->Arg(1)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PrepareBatchPlanMiss)
    ->Arg(1)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PreparedCacheFill)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// The noise kernel alone: `rows` rows of `width` draws each, one fresh
/// per-ticket generator per row (the cost SubmitColumnar's noise stage and
/// every 1-row Release pay), isolated from planning and aggregation.
void BM_BatchLaplaceNoise(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t width = static_cast<std::size_t>(state.range(1));
  const SimdLevel restore = ActiveSimdLevel();
  SetSimdLevel(state.range(2) == 0 ? SimdLevel::kPortable
                                   : DetectedSimdLevel());
  std::vector<std::size_t> offsets(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t mixed = r % 4 == 0 ? 8 : 1;
    offsets[r + 1] = offsets[r] + (width != 0 ? width : mixed);
  }
  std::vector<double> values(offsets[rows], 0.0);
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
  state.SetLabel(NoiseKernelName());
  SetSimdLevel(restore);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["width"] = static_cast<double>(width);
}
BENCHMARK(BM_BatchLaplaceNoise)
    ->ArgsProduct({{1, 1024}, {1, 8}, {0, 1}})
    ->Args({1024, 0, 0})
    ->Args({1024, 0, 1});

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
