// End-to-end contract of Session::SubmitColumnar: released values (and the
// per-row accounting columns) are bit-identical to submitting the same
// specs through the scalar path in order — across every QueryKind,
// stationary / non-stationary / free-initial chain models, 1 vs 8 executor
// threads, and SIMD dispatch levels — and the ledger half: a batch that is
// shed, fails to compile, mixes quilts, or would overrun the budget is
// refused WHOLE and never debits epsilon.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "engine/engine.h"
#include "graphical/markov_chain.h"

namespace pf {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool IsAllWindow(const DataWindow& w) {
  return !w.from_end && w.offset == 0 && w.length == 0;
}

MarkovChain Chain(std::vector<double> initial) {
  return MarkovChain::Make(std::move(initial),
                           Matrix{{0.8, 0.2}, {0.3, 0.7}})
      .ValueOrDie();
}

StateSequence ServeData(std::size_t length) {
  StateSequence data(length);
  for (std::size_t i = 0; i < length; ++i) {
    data[i] = static_cast<int>((i * i + i / 5) % 2);
  }
  return data;
}

/// Every QueryKind at one epsilon (one shared quilt), with duplicate
/// shapes and a mix of full-record and windowed rows.
BatchQuerySpec AllKindsBatch(double epsilon) {
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(epsilon))
      .Add(QuerySpec::Mean(epsilon))
      .Add(QuerySpec::StateFrequency(0, epsilon))
      .Add(QuerySpec::StateFrequency(1, epsilon))
      .Add(QuerySpec::CountHistogram(epsilon))
      .Add(QuerySpec::FrequencyHistogram(epsilon))
      .Add(QuerySpec::CustomScalar(
          "serving-first-obs",
          [](const StateSequence& d) { return static_cast<double>(d[0]); },
          1.0, epsilon))
      .Add(QuerySpec::CustomVector(
          "serving-ends",
          [](const StateSequence& d) {
            return Vector{static_cast<double>(d.front()),
                          static_cast<double>(d.back())};
          },
          1.0, /*dim=*/2, epsilon))
      .Add(QuerySpec::Sum(epsilon))  // Duplicate shape: one compile, 2 rows.
      .Add(QuerySpec::Mean(epsilon), DataWindow::Last(8))
      .Add(QuerySpec::CountHistogram(epsilon), DataWindow::Range(2, 12))
      .Add(QuerySpec::Mean(epsilon), DataWindow::Last(8));  // Dup windowed.
  return batch;
}

/// The same batch through the scalar async path, in row order, on a fresh
/// session with `seed`.
std::vector<ReleaseResult> ScalarResults(PrivacyEngine* engine,
                                         const BatchQuerySpec& batch,
                                         const StateSequence& data,
                                         std::uint64_t seed) {
  SessionOptions options;
  options.seed = seed;
  auto session = engine->CreateSession(options);
  std::vector<std::future<Result<ReleaseResult>>> futures;
  for (const BatchQueryItem& item : batch.items) {
    if (IsAllWindow(item.window)) {
      futures.push_back(session->Submit(item.spec, data));
    } else {
      futures.push_back(session->Submit(item.spec, data, item.window));
    }
  }
  std::vector<ReleaseResult> results;
  for (auto& f : futures) {
    Result<ReleaseResult> r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).value());
  }
  return results;
}

/// The same batch through SubmitColumnar on a fresh session with `seed`.
BatchReleaseResult ColumnarResult(PrivacyEngine* engine,
                                  const BatchQuerySpec& batch,
                                  const StateSequence& data,
                                  std::uint64_t seed) {
  SessionOptions options;
  options.seed = seed;
  auto session = engine->CreateSession(options);
  Result<BatchReleaseResult> r = session->SubmitColumnar(batch, data).get();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(session->num_releases(), batch.size());
  return std::move(r).value();
}

void ExpectBitIdentical(const std::vector<ReleaseResult>& scalar,
                        const BatchReleaseResult& columnar,
                        const std::string& label) {
  ASSERT_EQ(columnar.batch.num_rows(), scalar.size()) << label;
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(columnar.batch.row_size(i), scalar[i].value.size())
        << label << " row " << i;
    for (std::size_t j = 0; j < scalar[i].value.size(); ++j) {
      EXPECT_TRUE(BitEqual(columnar.batch.row(i)[j], scalar[i].value[j]))
          << label << " row " << i << " coord " << j << ": "
          << columnar.batch.row(i)[j] << " vs " << scalar[i].value[j];
    }
    EXPECT_EQ(columnar.batch.tickets()[i], scalar[i].ticket) << label;
    EXPECT_TRUE(BitEqual(columnar.batch.epsilons()[i], scalar[i].epsilon));
    EXPECT_TRUE(BitEqual(columnar.batch.sigmas()[i], scalar[i].sigma));
  }
}

// ------------------------------------------------------------ bit identity --

// The headline contract, swept over model classes and executor widths: the
// columnar path must reproduce the scalar path bit for bit on stationary
// chains, non-stationary chains, and free-initial classes, whether the
// scalar futures resolve on 1 thread or race on 8.
TEST(BatchServingBitIdentityTest, MatchesScalarAcrossModelsAndThreads) {
  const std::size_t kLength = 24;
  const StateSequence data = ServeData(kLength);
  const BatchQuerySpec batch = AllKindsBatch(0.5);
  struct ModelCase {
    const char* name;
    int which;  // 0 stationary, 1 non-stationary, 2 free-initial.
  };
  for (const ModelCase& mc : {ModelCase{"stationary", 0},
                              ModelCase{"non-stationary", 1},
                              ModelCase{"free-initial", 2}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      EngineOptions options;
      options.num_threads = threads;
      ModelSpec model =
          mc.which == 0
              ? ModelSpec::ChainClass({Chain({0.6, 0.4})}, kLength)
              : mc.which == 1
                    ? ModelSpec::ChainClass({Chain({0.9, 0.1})}, kLength)
                    : ModelSpec::ChainClassFreeInitial(
                          {Matrix{{0.8, 0.2}, {0.3, 0.7}}}, kLength);
      auto engine =
          PrivacyEngine::Create(std::move(model), options).ValueOrDie();
      const std::string label =
          std::string(mc.name) + " threads=" + std::to_string(threads);
      const std::vector<ReleaseResult> scalar =
          ScalarResults(engine.get(), batch, data, /*seed=*/977);
      const BatchReleaseResult columnar =
          ColumnarResult(engine.get(), batch, data, /*seed=*/977);
      ExpectBitIdentical(scalar, columnar, label);
    }
  }
}

// SIMD invariance end to end: the same batch served under forced-portable
// and hardware dispatch must release identical bits (the kernels aggregate
// in integers, clip with the same IEEE products, and draw the same noise
// stream, so there is nothing to round differently). The 72-row batch
// fills two of the noise stage's 32-row groups, which take the wide noise
// kernel where the CPU has AVX-512F/DQ, plus a partial tail group.
TEST(BatchServingBitIdentityTest, SimdLevelInvariant) {
  const std::size_t kLength = 37;  // Odd length: exercises kernel tails.
  auto engine = PrivacyEngine::Create(
                    ModelSpec::ChainClass({Chain({0.6, 0.4})}, kLength))
                    .ValueOrDie();
  const StateSequence data = ServeData(kLength);
  BatchQuerySpec wide;
  for (int copy = 0; copy < 6; ++copy) {
    for (const BatchQueryItem& item : AllKindsBatch(0.5).items) {
      wide.Add(item.spec, item.window);
    }
  }
  for (const BatchQuerySpec& batch : {AllKindsBatch(0.5), wide}) {
    const SimdLevel restore = ActiveSimdLevel();
    SetSimdLevel(SimdLevel::kPortable);
    const BatchReleaseResult portable =
        ColumnarResult(engine.get(), batch, data, /*seed=*/31);
    SetSimdLevel(DetectedSimdLevel());
    const BatchReleaseResult native =
        ColumnarResult(engine.get(), batch, data, /*seed=*/31);
    SetSimdLevel(restore);

    ASSERT_EQ(portable.batch.num_rows(), native.batch.num_rows());
    ASSERT_EQ(portable.batch.num_values(), native.batch.num_values());
    for (std::size_t v = 0; v < portable.batch.num_values(); ++v) {
      EXPECT_TRUE(
          BitEqual(portable.batch.values()[v], native.batch.values()[v]))
          << batch.size() << " rows, value " << v;
    }
    for (std::size_t r = 0; r < portable.batch.num_rows(); ++r) {
      EXPECT_TRUE(BitEqual(portable.batch.noise_scales()[r],
                           native.batch.noise_scales()[r]));
    }
  }
}

// Out-of-range observations: the scalar CountHistogram/RelativeFrequency
// queries collapse to all-zero vectors via ValueOr; the columnar kernels'
// sticky out_of_range flag must reproduce that exactly (including the
// +0.0 bits of zeros * inv), while Sum still sums the raw values.
TEST(BatchServingBitIdentityTest, OutOfRangeStatesMatchScalarValueOr) {
  const std::size_t kLength = 16;
  auto engine = PrivacyEngine::Create(
                    ModelSpec::ChainClass({Chain({0.6, 0.4})}, kLength))
                    .ValueOrDie();
  StateSequence data = ServeData(kLength);
  data[5] = 3;   // Outside the model's k = 2 state space.
  data[11] = -2;
  BatchQuerySpec batch;
  batch.Add(QuerySpec::CountHistogram(0.5))
      .Add(QuerySpec::FrequencyHistogram(0.5))
      .Add(QuerySpec::Sum(0.5));
  const std::vector<ReleaseResult> scalar =
      ScalarResults(engine.get(), batch, data, /*seed=*/202);
  const BatchReleaseResult columnar =
      ColumnarResult(engine.get(), batch, data, /*seed=*/202);
  ExpectBitIdentical(scalar, columnar, "out-of-range");
}

// Interleaving with scalar traffic: a columnar batch claims the next
// `rows` contiguous tickets, so scalar-columnar-scalar on one session
// equals the pure-scalar session submitting the same rows in order.
TEST(BatchServingBitIdentityTest, InterleavesWithScalarTraffic) {
  const std::size_t kLength = 24;
  auto engine = PrivacyEngine::Create(
                    ModelSpec::ChainClass({Chain({0.6, 0.4})}, kLength))
                    .ValueOrDie();
  const StateSequence data = ServeData(kLength);
  BatchQuerySpec inner;
  inner.Add(QuerySpec::Mean(0.5)).Add(QuerySpec::Sum(0.5));

  SessionOptions options;
  options.seed = 555;
  auto mixed = engine->CreateSession(options);
  const ReleaseResult before =
      mixed->Release(QuerySpec::Sum(0.5), data).ValueOrDie();
  Result<BatchReleaseResult> rbatch = mixed->SubmitColumnar(inner, data).get();
  ASSERT_TRUE(rbatch.ok()) << rbatch.status().ToString();
  const BatchReleaseResult middle = std::move(rbatch).value();
  const ReleaseResult after =
      mixed->Release(QuerySpec::Mean(0.5), data).ValueOrDie();
  EXPECT_EQ(before.ticket, 0u);
  EXPECT_EQ(middle.batch.tickets()[0], 1u);
  EXPECT_EQ(middle.batch.tickets()[1], 2u);
  EXPECT_EQ(after.ticket, 3u);

  auto pure = engine->CreateSession(options);
  EXPECT_TRUE(BitEqual(
      pure->Release(QuerySpec::Sum(0.5), data).ValueOrDie().value[0],
      before.value[0]));
  EXPECT_TRUE(BitEqual(
      pure->Release(QuerySpec::Mean(0.5), data).ValueOrDie().value[0],
      middle.batch.row(0)[0]));
  EXPECT_TRUE(BitEqual(
      pure->Release(QuerySpec::Sum(0.5), data).ValueOrDie().value[0],
      middle.batch.row(1)[0]));
  EXPECT_TRUE(BitEqual(
      pure->Release(QuerySpec::Mean(0.5), data).ValueOrDie().value[0],
      after.value[0]));
}

// ------------------------------------------------------------- the ledger --

std::unique_ptr<PrivacyEngine> LedgerEngine(std::size_t length) {
  return PrivacyEngine::Create(
             ModelSpec::ChainClass({Chain({0.6, 0.4})}, length))
      .ValueOrDie();
}

TEST(BatchServingLedgerTest, ComposedChargePricesWholeBatchAtMaxEpsilon) {
  auto engine = LedgerEngine(24);
  auto session = engine->CreateSession();
  const StateSequence data = ServeData(24);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5)).Add(QuerySpec::Sum(0.5)).Add(
      QuerySpec::Sum(0.5));
  ASSERT_TRUE(session->SubmitColumnar(batch, data).get().ok());
  EXPECT_EQ(session->num_releases(), 3u);
  // Theorem 4.4: 3 releases at epsilon 0.5 compose to 1.5.
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 1.5);
}

TEST(BatchServingLedgerTest, BudgetOverrunRefusesWholeBatchChargingNothing) {
  auto engine = LedgerEngine(24);
  SessionOptions options;
  options.epsilon_budget = 1.0;
  auto session = engine->CreateSession(options);
  const StateSequence data = ServeData(24);

  BatchQuerySpec four;
  for (int i = 0; i < 4; ++i) four.Add(QuerySpec::Sum(0.3));
  Result<BatchReleaseResult> refused =
      session->SubmitColumnar(four, data).get();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status().ToString();
  // All-or-nothing: not even the 3 affordable rows were charged.
  EXPECT_EQ(session->num_releases(), 0u);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);

  // The batch that fits is admitted whole afterwards — the refusal left no
  // residue in the ledger.
  BatchQuerySpec three;
  for (int i = 0; i < 3; ++i) three.Add(QuerySpec::Sum(0.3));
  ASSERT_TRUE(session->SubmitColumnar(three, data).get().ok());
  EXPECT_EQ(session->num_releases(), 3u);
}

TEST(BatchServingLedgerTest, FailedCompileChargesNothing) {
  auto engine = LedgerEngine(24);
  auto session = engine->CreateSession();
  QuerySpec broken;
  broken.kind = QueryKind::kCustomScalar;
  broken.name = "no-body";
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5)).Add(broken);
  Result<BatchReleaseResult> r =
      session->SubmitColumnar(batch, ServeData(24)).get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("batch row 1"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(session->num_releases(), 0u);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);
}

TEST(BatchServingLedgerTest, QuiltMixRefusedWholeChargingNothing) {
  // Same premise as the scalar quilt-mismatch test: on a length-10 chain,
  // epsilon 4 picks a narrow active quilt and epsilon 0.001 the trivial
  // one; one batch containing both violates the Theorem 4.4 precondition.
  auto engine = LedgerEngine(10);
  const auto plan_hi = engine->Compile(QuerySpec::Mean(4.0)).ValueOrDie().plan;
  const auto plan_lo =
      engine->Compile(QuerySpec::Mean(0.001)).ValueOrDie().plan;
  ASSERT_NE(plan_hi->chain.active_quilt.ToString(),
            plan_lo->chain.active_quilt.ToString())
      << "test premise: the two epsilons must pick different active quilts";

  auto session = engine->CreateSession();
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Mean(4.0)).Add(QuerySpec::Mean(0.001));
  Result<BatchReleaseResult> r =
      session->SubmitColumnar(batch, ServeData(10)).get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
  EXPECT_EQ(session->num_releases(), 0u);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);
}

TEST(BatchServingLedgerTest, QueueFullShedsBatchBeforeCharging) {
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.max_queue_depth = 1;
  auto engine =
      PrivacyEngine::Create(ModelSpec::ChainClass({Chain({0.6, 0.4})}, 24),
                            engine_options)
          .ValueOrDie();
  auto session = engine->CreateSession();
  const StateSequence data = ServeData(24);

  // Occupy the only queue slot.
  Result<Executor::Permit> held = engine->executor().TryAcquire();
  ASSERT_TRUE(held.ok());

  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5)).Add(QuerySpec::Mean(0.5));
  Result<BatchReleaseResult> shed = session->SubmitColumnar(batch, data).get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable)
      << shed.status().ToString();
  EXPECT_EQ(session->num_releases(), 0u);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);

  // With the slot free the same batch is admitted whole.
  { auto drop = std::move(held).value(); }
  ASSERT_TRUE(session->SubmitColumnar(batch, data).get().ok());
  EXPECT_EQ(session->num_releases(), 2u);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 1.0);
}

TEST(BatchServingLedgerTest, ColdShedAndExpiredDeadlineChargeNothing) {
  EngineOptions engine_options;
  engine_options.shed_cold_queue_depth = 1;
  auto engine =
      PrivacyEngine::Create(ModelSpec::ChainClass({Chain({0.6, 0.4})}, 24),
                            engine_options)
          .ValueOrDie();
  auto session = engine->CreateSession();
  const StateSequence data = ServeData(24);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.77));  // Never analyzed: cold.

  // One held permit puts the queue at the shed threshold.
  Result<Executor::Permit> load = engine->executor().TryAcquire();
  ASSERT_TRUE(load.ok());
  Result<BatchReleaseResult> cold = session->SubmitColumnar(batch, data).get();
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kUnavailable)
      << cold.status().ToString();
  { auto drop = std::move(load).value(); }

  RequestOptions expired;
  expired.deadline = Deadline::Expired();
  Result<BatchReleaseResult> late =
      session->SubmitColumnar(batch, data, expired).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);

  EXPECT_EQ(session->num_releases(), 0u);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);
}

}  // namespace
}  // namespace pf
