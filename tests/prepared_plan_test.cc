// The engine's prepared-plan cache behind PrepareBatchPlan: a resubmitted
// batch shape is served the plan compiled for it before — equal to a cold
// compile, never shared across shapes that differ in any compiled field,
// dropped by a hot-swap of the record length, bounded FIFO by
// cache_capacity and by its resident-row budget — and the serving checks
// in front of it (expired deadline, nothing charged) still hold on a hit.
#include "engine/batch_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch_plan_internal.h"
#include "engine/engine.h"
#include "graphical/markov_chain.h"

namespace pf {
namespace {

constexpr std::size_t kLength = 24;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

MarkovChain PreparedChain() {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{0.8, 0.2}, {0.3, 0.7}})
      .ValueOrDie();
}

std::unique_ptr<PrivacyEngine> PreparedEngine(std::size_t length,
                                              EngineOptions options = {}) {
  options.num_threads = 1;
  return PrivacyEngine::Create(ModelSpec::ChainClass({PreparedChain()}, length),
                               options)
      .ValueOrDie();
}

StateSequence PreparedData(std::size_t length) {
  StateSequence data(length);
  for (std::size_t i = 0; i < length; ++i) {
    data[i] = static_cast<int>((i / 3) % 2);
  }
  return data;
}

Vector PairCounts(const StateSequence& data) {
  Vector out(2, 0.0);
  for (int s : data) out[static_cast<std::size_t>(s) % 2] += 1.0;
  return out;
}

/// Every row kind and window form the planner distinguishes.
BatchQuerySpec MixedBatch() {
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5))
      .Add(QuerySpec::Mean(0.5), DataWindow::Last(8))
      .Add(QuerySpec::StateFrequency(1, 0.5))
      .Add(QuerySpec::FrequencyHistogram(0.5), DataWindow::Range(2, 10))
      .Add(QuerySpec::CustomVector("pairs", PairCounts, 1.0, 2, 0.5),
           DataWindow::Range(4, 8))
      .Add(QuerySpec::Sum(0.5));
  return batch;
}

std::shared_ptr<const CompiledBatchPlan> Prepare(
    PrivacyEngine* engine, const BatchQuerySpec& batch, std::size_t data_size) {
  return PrepareBatchPlan(engine, batch, data_size).ValueOrDie();
}

/// Prepares `batch` until the engine stores it (a plan is stored on the
/// second sighting of its shape) and returns the stored plan.
std::shared_ptr<const CompiledBatchPlan> PrepareStored(
    PrivacyEngine* engine, const BatchQuerySpec& batch,
    std::size_t data_size) {
  Prepare(engine, batch, data_size);
  return Prepare(engine, batch, data_size);
}

TEST(PreparedPlanTest, StoredOnSecondSightingAndThenServed) {
  auto engine = PreparedEngine(kLength);
  const BatchQuerySpec batch = MixedBatch();
  const auto first = Prepare(engine.get(), batch, kLength);
  const auto second = Prepare(engine.get(), batch, kLength);
  const auto third = Prepare(engine.get(), batch, kLength);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(second.get(), third.get());
  // CompileBatchPlan hands out a copy of the same prepared plan.
  EXPECT_EQ(CompileBatchPlan(engine.get(), batch, kLength)
                .ValueOrDie()
                .Explain(),
            third->Explain());
}

TEST(PreparedPlanTest, HitMatchesColdCompileOnFreshEngineBitForBit) {
  const StateSequence data = PreparedData(kLength);
  const BatchQuerySpec batch = MixedBatch();
  auto warm = PreparedEngine(kLength);
  const auto stored = PrepareStored(warm.get(), batch, kLength);
  const auto hit = Prepare(warm.get(), batch, kLength);
  ASSERT_EQ(hit.get(), stored.get());

  auto fresh = PreparedEngine(kLength);
  const CompiledBatchPlan cold =
      CompileBatchPlan(fresh.get(), batch, kLength).ValueOrDie();
  EXPECT_EQ(hit->Explain(), cold.Explain());

  const std::uint64_t kSeed = 77;
  const std::uint64_t kFirstTicket = 3;
  const BatchReleaseResult a =
      ExecuteBatchPlan(*hit, data, kSeed, kFirstTicket).ValueOrDie();
  const BatchReleaseResult b =
      ExecuteBatchPlan(cold, data, kSeed, kFirstTicket).ValueOrDie();
  ASSERT_EQ(a.batch.num_values(), b.batch.num_values());
  for (std::size_t v = 0; v < a.batch.num_values(); ++v) {
    EXPECT_TRUE(BitEqual(a.batch.values()[v], b.batch.values()[v])) << v;
  }
  for (std::size_t r = 0; r < a.batch.num_rows(); ++r) {
    EXPECT_EQ(a.batch.tickets()[r], b.batch.tickets()[r]);
    EXPECT_TRUE(BitEqual(a.batch.sigmas()[r], b.batch.sigmas()[r]));
    EXPECT_TRUE(BitEqual(a.batch.noise_scales()[r], b.batch.noise_scales()[r]));
  }

  // End to end through Session: a session served from the warm engine's
  // prepared plans releases what a fresh engine's session releases.
  SessionOptions options;
  options.seed = kSeed;
  auto warm_session = warm->CreateSession(options);
  auto fresh_session = fresh->CreateSession(options);
  for (int round = 0; round < 3; ++round) {
    const BatchReleaseResult x =
        warm_session->SubmitColumnar(batch, data).get().ValueOrDie();
    const BatchReleaseResult y =
        fresh_session->SubmitColumnar(batch, data).get().ValueOrDie();
    for (std::size_t v = 0; v < x.batch.num_values(); ++v) {
      EXPECT_TRUE(BitEqual(x.batch.values()[v], y.batch.values()[v]));
    }
    const ReleaseResult rx =
        warm_session->Release(QuerySpec::Mean(0.5), data, DataWindow::Last(8))
            .ValueOrDie();
    const ReleaseResult ry =
        fresh_session->Release(QuerySpec::Mean(0.5), data, DataWindow::Last(8))
            .ValueOrDie();
    EXPECT_EQ(rx.ticket, ry.ticket);
    EXPECT_TRUE(BitEqual(rx.value[0], ry.value[0]));
  }
}

TEST(PreparedPlanTest, ShapesDifferingInOneFieldNeverSharePlans) {
  const auto custom = [](std::string name, double lipschitz, std::size_t dim) {
    return QuerySpec::CustomVector(std::move(name), PairCounts, lipschitz, dim,
                                   0.5);
  };
  const auto make = [&](double epsilon, int state, DataWindow window,
                        QuerySpec last) {
    BatchQuerySpec batch;
    batch.Add(QuerySpec::Sum(epsilon))
        .Add(QuerySpec::StateFrequency(state, 0.5))
        .Add(QuerySpec::Mean(0.5), window)
        .Add(std::move(last), DataWindow::Range(4, 8));
    return batch;
  };
  DataWindow base_window = DataWindow::Range(2, 8);
  DataWindow moved_offset = DataWindow::Range(3, 8);
  DataWindow shorter = DataWindow::Range(2, 7);
  DataWindow from_end = base_window;
  from_end.from_end = true;  // Resolves to [16, 24) instead of [2, 10).

  const BatchQuerySpec base = make(0.5, 1, base_window, custom("c", 1.0, 2));
  struct Variant {
    const char* field;
    BatchQuerySpec batch;
    std::size_t data_size;
  };
  const std::vector<Variant> variants = {
      {"epsilon bits",
       make(std::nextafter(0.5, 1.0), 1, base_window, custom("c", 1.0, 2)),
       kLength},
      {"state", make(0.5, 0, base_window, custom("c", 1.0, 2)), kLength},
      {"window offset", make(0.5, 1, moved_offset, custom("c", 1.0, 2)),
       kLength},
      {"window length", make(0.5, 1, shorter, custom("c", 1.0, 2)), kLength},
      {"window from_end", make(0.5, 1, from_end, custom("c", 1.0, 2)),
       kLength},
      {"custom name", make(0.5, 1, base_window, custom("d", 1.0, 2)), kLength},
      {"custom lipschitz", make(0.5, 1, base_window, custom("c", 2.0, 2)),
       kLength},
      {"custom dim", make(0.5, 1, base_window, custom("c", 1.0, 3)), kLength},
      {"data_size", base, kLength - 1},
  };
  BatchQuerySpec swapped;  // The base rows, first two in swapped order.
  swapped.items = base.items;
  std::swap(swapped.items[0], swapped.items[1]);

  auto engine = PreparedEngine(kLength);
  const auto base_plan = PrepareStored(engine.get(), base, kLength);
  EXPECT_TRUE(MatchesPreparedPlan(*base_plan, base, kLength));
  EXPECT_FALSE(MatchesPreparedPlan(*base_plan, swapped, kLength));
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.field);
    // The hit check alone tells the shapes apart, whatever the key does.
    EXPECT_FALSE(MatchesPreparedPlan(*base_plan, v.batch, v.data_size));
    const auto plan = PrepareStored(engine.get(), v.batch, v.data_size);
    EXPECT_NE(plan.get(), base_plan.get());
    EXPECT_TRUE(MatchesPreparedPlan(*plan, v.batch, v.data_size));
    EXPECT_FALSE(MatchesPreparedPlan(*plan, base, kLength));
    // What was served is what a cold compile of the variant produces.
    auto fresh = PreparedEngine(kLength);
    const CompiledBatchPlan cold =
        CompileBatchPlan(fresh.get(), v.batch, v.data_size).ValueOrDie();
    EXPECT_EQ(plan->Explain(), cold.Explain());
    EXPECT_EQ(plan->logical.data_size, v.data_size);
    ASSERT_EQ(plan->logical.unique.size(), cold.logical.unique.size());
    for (std::size_t u = 0; u < cold.logical.unique.size(); ++u) {
      EXPECT_EQ(plan->logical.unique[u].spec.CacheKey(),
                cold.logical.unique[u].spec.CacheKey());
    }
    // Both shapes stay cached side by side, each serving its own plan.
    EXPECT_EQ(Prepare(engine.get(), v.batch, v.data_size).get(), plan.get());
    EXPECT_EQ(Prepare(engine.get(), base, kLength).get(), base_plan.get());
  }
}

// The fingerprint only finds candidates. A plan resident under another
// batch's key — what a fingerprint collision leaves behind — must not be
// served for that batch, and that batch must not displace it.
TEST(PreparedPlanTest, FingerprintCollisionIsNeverServed) {
  BatchQuerySpec a;
  a.Add(QuerySpec::StateFrequency(0, 0.5), DataWindow::Range(0, 8));
  BatchQuerySpec b;
  b.Add(QuerySpec::StateFrequency(1, 0.5), DataWindow::Range(0, 9));

  auto engine = PreparedEngine(kLength);
  const auto a_plan = PrepareStored(engine.get(), a, kLength);
  // Plant a's plan under b's key.
  const std::uint64_t b_key = BatchShapeFingerprint(b, kLength);
  ASSERT_NE(b_key, BatchShapeFingerprint(a, kLength));
  std::uint64_t generation = 0;
  bool store = false;
  ASSERT_EQ(PreparedPlanAccess::Find(engine.get(), b_key, &generation, &store),
            nullptr);
  PreparedPlanAccess::Store(engine.get(), b_key, generation, a_plan);

  for (int i = 0; i < 3; ++i) {
    const auto b_plan = Prepare(engine.get(), b, kLength);
    EXPECT_NE(b_plan.get(), a_plan.get());
    EXPECT_EQ(b_plan->logical.unique[0].spec.state, 1);
    EXPECT_EQ(b_plan->logical.windows[0].length, 9u);
  }
  EXPECT_EQ(
      PreparedPlanAccess::Find(engine.get(), b_key, &generation, &store).get(),
      a_plan.get());
  EXPECT_EQ(Prepare(engine.get(), a, kLength).get(), a_plan.get());
}

TEST(PreparedPlanTest, AppendAndSetRecordLengthInvalidate) {
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Mean(0.5)).Add(QuerySpec::Sum(0.5), DataWindow::Last(8));
  auto engine = PreparedEngine(kLength);
  const auto before = PrepareStored(engine.get(), batch, kLength);
  ASSERT_EQ(Prepare(engine.get(), batch, kLength).get(), before.get());

  const auto expect_fresh_at = [&](std::size_t length) {
    // Same batch, same data_size: the key is unchanged, so only the
    // invalidation keeps the old plan from being served.
    const auto after = Prepare(engine.get(), batch, kLength);
    EXPECT_NE(after.get(), before.get());
    auto fresh = PreparedEngine(length);
    const CompiledBatchPlan cold =
        CompileBatchPlan(fresh.get(), batch, kLength).ValueOrDie();
    EXPECT_EQ(after->Explain(), cold.Explain());
    EXPECT_EQ(after->logical.unique[0].compile_length, length);
    for (std::size_t u = 0; u < cold.compiled.size(); ++u) {
      EXPECT_TRUE(BitEqual(after->compiled[u].plan->sigma,
                           cold.compiled[u].plan->sigma));
      EXPECT_TRUE(BitEqual(after->logical.unique[u].lipschitz,
                           cold.logical.unique[u].lipschitz));
    }
  };

  ASSERT_TRUE(engine->AppendObservations(4).ok());
  expect_fresh_at(kLength + 4);
  PrepareStored(engine.get(), batch, kLength);
  ASSERT_TRUE(engine->SetRecordLength(40).ok());
  expect_fresh_at(40);
}

TEST(PreparedPlanTest, ExpiredDeadlineRefusedForCachedShapeChargingNothing) {
  auto engine = PreparedEngine(kLength);
  const StateSequence data = PreparedData(kLength);
  const BatchQuerySpec batch = MixedBatch();
  SessionOptions options;
  options.epsilon_budget = 100.0;
  auto session = engine->CreateSession(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->Release(QuerySpec::Sum(0.5), data).ok());
    ASSERT_TRUE(session->SubmitColumnar(batch, data).get().ok());
  }
  const std::size_t releases = session->num_releases();
  const double spent = session->EpsilonSpent();

  RequestOptions expired;
  expired.deadline = Deadline::Expired();
  Result<ReleaseResult> sync =
      session->Release(QuerySpec::Sum(0.5), data, DataWindow::All(), expired);
  ASSERT_FALSE(sync.ok());
  EXPECT_EQ(sync.status().code(), StatusCode::kDeadlineExceeded);
  Result<ReleaseResult> async =
      session->Submit(QuerySpec::Sum(0.5), data, DataWindow::All(), expired)
          .get();
  ASSERT_FALSE(async.ok());
  EXPECT_EQ(async.status().code(), StatusCode::kDeadlineExceeded);
  Result<BatchReleaseResult> columnar =
      session->SubmitColumnar(batch, data, expired).get();
  ASSERT_FALSE(columnar.ok());
  EXPECT_EQ(columnar.status().code(), StatusCode::kDeadlineExceeded);

  EXPECT_EQ(session->num_releases(), releases);
  EXPECT_TRUE(BitEqual(session->EpsilonSpent(), spent));
}

TEST(PreparedPlanTest, HitIsServedWithoutTheAnalysisCache) {
  EngineOptions options;
  options.cache_capacity = 2;
  auto engine = PreparedEngine(kLength, options);
  const StateSequence data = PreparedData(kLength);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5));
  const auto stored = PrepareStored(engine.get(), batch, kLength);

  // Push the epsilon-0.5 analysis out of the AnalysisCache: the compile
  // path would now need a cold analysis.
  ASSERT_TRUE(engine->Compile(QuerySpec::Sum(0.3)).ok());
  ASSERT_TRUE(engine->Compile(QuerySpec::Sum(0.7)).ok());
  const AnalysisCache::Stats before = engine->cache_stats();

  // A hit never compiles: neither the lookup nor a release served from it
  // reads the AnalysisCache.
  EXPECT_EQ(Prepare(engine.get(), batch, kLength).get(), stored.get());
  auto session = engine->CreateSession();
  EXPECT_TRUE(session->Release(QuerySpec::Sum(0.5), data).ok());
  EXPECT_EQ(engine->cache_stats().hits, before.hits);
  EXPECT_EQ(engine->cache_stats().misses, before.misses);

  // The analysis really was evicted: a direct compile misses.
  ASSERT_TRUE(engine->Compile(QuerySpec::Sum(0.5)).ok());
  EXPECT_EQ(engine->cache_stats().misses, before.misses + 1);
}

TEST(PreparedPlanTest, FifoEvictionAtCapacityTwo) {
  EngineOptions options;
  options.cache_capacity = 2;
  auto engine = PreparedEngine(kLength, options);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5));
  // Three shapes: one batch over three database sizes.
  const auto a = PrepareStored(engine.get(), batch, 24);
  const auto b = PrepareStored(engine.get(), batch, 23);
  EXPECT_EQ(Prepare(engine.get(), batch, 24).get(), a.get());
  const auto c = PrepareStored(engine.get(), batch, 22);  // Evicts a.
  EXPECT_EQ(Prepare(engine.get(), batch, 23).get(), b.get());
  EXPECT_EQ(Prepare(engine.get(), batch, 22).get(), c.get());
  const auto a2 = Prepare(engine.get(), batch, 24);
  EXPECT_NE(a2.get(), a.get());
  // Sighted again, a is stored anew and evicts the oldest, b.
  const auto a3 = Prepare(engine.get(), batch, 24);
  EXPECT_EQ(Prepare(engine.get(), batch, 24).get(), a3.get());
  EXPECT_EQ(Prepare(engine.get(), batch, 22).get(), c.get());
  EXPECT_NE(Prepare(engine.get(), batch, 23).get(), b.get());
}

// Plans of many rows are bounded by resident rows, not only by count:
// past the row budget the oldest plan goes (cache_capacity, 1024 by
// default, is far from reached), and a plan larger than the whole budget
// is served but never stored.
TEST(PreparedPlanTest, ResidentRowsBoundedByRowBudget) {
  constexpr std::size_t kRows = 1024;
  constexpr std::size_t kFit = PreparedPlanAccess::kRowBudget / kRows;
  static_assert(kFit * kRows == PreparedPlanAccess::kRowBudget,
                "the budget holds a whole number of plans");
  BatchQuerySpec batch;
  for (std::size_t r = 0; r < kRows; ++r) batch.Add(QuerySpec::Sum(0.5));
  auto engine = PreparedEngine(kLength);
  // kFit + 1 shapes: one batch over kFit + 1 database sizes.
  std::vector<std::shared_ptr<const CompiledBatchPlan>> plans;
  for (std::size_t n = 0; n <= kFit; ++n) {
    plans.push_back(PrepareStored(engine.get(), batch, kLength + n));
  }
  EXPECT_NE(Prepare(engine.get(), batch, kLength).get(), plans[0].get());
  for (std::size_t n = 1; n <= kFit; ++n) {
    EXPECT_EQ(Prepare(engine.get(), batch, kLength + n).get(), plans[n].get())
        << n;
  }

  BatchQuerySpec huge;
  for (std::size_t r = 0; r <= PreparedPlanAccess::kRowBudget; ++r) {
    huge.Add(QuerySpec::Sum(0.5));
  }
  const auto first = PrepareStored(engine.get(), huge, kLength);
  EXPECT_NE(Prepare(engine.get(), huge, kLength).get(), first.get());
  // Refusing it evicted nothing.
  EXPECT_EQ(Prepare(engine.get(), batch, kLength + kFit).get(),
            plans[kFit].get());
}

}  // namespace
}  // namespace pf
