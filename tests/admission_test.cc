// Admission control and load shedding: the bounded executor queue
// (TryAcquire permits, Unavailable on overflow, shed -> retry -> recover),
// the permit-before-charge ordering that keeps shed tickets off the epsilon
// ledger, and the cold-analysis shed policy that keeps warm traffic serving
// under overload.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/engine.h"
#include "engine/executor.h"
#include "graphical/markov_chain.h"

namespace pf {
namespace {

MarkovChain TestChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

std::unique_ptr<PrivacyEngine> MakeEngine(EngineOptions options = {}) {
  return PrivacyEngine::Create(ModelSpec::ChainClass({TestChain(0.8, 0.7)}, 40),
                               options)
      .ValueOrDie();
}

// ------------------------------------------------------- raw executor ------

// Deterministic shed -> retry -> recover on the executor itself: permits
// held by the test stand in for queued work, so no timing is involved.
TEST(AdmissionTest, ExecutorShedsAtTheBoundAndRecovers) {
  ExecutorOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 2;
  Executor executor(options);

  auto p1 = executor.TryAcquire();
  auto p2 = executor.TryAcquire();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(executor.queue_depth(), 2u);

  // Queue full: the third acquire sheds with a typed, retryable refusal.
  auto shed = executor.TryAcquire();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status().message().find("retry"), std::string::npos);

  const Executor::Stats mid = executor.stats();
  EXPECT_EQ(mid.submitted, 3u);
  EXPECT_EQ(mid.admitted, 2u);
  EXPECT_EQ(mid.shed, 1u);

  // Dropping an unused permit returns its slot; the retry then succeeds.
  { auto drop = std::move(p1).value(); }
  EXPECT_EQ(executor.queue_depth(), 1u);
  auto retried = executor.TryAcquire();
  ASSERT_TRUE(retried.ok());

  // Permits actually carry tasks: submit under the held permits and the
  // results come back.
  auto f1 = executor.Submit(std::move(p2).value(), [] { return 7; });
  auto f2 = executor.Submit(std::move(retried).value(), [] { return 35; });
  EXPECT_EQ(f1.get() + f2.get(), 42);

  const Executor::Stats end = executor.stats();
  EXPECT_EQ(end.submitted, end.admitted + end.shed);
}

TEST(AdmissionTest, UnboundedQueueNeverSheds) {
  ExecutorOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 0;  // Explicitly unbounded.
  Executor executor(options);
  std::vector<Executor::Permit> permits;
  for (int i = 0; i < 64; ++i) {
    auto permit = executor.TryAcquire();
    ASSERT_TRUE(permit.ok());
    permits.push_back(std::move(permit).value());
  }
  EXPECT_EQ(executor.stats().shed, 0u);
}

// ------------------------------------- shed never debits the ledger --------

// With the engine's queue artificially full, a session Submit is refused
// with Unavailable strictly BEFORE the charge: the epsilon ledger stays
// untouched, and the very same request succeeds once load drops.
TEST(AdmissionTest, ShedSubmitNeverDebitsBudgetAndRecovers) {
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 1;
  auto engine = MakeEngine(options);
  SessionOptions session_options;
  session_options.epsilon_budget = 2.0;
  session_options.seed = 11;
  auto session = engine->CreateSession(session_options);
  const auto data = std::make_shared<const StateSequence>(StateSequence(40, 1));

  // Pre-warm the plan so the shed below is purely an admission refusal.
  ASSERT_TRUE(engine->Compile(QuerySpec::Sum(1.0)).ok());

  // Occupy the only queue slot.
  auto blocker = engine->executor().TryAcquire();
  ASSERT_TRUE(blocker.ok());

  auto shed = session->Submit(QuerySpec::Sum(1.0), data);
  const auto shed_result = shed.get();
  ASSERT_FALSE(shed_result.ok());
  EXPECT_EQ(shed_result.status().code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);
  EXPECT_EQ(session->num_releases(), 0u);
  EXPECT_EQ(engine->executor().queue_depth(), 1u) << "only the blocker";

  // Load drops; the retry is served and only now is the budget charged.
  { auto drop = std::move(blocker).value(); }
  auto retried = session->Submit(QuerySpec::Sum(1.0), data);
  EXPECT_TRUE(retried.get().ok());
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 1.0);
  EXPECT_EQ(session->num_releases(), 1u);
}

// ------------------------------------------------ cold-analysis shed -------

// Under queue pressure, requests needing a cold sigma analysis are shed
// while warm (cached) traffic keeps serving; cold requests recover as soon
// as the queue drains.
TEST(AdmissionTest, ColdAnalysisShedsUnderLoadWhileWarmServes) {
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 8;
  options.shed_cold_queue_depth = 1;
  auto engine = MakeEngine(options);

  // Warm epsilon 1.0 while the queue is idle.
  ASSERT_TRUE(engine->Compile(QuerySpec::Sum(1.0)).ok());

  // Apply load: one occupied slot reaches the shed threshold.
  auto load = engine->executor().TryAcquire();
  ASSERT_TRUE(load.ok());

  // Warm request: served from cache, never shed.
  EXPECT_TRUE(engine->Compile(QuerySpec::Sum(1.0)).ok());

  // Cold request (new epsilon): shed with a retryable refusal.
  const auto cold = engine->Compile(QuerySpec::Sum(0.5));
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kUnavailable);

  // Load drops; the same cold request now runs its analysis and serves.
  { auto drop = std::move(load).value(); }
  EXPECT_TRUE(engine->Compile(QuerySpec::Sum(0.5)).ok());
}

}  // namespace
}  // namespace pf
