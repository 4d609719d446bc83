// Deadlines and cooperative cancellation: the Deadline value type, the
// thread-local DeadlineScope/CheckDeadline plumbing, propagation into
// ThreadPool workers, deterministic mid-analysis cancellation at the
// cache layer, and the engine/session boundary contracts — an expired
// deadline is refused before the budget ledger is touched, and a
// cancelled analysis leaves the AnalysisCache consistent (the retry is
// bit-identical to a never-cancelled cold analysis).
#include "common/deadline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/parallel.h"
#include "engine/engine.h"
#include "graphical/markov_chain.h"
#include "pufferfish/analysis_cache.h"
#include "pufferfish/mechanism.h"

namespace pf {
namespace {

MarkovChain SmallChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

/// A k-state chain whose sigma analysis is deliberately expensive (the
/// power ladder alone is length x k^3 work): the engine-level timeout test
/// needs an analysis that reliably outlives a millisecond-scale deadline.
MarkovChain WideChain(std::size_t k) {
  Vector initial(k, 1.0 / static_cast<double>(k));
  Matrix transition(k, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      transition(i, j) = 1.0 + static_cast<double>((i * 7 + j * 13) % 5);
      row_sum += transition(i, j);
    }
    for (std::size_t j = 0; j < k; ++j) transition(i, j) /= row_sum;
  }
  return MarkovChain::Make(initial, transition).ValueOrDie();
}

// --------------------------------------------------------- value type ------

TEST(DeadlineTest, DefaultIsInfinite) {
  const Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_ms(), Deadline::kInfiniteMs);
}

TEST(DeadlineTest, ExpiredFactoryIsExpired) {
  EXPECT_TRUE(Deadline::Expired().expired());
  EXPECT_EQ(Deadline::Expired().remaining_ms(), 0);
  EXPECT_TRUE(Deadline::After(-5).expired()) << "negative ms clamps to now";
}

TEST(DeadlineTest, FarFutureIsNotExpired) {
  const Deadline d = Deadline::After(60'000);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0);
  EXPECT_LE(d.remaining_ms(), 60'000);
}

TEST(DeadlineTest, AtWrapsAnAbsoluteTimePoint) {
  const Deadline past = Deadline::At(Deadline::Clock::now() -
                                     std::chrono::milliseconds(10));
  EXPECT_TRUE(past.expired());
}

// ------------------------------------------- thread-local scope + check ----

TEST(DeadlineTest, CheckDeadlineIsOkWithoutAScope) {
  EXPECT_TRUE(CheckDeadline("unit test").ok());
}

TEST(DeadlineTest, CheckDeadlineFailsInsideExpiredScope) {
  DeadlineScope scope(Deadline::Expired());
  const Status st = CheckDeadline("power ladder");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  // The checkpoint names itself so a timeout is attributable to the loop
  // that hit it.
  EXPECT_NE(st.message().find("power ladder"), std::string::npos);
}

TEST(DeadlineTest, ScopesNestAndRestore) {
  EXPECT_TRUE(CurrentDeadline().infinite());
  {
    DeadlineScope outer(Deadline::After(60'000));
    EXPECT_FALSE(CurrentDeadline().infinite());
    EXPECT_TRUE(CheckDeadline("outer").ok());
    {
      DeadlineScope inner(Deadline::Expired());
      EXPECT_FALSE(CheckDeadline("inner").ok());
    }
    EXPECT_TRUE(CheckDeadline("outer again").ok());
  }
  EXPECT_TRUE(CurrentDeadline().infinite());
}

// The submitting thread's deadline must be visible at checkpoints running
// inside pool workers (ParallelFor re-installs it around fn).
TEST(DeadlineTest, ParallelForPropagatesCallerDeadlineIntoWorkers) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 64;
  {
    std::vector<StatusCode> seen(kN, StatusCode::kOk);
    DeadlineScope scope(Deadline::Expired());
    pool.ParallelFor(kN, [&seen](std::size_t i) {
      seen[i] = CheckDeadline("worker checkpoint").code();
    });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(seen[i], StatusCode::kDeadlineExceeded) << "index " << i;
    }
  }
  // And a pool used OUTSIDE any scope runs deadline-free — a previous
  // job's deadline must not leak into the next one.
  std::atomic<int> failures{0};
  pool.ParallelFor(kN, [&failures](std::size_t) {
    if (!CheckDeadline("clean job").ok()) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

// --------------------------------- deterministic mid-analysis cancel -------

// An expired deadline installed around a cold analysis cancels it at the
// first cooperative checkpoint, and the cache entry it would have filled
// stays absent — the retry runs a full cold analysis whose plan is
// bit-identical to one that never saw a deadline.
TEST(DeadlineTest, CancelledAnalysisLeavesCacheConsistent) {
  const MqmExactUnified mechanism({SmallChain(0.8, 0.7)}, 60);

  AnalysisCache clean;
  const double reference_sigma =
      clean.GetOrExtend(mechanism, 1.0).ValueOrDie()->sigma;

  AnalysisCache cache;
  {
    DeadlineScope scope(Deadline::Expired());
    const auto cancelled = cache.GetOrExtend(mechanism, 1.0);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_FALSE(cache.Contains(mechanism, 1.0))
      << "a cancelled analysis must not leave a partial plan resident";
  const auto retried = cache.GetOrExtend(mechanism, 1.0);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value()->sigma, reference_sigma);
  EXPECT_TRUE(cache.Contains(mechanism, 1.0));
}

// Same contract when the deadline hits an EXTENSION of a retained
// resumable analysis: the chain entry is reset, and the retry serves the
// extended length bit-identically to a cold analysis at that length.
TEST(DeadlineTest, CancelledExtensionLeavesCacheConsistent) {
  const std::vector<MarkovChain> thetas{SmallChain(0.8, 0.7)};
  AnalysisCache cache;
  const MqmExactUnified at60(thetas, 60);
  ASSERT_TRUE(cache.GetOrExtend(at60, 1.0).ok());

  const MqmExactUnified at70(thetas, 70);
  {
    DeadlineScope scope(Deadline::Expired());
    const auto cancelled = cache.GetOrExtend(at70, 1.0);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_FALSE(cache.Contains(at70, 1.0));
  const auto retried = cache.GetOrExtend(at70, 1.0);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  AnalysisCache clean;
  EXPECT_EQ(retried.value()->sigma,
            clean.GetOrExtend(at70, 1.0).ValueOrDie()->sigma);
}

// ------------------------------------------------ engine + session ---------

TEST(DeadlineTest, EngineRefusesAlreadyExpiredDeadlineUpFront) {
  auto engine =
      PrivacyEngine::Create(ModelSpec::ChainClass({SmallChain(0.8, 0.7)}, 40))
          .ValueOrDie();
  RequestOptions request;
  request.deadline = Deadline::Expired();
  const auto compiled = engine->Compile(QuerySpec::Mean(1.0), 0, request);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kDeadlineExceeded);
  // Refused before any analysis ran.
  EXPECT_EQ(engine->cache_stats().misses, 0u);
  EXPECT_EQ(engine->cache_stats().hits, 0u);
}

// A millisecond-scale deadline against a deliberately expensive analysis
// (25-state chain, 20k-step power ladder) expires mid-analysis at a
// cooperative checkpoint; the retry without a deadline then serves the
// exact cold-analysis answer.
TEST(DeadlineTest, DeadlineExpiringMidAnalysisCancelsAndRetrySucceeds) {
  EngineOptions options;
  options.allow_stationary_shortcut = false;  // Force the full analysis.
  const ModelSpec model = ModelSpec::ChainClass({WideChain(25)}, 20'000);
  auto engine = PrivacyEngine::Create(model, options).ValueOrDie();

  RequestOptions request;
  request.deadline = Deadline::After(1);
  const auto cancelled = engine->Compile(QuerySpec::Mean(1.0), 0, request);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
  // Context chaining: the failure names the compile that timed out.
  EXPECT_NE(cancelled.status().message().find("compile"), std::string::npos)
      << cancelled.status().ToString();

  const auto retried = engine->Compile(QuerySpec::Mean(1.0));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();

  auto reference = PrivacyEngine::Create(model, options).ValueOrDie();
  EXPECT_EQ(retried.value().plan->sigma,
            reference->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma);
}

// The budget-safety contract at the session boundary: a timed-out ticket
// never debits epsilon, whether refused up front or cancelled mid-analysis.
TEST(DeadlineTest, ExpiredDeadlineNeverDebitsTheLedger) {
  auto engine =
      PrivacyEngine::Create(ModelSpec::ChainClass({SmallChain(0.8, 0.7)}, 40))
          .ValueOrDie();
  SessionOptions session_options;
  session_options.epsilon_budget = 1.0;
  session_options.seed = 3;
  auto session = engine->CreateSession(session_options);
  const StateSequence data(40, 1);

  RequestOptions expired;
  expired.deadline = Deadline::Expired();
  auto future = session->Submit(
      QuerySpec::Sum(1.0), std::make_shared<const StateSequence>(data),
      DataWindow::All(), expired);
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);
  EXPECT_EQ(session->num_releases(), 0u);
  // Refused before admission: the executor never saw the request.
  EXPECT_EQ(engine->executor().stats().submitted, 0u);

  // Synchronous Release honors the same contract.
  const auto released =
      session->Release(QuerySpec::Sum(1.0), data, DataWindow::All(), expired);
  ASSERT_FALSE(released.ok());
  EXPECT_EQ(released.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);

  // The full budget is still spendable afterwards.
  EXPECT_TRUE(session->Release(QuerySpec::Sum(1.0), data).ok());
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 1.0);
}

}  // namespace
}  // namespace pf
