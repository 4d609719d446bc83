// Session: the privacy-budget ledger and the async serving path. Covers
// budget exhaustion (floor(B/epsilon) equal-epsilon releases), the
// Theorem 4.4 K * max rule for mixed epsilons, active-quilt mismatch
// refusal, and thread-count-invariant determinism of batch Submit().
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "graphical/markov_chain.h"

namespace pf {
namespace {

MarkovChain TestChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

std::unique_ptr<PrivacyEngine> LaplaceEngine() {
  return PrivacyEngine::Create(ModelSpec::Sensitivity(1.0)).ValueOrDie();
}

const StateSequence kData{1, 0, 1, 1, 0, 1, 0, 0, 1, 1};

// ------------------------------------------------------------- the budget --

TEST(SessionBudgetTest, ExactlyFloorBudgetOverEpsilonReleases) {
  auto engine = LaplaceEngine();
  struct Case {
    double budget;
    double epsilon;
    int allowed;  // floor(budget / epsilon).
  };
  for (const Case& c : {Case{2.0, 0.5, 4}, Case{3.0, 1.0, 3},
                        Case{1.0, 0.3, 3}, Case{0.25, 0.5, 0}}) {
    SessionOptions options;
    options.epsilon_budget = c.budget;
    auto session = engine->CreateSession(options);
    for (int k = 0; k < c.allowed; ++k) {
      ASSERT_TRUE(session->Release(QuerySpec::Sum(c.epsilon), kData).ok())
          << "budget " << c.budget << " eps " << c.epsilon << " release " << k;
    }
    const auto refused = session->Release(QuerySpec::Sum(c.epsilon), kData);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
        << refused.status().ToString();
    EXPECT_EQ(session->num_releases(), static_cast<std::size_t>(c.allowed));
  }
}

// Regression: the "exactly floor(B / eps) equal-epsilon releases"
// guarantee at floating-point tie boundaries. 3 * 0.1 > 0.3 and
// 7 * 0.1 > 0.7 in doubles by one ulp, so a naive <= comparison refuses
// the final legitimate release; the deterministic tie rule
// (ComposedBudgetAdmits) must forgive the dust — and still refuse a
// genuine overrun, which is off by a whole epsilon.
TEST(SessionBudgetTest, FloorGuaranteeHoldsAtFpTieBoundaries) {
  auto engine = LaplaceEngine();
  struct Case {
    double budget;
    double epsilon;
    int allowed;
  };
  for (const Case& c :
       {Case{0.3, 0.1, 3}, Case{0.7, 0.1, 7}, Case{0.6, 0.2, 3},
        Case{0.3 + 0.00001, 0.1, 3}, Case{1.2, 0.4, 3}, Case{4.9, 0.7, 7}}) {
    SessionOptions options;
    options.epsilon_budget = c.budget;
    auto session = engine->CreateSession(options);
    for (int k = 0; k < c.allowed; ++k) {
      ASSERT_TRUE(session->Release(QuerySpec::Sum(c.epsilon), kData).ok())
          << "budget " << c.budget << " eps " << c.epsilon << " release " << k;
    }
    const auto refused = session->Release(QuerySpec::Sum(c.epsilon), kData);
    ASSERT_FALSE(refused.ok()) << "budget " << c.budget << " eps " << c.epsilon;
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(session->num_releases(), static_cast<std::size_t>(c.allowed));
  }
  // A genuinely over-budget epsilon is refused at the true floor: eps just
  // above 0.1 fits only twice in 0.3.
  SessionOptions options;
  options.epsilon_budget = 0.3;
  auto session = engine->CreateSession(options);
  const double eps_over = 0.100000001;
  ASSERT_TRUE(session->Release(QuerySpec::Sum(eps_over), kData).ok());
  ASSERT_TRUE(session->Release(QuerySpec::Sum(eps_over), kData).ok());
  EXPECT_EQ(session->Release(QuerySpec::Sum(eps_over), kData).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SessionBudgetTest, RefusedReleaseChargesNothing) {
  auto engine = LaplaceEngine();
  SessionOptions options;
  options.epsilon_budget = 1.0;
  auto session = engine->CreateSession(options);
  ASSERT_TRUE(session->Release(QuerySpec::Sum(1.0), kData).ok());
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(session->Release(QuerySpec::Sum(1.0), kData).status().code(),
              StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(session->num_releases(), 1u);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 1.0);
  EXPECT_DOUBLE_EQ(session->EpsilonRemaining(), 0.0);
}

TEST(SessionBudgetTest, MixedEpsilonsPricedByKTimesMax) {
  auto engine = LaplaceEngine();
  SessionOptions options;
  options.epsilon_budget = 2.5;
  auto session = engine->CreateSession(options);
  ASSERT_TRUE(session->Release(QuerySpec::Sum(1.0), kData).ok());
  ASSERT_TRUE(session->Release(QuerySpec::Sum(0.5), kData).ok());
  // Theorem 4.4 prices K releases at K * max epsilon, so the ledger reads
  // 2 * 1.0, not 1.5.
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 2.0);
  // A third release at 0.5 would compose to 3 * 1.0 = 3.0 > 2.5 even
  // though the naive sum (2.0) fits: refused.
  const auto refused = session->Release(QuerySpec::Sum(0.5), kData);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session->num_releases(), 2u);
}

TEST(SessionBudgetTest, UnmeteredByDefault) {
  auto engine = LaplaceEngine();
  auto session = engine->CreateSession();
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE(session->Release(QuerySpec::Sum(1.0), kData).ok());
  }
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 50.0);
}

TEST(SessionBudgetTest, BudgetExhaustionThroughAsyncSubmit) {
  auto engine = LaplaceEngine();
  SessionOptions options;
  options.epsilon_budget = 3.0;
  auto session = engine->CreateSession(options);
  std::vector<std::future<Result<ReleaseResult>>> futures;
  for (int k = 0; k < 5; ++k) {
    futures.push_back(session->Submit(QuerySpec::Sum(1.0), kData));
  }
  int ok = 0, exhausted = 0;
  for (auto& f : futures) {
    const Result<ReleaseResult> r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      ++exhausted;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(exhausted, 2);
}

// --------------------------------------------------- Theorem 4.4 refusals --

TEST(SessionQuiltTest, SameQuiltComposesAcrossReleases) {
  auto engine =
      PrivacyEngine::Create(ModelSpec::ChainClass({TestChain(0.8, 0.7)}, 50))
          .ValueOrDie();
  Rng rng(3);
  const StateSequence data = TestChain(0.8, 0.7).Sample(50, &rng);
  auto session = engine->CreateSession();
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(session->Release(QuerySpec::Mean(1.0), data).ok());
  }
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 4.0);
}

TEST(SessionQuiltTest, RefusesActiveQuiltMismatch) {
  // At epsilon = 4 a narrow chain quilt is active; at epsilon = 0.001 every
  // nontrivial quilt's influence exceeds epsilon, so the trivial quilt is
  // active. Composing the two would violate the Theorem 4.4 precondition.
  auto engine =
      PrivacyEngine::Create(ModelSpec::ChainClass({TestChain(0.8, 0.7)}, 10))
          .ValueOrDie();
  const auto plan_hi = engine->Compile(QuerySpec::Mean(4.0)).ValueOrDie().plan;
  const auto plan_lo =
      engine->Compile(QuerySpec::Mean(0.001)).ValueOrDie().plan;
  ASSERT_NE(plan_hi->chain.active_quilt.ToString(),
            plan_lo->chain.active_quilt.ToString())
      << "test premise: the two epsilons must pick different active quilts";

  Rng rng(4);
  const StateSequence data = TestChain(0.8, 0.7).Sample(10, &rng);
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Release(QuerySpec::Mean(4.0), data).ok());
  const auto refused = session->Release(QuerySpec::Mean(0.001), data);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status().ToString();
  EXPECT_EQ(session->num_releases(), 1u);

  // A fresh session serves the other epsilon fine.
  auto other = engine->CreateSession();
  EXPECT_TRUE(other->Release(QuerySpec::Mean(0.001), data).ok());
}

// ------------------------------------------------------------ determinism --

std::vector<Vector> RunBatch(std::size_t num_threads, std::uint64_t seed) {
  EngineOptions options;
  options.num_threads = num_threads;
  auto engine =
      PrivacyEngine::Create(ModelSpec::ChainClass({TestChain(0.8, 0.7)}, 200),
                            options)
          .ValueOrDie();
  Rng rng(11);
  std::vector<StateSequence> databases;
  for (int d = 0; d < 6; ++d) {
    databases.push_back(TestChain(0.8, 0.7).Sample(200, &rng));
  }
  SessionOptions session_options;
  session_options.seed = seed;
  auto session = engine->CreateSession(session_options);

  // 120 declarative queries at one epsilon (one shared plan and quilt),
  // cycling shapes and databases.
  std::vector<QuerySpec> specs;
  for (int q = 0; q < 120; ++q) {
    switch (q % 5) {
      case 0: specs.push_back(QuerySpec::Mean(1.0)); break;
      case 1: specs.push_back(QuerySpec::Sum(1.0)); break;
      case 2: specs.push_back(QuerySpec::StateFrequency(q % 2, 1.0)); break;
      case 3: specs.push_back(QuerySpec::FrequencyHistogram(1.0)); break;
      default: specs.push_back(QuerySpec::CountHistogram(1.0)); break;
    }
  }
  std::vector<std::future<Result<ReleaseResult>>> futures;
  for (std::size_t q = 0; q < specs.size(); ++q) {
    futures.push_back(
        session->Submit(specs[q], databases[q % databases.size()]));
  }
  std::vector<Vector> values;
  for (auto& f : futures) {
    Result<ReleaseResult> r = f.get();
    values.push_back(std::move(r).ValueOrDie().value);
  }
  return values;
}

TEST(SessionDeterminismTest, BatchSubmitBitIdenticalAcrossThreadCounts) {
  const std::vector<Vector> serial = RunBatch(/*num_threads=*/1, /*seed=*/42);
  const std::vector<Vector> parallel = RunBatch(/*num_threads=*/8, /*seed=*/42);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size()) << "query " << i;
    for (std::size_t j = 0; j < serial[i].size(); ++j) {
      EXPECT_EQ(serial[i][j], parallel[i][j])  // Bit-identical, not approx.
          << "query " << i << " coordinate " << j;
    }
  }
  // A different seed gives a different noise stream.
  const std::vector<Vector> reseeded = RunBatch(/*num_threads=*/1, /*seed=*/43);
  bool any_difference = false;
  for (std::size_t i = 0; i < serial.size() && !any_difference; ++i) {
    for (std::size_t j = 0; j < serial[i].size(); ++j) {
      if (serial[i][j] != reseeded[i][j]) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

// ---------------------------------------------------------- async plumbing --

TEST(SessionTest, DefaultSessionsGetDistinctNoiseStreams) {
  // Two sessions releasing the same value from the same stream would let
  // an observer cancel the noise; unset seeds must never collide.
  auto engine = LaplaceEngine();
  const ReleaseResult a =
      engine->CreateSession()->Release(QuerySpec::Sum(1.0), kData).ValueOrDie();
  const ReleaseResult b =
      engine->CreateSession()->Release(QuerySpec::Sum(1.0), kData).ValueOrDie();
  EXPECT_NE(a.value[0], b.value[0]);
  // Pinning the seed restores reproducibility.
  SessionOptions pinned;
  pinned.seed = 5;
  const ReleaseResult c =
      engine->CreateSession(pinned)->Release(QuerySpec::Sum(1.0), kData)
          .ValueOrDie();
  const ReleaseResult d =
      engine->CreateSession(pinned)->Release(QuerySpec::Sum(1.0), kData)
          .ValueOrDie();
  EXPECT_EQ(c.value[0], d.value[0]);
}

TEST(SessionTest, InapplicablePlanRefusedWithoutCharging) {
  // GK16 on a wide class analyzes fine but the plan is inapplicable; the
  // session must refuse at charge time, not burn budget on a release that
  // can never produce output.
  const auto cls = BinaryChainIntervalClass::Make(0.1, 0.9).ValueOrDie();
  EngineOptions options;
  options.mechanism = MechanismKind::kGk16;
  auto engine =
      PrivacyEngine::Create(
          ModelSpec::ChainClassFreeInitial(cls.TransitionGrid(0.1), 50),
          options)
          .ValueOrDie();
  SessionOptions session_options;
  session_options.epsilon_budget = 5.0;
  auto session = engine->CreateSession(session_options);
  const StateSequence data(50, 0);
  for (int k = 0; k < 3; ++k) {
    const auto refused = session->Release(QuerySpec::Mean(1.0), data);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(session->num_releases(), 0u);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);
}

TEST(SessionTest, InvalidSpecFailsTheFutureWithoutCharging) {
  auto engine = LaplaceEngine();
  auto session = engine->CreateSession();
  QuerySpec broken;
  broken.kind = QueryKind::kCustomScalar;
  broken.name = "no-body";
  auto future = session->Submit(broken, kData);
  const Result<ReleaseResult> r = future.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session->num_releases(), 0u);
}

TEST(SessionTest, ReleaseResultCarriesAccountingFacts) {
  auto engine = LaplaceEngine();
  auto session = engine->CreateSession();
  const ReleaseResult first =
      session->Release(QuerySpec::Sum(2.0), kData).ValueOrDie();
  EXPECT_EQ(first.mechanism, MechanismKind::kLaplaceDp);
  EXPECT_DOUBLE_EQ(first.epsilon, 2.0);
  EXPECT_DOUBLE_EQ(first.sigma, 0.5);  // sensitivity 1 / epsilon 2.
  EXPECT_EQ(first.ticket, 0u);
  const ReleaseResult second =
      session->Release(QuerySpec::Sum(2.0), kData).ValueOrDie();
  EXPECT_EQ(second.ticket, 1u);
}

// ----------------------------------------------------- sliding windows --

std::unique_ptr<PrivacyEngine> ChainEngine(std::size_t length) {
  return PrivacyEngine::Create(
             ModelSpec::ChainClass({TestChain(0.8, 0.7)}, length))
      .ValueOrDie();
}

TEST(SessionWindowTest, SuffixWindowQueriesTheLastObservations) {
  auto engine = ChainEngine(12);
  SessionOptions options;
  options.seed = 7;
  auto session = engine->CreateSession(options);
  // 12 observations with 7 ones; the last 4 are all ones, so at a huge
  // epsilon (tiny noise) the windowed mean must be ~1 while the full mean
  // is ~7/12.
  const StateSequence data{0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1};
  const double eps = 1e9;
  const ReleaseResult full =
      session->Release(QuerySpec::Mean(eps), data).ValueOrDie();
  const ReleaseResult window =
      session->Release(QuerySpec::Mean(eps), data, DataWindow::Last(4))
          .ValueOrDie();
  EXPECT_NEAR(full.value[0], 7.0 / 12.0, 1e-6);
  EXPECT_NEAR(window.value[0], 1.0, 1e-6);
  // Range windows address any contiguous slice.
  const ReleaseResult range =
      session->Release(QuerySpec::Mean(eps), data, DataWindow::Range(0, 4))
          .ValueOrDie();
  EXPECT_NEAR(range.value[0], 1.0 / 4.0, 1e-6);
  // All three releases ledger together (same plan, same active quilt).
  EXPECT_EQ(session->num_releases(), 3u);
}

TEST(SessionWindowTest, WindowCompilesAtWindowSensitivity) {
  auto engine = ChainEngine(100);
  // The mean over a 10-wide window is (k-1)/10-Lipschitz in each in-window
  // record — 10x the full-record constant; the engine must derive it from
  // the window, or window releases would be under-noised.
  const auto full = engine->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
  const auto windowed = engine->Compile(QuerySpec::Mean(1.0), 10).ValueOrDie();
  EXPECT_DOUBLE_EQ(full.query.lipschitz, 1.0 / 100.0);
  EXPECT_DOUBLE_EQ(windowed.query.lipschitz, 1.0 / 10.0);
  // Same plan serves both (the window changes the query, not the model).
  EXPECT_EQ(full.plan.get(), windowed.plan.get());
}

TEST(SessionWindowTest, WindowKeyCannotCollideWithCustomQueryNames) {
  // Regression: custom query "f" over a 5-observation window and a
  // full-record custom query NAMED "f@w5" are different queries — a compile
  // keyed by name plus a window suffix once served one's body for the
  // other.
  auto engine = ChainEngine(10);
  const auto suffix_named = engine->Compile(
      QuerySpec::CustomScalar("f@w5", [](const StateSequence&) { return 1.0; },
                              /*lipschitz=*/1.0, /*epsilon=*/1.0));
  ASSERT_TRUE(suffix_named.ok());
  const auto windowed = engine->Compile(
      QuerySpec::CustomScalar("f", [](const StateSequence&) { return 2.0; },
                              /*lipschitz=*/1.0, /*epsilon=*/1.0),
      /*window_length=*/5);
  ASSERT_TRUE(windowed.ok());
  const StateSequence data(5, 0);
  EXPECT_DOUBLE_EQ(suffix_named.ValueOrDie().query.fn(data)[0], 1.0);
  EXPECT_DOUBLE_EQ(windowed.ValueOrDie().query.fn(data)[0], 2.0);
}

TEST(SessionWindowTest, InvalidWindowsRefusedWithoutCharging) {
  auto engine = ChainEngine(10);
  SessionOptions options;
  options.epsilon_budget = 5.0;
  auto session = engine->CreateSession(options);
  const StateSequence data(10, 1);
  for (const DataWindow& bad :
       {DataWindow::Last(11), DataWindow::Last(0), DataWindow::Range(10, 1),
        DataWindow::Range(4, 7)}) {
    const auto refused = session->Release(QuerySpec::Mean(1.0), data, bad);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    auto future = session->Submit(QuerySpec::Mean(1.0), data, bad);
    EXPECT_FALSE(future.get().ok());
  }
  EXPECT_EQ(session->num_releases(), 0u);
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);
}

TEST(SessionWindowTest, AsyncWindowSubmitMatchesSyncRelease) {
  auto engine = ChainEngine(20);
  SessionOptions options;
  options.seed = 42;
  const StateSequence data{0, 0, 1, 1, 0, 1, 0, 1, 1, 0,
                           1, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  const ReleaseResult sync =
      engine->CreateSession(options)
          ->Release(QuerySpec::Mean(1.0), data, DataWindow::Last(8))
          .ValueOrDie();
  const ReleaseResult async =
      engine->CreateSession(options)
          ->Submit(QuerySpec::Mean(1.0), data, DataWindow::Last(8))
          .get()
          .ValueOrDie();
  // Same seed, same ticket, same window: bit-identical releases.
  EXPECT_EQ(sync.value[0], async.value[0]);
  EXPECT_EQ(sync.epsilon, async.epsilon);
}

// An explicit DataWindow::All() is the default argument, not a window the
// size of `data`: both compile against the engine's full record length, so
// a database shorter than record_length() releases the same value at the
// same ticket either way (Mean's 1/T is the model's T in both).
TEST(SessionWindowTest, ExplicitAllMatchesDefaultOnShortDatabase) {
  auto engine = ChainEngine(20);
  SessionOptions options;
  options.seed = 9;
  const StateSequence shorter{1, 0, 1, 1, 0, 1, 1, 1};
  ASSERT_LT(shorter.size(), engine->record_length());
  const ReleaseResult implicit_all =
      engine->CreateSession(options)
          ->Release(QuerySpec::Mean(1.0), shorter)
          .ValueOrDie();
  const ReleaseResult explicit_all =
      engine->CreateSession(options)
          ->Release(QuerySpec::Mean(1.0), shorter, DataWindow::All())
          .ValueOrDie();
  EXPECT_EQ(implicit_all.ticket, explicit_all.ticket);
  EXPECT_EQ(implicit_all.value[0], explicit_all.value[0]);
}

}  // namespace
}  // namespace pf
