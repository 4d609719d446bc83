// The failpoint sweep: enumerate every registered injection site in the
// serving stack, fire each one, and prove the failure surfaces as a typed
// non-OK Status — never a crash, never a torn artifact, never a budget
// debit from a pre-charge refusal. The CI `failpoints` leg runs this file
// under ASan and TSan, which upgrades "no crash" to "no leak, no race".
//
// Requires -DPF_FAILPOINTS=ON; in normal builds every test skips (the
// sites compile to nothing, so there is nothing to sweep).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "engine/engine.h"
#include "graphical/markov_chain.h"

namespace pf {
namespace {

MarkovChain SweepChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

// Every injection site the serving stack declares. The warm-up workload
// must traverse each of these; the sweep asserts the list against
// Registered() so a renamed or dropped site fails loudly here instead of
// silently shrinking coverage.
const char* const kServingSites[] = {
    "analysis_cache.analyze",
    "analysis_cache.extend",
    "batch.execute",
    "engine.compile",
    "engine.load_analyses",
    "plan_store.crash_before_rename",
    "plan_store.flush",
    "plan_store.load.open",
    "plan_store.load.read",
    "plan_store.open",
    "plan_store.rename",
    "plan_store.sync",
    "plan_store.sync_dir",
    "plan_store.write",
    "session.charge",
};

/// One full pass over the serving surface: cold compile + async release,
/// append + extension, snapshot save, warm-restart load. Returns every
/// Status the pass produced; with a site armed some of them are non-OK,
/// and the caller asserts that is ALL that happens (typed errors, no
/// crash). Paths are namespaced by `tag` so concurrent workloads never
/// collide on disk.
std::vector<Status> ServingWorkload(const std::string& tag) {
  std::vector<Status> statuses;
  const std::string path =
      testing::TempDir() + "/pf_sweep_" + tag + ".snapshot";
  const ModelSpec model = ModelSpec::ChainClass({SweepChain(0.8, 0.7)}, 40);

  auto engine_or = PrivacyEngine::Create(model);
  if (!engine_or.ok()) {
    statuses.push_back(engine_or.status());
    return statuses;
  }
  auto engine = std::move(engine_or).value();

  // Cold compile + async release through a session (covers engine.compile,
  // analysis_cache.analyze, session.charge, batch.execute — the one execute
  // body every release runs).
  SessionOptions session_options;
  session_options.seed = 7;
  auto session = engine->CreateSession(session_options);
  const StateSequence data(40, 1);
  auto future = session->Submit(QuerySpec::Mean(1.0), data);
  statuses.push_back(future.get().status());

  // Append + recompile (covers analysis_cache.extend).
  statuses.push_back(engine->AppendObservations(4));
  statuses.push_back(engine->Compile(QuerySpec::Mean(1.0)).status());

  // Snapshot save (covers the plan_store save-side sites).
  statuses.push_back(engine->SaveAnalyses(path));

  // Warm restart (covers engine.load_analyses + the load-side sites).
  auto restored_or = PrivacyEngine::Create(model);
  if (restored_or.ok()) {
    statuses.push_back(std::move(restored_or).value()
                           ->LoadAnalyses(path)
                           .status());
  } else {
    statuses.push_back(restored_or.status());
  }

  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return statuses;
}

class FailpointSweepTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!kFailpointsEnabled) {
      GTEST_SKIP() << "build without PF_FAILPOINTS; no sites to sweep";
    }
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

TEST_F(FailpointSweepTest, CleanWorkloadRegistersEveryServingSite) {
  for (const Status& st : ServingWorkload("warmup")) {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  const std::vector<std::string> registered =
      FailpointRegistry::Instance().Registered();
  const std::set<std::string> have(registered.begin(), registered.end());
  for (const char* site : kServingSites) {
    EXPECT_TRUE(have.count(site))
        << "site " << site << " was never evaluated by the sweep workload";
  }
}

// Fire every site exactly once: each armed site must (a) be reached by the
// workload, (b) surface at least one typed non-OK Status at an API
// boundary, and (c) leave the process healthy enough that a clean re-run
// succeeds end to end afterwards.
TEST_F(FailpointSweepTest, EveryRegisteredSiteFiresToTypedStatus) {
  auto& reg = FailpointRegistry::Instance();
  // Register the full site list first.
  for (const Status& st : ServingWorkload("register")) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  for (const std::string& site : reg.Registered()) {
    reg.DisarmAll();
    reg.ArmOnce(site);
    const std::vector<Status> statuses = ServingWorkload("once_" + site);
    EXPECT_EQ(reg.Fires(site), 1u) << "site " << site << " was not reached";
    int non_ok = 0;
    for (const Status& st : statuses) {
      if (!st.ok()) {
        ++non_ok;
        EXPECT_NE(st.code(), StatusCode::kOk);
        EXPECT_FALSE(st.message().empty());
      }
    }
    EXPECT_GE(non_ok, 1) << "site " << site
                         << " fired but no API surfaced an error";
    // The failure was transient injection: a clean pass must fully recover.
    reg.DisarmAll();
    for (const Status& st : ServingWorkload("recover_" + site)) {
      EXPECT_TRUE(st.ok()) << "after " << site << ": " << st.ToString();
    }
  }
}

// The acceptance sweep: every site armed at p = 0.5 simultaneously while 8
// threads run independent serving workloads. Every operation either
// succeeds or returns a typed error; under the CI sanitizers this also
// proves no leak (ASan: error paths free everything) and no race (TSan:
// concurrent Evaluate + serving).
TEST_F(FailpointSweepTest, ProbabilisticSweepUnderEightThreads) {
  auto& reg = FailpointRegistry::Instance();
  for (const Status& st : ServingWorkload("prob_register")) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  std::uint64_t seed = 1234;
  for (const std::string& site : reg.Registered()) {
    reg.ArmProbability(site, 0.5, seed++);
  }
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<Status> statuses = ServingWorkload(
            "prob_t" + std::to_string(t) + "_r" + std::to_string(round));
        for (const Status& st : statuses) {
          if (!st.ok()) {
            EXPECT_NE(st.code(), StatusCode::kOk);
            EXPECT_FALSE(st.message().empty());
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  reg.DisarmAll();
  // Recovery: with injection off, serving is clean again.
  for (const Status& st : ServingWorkload("prob_recover")) {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

// A pre-charge injected refusal (session.charge) must never debit the
// session's epsilon ledger — the permit/charge ordering contract — on
// either the async or the synchronous path (one charge function serves
// both).
TEST_F(FailpointSweepTest, InjectedChargeRefusalNeverDebitsBudget) {
  auto& reg = FailpointRegistry::Instance();
  const ModelSpec model = ModelSpec::ChainClass({SweepChain(0.8, 0.7)}, 40);
  auto engine = PrivacyEngine::Create(model).ValueOrDie();
  SessionOptions options;
  options.epsilon_budget = 10.0;
  auto session = engine->CreateSession(options);
  const StateSequence data(40, 1);

  reg.ArmOnce("session.charge");
  auto refused = session->Submit(QuerySpec::Sum(1.0), data);
  EXPECT_FALSE(refused.get().ok());
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);
  EXPECT_EQ(session->num_releases(), 0u);
  EXPECT_EQ(engine->executor().queue_depth(), 0u)
      << "refusal must return its permit";

  reg.ArmOnce("session.charge");
  EXPECT_FALSE(session->Release(QuerySpec::Sum(1.0), data).ok());
  EXPECT_DOUBLE_EQ(session->EpsilonSpent(), 0.0);
  EXPECT_EQ(session->num_releases(), 0u);

  // And the very next release, with the injection spent, serves normally.
  auto served = session->Submit(QuerySpec::Sum(1.0), data);
  EXPECT_TRUE(served.get().ok());
  EXPECT_GT(session->EpsilonSpent(), 0.0);
}

}  // namespace
}  // namespace pf
