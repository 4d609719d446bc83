// Crash-safe persistence torture: every failure injected into the plan
// snapshot save path (open, short write, flush, fsync, simulated kill
// before rename, rename, directory sync) must leave the PREVIOUS snapshot
// readable and intact — never a torn or half-written file — and surface as
// a typed Status the caller can retry. Load-side injections surface typed
// errors and the engine falls back to a cold start with full context
// chained into one message.
//
// The injection tests require -DPF_FAILPOINTS=ON and skip otherwise; the
// context-chaining test at the bottom corrupts a real file and runs in
// every build.
#include "pufferfish/plan_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "common/failpoint.h"
#include "engine/engine.h"
#include "graphical/markov_chain.h"
#include "pufferfish/mechanism.h"

namespace pf {
namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

MarkovChain TortureChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

/// Snapshot contents distinguishable by entry count: the old snapshot has
/// one plan, the new one two — so "which snapshot survived?" is one size
/// check.
std::vector<CachedPlan> MakeEntries(std::size_t count) {
  AnalysisCache cache;
  const LaplaceDpUnified laplace(2.0);
  for (std::size_t i = 0; i < count; ++i) {
    const double epsilon = 0.5 + 0.25 * static_cast<double>(i);
    (void)cache.GetOrExtend(laplace, epsilon).ValueOrDie();
  }
  return cache.ExportPlans();
}

class PlanStoreTortureTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!kFailpointsEnabled) {
      GTEST_SKIP() << "build without PF_FAILPOINTS; nothing to inject";
    }
    FailpointRegistry::Instance().DisarmAll();
    path_ = testing::TempDir() + "/pf_torture.snapshot";
    tmp_ = path_ + ".tmp";
    std::remove(path_.c_str());
    std::remove(tmp_.c_str());
  }
  void TearDown() override {
    if (kFailpointsEnabled) FailpointRegistry::Instance().DisarmAll();
    std::remove(path_.c_str());
    std::remove(tmp_.c_str());
  }

  std::string path_;
  std::string tmp_;
};

// Every save-side failure mode: the published snapshot is untouched, the
// temp file is cleaned up, the error is typed, and a clean retry lands the
// new snapshot. (The fsync/sync_dir entries double as the durability
// regression test: if the fsync calls were ever dropped from the save
// path, their failpoints would stop firing and this test would fail.)
TEST_F(PlanStoreTortureTest, SaveFailuresLeaveOldSnapshotIntact) {
  auto& reg = FailpointRegistry::Instance();
  const std::vector<CachedPlan> old_entries = MakeEntries(1);
  const std::vector<CachedPlan> new_entries = MakeEntries(2);

  const char* const kSaveSites[] = {
      "plan_store.open", "plan_store.write",  "plan_store.flush",
      "plan_store.sync", "plan_store.rename", "plan_store.sync_dir",
  };
  for (const char* site : kSaveSites) {
    SCOPED_TRACE(site);
    ASSERT_TRUE(SavePlanSnapshot(path_, old_entries).ok());

    reg.DisarmAll();
    reg.ArmOnce(site);
    const Status st = SavePlanSnapshot(path_, new_entries);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(reg.Fires(site), 1u) << "site not on the save path";
    EXPECT_FALSE(st.message().empty());

    if (std::string(site) == "plan_store.sync_dir") {
      // The rename already landed when the directory sync failed: the NEW
      // snapshot is on disk (correct content, durability not yet
      // guaranteed) — what must never exist is a torn file.
      EXPECT_EQ(LoadPlanSnapshot(path_).ValueOrDie().size(),
                new_entries.size());
    } else {
      // Failure before the rename: the old snapshot is still published...
      EXPECT_EQ(LoadPlanSnapshot(path_).ValueOrDie().size(),
                old_entries.size());
    }
    // ...and no temp file is left behind.
    EXPECT_FALSE(FileExists(tmp_)) << "leaked temp file";

    // The failure was transient: the retry publishes the new snapshot.
    reg.DisarmAll();
    ASSERT_TRUE(SavePlanSnapshot(path_, new_entries).ok());
    EXPECT_EQ(LoadPlanSnapshot(path_).ValueOrDie().size(), new_entries.size());
  }
}

// Simulated kill between the durable temp write and the rename: the old
// snapshot is still published and readable; the temp file left behind (as
// a real crash would leave it) holds a complete, valid copy of the new
// snapshot — fsync'd before the crash point — so no partially-written
// bytes exist anywhere.
TEST_F(PlanStoreTortureTest, CrashBeforeRenameLeavesOldSnapshotPublished) {
  auto& reg = FailpointRegistry::Instance();
  const std::vector<CachedPlan> old_entries = MakeEntries(1);
  const std::vector<CachedPlan> new_entries = MakeEntries(2);
  ASSERT_TRUE(SavePlanSnapshot(path_, old_entries).ok());

  reg.ArmOnce("plan_store.crash_before_rename");
  ASSERT_FALSE(SavePlanSnapshot(path_, new_entries).ok());
  EXPECT_EQ(reg.Fires("plan_store.crash_before_rename"), 1u);

  EXPECT_EQ(LoadPlanSnapshot(path_).ValueOrDie().size(), old_entries.size());
  ASSERT_TRUE(FileExists(tmp_)) << "the simulated kill should leave the tmp";
  EXPECT_EQ(LoadPlanSnapshot(tmp_).ValueOrDie().size(), new_entries.size())
      << "tmp must be a complete valid snapshot (it was fsync'd)";
}

TEST_F(PlanStoreTortureTest, LoadFailuresAreTypedAndRecoverable) {
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(SavePlanSnapshot(path_, MakeEntries(2)).ok());
  for (const char* site : {"plan_store.load.open", "plan_store.load.read"}) {
    SCOPED_TRACE(site);
    reg.DisarmAll();
    reg.ArmOnce(site);
    const auto loaded = LoadPlanSnapshot(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(reg.Fires(site), 1u);
    reg.DisarmAll();
    EXPECT_EQ(LoadPlanSnapshot(path_).ValueOrDie().size(), 2u);
  }
}

// Engine-level: a failed warm-restart load surfaces one context-chained
// error and the engine then serves cold with the exact same answers.
TEST_F(PlanStoreTortureTest, EngineFallsBackColdAfterInjectedLoadFailure) {
  auto& reg = FailpointRegistry::Instance();
  const ModelSpec model = ModelSpec::ChainClass({TortureChain(0.8, 0.7)}, 40);
  auto saver = PrivacyEngine::Create(model).ValueOrDie();
  const double cold_sigma =
      saver->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma;
  ASSERT_TRUE(saver->SaveAnalyses(path_).ok());

  auto restored = PrivacyEngine::Create(model).ValueOrDie();
  reg.ArmOnce("plan_store.load.open");
  const auto loaded = restored->LoadAnalyses(path_);
  ASSERT_FALSE(loaded.ok());
  // Context chains from the engine layer down to the injection.
  EXPECT_NE(loaded.status().message().find("warm-restart load"),
            std::string::npos)
      << loaded.status().ToString();

  // Cold fallback: same sigma, one cache miss, no crash.
  EXPECT_EQ(restored->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma,
            cold_sigma);
}

// ------------------------------------------------ context chain (no FP) ----

// The error-context chain pinned end to end in every build: a corrupt
// snapshot travels plan_store -> LoadAnalyses as ONE message carrying both
// the engine-layer context and the root cause.
TEST(PlanStoreContextTest, WarmRestartLoadChainsContextToRootCause) {
  const std::string path = testing::TempDir() + "/pf_context.snapshot";
  const ModelSpec model = ModelSpec::ChainClass({TortureChain(0.8, 0.7)}, 40);
  auto saver = PrivacyEngine::Create(model).ValueOrDie();
  (void)saver->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
  ASSERT_TRUE(saver->SaveAnalyses(path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 24, SEEK_SET);
    const int original = std::fgetc(f);
    ASSERT_NE(original, EOF);
    std::fseek(f, 24, SEEK_SET);
    std::fputc(original ^ 0x7E, f);  // Flip bits so corruption is certain.
    std::fclose(f);
  }
  auto restored = PrivacyEngine::Create(model).ValueOrDie();
  const auto loaded = restored->LoadAnalyses(path);
  ASSERT_FALSE(loaded.ok());
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("warm-restart load"), std::string::npos) << message;
  EXPECT_NE(message.find("plan snapshot"), std::string::npos) << message;
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pf
