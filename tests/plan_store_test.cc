// Warm-restart plan snapshots: wire-format round-trips are bit-identical,
// corrupt snapshots are rejected whole, and a restored engine serves cache
// hits / extends appends exactly like the engine that saved them.
#include "pufferfish/plan_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "engine/engine.h"
#include "graphical/bayesian_network.h"
#include "graphical/markov_chain.h"
#include "pufferfish/mechanism.h"

namespace pf {
namespace {

MarkovChain TestChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

// A cache holding one chain plan (exercises active_quilt + MemoryStats),
// one network plan (exercises the per-node QuiltScore vector), and one
// trivial Laplace plan.
AnalysisCache& PopulatedCache() {
  static auto* cache = [] {
    auto* c = new AnalysisCache();
    const MqmExactUnified exact({TestChain(0.8, 0.7)}, 50);
    c->GetOrExtend(exact, 1.0).ValueOrDie();
    const MarkovChain chain = TestChain(0.8, 0.7);
    const MqmGeneralUnified general(
        {BayesianNetwork::FromMarkovChain(chain.initial(), chain.transition(),
                                          8)
             .ValueOrDie()});
    c->GetOrExtend(general, 1.0).ValueOrDie();
    const LaplaceDpUnified laplace(2.0);
    c->GetOrExtend(laplace, 0.5).ValueOrDie();
    return c;
  }();
  return *cache;
}

void ExpectQuiltEq(const MarkovQuilt& got, const MarkovQuilt& want) {
  EXPECT_EQ(got.target, want.target);
  EXPECT_EQ(got.quilt, want.quilt);
  EXPECT_EQ(got.nearby_count, want.nearby_count);
  EXPECT_EQ(got.nearby, want.nearby);
  EXPECT_EQ(got.remote, want.remote);
}

void ExpectPlanBitIdentical(const MechanismPlan& got,
                            const MechanismPlan& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(DoubleBits(got.epsilon), DoubleBits(want.epsilon));
  EXPECT_EQ(DoubleBits(got.sigma), DoubleBits(want.sigma));
  EXPECT_EQ(got.applicable, want.applicable);
  EXPECT_EQ(DoubleBits(got.chain.sigma_max), DoubleBits(want.chain.sigma_max));
  EXPECT_EQ(got.chain.worst_node, want.chain.worst_node);
  ExpectQuiltEq(got.chain.active_quilt, want.chain.active_quilt);
  EXPECT_EQ(DoubleBits(got.chain.influence), DoubleBits(want.chain.influence));
  EXPECT_EQ(got.chain.used_stationary_shortcut,
            want.chain.used_stationary_shortcut);
  EXPECT_EQ(got.chain.total_nodes, want.chain.total_nodes);
  EXPECT_EQ(got.chain.scored_nodes, want.chain.scored_nodes);
  EXPECT_EQ(got.chain.memory.peak_bytes, want.chain.memory.peak_bytes);
  EXPECT_EQ(got.chain.memory.arena_retained_bytes,
            want.chain.memory.arena_retained_bytes);
  EXPECT_EQ(got.chain.memory.mallocs, want.chain.memory.mallocs);
  EXPECT_EQ(DoubleBits(got.mqm.sigma_max), DoubleBits(want.mqm.sigma_max));
  EXPECT_EQ(got.mqm.worst_node, want.mqm.worst_node);
  ASSERT_EQ(got.mqm.active.size(), want.mqm.active.size());
  for (std::size_t i = 0; i < got.mqm.active.size(); ++i) {
    ExpectQuiltEq(got.mqm.active[i].quilt, want.mqm.active[i].quilt);
    EXPECT_EQ(DoubleBits(got.mqm.active[i].influence),
              DoubleBits(want.mqm.active[i].influence));
    EXPECT_EQ(DoubleBits(got.mqm.active[i].score),
              DoubleBits(want.mqm.active[i].score));
  }
  EXPECT_EQ(got.mqm.total_nodes, want.mqm.total_nodes);
  EXPECT_EQ(got.mqm.scored_nodes, want.mqm.scored_nodes);
  EXPECT_EQ(got.mqm.induced_width, want.mqm.induced_width);
  EXPECT_EQ(got.mqm.treewidth_bound, want.mqm.treewidth_bound);
  EXPECT_EQ(DoubleBits(got.gk16.nu), DoubleBits(want.gk16.nu));
  EXPECT_EQ(DoubleBits(got.gk16.spectral_norm),
            DoubleBits(want.gk16.spectral_norm));
  EXPECT_EQ(got.gk16.applicable, want.gk16.applicable);
  EXPECT_EQ(DoubleBits(got.gk16.sigma), DoubleBits(want.gk16.sigma));
  EXPECT_EQ(DoubleBits(got.wasserstein_w), DoubleBits(want.wasserstein_w));
}

TEST(PlanStoreTest, RoundTripIsBitIdentical) {
  const std::vector<CachedPlan> entries = PopulatedCache().ExportPlans();
  ASSERT_EQ(entries.size(), 3u);
  const std::string bytes = EncodePlanSnapshot(entries);
  const std::vector<CachedPlan> decoded =
      DecodePlanSnapshot(bytes).ValueOrDie();
  ASSERT_EQ(decoded.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].fingerprint, entries[i].fingerprint);
    EXPECT_EQ(decoded[i].epsilon_bits, entries[i].epsilon_bits);
    EXPECT_EQ(decoded[i].kind, entries[i].kind);
    ExpectPlanBitIdentical(*decoded[i].plan, *entries[i].plan);
  }
}

TEST(PlanStoreTest, RestoredPlansStartWithFreshHitCounters) {
  const std::vector<CachedPlan> entries = PopulatedCache().ExportPlans();
  const std::vector<CachedPlan> decoded =
      DecodePlanSnapshot(EncodePlanSnapshot(entries)).ValueOrDie();
  for (const CachedPlan& entry : decoded) {
    EXPECT_EQ(entry.plan->cache_hit_count(), 0u);
  }
}

TEST(PlanStoreTest, EmptySnapshotRoundTrips) {
  const std::string bytes = EncodePlanSnapshot({});
  EXPECT_TRUE(DecodePlanSnapshot(bytes).ValueOrDie().empty());
}

TEST(PlanStoreTest, TruncationIsRejected) {
  const std::string bytes = EncodePlanSnapshot(PopulatedCache().ExportPlans());
  // Every proper prefix must fail — never parse to a partial plan set.
  for (const std::size_t len :
       {bytes.size() - 1, bytes.size() - 8, bytes.size() / 2,
        std::size_t{12}, std::size_t{0}}) {
    const auto r = DecodePlanSnapshot(bytes.substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PlanStoreTest, EveryFlippedBitIsRejected) {
  const std::string bytes = EncodePlanSnapshot(PopulatedCache().ExportPlans());
  // Flip one bit at a sample of positions across the whole file (header,
  // payload, checksum); the checksum must catch each one.
  for (std::size_t pos = 0; pos < bytes.size(); pos += 97) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    EXPECT_FALSE(DecodePlanSnapshot(corrupt).ok())
        << "bit flip at byte " << pos << " parsed";
  }
}

// Rewrites the format tag's version digit and re-seals the trailing
// checksum (FNV-1a over every preceding byte), so the file is valid in
// every respect except its version.
std::string WithVersionDigit(std::string bytes, char digit) {
  bytes[7] = digit;
  const std::size_t body_size = bytes.size() - 8;
  std::uint64_t h = 0xCBF29CE484222325u;
  for (std::size_t i = 0; i < body_size; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 0x100000001B3u;
  }
  for (int i = 0; i < 8; ++i) {
    bytes[body_size + i] = static_cast<char>((h >> (8 * i)) & 0xFFu);
  }
  return bytes;
}

TEST(PlanStoreTest, VersionTagMismatchIsRejected) {
  const std::string bytes =
      EncodePlanSnapshot(PopulatedCache().ExportPlans());
  ASSERT_EQ(bytes.substr(0, 8), "PFPLAN02");
  // "PFPLAN09": a future format version. "PFPLAN01": the previous format,
  // whose keys came from an older fingerprint hasher; it must start cold,
  // not import keys that no mechanism matches again.
  for (const char digit : {'9', '1'}) {
    const auto r = DecodePlanSnapshot(WithVersionDigit(bytes, digit));
    ASSERT_FALSE(r.ok()) << "PFPLAN0" << digit << " parsed";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PlanStoreTest, TrailingGarbageIsRejected) {
  std::string bytes = EncodePlanSnapshot(PopulatedCache().ExportPlans());
  bytes.append(8, '\0');
  EXPECT_FALSE(DecodePlanSnapshot(bytes).ok());
}

TEST(PlanStoreTest, SaveLoadFileRoundTripAndOverwrite) {
  const std::string path = testing::TempDir() + "/pf_plan_store_test.snapshot";
  const std::vector<CachedPlan> entries = PopulatedCache().ExportPlans();
  ASSERT_TRUE(SavePlanSnapshot(path, entries).ok());
  EXPECT_EQ(LoadPlanSnapshot(path).ValueOrDie().size(), entries.size());
  // Atomic overwrite: saving a smaller snapshot over the larger one leaves
  // exactly the new contents (no stale tail from the previous file).
  ASSERT_TRUE(SavePlanSnapshot(path, {entries[0]}).ok());
  EXPECT_EQ(LoadPlanSnapshot(path).ValueOrDie().size(), 1u);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, LoadMissingFileIsNotFound) {
  const auto r =
      LoadPlanSnapshot(testing::TempDir() + "/pf_no_such_snapshot.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(PlanStoreTest, ImportSkipsResidentKeysAndNullPlans) {
  const std::vector<CachedPlan> entries = PopulatedCache().ExportPlans();
  AnalysisCache cache;
  EXPECT_EQ(cache.ImportPlans(entries), entries.size());
  // Re-importing the same keys inserts nothing.
  EXPECT_EQ(cache.ImportPlans(entries), 0u);
  CachedPlan null_entry;
  null_entry.fingerprint = 12345;
  EXPECT_EQ(cache.ImportPlans({null_entry}), 0u);
  EXPECT_EQ(cache.size(), entries.size());
}

// ---------------------------------------------------- engine warm restart --

TEST(PlanStoreTest, EngineWarmRestartServesLoadedPlans) {
  const std::string path = testing::TempDir() + "/pf_engine_restart.snapshot";
  const ModelSpec model = ModelSpec::ChainClass({TestChain(0.8, 0.7)}, 60);
  auto saver = PrivacyEngine::Create(model).ValueOrDie();
  const double cold_sigma =
      saver->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma;
  ASSERT_TRUE(saver->SaveAnalyses(path).ok());

  auto restored = PrivacyEngine::Create(model).ValueOrDie();
  EXPECT_GE(restored->LoadAnalyses(path).ValueOrDie(), 1u);
  const double warm_sigma =
      restored->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma;
  EXPECT_EQ(DoubleBits(warm_sigma), DoubleBits(cold_sigma));
  // The compile was a cache hit — the loaded plan served it, no analysis.
  EXPECT_EQ(restored->cache_stats().hits, 1u);
  EXPECT_EQ(restored->cache_stats().misses, 0u);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, CorruptSnapshotLeavesEngineColdButCorrect) {
  const std::string path = testing::TempDir() + "/pf_corrupt.snapshot";
  const ModelSpec model = ModelSpec::ChainClass({TestChain(0.8, 0.7)}, 60);
  auto saver = PrivacyEngine::Create(model).ValueOrDie();
  (void)saver->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
  ASSERT_TRUE(saver->SaveAnalyses(path).ok());
  // Corrupt the file on disk.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    std::fputc(0x5A, f);
    std::fclose(f);
  }
  auto restored = PrivacyEngine::Create(model).ValueOrDie();
  EXPECT_FALSE(restored->LoadAnalyses(path).ok());  // Rejected whole...
  const auto compiled = restored->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
  // ...and the engine falls back to a cold analysis with the same answer.
  EXPECT_EQ(DoubleBits(compiled.plan->sigma),
            DoubleBits(saver->Compile(QuerySpec::Mean(1.0))
                           .ValueOrDie()
                           .plan->sigma));
  EXPECT_EQ(restored->cache_stats().misses, 1u);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, PreviousFormatSnapshotLeavesEngineColdButCorrect) {
  const std::string path = testing::TempDir() + "/pf_old_format.snapshot";
  const ModelSpec model = ModelSpec::ChainClass({TestChain(0.8, 0.7)}, 60);
  auto saver = PrivacyEngine::Create(model).ValueOrDie();
  const double cold_sigma =
      saver->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma;
  ASSERT_TRUE(saver->SaveAnalyses(path).ok());
  // Re-tag the saved file as the previous format, checksum intact.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(bytes.empty());
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << WithVersionDigit(bytes, '1');
  auto restored = PrivacyEngine::Create(model).ValueOrDie();
  const Result<std::size_t> loaded = restored->LoadAnalyses(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("warm-restart load"),
            std::string::npos)
      << loaded.status().ToString();
  const double sigma =
      restored->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma;
  EXPECT_EQ(DoubleBits(sigma), DoubleBits(cold_sigma));
  EXPECT_EQ(restored->cache_stats().hits, 0u);
  EXPECT_EQ(restored->cache_stats().misses, 1u);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, LoadThenAppendContinuesBitIdenticallyToCold) {
  const std::string path = testing::TempDir() + "/pf_append.snapshot";
  const std::vector<MarkovChain> thetas{TestChain(0.8, 0.7)};
  auto saver =
      PrivacyEngine::Create(ModelSpec::ChainClass(thetas, 60)).ValueOrDie();
  (void)saver->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
  ASSERT_TRUE(saver->SaveAnalyses(path).ok());

  // Restart, restore, and keep appending: the first append re-seeds the
  // resumable analysis cold (scan state is not persisted), later appends
  // extend it incrementally.
  auto restored =
      PrivacyEngine::Create(ModelSpec::ChainClass(thetas, 60)).ValueOrDie();
  ASSERT_GE(restored->LoadAnalyses(path).ValueOrDie(), 1u);
  ASSERT_TRUE(restored->AppendObservations(5).ok());
  const double at65 =
      restored->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma;
  ASSERT_TRUE(restored->AppendObservations(5).ok());
  const double at70 =
      restored->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma;
  EXPECT_GE(restored->cache_stats().extensions, 1u);

  // Cold references at the appended lengths.
  auto cold65 =
      PrivacyEngine::Create(ModelSpec::ChainClass(thetas, 65)).ValueOrDie();
  auto cold70 =
      PrivacyEngine::Create(ModelSpec::ChainClass(thetas, 70)).ValueOrDie();
  EXPECT_EQ(DoubleBits(at65),
            DoubleBits(
                cold65->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma));
  EXPECT_EQ(DoubleBits(at70),
            DoubleBits(
                cold70->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pf
