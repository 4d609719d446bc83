// AnalysisCache: identical (model, epsilon, quilt-width) requests hit the
// cached plan and skip re-analysis; any change in the key re-analyzes.
#include "pufferfish/analysis_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "graphical/markov_chain.h"

namespace pf {
namespace {

MarkovChain TestChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

TEST(AnalysisCacheTest, SecondAnalyzeWithIdenticalInputsIsCached) {
  AnalysisCache cache;
  const MqmExactUnified mechanism({TestChain(0.8, 0.7)}, 100);
  const auto first = cache.GetOrExtend(mechanism, 1.0).ValueOrDie();
  EXPECT_EQ(first->cache_hit_count(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const auto second = cache.GetOrExtend(mechanism, 1.0).ValueOrDie();
  // Same shared plan object, not a recomputation.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(second->cache_hit_count(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(AnalysisCacheTest, EquivalentMechanismObjectHitsToo) {
  // A *different* object over a bit-identical model shares the fingerprint.
  AnalysisCache cache;
  const MqmExactUnified a({TestChain(0.8, 0.7)}, 100);
  const MqmExactUnified b({TestChain(0.8, 0.7)}, 100);
  const auto plan_a = cache.GetOrExtend(a, 1.0).ValueOrDie();
  const auto plan_b = cache.GetOrExtend(b, 1.0).ValueOrDie();
  EXPECT_EQ(plan_a.get(), plan_b.get());
  EXPECT_EQ(plan_b->cache_hit_count(), 1u);
}

TEST(AnalysisCacheTest, DifferentEpsilonMisses) {
  AnalysisCache cache;
  const MqmExactUnified mechanism({TestChain(0.8, 0.7)}, 100);
  const auto eps1 = cache.GetOrExtend(mechanism, 1.0).ValueOrDie();
  const auto eps2 = cache.GetOrExtend(mechanism, 2.0).ValueOrDie();
  EXPECT_NE(eps1.get(), eps2.get());
  EXPECT_GT(eps1->sigma, eps2->sigma);  // Less privacy, less noise.
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(AnalysisCacheTest, DifferentModelOrWidthMisses) {
  AnalysisCache cache;
  const MqmExactUnified base({TestChain(0.8, 0.7)}, 100);
  const MqmExactUnified other_model({TestChain(0.8, 0.6)}, 100);
  ChainUnifiedOptions narrow;
  narrow.max_nearby = 4;
  const MqmExactUnified other_width({TestChain(0.8, 0.7)}, 100, narrow);
  (void)cache.GetOrExtend(base, 1.0).ValueOrDie();
  (void)cache.GetOrExtend(other_model, 1.0).ValueOrDie();
  (void)cache.GetOrExtend(other_width, 1.0).ValueOrDie();
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(AnalysisCacheTest, FailedAnalysisIsNotCached) {
  AnalysisCache cache;
  const LaplaceDpUnified bad(-1.0);  // Invalid sensitivity: Analyze fails.
  EXPECT_FALSE(cache.GetOrExtend(bad, 1.0).ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AnalysisCacheTest, ClearResetsEverything) {
  AnalysisCache cache;
  const LaplaceDpUnified mechanism(1.0);
  (void)cache.GetOrExtend(mechanism, 1.0).ValueOrDie();
  (void)cache.GetOrExtend(mechanism, 1.0).ValueOrDie();
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(AnalysisCacheTest, BoundedCacheEvictsOldestFirst) {
  AnalysisCache cache(/*max_entries=*/2);
  const LaplaceDpUnified mechanism(1.0);
  (void)cache.GetOrExtend(mechanism, 1.0).ValueOrDie();
  (void)cache.GetOrExtend(mechanism, 2.0).ValueOrDie();
  (void)cache.GetOrExtend(mechanism, 3.0).ValueOrDie();  // Evicts eps=1.
  EXPECT_EQ(cache.size(), 2u);
  const auto again = cache.GetOrExtend(mechanism, 1.0).ValueOrDie();
  EXPECT_EQ(again->cache_hit_count(), 0u);  // Re-analyzed, not served warm.
  const auto newest = cache.GetOrExtend(mechanism, 3.0).ValueOrDie();
  EXPECT_EQ(newest->cache_hit_count(), 1u);  // eps=3 survived eviction.
}

TEST(AnalysisCacheTest, ConcurrentGetOrExtendServesOnePlan) {
  AnalysisCache cache;
  const MqmExactUnified mechanism({TestChain(0.9, 0.8)}, 50);
  std::vector<std::shared_ptr<const MechanismPlan>> plans(8);
  {
    std::vector<std::thread> threads;
    threads.reserve(plans.size());
    for (std::size_t t = 0; t < plans.size(); ++t) {
      threads.emplace_back([&, t] {
        plans[t] = cache.GetOrExtend(mechanism, 1.0).ValueOrDie();
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(cache.size(), 1u);
  for (const auto& plan : plans) {
    ASSERT_NE(plan, nullptr);
    EXPECT_DOUBLE_EQ(plan->sigma, plans[0]->sigma);
  }
}

// ------------------------------------------- prefix-fingerprint chaining --

void ExpectPlansBitIdentical(const MechanismPlan& got,
                             const MechanismPlan& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.epsilon, want.epsilon);
  EXPECT_EQ(got.sigma, want.sigma);
  EXPECT_EQ(got.applicable, want.applicable);
  EXPECT_EQ(got.chain.sigma_max, want.chain.sigma_max);
  EXPECT_EQ(got.chain.worst_node, want.chain.worst_node);
  EXPECT_EQ(got.chain.influence, want.chain.influence);
  EXPECT_EQ(got.chain.active_quilt.quilt, want.chain.active_quilt.quilt);
  EXPECT_EQ(got.chain.scored_nodes, want.chain.scored_nodes);
  EXPECT_EQ(got.chain.memory.peak_bytes, want.chain.memory.peak_bytes);
}

TEST(AnalysisCacheTest, GetOrExtendChainsPlansAcrossLengths) {
  AnalysisCache cache;
  const MqmExactUnified at100({TestChain(0.8, 0.7)}, 100);
  const MqmExactUnified at130({TestChain(0.8, 0.7)}, 130);
  EXPECT_NE(at100.Fingerprint(), at130.Fingerprint());
  EXPECT_EQ(at100.PrefixFingerprint(), at130.PrefixFingerprint());

  const auto short_plan = cache.GetOrExtend(at100, 1.0).ValueOrDie();
  EXPECT_EQ(cache.stats().extensions, 0u);  // Cold seed, nothing to extend.
  const auto long_plan = cache.GetOrExtend(at130, 1.0).ValueOrDie();
  EXPECT_EQ(cache.stats().extensions, 1u);  // Extended 100 -> 130.
  EXPECT_NE(short_plan.get(), long_plan.get());

  // The extended plan is bit-identical to a cold analysis at 130.
  const MechanismPlan cold = at130.Analyze(1.0).ValueOrDie();
  ExpectPlansBitIdentical(*long_plan, cold);

  // The exact key is now warm: repeating is a plain hit, no new extension.
  const auto again = cache.GetOrExtend(at130, 1.0).ValueOrDie();
  EXPECT_EQ(again.get(), long_plan.get());
  EXPECT_EQ(cache.stats().extensions, 1u);
}

TEST(AnalysisCacheTest, GetOrExtendChainedAppendsStayIdentical) {
  AnalysisCache cache;
  double prev_sigma = 0.0;
  for (std::size_t t : {std::size_t{50}, std::size_t{51}, std::size_t{60},
                        std::size_t{200}}) {
    const MqmExactUnified mech({TestChain(0.9, 0.6)}, t);
    const auto plan = cache.GetOrExtend(mech, 1.0).ValueOrDie();
    ExpectPlansBitIdentical(*plan, mech.Analyze(1.0).ValueOrDie());
    prev_sigma = plan->sigma;
  }
  EXPECT_GT(prev_sigma, 0.0);
  EXPECT_EQ(cache.stats().extensions, 3u);
}

TEST(AnalysisCacheTest, GetOrExtendFreeInitialAndFallbacks) {
  AnalysisCache cache;
  const Matrix p{{0.85, 0.15}, {0.25, 0.75}};
  const MqmExactFreeInitialUnified at80({p}, 80);
  const MqmExactFreeInitialUnified at95({p}, 95);
  (void)cache.GetOrExtend(at80, 1.0).ValueOrDie();
  const auto extended = cache.GetOrExtend(at95, 1.0).ValueOrDie();
  EXPECT_EQ(cache.stats().extensions, 1u);
  ExpectPlansBitIdentical(*extended, at95.Analyze(1.0).ValueOrDie());

  // Shrinking re-seeds cold (analyses only extend forward) but still
  // serves a correct plan.
  const MqmExactFreeInitialUnified at60({p}, 60);
  const auto shrunk = cache.GetOrExtend(at60, 1.0).ValueOrDie();
  ExpectPlansBitIdentical(*shrunk, at60.Analyze(1.0).ValueOrDie());
  EXPECT_EQ(cache.stats().extensions, 1u);

  // Mechanisms without resumable analyses degrade to a cold Analyze.
  const LaplaceDpUnified laplace(1.0);
  EXPECT_EQ(laplace.PrefixFingerprint(), 0u);
  const auto a = cache.GetOrExtend(laplace, 1.0).ValueOrDie();
  const auto b = cache.GetOrExtend(laplace, 1.0).ValueOrDie();
  EXPECT_EQ(a.get(), b.get());
}

// Counts the cache-key hashes a lookup derives.
template <typename Base>
class CountingMechanism : public Base {
 public:
  using Base::Base;
  std::uint64_t Fingerprint() const override {
    ++fingerprints;
    return Base::Fingerprint();
  }
  std::uint64_t PrefixFingerprint() const override {
    ++prefixes;
    return Base::PrefixFingerprint();
  }
  mutable int fingerprints = 0;
  mutable int prefixes = 0;
};

TEST(AnalysisCacheTest, GetOrExtendHashesTheModelOncePerKey) {
  AnalysisCache cache;
  // An exact hit never derives the prefix fingerprint.
  const CountingMechanism<MqmExactUnified> chain(
      std::vector<MarkovChain>{TestChain(0.8, 0.7)}, 100);
  (void)cache.GetOrExtend(chain, 1.0).ValueOrDie();
  EXPECT_EQ(chain.fingerprints, 1);
  EXPECT_EQ(chain.prefixes, 1);
  (void)cache.GetOrExtend(chain, 1.0).ValueOrDie();
  EXPECT_EQ(chain.fingerprints, 2);
  EXPECT_EQ(chain.prefixes, 1);
  // A mechanism without a prefix fingerprint probes the exact key once on
  // a miss, not once more on its way to the cold analysis.
  const CountingMechanism<LaplaceDpUnified> laplace(1.0);
  (void)cache.GetOrExtend(laplace, 1.0).ValueOrDie();
  EXPECT_EQ(laplace.fingerprints, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(AnalysisCacheTest, ConcurrentHitsCountExactly) {
  // The hit path bumps the per-plan counter and the stats outside the
  // cache mutex (relaxed atomics); nothing may be lost or double-counted.
  AnalysisCache cache;
  const LaplaceDpUnified mechanism(1.0);
  (void)cache.GetOrExtend(mechanism, 1.0).ValueOrDie();  // Warm: one miss.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kHitsPerThread = 500;
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = 0; i < kHitsPerThread; ++i) {
          (void)cache.GetOrExtend(mechanism, 1.0).ValueOrDie();
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  const auto plan = cache.GetOrExtend(mechanism, 1.0).ValueOrDie();
  EXPECT_EQ(plan->cache_hit_count(), kThreads * kHitsPerThread + 1);
  EXPECT_EQ(cache.stats().hits, kThreads * kHitsPerThread + 1);
  EXPECT_EQ(cache.stats().misses, 1u);
}

}  // namespace
}  // namespace pf
