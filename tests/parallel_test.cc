// ThreadPool correctness and the determinism contract of the parallel
// analyses: sigma_max and seeded releases are bit-identical for 1, 2, and 8
// threads.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "graphical/markov_chain.h"
#include "pufferfish/markov_quilt_mechanism.h"
#include "pufferfish/mechanism.h"
#include "pufferfish/mqm_exact.h"

namespace pf {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(counts.size(), [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossLoops) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> slot(64, 0);
    pool.ParallelFor(slot.size(), [&](std::size_t i) {
      slot[i] = static_cast<int>(i) + round;
    });
    for (std::size_t i = 0; i < slot.size(); ++i) {
      ASSERT_EQ(slot[i], static_cast<int>(i) + round);
    }
  }
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  // The library-wide num_threads convention: 0 resolves to the hardware
  // thread count (>= 1), never to a serial pool by accident.
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  EXPECT_EQ(pool.num_threads(), ResolveThreadCount(0));
  EXPECT_EQ(ResolveThreadCount(3), 3u);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int sum = 0;  // Not atomic: inline execution means no data race.
  pool.ParallelFor(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [&](std::size_t) { FAIL() << "must not run"; });
}

MarkovChain TestChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

std::vector<BayesianNetwork> TestNetworks() {
  const MarkovChain a = TestChain(0.8, 0.7);
  const MarkovChain b = TestChain(0.75, 0.65);
  return {
      BayesianNetwork::FromMarkovChain(a.initial(), a.transition(), 7)
          .ValueOrDie(),
      BayesianNetwork::FromMarkovChain(b.initial(), b.transition(), 7)
          .ValueOrDie(),
  };
}

// The acceptance contract: AnalyzeMarkovQuiltMechanism returns identical
// sigma_max — and identical seeded releases — for 1, 2, and 8 threads.
TEST(DeterminismTest, GeneralMqmAcrossThreadCounts) {
  const std::vector<BayesianNetwork> thetas = TestNetworks();
  std::vector<MechanismPlan> plans;
  for (std::size_t threads : {1u, 2u, 8u}) {
    MqmAnalyzeOptions options;
    options.max_quilt_size = 2;
    options.num_threads = threads;
    plans.push_back(
        MqmGeneralUnified(thetas, options).Analyze(1.0).ValueOrDie());
  }
  const MqmAnalysis& first = plans[0].mqm;
  for (std::size_t i = 1; i < plans.size(); ++i) {
    const MqmAnalysis& analysis = plans[i].mqm;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(analysis.sigma_max, first.sigma_max);
    EXPECT_EQ(analysis.worst_node, first.worst_node);
    ASSERT_EQ(analysis.active.size(), first.active.size());
    for (std::size_t node = 0; node < first.active.size(); ++node) {
      EXPECT_EQ(analysis.active[node].score, first.active[node].score);
      EXPECT_EQ(analysis.active[node].quilt.quilt,
                first.active[node].quilt.quilt);
    }
  }
  // Identical plans + identical seed => identical noisy releases.
  std::vector<double> releases;
  for (const MechanismPlan& plan : plans) {
    Rng rng(2024);
    releases.push_back(ReleaseVector(plan, {3.5}, 1.0, &rng).ValueOrDie()[0]);
  }
  EXPECT_EQ(releases[0], releases[1]);
  EXPECT_EQ(releases[0], releases[2]);
}

TEST(DeterminismTest, MqmExactAcrossThreadCounts) {
  const std::vector<MarkovChain> thetas = {TestChain(0.8, 0.7),
                                           TestChain(0.9, 0.55)};
  std::vector<MechanismPlan> plans;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ChainUnifiedOptions options;
    options.num_threads = threads;
    options.allow_stationary_shortcut = false;  // Force the full node scan.
    plans.push_back(
        MqmExactUnified(thetas, 200, options).Analyze(1.0).ValueOrDie());
  }
  const ChainMqmResult& first = plans[0].chain;
  for (std::size_t i = 1; i < plans.size(); ++i) {
    const ChainMqmResult& r = plans[i].chain;
    EXPECT_EQ(r.sigma_max, first.sigma_max);
    EXPECT_EQ(r.worst_node, first.worst_node);
    EXPECT_EQ(r.influence, first.influence);
    EXPECT_EQ(r.active_quilt.quilt, first.active_quilt.quilt);
  }
  std::vector<Vector> releases;
  for (const MechanismPlan& plan : plans) {
    Rng rng(77);
    releases.push_back(
        ReleaseVector(plan, {1.0, 2.0, 3.0}, 0.02, &rng).ValueOrDie());
  }
  EXPECT_EQ(releases[0], releases[1]);
  EXPECT_EQ(releases[0], releases[2]);
}

TEST(DeterminismTest, FreeInitialExactAcrossThreadCounts) {
  const std::vector<Matrix> transitions = {
      TestChain(0.8, 0.7).transition(), TestChain(0.7, 0.6).transition()};
  std::vector<double> sigmas;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ChainMqmOptions options;
    options.epsilon = 1.0;
    options.num_threads = threads;
    sigmas.push_back(MqmExactAnalyzeFreeInitial(transitions, 120, options)
                         .ValueOrDie()
                         .sigma_max);
  }
  EXPECT_EQ(sigmas[0], sigmas[1]);
  EXPECT_EQ(sigmas[0], sigmas[2]);
}

TEST(DeterminismTest, UnifiedEngineAcrossThreadCounts) {
  std::vector<double> sigmas;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ChainUnifiedOptions options;
    options.num_threads = threads;
    const MqmExactUnified mechanism({TestChain(0.85, 0.75)}, 150, options);
    sigmas.push_back(mechanism.Analyze(1.0).ValueOrDie().sigma);
  }
  EXPECT_EQ(sigmas[0], sigmas[1]);
  EXPECT_EQ(sigmas[0], sigmas[2]);
}

}  // namespace
}  // namespace pf
