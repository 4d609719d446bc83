#include "pufferfish/composition.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>

#include "pufferfish/mqm_exact.h"

// Allocation interposer: counts every operator-new in this test binary, so
// a ledger call that allocates more as its history grows shows up.
namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pf {
namespace {

MarkovQuilt SomeQuilt() { return ChainQuilt(10, 5, 2, 2).ValueOrDie(); }

TEST(CompositionTest, EmptyAccountant) {
  CompositionAccountant acc;
  EXPECT_EQ(acc.num_releases(), 0u);
  EXPECT_DOUBLE_EQ(acc.TotalEpsilon(), 0.0);
  EXPECT_TRUE(acc.MatchesActiveQuilt(SomeQuilt()));
}

TEST(CompositionTest, LinearCompositionSameEpsilon) {
  CompositionAccountant acc;
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(acc.RecordReleaseStrict(1.0, SomeQuilt()).ok());
  }
  EXPECT_EQ(acc.num_releases(), 5u);
  EXPECT_DOUBLE_EQ(acc.TotalEpsilon(), 5.0);  // K * epsilon (Theorem 4.4).
  EXPECT_TRUE(acc.MatchesActiveQuilt(SomeQuilt()));
}

TEST(CompositionTest, MixedEpsilonsUseMax) {
  CompositionAccountant acc;
  ASSERT_TRUE(acc.RecordReleaseStrict(0.5, SomeQuilt()).ok());
  ASSERT_TRUE(acc.RecordReleaseStrict(2.0, SomeQuilt()).ok());
  ASSERT_TRUE(acc.RecordReleaseStrict(1.0, SomeQuilt()).ok());
  // K * max_k epsilon_k = 3 * 2.
  EXPECT_DOUBLE_EQ(acc.TotalEpsilon(), 6.0);
}

TEST(CompositionTest, RejectsBadEpsilon) {
  CompositionAccountant acc;
  for (double bad : {0.0, -1.0, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    const Status s = acc.RecordReleaseStrict(bad, SomeQuilt());
    ASSERT_FALSE(s.ok()) << "epsilon " << bad;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  // Nothing was silently accounted: the ledger is untouched.
  EXPECT_EQ(acc.num_releases(), 0u);
  EXPECT_DOUBLE_EQ(acc.TotalEpsilon(), 0.0);
  EXPECT_DOUBLE_EQ(acc.MaxEpsilon(), 0.0);
  // And a valid release afterwards accounts normally.
  ASSERT_TRUE(acc.RecordReleaseStrict(1.0, SomeQuilt()).ok());
  EXPECT_DOUBLE_EQ(acc.TotalEpsilon(), 1.0);
}

TEST(CompositionTest, MatchesActiveQuiltPreCheck) {
  CompositionAccountant acc;
  // Vacuously true on an empty ledger.
  EXPECT_TRUE(acc.MatchesActiveQuilt(SomeQuilt()));
  ASSERT_TRUE(acc.RecordReleaseStrict(1.0, SomeQuilt()).ok());
  EXPECT_TRUE(acc.MatchesActiveQuilt(SomeQuilt()));
  EXPECT_FALSE(acc.MatchesActiveQuilt(ChainQuilt(10, 5, 1, 1).ValueOrDie()));
  // Only target, quilt and nearby count identify an active quilt: the
  // explicit nearby / remote lists do not.
  MarkovQuilt listed = SomeQuilt();
  listed.nearby = {4, 5, 6};
  listed.remote = {0, 9};
  EXPECT_TRUE(acc.MatchesActiveQuilt(listed));
  // The pre-check does not mutate the ledger.
  EXPECT_EQ(acc.num_releases(), 1u);
}

TEST(CompositionTest, StrictRecordRefusesMismatchWithoutAccounting) {
  CompositionAccountant acc;
  ASSERT_TRUE(acc.RecordReleaseStrict(1.0, SomeQuilt()).ok());
  ASSERT_TRUE(acc.RecordReleaseStrict(2.0, SomeQuilt()).ok());
  const Status refused =
      acc.RecordReleaseStrict(1.0, ChainQuilt(10, 5, 1, 1).ValueOrDie());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  // The refusal left the ledger untouched, still on its first quilt.
  EXPECT_EQ(acc.num_releases(), 2u);
  EXPECT_DOUBLE_EQ(acc.TotalEpsilon(), 4.0);
  EXPECT_TRUE(acc.MatchesActiveQuilt(SomeQuilt()));
}

// One release, a one-row batch and a counted record of one row are the
// same ledger entry: same status code and same ledger state afterwards,
// for valid epsilons, invalid ones, and an active-quilt mismatch.
TEST(CompositionTest, StrictReleaseMatchesOneRowBatch) {
  const MarkovQuilt other = ChainQuilt(10, 5, 1, 1).ValueOrDie();
  struct Case {
    const char* name;
    std::vector<double> epsilons;
    MarkovQuilt quilt;
    StatusCode code;
  };
  const std::vector<Case> cases = {
      {"valid", {0.5, 2.0, 1.0}, SomeQuilt(), StatusCode::kOk},
      {"invalid epsilon",
       {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity()},
       SomeQuilt(), StatusCode::kInvalidArgument},
      {"quilt mismatch", {1.0}, other, StatusCode::kFailedPrecondition},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    CompositionAccountant single, batch, counted;
    ASSERT_TRUE(single.RecordReleaseStrict(1.5, SomeQuilt()).ok());
    ASSERT_TRUE(batch.RecordBatchStrict({1.5}, SomeQuilt()).ok());
    ASSERT_TRUE(counted.RecordStrict(1, 1.5, SomeQuilt()).ok());
    for (double e : c.epsilons) {
      const Status a = single.RecordReleaseStrict(e, c.quilt);
      const Status b = batch.RecordBatchStrict({e}, c.quilt);
      const Status n = counted.RecordStrict(1, e, c.quilt);
      EXPECT_EQ(a.code(), c.code) << "epsilon " << e;
      EXPECT_EQ(b.code(), c.code) << "epsilon " << e;
      EXPECT_EQ(n.code(), c.code) << "epsilon " << e;
      for (const CompositionAccountant* other : {&batch, &counted}) {
        EXPECT_EQ(single.num_releases(), other->num_releases());
        EXPECT_EQ(single.TotalEpsilon(), other->TotalEpsilon());
        EXPECT_EQ(single.MaxEpsilon(), other->MaxEpsilon());
      }
    }
  }
}

TEST(CompositionTest, ResetForgetsEverything) {
  CompositionAccountant acc;
  ASSERT_TRUE(acc.RecordReleaseStrict(2.0, SomeQuilt()).ok());
  EXPECT_FALSE(acc.MatchesActiveQuilt(ChainQuilt(10, 5, 1, 1).ValueOrDie()));
  acc.Reset();
  EXPECT_EQ(acc.num_releases(), 0u);
  EXPECT_DOUBLE_EQ(acc.TotalEpsilon(), 0.0);
  EXPECT_DOUBLE_EQ(acc.MaxEpsilon(), 0.0);
  EXPECT_TRUE(acc.MatchesActiveQuilt(ChainQuilt(10, 5, 1, 1).ValueOrDie()));
}

// The ledger's cost does not grow with its history: every RecordBatchStrict
// call after the first allocates the same number of times. Under the
// default unmetered budget a session records rows without bound, so any
// per-row storage would grow forever.
TEST(CompositionTest, LedgerDoesNotGrowWithHistory) {
  const std::vector<double> rows(256, 0.5);
  const MarkovQuilt quilt = SomeQuilt();
  CompositionAccountant acc;
  ASSERT_TRUE(acc.RecordBatchStrict(rows, quilt).ok());  // Warm-up.
  constexpr int kCalls = 4096;
  std::vector<std::size_t> allocations(kCalls);
  for (int k = 0; k < kCalls; ++k) {
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    const Status s = acc.RecordBatchStrict(rows, quilt);
    allocations[static_cast<std::size_t>(k)] =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    ASSERT_TRUE(s.ok());
  }
  for (int k = 1; k < kCalls; ++k) {
    ASSERT_EQ(allocations[static_cast<std::size_t>(k)], allocations[0])
        << "call " << k;
  }
  EXPECT_EQ(acc.num_releases(), (kCalls + 1) * rows.size());
  EXPECT_DOUBLE_EQ(acc.TotalEpsilon(), (kCalls + 1) * 256 * 0.5);
}

// The deterministic budget-admission tie rule: floating-point dust at
// exact-fit boundaries is forgiven, genuine overruns never are.
TEST(CompositionTest, ComposedBudgetAdmitsTieRule) {
  // Exact-fit ties (K * eps == B in the reals, off by ulps in doubles).
  EXPECT_TRUE(ComposedBudgetAdmits(3, 0.1, 0.3));
  EXPECT_TRUE(ComposedBudgetAdmits(7, 0.1, 0.7));
  EXPECT_TRUE(ComposedBudgetAdmits(3, 0.2, 0.6));
  EXPECT_TRUE(ComposedBudgetAdmits(7, 0.7, 4.9));
  EXPECT_TRUE(ComposedBudgetAdmits(1000000, 0.1, 100000.0));
  // One release past the tie is a genuine overrun.
  EXPECT_FALSE(ComposedBudgetAdmits(4, 0.1, 0.3));
  EXPECT_FALSE(ComposedBudgetAdmits(8, 0.1, 0.7));
  EXPECT_FALSE(ComposedBudgetAdmits(1000001, 0.1, 100000.0));
  // Tiny-but-real overruns beyond rounding dust are refused too.
  EXPECT_FALSE(ComposedBudgetAdmits(3, 0.100000001, 0.3));
  // Strictly-under fits always admit; unmetered budgets admit anything
  // finite; an infinite composed level never fits a finite budget.
  EXPECT_TRUE(ComposedBudgetAdmits(2, 0.1, 0.3));
  EXPECT_TRUE(ComposedBudgetAdmits(1u << 20, 1e6,
                                   std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(
      ComposedBudgetAdmits(1, std::numeric_limits<double>::infinity(), 1.0));
}

// End-to-end: the same analysis re-run with identical inputs picks the same
// active quilt, so repeated releases compose (the Theorem 4.4 setting).
TEST(CompositionTest, RepeatedAnalysesShareActiveQuilt) {
  const MarkovChain theta =
      MarkovChain::Make({0.8, 0.2}, Matrix{{0.9, 0.1}, {0.4, 0.6}}).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 30;
  CompositionAccountant acc;
  for (int k = 0; k < 3; ++k) {
    const ChainMqmResult r = MqmExactAnalyze({theta}, 50, options).ValueOrDie();
    ASSERT_TRUE(acc.RecordReleaseStrict(options.epsilon, r.active_quilt).ok());
  }
  EXPECT_DOUBLE_EQ(acc.TotalEpsilon(), 3.0);
}

}  // namespace
}  // namespace pf
