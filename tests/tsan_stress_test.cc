// Concurrency stress tests for the mutex-bearing components, sized to run
// under ThreadSanitizer's ~10x slowdown (each test finishes in well under a
// second natively). These are the dynamic half of the PR-7 correctness
// layer: the clang -Wthread-safety leg proves the locking discipline
// statically, the TSan CI job re-proves the absence of data races on every
// commit by running this file (and the full suite) with PF_TSAN=ON.
//
// The scenarios deliberately cross the engine's mutation paths the way a
// serving daemon would: Submit racing AppendObservations racing
// SaveAnalyses/LoadAnalyses racing GetOrExtend, plus the primitive pools
// and the relaxed-atomic counters (AnalysisCache hits, Arena process-wide
// totals) that TSan would flag instantly if they were plain fields.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/parallel.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "graphical/markov_chain.h"
#include "pufferfish/analysis_cache.h"

namespace pf {
namespace {

constexpr std::size_t kThreads = 4;

MarkovChain StressChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

std::unique_ptr<PrivacyEngine> StressEngine(std::size_t length) {
  EngineOptions options;
  options.num_threads = 2;
  options.exact_max_nearby = 8;
  ModelSpec model =
      ModelSpec::ChainClass({StressChain(0.8, 0.7), StressChain(0.6, 0.9)},
                            length);
  return PrivacyEngine::Create(std::move(model), options).ValueOrDie();
}

StateSequence StressData(std::size_t length) {
  StateSequence data(length);
  for (std::size_t i = 0; i < length; ++i) data[i] = static_cast<int>(i % 2);
  return data;
}

// The headline scenario from the issue: concurrent Submit (per-tenant
// sessions) x AppendObservations (stream growth) x SaveAnalyses /
// LoadAnalyses (warm-restart snapshots) x AnalyzeStats (GetOrExtend), all
// against one engine. Outcomes may legitimately be errors (a submit racing
// an append can see a quilt mismatch; a save can race a load) — the test
// asserts the invariants that must survive the race: no crash, no TSan
// report, statuses always well-formed, released values always finite.
TEST(TsanStressTest, SubmitVsAppendVsSnapshotVsExtend) {
  auto engine = StressEngine(/*length=*/48);
  const std::string snapshot =
      testing::TempDir() + "/tsan_stress_snapshot.pfplan";
  std::atomic<int> ok_releases{0};
  std::atomic<int> appends_done{0};
  constexpr int kAppends = 6;

  std::vector<std::thread> threads;
  // Stream growth: the record length ratchets up under model_mutex_.
  threads.emplace_back([&] {
    for (int i = 0; i < kAppends; ++i) {
      ASSERT_TRUE(engine->AppendObservations(2).ok());
      appends_done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Two serving tenants: windowed submits keep compiling at fresh lengths
  // while the record grows underneath them.
  for (int tenant = 0; tenant < 2; ++tenant) {
    threads.emplace_back([&, tenant] {
      SessionOptions options;
      options.seed = 7 + static_cast<std::uint64_t>(tenant);
      auto session = engine->CreateSession(options);
      for (int i = 0; i < 12; ++i) {
        // Size the data to the CURRENT record length; a racing append can
        // still invalidate it before Submit resolves, which must surface
        // as a clean Status, never a race.
        StateSequence data = StressData(engine->record_length());
        auto future =
            session->Submit(QuerySpec::Sum(0.5), data, DataWindow::Last(8));
        Result<ReleaseResult> r = future.get();
        if (r.ok()) {
          ASSERT_TRUE(std::isfinite(r.value().value[0]));
          ok_releases.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_FALSE(r.status().message().empty());
        }
      }
    });
  }
  // Warm-restart churn: exports race inserts; loads race everything.
  threads.emplace_back([&] {
    for (int i = 0; i < 8; ++i) {
      Status saved = engine->SaveAnalyses(snapshot);
      ASSERT_TRUE(saved.ok()) << saved.ToString();
      Result<std::size_t> loaded = engine->LoadAnalyses(snapshot);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    }
  });
  // Analysis-stats sweep: epsilon variety drives GetOrExtend cold paths,
  // extensions, and cache hits concurrently with the appends.
  threads.emplace_back([&] {
    const double epsilons[] = {0.25, 0.5, 1.0};
    for (int i = 0; i < 9; ++i) {
      Result<PrivacyEngine::AnalysisStats> stats =
          engine->AnalyzeStats(epsilons[i % 3]);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ASSERT_GE(stats.value().total_nodes, 1u);
    }
  });
  for (std::thread& t : threads) t.join();
  std::remove(snapshot.c_str());

  EXPECT_EQ(appends_done.load(), kAppends);
  // The windowed submits must succeed at least when no append was mid
  // flight; a fully refused run would mean the quilt ledger is broken, not
  // just racy.
  EXPECT_GT(ok_releases.load(), 0);
  EXPECT_EQ(engine->record_length(), 48u + 2u * kAppends);
}

// Columnar batches racing stream growth and scalar traffic: SubmitColumnar
// compiles against a record-length snapshot, charges the whole batch in
// one critical section, and executes on the pool — all while
// AppendObservations ratchets the model and scalar submits interleave.
// Races must resolve to clean statuses (a torn compile surfaces as
// Unavailable, never mixed-epoch constants), admitted batches must carry
// finite values under contiguous tickets, and the shared ledger must end
// balanced: every admitted row recorded, every refused batch absent.
TEST(TsanStressTest, ColumnarSubmitVsAppendVsScalar) {
  auto engine = StressEngine(/*length=*/48);
  std::atomic<int> ok_batches{0};
  constexpr int kAppends = 6;

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; i < kAppends; ++i) {
      ASSERT_TRUE(engine->AppendObservations(2).ok());
    }
  });
  for (int tenant = 0; tenant < 2; ++tenant) {
    threads.emplace_back([&, tenant] {
      SessionOptions options;
      options.seed = 11 + static_cast<std::uint64_t>(tenant);
      auto session = engine->CreateSession(options);
      std::size_t admitted_rows = 0;
      for (int i = 0; i < 10; ++i) {
        BatchQuerySpec batch;
        batch.Add(QuerySpec::Sum(0.5))
            .Add(QuerySpec::Mean(0.5), DataWindow::Last(8))
            .Add(QuerySpec::Sum(0.5));
        StateSequence data = StressData(engine->record_length());
        Result<BatchReleaseResult> r =
            session->SubmitColumnar(batch, data).get();
        if (r.ok()) {
          const RecordBatch& rb = r.value().batch;
          ASSERT_EQ(rb.num_rows(), 3u);
          for (std::size_t v = 0; v < rb.num_values(); ++v) {
            ASSERT_TRUE(std::isfinite(rb.values()[v]));
          }
          ASSERT_EQ(rb.tickets()[2], rb.tickets()[0] + 2);
          admitted_rows += rb.num_rows();
          ok_batches.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_FALSE(r.status().message().empty());
        }
      }
      // All-or-nothing accounting survived the races: the ledger holds
      // exactly the rows of the admitted batches, nothing from refused
      // ones.
      ASSERT_EQ(session->num_releases(), admitted_rows);
    });
  }
  // Scalar traffic on its own session keeps the executor contended.
  threads.emplace_back([&] {
    auto session = engine->CreateSession();
    for (int i = 0; i < 12; ++i) {
      StateSequence data = StressData(engine->record_length());
      auto r = session->Submit(QuerySpec::Sum(0.5), data,
                               DataWindow::Last(8)).get();
      if (!r.ok()) ASSERT_FALSE(r.status().message().empty());
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_GT(ok_batches.load(), 0)
      << "every columnar batch was refused; the batch path is broken, not "
         "just racy";
  EXPECT_EQ(engine->record_length(), 48u + 2u * kAppends);
}

// Prepared plans shared across threads while the record grows: columnar
// and sync-release tenants resubmit the same shapes (so most plans come
// from the engine's prepared-plan cache) while AppendObservations
// invalidates it, all under cache_capacity = 2 so plans are also evicted
// under the readers' feet. Every release must carry one generation's
// constants — its sigma and noise scale those of a fresh engine at some
// record length the model passed through, never a mix — and every
// session that runs to its budget must admit exactly floor(B / eps) rows.
TEST(TsanStressTest, PreparedPlansVsAppendWithSmallCache) {
  constexpr std::size_t kStart = 48;
  constexpr int kAppends = 6;
  constexpr std::size_t kStep = 2;
  constexpr double kEps = 0.5;
  constexpr double kBudget = 6.0;  // floor(6.0 / 0.5) = 12 rows.
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Mean(kEps))
      .Add(QuerySpec::Sum(kEps), DataWindow::Last(8))
      .Add(QuerySpec::Mean(kEps));

  // Reference constants per record length, from fresh engines.
  struct Reference {
    std::vector<double> sigmas;
    std::vector<double> scales;
  };
  std::vector<Reference> references;
  for (int a = 0; a <= kAppends; ++a) {
    const std::size_t length = kStart + kStep * static_cast<std::size_t>(a);
    auto fresh = StressEngine(length);
    const CompiledBatchPlan plan =
        CompileBatchPlan(fresh.get(), batch, length).ValueOrDie();
    Reference ref;
    for (std::size_t r = 0; r < plan.num_rows(); ++r) {
      const std::size_t u = plan.logical.row_to_unique[r];
      ref.sigmas.push_back(plan.compiled[u].plan->sigma);
      ref.scales.push_back(plan.logical.unique[u].lipschitz *
                           plan.compiled[u].plan->sigma);
    }
    references.push_back(std::move(ref));
  }
  const auto one_generation = [&](const RecordBatch& rb) {
    for (const Reference& ref : references) {
      bool all = rb.num_rows() == ref.sigmas.size();
      for (std::size_t r = 0; all && r < rb.num_rows(); ++r) {
        all = rb.sigmas()[r] == ref.sigmas[r] &&
              rb.noise_scales()[r] == ref.scales[r];
      }
      if (all) return true;
    }
    return false;
  };
  const auto known_sigma = [&](double sigma) {
    for (const Reference& ref : references) {
      if (sigma == ref.sigmas[0]) return true;
    }
    return false;
  };

  EngineOptions options;
  options.num_threads = 2;
  options.exact_max_nearby = 8;
  options.cache_capacity = 2;
  auto engine =
      PrivacyEngine::Create(ModelSpec::ChainClass({StressChain(0.8, 0.7),
                                                   StressChain(0.6, 0.9)},
                                                  kStart),
                            options)
          .ValueOrDie();
  // A tenant fills a session's budget: columnar batches while they fit,
  // then single releases for the remainder. A torn batch (Unavailable) is
  // retried. An append between two of a session's releases moves the
  // active quilt (these chains' quilts sit mid-record), which the ledger
  // refuses with FailedPrecondition; the tenant then abandons the session.
  // Any other refusal must be the budget, and a session refused for its
  // budget must hold exactly floor(B / eps) rows.
  std::atomic<int> served{0};
  const auto fill_budget = [&](std::uint64_t seed, bool columnar,
                               bool* exhausted) {
    SessionOptions session_options;
    session_options.epsilon_budget = kBudget;
    session_options.seed = seed;
    auto session = engine->CreateSession(session_options);
    std::size_t admitted = 0;
    bool batches_fit = columnar;
    Status refused;
    while (refused.ok()) {
      StateSequence data = StressData(engine->record_length());
      if (batches_fit) {
        Result<BatchReleaseResult> r =
            session->SubmitColumnar(batch, data).get();
        if (r.ok()) {
          ASSERT_TRUE(one_generation(r.value().batch));
          admitted += r.value().batch.num_rows();
          served.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          batches_fit = false;
        } else if (r.status().code() != StatusCode::kUnavailable) {
          refused = r.status();
        }
        continue;
      }
      Result<ReleaseResult> r =
          session->Release(QuerySpec::Sum(kEps), data, DataWindow::Last(8));
      if (r.ok()) {
        ASSERT_TRUE(known_sigma(r.value().sigma));
        ++admitted;
        served.fetch_add(1, std::memory_order_relaxed);
      } else {
        refused = r.status();
      }
    }
    ASSERT_EQ(session->num_releases(), admitted);
    *exhausted = refused.code() == StatusCode::kResourceExhausted;
    if (*exhausted) {
      ASSERT_EQ(admitted,
                static_cast<std::size_t>(std::floor(kBudget / kEps)));
    } else {
      ASSERT_EQ(refused.code(), StatusCode::kFailedPrecondition)
          << refused.ToString();
    }
  };

  std::vector<std::thread> threads;
  // Appends are paced by served releases (8 between appends), so they land
  // mid-traffic rather than before it; if the tenants stop early (a failed
  // assertion), the remaining appends go ahead rather than hang.
  std::atomic<int> tenants_done{0};
  threads.emplace_back([&] {
    for (int i = 0; i < kAppends; ++i) {
      while (served.load(std::memory_order_relaxed) < 8 * (i + 1) &&
             tenants_done.load(std::memory_order_relaxed) < 4) {
        std::this_thread::yield();
      }
      ASSERT_TRUE(engine->AppendObservations(kStep).ok());
    }
  });
  // Each tenant keeps opening sessions until three ran to their budget;
  // only sessions straddling one of the six appends can be abandoned.
  std::atomic<int> abandoned{0};
  for (int tenant = 0; tenant < 4; ++tenant) {
    threads.emplace_back([&, tenant] {
      int exhausted_sessions = 0;
      for (int round = 0; exhausted_sessions < 3 && round < 64; ++round) {
        bool exhausted = false;
        fill_budget(100 + static_cast<std::uint64_t>(tenant * 64 + round),
                    /*columnar=*/tenant % 2 == 0, &exhausted);
        if (exhausted) {
          ++exhausted_sessions;
        } else {
          abandoned.fetch_add(1, std::memory_order_relaxed);
        }
      }
      tenants_done.fetch_add(1, std::memory_order_relaxed);
      EXPECT_EQ(exhausted_sessions, 3);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(engine->record_length(), kStart + kStep * kAppends);
  EXPECT_LE(abandoned.load(), 4 * kAppends);
}

// One session hammered from many threads: the budget ledger must admit
// exactly floor(B / eps) releases in total, no matter how the threads
// interleave (the Theorem 4.4 admission check and the ticket counter share
// one critical section).
TEST(TsanStressTest, SharedSessionLedgerAdmitsExactlyFloorBudget) {
  auto engine = StressEngine(/*length=*/40);
  SessionOptions options;
  options.epsilon_budget = 1.2;
  options.seed = 42;
  auto session = engine->CreateSession(options);
  const StateSequence data = StressData(40);

  // Warm the plan cache first so the racing releases exercise the ledger,
  // not the analysis.
  ASSERT_TRUE(engine->Compile(QuerySpec::Sum(0.4)).ok());

  std::atomic<int> admitted{0};
  std::atomic<int> exhausted{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        Result<ReleaseResult> r = session->Release(QuerySpec::Sum(0.4), data);
        if (r.ok()) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted);
          exhausted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // B = 1.2, eps = 0.4: exactly 3 admissions, every other attempt refused.
  EXPECT_EQ(admitted.load(), 3);
  EXPECT_EQ(exhausted.load(), static_cast<int>(kThreads * 4) - 3);
  EXPECT_EQ(session->num_releases(), 3u);
}

// GetOrExtend from many threads on one cache: per-entry chain mutexes
// serialize extensions of one model class while exact-key hits bump the
// relaxed-atomic counters (the audit target: plain counters would be a
// TSan report here).
TEST(TsanStressTest, AnalysisCacheConcurrentHitsAndExtensions) {
  AnalysisCache cache(/*max_entries=*/64);
  ChainUnifiedOptions options;
  options.max_nearby = 8;
  options.num_threads = 1;
  const std::vector<MarkovChain> thetas = {StressChain(0.8, 0.7)};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        // Two threads extend through growing lengths; two hammer one hot
        // key. Same epsilon: the chain entry is shared state.
        const std::size_t length =
            (t < 2) ? 32 + 4 * static_cast<std::size_t>(i) : 32;
        MqmExactUnified mechanism(thetas, length, options);
        Result<std::shared_ptr<const MechanismPlan>> plan =
            cache.GetOrExtend(mechanism, 1.0);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        ASSERT_GT(plan.value()->sigma, 0.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const AnalysisCache::Stats stats = cache.stats();
  // Every call resolved to a hit, a miss, or a miss-via-extension; the
  // relaxed counters must still account for all of them.
  EXPECT_EQ(stats.hits + stats.misses, kThreads * 6);
  EXPECT_GT(stats.hits, 0u);
  // The growing-length threads extend rather than re-analyze (the second
  // thread's extension may hit the first's stored plan, so >= 1, and
  // bounded by the distinct new lengths).
  EXPECT_GE(stats.extensions, 1u);
}

// ParallelFor under churn: two pools alternating loops from their owner
// threads, with per-index slots as the only shared state — the
// thread-count-invariance contract's memory-model core.
TEST(TsanStressTest, ThreadPoolParallelForChurn) {
  ThreadPool pool(kThreads);
  std::vector<std::thread> drivers;
  std::atomic<std::uint64_t> grand_total{0};
  for (int d = 0; d < 2; ++d) {
    drivers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::uint64_t> slots(257, 0);
        pool.ParallelFor(slots.size(), [&slots](std::size_t i) {
          slots[i] = i * i + 1;
        });
        std::uint64_t total = 0;
        for (std::uint64_t s : slots) total += s;  // Sequential reduce.
        grand_total.fetch_add(total, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  std::uint64_t expected_one = 0;
  for (std::uint64_t i = 0; i < 257; ++i) expected_one += i * i + 1;
  EXPECT_EQ(grand_total.load(), expected_one * 2 * 20);
}

// Executor: lazy worker spawn racing a flood of submits from several
// threads, then a drain-on-destruct while futures are still outstanding.
// The queue is unbounded, so nothing sheds here.
TEST(TsanStressTest, ExecutorSubmitFloodAndDrain) {
  std::vector<std::future<int>> futures;
  Mutex futures_mutex;
  {
    ExecutorOptions options;
    options.num_threads = kThreads;
    options.max_queue_depth = 0;
    Executor executor(options);
    std::vector<std::thread> submitters;
    for (int s = 0; s < 3; ++s) {
      submitters.emplace_back([&, s] {
        for (int i = 0; i < 50; ++i) {
          Result<Executor::Permit> permit = executor.TryAcquire();
          ASSERT_TRUE(permit.ok()) << permit.status().ToString();
          auto future = executor.Submit(std::move(permit).value(),
                                        [s, i] { return s * 1000 + i; });
          MutexLock lock(futures_mutex);
          futures.push_back(std::move(future));
        }
      });
    }
    for (std::thread& t : submitters) t.join();
    const Executor::Stats stats = executor.stats();
    EXPECT_EQ(stats.submitted, 150u);
    EXPECT_EQ(stats.admitted, 150u);
    EXPECT_EQ(stats.shed, 0u);
    // ~Executor drains the queue: every future below must be ready.
  }
  ASSERT_EQ(futures.size(), 150u);
  std::uint64_t sum = 0;
  for (auto& f : futures) sum += static_cast<std::uint64_t>(f.get());
  std::uint64_t expected = 0;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 50; ++i) expected += static_cast<std::uint64_t>(s * 1000 + i);
  }
  EXPECT_EQ(sum, expected);
}

// Admission control under contention: a deliberately tiny queue bound with
// slow tasks forces real shedding while several threads hammer TryAcquire.
// The accounting invariant submitted == admitted + shed must hold exactly —
// every TryAcquire resolves to exactly one of the two outcomes, with no
// double-count and no lost update — and every admitted task's future must
// resolve (the drain-on-destruct guarantee is not weakened by shedding).
TEST(TsanStressTest, ExecutorBoundedQueueAdmissionInvariant) {
  std::atomic<std::uint64_t> ran{0};
  std::uint64_t admitted_count = 0;
  std::uint64_t shed_count = 0;
  Executor::Stats stats;
  {
    ExecutorOptions options;
    options.num_threads = 2;
    options.max_queue_depth = 4;
    Executor executor(options);
    std::vector<std::future<int>> futures;
    Mutex futures_mutex;
    std::atomic<std::uint64_t> shed_seen{0};
    std::vector<std::thread> submitters;
    for (std::size_t s = 0; s < kThreads; ++s) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 40; ++i) {
          Result<Executor::Permit> permit = executor.TryAcquire();
          if (!permit.ok()) {
            ASSERT_EQ(permit.status().code(), StatusCode::kUnavailable);
            shed_seen.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();  // Back off; let workers drain.
            continue;
          }
          auto future = executor.Submit(std::move(permit).value(), [&ran] {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            return static_cast<int>(ran.fetch_add(1) & 0x7fffffff);
          });
          MutexLock lock(futures_mutex);
          futures.push_back(std::move(future));
        }
      });
    }
    for (std::thread& t : submitters) t.join();
    stats = executor.stats();
    admitted_count = futures.size();
    shed_count = shed_seen.load();
    for (auto& f : futures) f.wait();
  }
  EXPECT_EQ(stats.admitted, admitted_count);
  EXPECT_EQ(stats.shed, shed_count);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.shed);
  EXPECT_GT(stats.shed, 0u) << "queue bound of 4 never shed; the stress is "
                               "not exercising admission control";
  EXPECT_EQ(ran.load(), admitted_count);
}

// Arena process-wide counters: arenas created, grown, and released on
// several threads at once fold into the relaxed-atomic totals; the totals
// must balance once every arena is gone (a plain counter would both race
// and drift).
TEST(TsanStressTest, ArenaProcessWideCountersBalance) {
  const std::uint64_t retained_before = Arena::TotalRetainedBytes();
  std::atomic<std::uint64_t> local_retained_peak{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        Arena arena(1u << 10);
        for (int i = 0; i < 16; ++i) {
          void* p = arena.Allocate(512);
          ASSERT_NE(p, nullptr);
        }
        local_retained_peak.fetch_add(arena.retained_bytes(),
                                      std::memory_order_relaxed);
        arena.Release();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every Release returned its retained bytes: the process-wide gauge is
  // back to where it started (other tests' thread_local arenas are stable
  // across this test body).
  EXPECT_EQ(Arena::TotalRetainedBytes(), retained_before);
  EXPECT_GT(local_retained_peak.load(), 0u);
}

}  // namespace
}  // namespace pf
