// Caching for the expensive half of the mechanism lifecycle. An analysis is
// data-independent, so its result is a pure function of (model fingerprint,
// configuration, epsilon) — the cache key. Repeated releases, vector/batch
// queries, and benchmark sweeps that revisit an epsilon then amortize the
// O(T k^2)-to-O(k^Q) quilt search down to one computation.
#ifndef PUFFERFISH_PUFFERFISH_ANALYSIS_CACHE_H_
#define PUFFERFISH_PUFFERFISH_ANALYSIS_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "pufferfish/mechanism.h"

namespace pf {

/// \brief One cache entry in exportable form: the full cache key plus the
/// shared plan. Produced by AnalysisCache::ExportPlans and consumed by
/// ImportPlans; pufferfish/plan_store.h serializes vectors of these to a
/// warm-restart snapshot.
struct CachedPlan {
  std::uint64_t fingerprint = 0;
  /// Raw bit pattern of the analysis epsilon (DoubleBits).
  std::uint64_t epsilon_bits = 0;
  MechanismKind kind = MechanismKind::kLaplaceDp;
  std::shared_ptr<const MechanismPlan> plan;
};

/// \brief Thread-safe cache of MechanismPlans keyed by
/// (Mechanism::Fingerprint(), epsilon).
///
/// Plans are shared immutable objects; a hit bumps the plan's
/// cache_hit_count() so callers (and the acceptance tests) can verify that
/// re-analysis was skipped. Failed analyses are not cached.
class AnalysisCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Plans produced by extending a cached resumable analysis to a longer
    /// record length instead of a cold Analyze (GetOrExtend's fast path).
    std::uint64_t extensions = 0;
  };

  /// `max_entries` bounds resident plans (plans can hold O(nodes) quilt
  /// diagnostics, so an unbounded map would grow until OOM on a long-lived
  /// server sweeping epsilons/models). When full, the oldest inserted entry
  /// is evicted first. 0 means unbounded.
  explicit AnalysisCache(std::size_t max_entries = 1024)
      : max_entries_(max_entries) {}
  AnalysisCache(const AnalysisCache&) = delete;
  AnalysisCache& operator=(const AnalysisCache&) = delete;

  /// \brief Returns the cached plan for (mechanism, epsilon), or computes,
  /// stores, and returns it. On an exact-key miss, a mechanism without a
  /// resumable analysis (Mechanism::PrefixFingerprint() == 0) runs
  /// mechanism.Analyze(epsilon). A resumable one instead looks up the
  /// retained analysis for (length-free model, epsilon) and ExtendTo()s it
  /// to the mechanism's current length — bit-identical to a cold Analyze,
  /// but O(max_nearby + delta) instead of O(T) (stats().extensions counts
  /// these). A missing or longer-than-target chain entry falls back to a
  /// cold resumable analysis, which seeds the chain for future appends.
  ///
  /// Analyses run outside the cache lock, so slow analyses of *different*
  /// keys proceed concurrently (the loser of a duplicate-key race discards
  /// its result). Safe to call from any number of threads; the per-plan hit
  /// counter and the hit/miss stats are bumped outside the lock (relaxed
  /// atomics), so concurrent hits on one hot plan never serialize on the
  /// cache mutex.
  Result<std::shared_ptr<const MechanismPlan>> GetOrExtend(
      const Mechanism& mechanism, double epsilon);

  /// \brief True iff a plan for exactly (mechanism.Fingerprint(), epsilon)
  /// is resident. A pure probe: no counters move, no analysis runs. The
  /// engine's shed-cold policy uses this to distinguish warm requests
  /// (always served) from cold ones (shed under overload).
  bool Contains(const Mechanism& mechanism, double epsilon) const;

  /// \brief Snapshot of every resident plan in insertion (eviction) order,
  /// with its full cache key. The shared_ptrs alias the cached plans, so
  /// the export is cheap and consistent even while other threads keep
  /// hitting the cache. Resumable chain state is NOT exported — it is
  /// O(T) mutable scan state; a restored cache re-seeds chains cold on the
  /// first append (see GetOrExtend).
  std::vector<CachedPlan> ExportPlans() const;

  /// \brief Inserts entries that are not already resident (existing keys
  /// keep their incumbent plan — a live cache is fresher than a snapshot),
  /// respecting max_entries_ with the usual FIFO eviction. Entries with a
  /// null plan are skipped. Returns the number of plans actually inserted.
  /// Neither hit nor miss counters move: an import is neither.
  std::size_t ImportPlans(const std::vector<CachedPlan>& entries);

  Stats stats() const;
  std::size_t size() const;
  void Clear();

 private:
  // The kind rides alongside the fingerprint so a 64-bit hash collision
  // across mechanism kinds can never serve the wrong plan. Within one kind
  // the fingerprint covers the full model bit-for-bit (plus a per-family
  // tag where two classes share a kind, e.g. the free-initial MQMExact
  // variant); collisions there require adversarially chosen models.
  struct Key {
    std::uint64_t fingerprint;
    std::uint64_t epsilon_bits;
    MechanismKind kind;
    bool operator==(const Key& other) const {
      return fingerprint == other.fingerprint &&
             epsilon_bits == other.epsilon_bits && kind == other.kind;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // Splitmix-style scramble of the words.
      std::uint64_t h = k.fingerprint + 0x9E3779B97F4A7C15u * k.epsilon_bits;
      h += static_cast<std::uint64_t>(k.kind);
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9u;
      h ^= h >> 27;
      return static_cast<std::size_t>(h);
    }
  };

  /// Evicts the oldest entries until size < max_entries_.
  void EvictIfFull() PF_REQUIRES(mutex_);

  /// One retained resumable analysis, chained by prefix fingerprint. The
  /// per-entry mutex serializes extensions (ExtendTo mutates) without
  /// blocking the plan map or other chains.
  struct ChainEntry {
    Mutex mutex;
    std::unique_ptr<ResumableAnalysis> analysis PF_GUARDED_BY(mutex);
  };

  /// The exact-key hit path of GetOrExtend: returns the cached plan
  /// (bumping hit counters) or nullptr.
  std::shared_ptr<const MechanismPlan> TryGetPlan(const Key& key);

  /// Stores `plan` under the exact key (duplicate-insert race keeps the
  /// incumbent) and returns the stored plan, bumping hit/miss stats.
  std::shared_ptr<const MechanismPlan> StorePlan(
      const Key& key, std::shared_ptr<const MechanismPlan> plan);

  const std::size_t max_entries_;
  mutable Mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<const MechanismPlan>, KeyHash> plans_
      PF_GUARDED_BY(mutex_);
  /// FIFO eviction queue.
  std::deque<Key> insertion_order_ PF_GUARDED_BY(mutex_);

  /// Resumable analyses keyed like plans but by PREFIX fingerprint (length
  /// removed). Entries hold O(T) scan state, so the store is bounded by
  /// max_entries_ with the same FIFO rule.
  mutable Mutex chains_mutex_;
  std::unordered_map<Key, std::shared_ptr<ChainEntry>, KeyHash> chains_
      PF_GUARDED_BY(chains_mutex_);
  std::deque<Key> chains_order_ PF_GUARDED_BY(chains_mutex_);

  // Lock-free counters: stats() and the hot hit path never contend on
  // mutex_ beyond the map lookup itself.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> extensions_{0};
};

}  // namespace pf

#endif  // PUFFERFISH_PUFFERFISH_ANALYSIS_CACHE_H_
