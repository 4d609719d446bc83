#include "pufferfish/analysis_cache.h"

#include "common/failpoint.h"
#include "common/fingerprint.h"

namespace pf {

namespace {
void BumpPlanHitCounter(const MechanismPlan& plan) {
  // Relaxed: the counter is a monotone diagnostic, not a synchronization
  // point; callers only ever read a snapshot.
  if (plan.cache_hits != nullptr) {
    plan.cache_hits->fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

std::shared_ptr<const MechanismPlan> AnalysisCache::TryGetPlan(
    const Key& key) {
  std::shared_ptr<const MechanismPlan> found;
  {
    MutexLock lock(mutex_);
    auto it = plans_.find(key);
    // Key equality already implies bit-identical epsilon (epsilon_bits is
    // a key field).
    if (it != plans_.end()) found = it->second;
  }
  if (found != nullptr) {
    // Counters are bumped after the lock is released so the critical
    // section stays a pure lookup (no contention on the shared counter
    // under the lock). The shared_ptr copy keeps the plan alive past any
    // concurrent eviction.
    hits_.fetch_add(1, std::memory_order_relaxed);
    BumpPlanHitCounter(*found);
  }
  return found;
}

bool AnalysisCache::Contains(const Mechanism& mechanism,
                             double epsilon) const {
  const Key key{mechanism.Fingerprint(), DoubleBits(epsilon),
                mechanism.kind()};
  MutexLock lock(mutex_);
  return plans_.find(key) != plans_.end();
}

std::shared_ptr<const MechanismPlan> AnalysisCache::StorePlan(
    const Key& key, std::shared_ptr<const MechanismPlan> plan) {
  std::shared_ptr<const MechanismPlan> winner;
  bool raced = false;
  {
    MutexLock lock(mutex_);
    auto [it, inserted] = plans_.emplace(key, std::move(plan));
    winner = it->second;
    raced = !inserted;
    if (inserted) {
      insertion_order_.push_back(key);
      EvictIfFull();
    }
  }
  if (raced) {
    // Another thread won the duplicate-key race; serve its plan and count
    // this call as a hit (no new analysis was stored).
    hits_.fetch_add(1, std::memory_order_relaxed);
    BumpPlanHitCounter(*winner);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return winner;
}

Result<std::shared_ptr<const MechanismPlan>> AnalysisCache::GetOrExtend(
    const Mechanism& mechanism, double epsilon) {
  // Exact-key fast path first: a plan for this very length is already the
  // cheapest answer, and a hit never pays for the prefix fingerprint.
  const Key key{mechanism.Fingerprint(), DoubleBits(epsilon),
                mechanism.kind()};
  if (auto found = TryGetPlan(key)) return found;
  const std::uint64_t prefix = mechanism.PrefixFingerprint();
  const std::size_t target_length = mechanism.ExtendableLength();
  if (prefix == 0 || target_length == 0) {
    // No resumable analysis: a cold Analyze. It runs outside the lock, so
    // analyses of different keys overlap; a duplicated analysis of the
    // same key is merely wasted work, not an error.
    PF_FAILPOINT("analysis_cache.analyze");
    Result<MechanismPlan> plan = mechanism.Analyze(epsilon);
    if (!plan.ok()) return plan.status().WithContext("cold analysis");
    return StorePlan(
        key, std::make_shared<const MechanismPlan>(std::move(plan).value()));
  }
  // Exact miss: find (or create) the chain entry for the length-free model
  // at this epsilon. The map lock only covers the lookup; the per-entry
  // lock serializes extensions of one chain without blocking others.
  const Key chain_key{prefix, DoubleBits(epsilon), mechanism.kind()};
  std::shared_ptr<ChainEntry> entry;
  {
    MutexLock lock(chains_mutex_);
    auto it = chains_.find(chain_key);
    if (it != chains_.end()) {
      entry = it->second;
    } else {
      entry = std::make_shared<ChainEntry>();
      chains_.emplace(chain_key, entry);
      chains_order_.push_back(chain_key);
      // Chain entries hold O(T) scan state; bound them like plans. An
      // evicted entry only forfeits future extension reuse — in-flight
      // users hold the shared_ptr.
      if (max_entries_ != 0) {
        while (chains_.size() > max_entries_ && !chains_order_.empty()) {
          chains_.erase(chains_order_.front());
          chains_order_.pop_front();
        }
      }
    }
  }
  MutexLock entry_lock(entry->mutex);
  const bool can_extend = entry->analysis != nullptr &&
                          entry->analysis->length() <= target_length;
  if (!can_extend) {
    // No retained analysis (or it is already past the target — records
    // only grow, so a longer entry means a different serving timeline):
    // seed the chain cold so future appends extend from here.
    PF_FAILPOINT("analysis_cache.analyze");
    Result<std::unique_ptr<ResumableAnalysis>> fresh =
        mechanism.AnalyzeResumable(epsilon);
    if (!fresh.ok()) return fresh.status().WithContext("cold resumable analysis");
    entry->analysis = std::move(fresh).value();
  }
  const bool extended = entry->analysis->length() < target_length;
  Status injected = Status::OK();
#ifdef PF_FAILPOINTS
  injected = FailpointRegistry::Instance().Evaluate("analysis_cache.extend");
#endif
  Result<MechanismPlan> plan =
      injected.ok() ? entry->analysis->ExtendTo(target_length)
                    : Result<MechanismPlan>(injected);
  if (!plan.ok()) {
    // A failed (or deadline-cancelled) extension may leave the retained
    // scan state mid-stride; discard it so the NEXT caller re-seeds the
    // chain cold instead of extending from a half-advanced analysis.
    entry->analysis.reset();
    return plan.status().WithContext("chain extension");
  }
  if (extended) extensions_.fetch_add(1, std::memory_order_relaxed);
  return StorePlan(
      key, std::make_shared<const MechanismPlan>(std::move(plan).value()));
}

std::vector<CachedPlan> AnalysisCache::ExportPlans() const {
  std::vector<CachedPlan> out;
  MutexLock lock(mutex_);
  out.reserve(plans_.size());
  // Walk the FIFO queue, not the map: insertion order round-trips through
  // a snapshot, so a restored cache evicts in the same order the original
  // would have.
  for (const Key& key : insertion_order_) {
    auto it = plans_.find(key);
    if (it == plans_.end()) continue;  // Evicted after enqueue; stale entry.
    CachedPlan entry;
    entry.fingerprint = key.fingerprint;
    entry.epsilon_bits = key.epsilon_bits;
    entry.kind = key.kind;
    entry.plan = it->second;
    out.push_back(std::move(entry));
  }
  return out;
}

std::size_t AnalysisCache::ImportPlans(const std::vector<CachedPlan>& entries) {
  std::size_t inserted = 0;
  MutexLock lock(mutex_);
  for (const CachedPlan& entry : entries) {
    if (entry.plan == nullptr) continue;
    const Key key{entry.fingerprint, entry.epsilon_bits, entry.kind};
    auto [it, fresh] = plans_.emplace(key, entry.plan);
    (void)it;
    if (!fresh) continue;
    insertion_order_.push_back(key);
    EvictIfFull();
    ++inserted;
  }
  return inserted;
}

void AnalysisCache::EvictIfFull() {
  if (max_entries_ == 0) return;
  while (plans_.size() > max_entries_ && !insertion_order_.empty()) {
    plans_.erase(insertion_order_.front());
    insertion_order_.pop_front();
  }
}

AnalysisCache::Stats AnalysisCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.extensions = extensions_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t AnalysisCache::size() const {
  MutexLock lock(mutex_);
  return plans_.size();
}

void AnalysisCache::Clear() {
  {
    MutexLock lock(chains_mutex_);
    chains_.clear();
    chains_order_.clear();
  }
  MutexLock lock(mutex_);
  plans_.clear();
  insertion_order_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  extensions_.store(0, std::memory_order_relaxed);
}

}  // namespace pf
