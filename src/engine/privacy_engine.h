// The front door of the library: a budget-aware, declarative serving API
// over the mechanism engine.
//
//     ModelSpec (what the adversary may believe)
//        |
//     PrivacyEngine::Create          picks the mechanism (policy or
//        |                           override), owns the AnalysisCache and
//        |                           the serving thread pool
//        v
//     engine->CreateSession(budget)  per-tenant ledger (Theorem 4.4)
//        |
//     session->Submit(QuerySpec, data)   plan (prepared-plan cache; sigma
//        |                               from the AnalysisCache), charge
//        |                               the budget, release on the pool
//        v
//     future<Result<ReleaseResult>>
//
// The mechanism layer (pufferfish/mechanism.h) stays available as the
// internal SPI; everything a caller needs for serving lives here.
#ifndef PUFFERFISH_ENGINE_PRIVACY_ENGINE_H_
#define PUFFERFISH_ENGINE_PRIVACY_ENGINE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/memory_stats.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/executor.h"
#include "engine/query_spec.h"
#include "graphical/bayesian_network.h"
#include "graphical/markov_chain.h"
#include "pufferfish/analysis_cache.h"
#include "pufferfish/framework.h"
#include "pufferfish/mechanism.h"
#include "pufferfish/wasserstein_mechanism.h"

namespace pf {

class Session;
struct SessionOptions;
struct BatchQuerySpec;
struct CompiledBatchPlan;

/// \brief The distribution class Theta, declaratively: what the engine
/// builds its mechanism from. Construct via the factories.
struct ModelSpec {
  enum class Kind {
    kChainClass,             ///< Explicit Markov chains, fixed length.
    kChainClassFreeInitial,  ///< Transition matrices x all initials (C.4).
    kChainSummary,           ///< Mixing summary (pi_min, g) only.
    kNetworkClass,           ///< General Bayesian networks.
    kOutputPairs,            ///< Conditional output pairs (Algorithm 1).
    kSensitivity,            ///< Plain L1 sensitivity (entry DP).
    kGroupSensitivity,       ///< Group sensitivity (Definition B.1).
  };

  Kind kind = Kind::kChainClass;
  std::vector<MarkovChain> chains;
  std::vector<Matrix> transitions;
  ChainClassSummary summary;
  std::vector<BayesianNetwork> networks;
  std::vector<ConditionalOutputPair> pairs;
  double sensitivity = 0.0;
  /// Record length T (chains), node count (networks), 0 when lengthless.
  std::size_t length = 0;
  /// State-space size k; 0 when the model carries no state space.
  std::size_t num_states = 0;

  static ModelSpec ChainClass(std::vector<MarkovChain> thetas,
                              std::size_t length);
  static ModelSpec ChainClassFreeInitial(std::vector<Matrix> transitions,
                                         std::size_t length);
  static ModelSpec ChainSummary(ChainClassSummary summary,
                                std::size_t num_states, std::size_t length);
  static ModelSpec NetworkClass(std::vector<BayesianNetwork> thetas);
  static ModelSpec OutputPairs(std::vector<ConditionalOutputPair> pairs);
  static ModelSpec Sensitivity(double sensitivity);
  static ModelSpec GroupSensitivity(double group_sensitivity);

  const char* KindName() const;
};

/// Engine-wide knobs. Defaults serve: auto mechanism policy, hardware
/// threads, bounded caches.
struct EngineOptions {
  /// Explicit mechanism override; nullopt selects by policy (see
  /// SelectMechanism). Overrides incompatible with the model fail Create.
  std::optional<MechanismKind> mechanism;
  /// Serving + analysis worker threads; 0 means hardware concurrency.
  std::size_t num_threads = 0;
  /// Bounds both engine caches: the AnalysisCache (sigma plans resident)
  /// and the prepared-plan cache (whole batch plans, which the prepared
  /// cache also bounds by resident rows). 0 means unbounded.
  std::size_t cache_capacity = 1024;
  /// Quilt-width cap for MQMExact searches.
  std::size_t exact_max_nearby = 64;
  /// Permit the Section 4.4.1 stationary-initial shortcut.
  bool allow_stationary_shortcut = true;
  /// Auto policy: chain classes longer than this use MQMApprox (whose
  /// analysis is length-independent) instead of MQMExact.
  std::size_t approx_length_cutoff = 100000;
  /// Separator-size cap for the exhaustive general-network quilt search
  /// (Algorithm 2 on small networks).
  std::size_t max_quilt_size = 2;
  /// Radius / sphere-size caps for the separator-driven quilt search that
  /// large networks switch to (see SeparatorQuilts).
  SeparatorSearchOptions network_separator;
  /// Inference backend for general-network (Algorithm 2) max-influence
  /// conditionals; kAuto resolves to variable elimination, whose cost is
  /// exponential only in the network's induced treewidth.
  InferenceBackend network_backend = InferenceBackend::kAuto;
  /// Executor queue bound: submissions beyond this many waiting tasks are
  /// shed with Unavailable (see ExecutorOptions::max_queue_depth; 0 =
  /// unbounded).
  std::size_t max_queue_depth = 1024;
  /// Cold-analysis fast-fail: when > 0 and the executor queue is at least
  /// this deep, a Compile whose plan is NOT already cached is shed with
  /// Unavailable instead of running a cold sigma analysis — warm (cached)
  /// traffic keeps serving at full speed under overload, and cold requests
  /// recover as soon as the queue drains. 0 disables the policy.
  std::size_t shed_cold_queue_depth = 0;
};

/// Auto policy: NetworkClass models whose min-fill induced width (a
/// treewidth upper bound) exceeds this are refused at Create — the
/// elimination tables would be exponential in it. Structured models
/// (trees, stars, grids) pass at any node count; an explicit
/// EngineOptions::mechanism override bypasses the screen.
inline constexpr std::size_t kNetworkWidthCutoff = 16;

/// \brief The mechanism the policy picks for `model` under `options`
/// (honoring options.mechanism when set). Exposed for tests and logs;
/// PrivacyEngine::Create applies the same rule.
///
/// Policy: chain classes use MQMExact up to options.approx_length_cutoff
/// and MQMApprox beyond (Lemma 4.9 makes its analysis length-independent);
/// summaries use MQMApprox; networks use the general MQM; output pairs use
/// the Wasserstein mechanism; sensitivities use the Laplace baselines.
Result<MechanismKind> SelectMechanism(const ModelSpec& model,
                                      const EngineOptions& options);

/// \brief Owns the model, the selected mechanism, the plan cache, the
/// prepared-plan cache, and the serving thread pool. Immutable after
/// Create apart from the caches and the record length (which
/// AppendObservations / SetRecordLength hot-swap under a lock); safe to
/// share across threads. Must outlive its Sessions.
class PrivacyEngine {
 public:
  /// A query compiled against the engine's model: the concrete vector
  /// query plus the (cached) plan serving it. A CompiledBatchPlan holds one
  /// per unique query.
  struct CompiledQuery {
    VectorQuery query;
    std::shared_ptr<const MechanismPlan> plan;
  };

  static Result<std::unique_ptr<PrivacyEngine>> Create(
      ModelSpec model, EngineOptions options = {});

  PrivacyEngine(const PrivacyEngine&) = delete;
  PrivacyEngine& operator=(const PrivacyEngine&) = delete;

  /// The currently selected mechanism kind (policy or override; may change
  /// across SetRecordLength when the length crosses approx_length_cutoff).
  MechanismKind mechanism_kind() const;
  /// SPI escape hatch: a snapshot of the underlying mechanism (for
  /// diagnostics). Snapshots stay valid across hot-swaps.
  std::shared_ptr<const Mechanism> mechanism() const;

  std::size_t num_states() const { return num_states_; }
  /// Current record length T (grows under AppendObservations).
  std::size_t record_length() const;
  const EngineOptions& options() const { return options_; }
  /// Resolved worker-thread count (options.num_threads or hardware).
  std::size_t num_threads() const { return executor_.num_threads(); }

  /// \brief Grows the model's record length by `delta` observations — the
  /// streaming / continual-release path. The prepared-plan cache is
  /// invalidated (compiled Lipschitz constants and plans are
  /// length-dependent), but cached MQMExact analyses are NOT discarded:
  /// the next Compile at the new length EXTENDS the retained resumable
  /// analysis (AnalysisCache::GetOrExtend), which costs O(max_nearby +
  /// delta) instead of a cold O(T) re-analysis and is bit-identical to
  /// one. Sessions opened before the append keep their spent budget;
  /// releases they make afterwards are priced on the new plan, and the
  /// Theorem 4.4 ledger refuses them (FailedPrecondition) if the new
  /// active quilt differs from the session's earlier releases — open a
  /// session per append epoch, or use sliding-window queries from a fresh
  /// session, to compose soundly.
  Status AppendObservations(std::size_t delta);

  /// \brief Hot-swaps the record length outright (same semantics as
  /// AppendObservations; shrinking re-analyzes cold since analyses only
  /// extend forward). Only models with a chain length dimension support
  /// this; the mechanism is re-selected by policy, so crossing
  /// approx_length_cutoff may switch MQMExact <-> MQMApprox.
  Status SetRecordLength(std::size_t new_length);

  /// \brief Compiles a declarative query to (VectorQuery, MechanismPlan),
  /// analyzing at the spec's epsilon at most once per (model, epsilon):
  /// the plan comes from the AnalysisCache, so a repeated Compile is a
  /// cache hit. The query is rebuilt on every call; callers that resubmit
  /// a shape get it from the prepared-plan cache (PrepareBatchPlan).
  ///
  /// A nonzero `window_length` compiles against a window of that many
  /// observations instead of the full record: built-in Lipschitz constants
  /// that depend on the record length (mean, frequencies) are derived from
  /// the window length — a window query is exactly that much more
  /// sensitive per record — while the plan (noise calibration) is the full
  /// model's. window_length = 0 means the full record; longer than the
  /// record is InvalidArgument.
  ///
  /// `request` constrains the compile: an already-expired deadline is
  /// refused with DeadlineExceeded before any work, and a deadline expiring
  /// mid-analysis cancels it at the next checkpoint. Cold analyses are shed
  /// with Unavailable under the overload policy
  /// (EngineOptions::shed_cold_queue_depth). Failure messages chain context
  /// back to the root cause.
  Result<CompiledQuery> Compile(const QuerySpec& spec,
                                std::size_t window_length = 0,
                                const RequestOptions& request = {});

  /// \brief Opens a per-tenant session with its own privacy budget and RNG
  /// seed. The engine must outlive the session.
  std::unique_ptr<Session> CreateSession(const SessionOptions& options);
  std::unique_ptr<Session> CreateSession();

  /// Plan-cache statistics (hits prove re-analysis was skipped).
  AnalysisCache::Stats cache_stats() const { return cache_.stats(); }

  /// \brief Analysis-cost diagnostics of a plan: how much work the sigma
  /// analysis did and what its tables held. MQMExact plans fill the node
  /// and ladder numbers; MQM-general (network) plans fill the node,
  /// treewidth, and factor-table numbers; MQMApprox (whose Lemma 4.9
  /// analysis is already length-independent) and the remaining mechanisms
  /// report zeros.
  struct AnalysisStats {
    /// Nodes the sigma_i loop covered: T per theta for chains, the node
    /// count for networks.
    std::size_t total_nodes = 0;
    /// sigma_i evaluations actually performed (dedup classes).
    std::size_t scored_nodes = 0;
    /// total_nodes / scored_nodes: work saved by the dedup scan (marginal
    /// keys on chains, canonical node classes on networks).
    double dedup_ratio = 1.0;
    /// Unified memory accounting of the analysis: `peak_bytes` is the peak
    /// resident analysis tables (power ladder + maximization tables +
    /// class store for chain plans; largest live factor-table set for
    /// network plans), `arena_retained_bytes` the buffers retained for
    /// reuse by the next analysis, and `mallocs` the tracked
    /// heap-acquisition events of the pass — 0 on a warm steady-state
    /// re-analysis (the zero-allocation hot path).
    MemoryStats memory;
    /// True when the Section 4.4.1 stationary shortcut served the plan.
    bool used_stationary_shortcut = false;
    /// Network plans: largest elimination clique (minus one) the influence
    /// inferences actually materialized. 0 under the enumeration backend.
    std::size_t induced_width = 0;
    /// Network plans: min-fill induced width of the (union) moral graph —
    /// the treewidth upper bound the selection policy screened against.
    std::size_t treewidth_bound = 0;
  };

  /// \brief Stats for the plan serving `epsilon`, analyzing (or hitting
  /// the cache) exactly like Compile does.
  Result<AnalysisStats> AnalyzeStats(double epsilon);

  /// \brief Writes every cached plan to a warm-restart snapshot at `path`
  /// (atomically: temp file + rename; see pufferfish/plan_store.h for the
  /// format). A fresh engine over the same model restores them with
  /// LoadAnalyses, turning its first Compile per epsilon into a cache hit
  /// instead of a cold analysis.
  Status SaveAnalyses(const std::string& path) const;

  /// \brief Loads a snapshot saved by SaveAnalyses into the plan cache and
  /// returns the number of plans imported. Plans are keyed by (model
  /// fingerprint, epsilon, kind), so entries from other models or
  /// configurations simply never hit — loading a stale snapshot is safe,
  /// just useless. Corrupt, truncated, or version-mismatched snapshots are
  /// rejected whole (the engine then starts cold, which is always
  /// correct). Resumable chain scan state is not persisted: after a load,
  /// the first AppendObservations re-seeds it with one cold analysis and
  /// appends are incremental from then on.
  Result<std::size_t> LoadAnalyses(const std::string& path);

  /// \brief A seed for a session that did not pin one: distinct per call
  /// (sequence scrambled from a random per-engine base), so default
  /// sessions never share a noise stream — see SessionOptions::seed.
  std::uint64_t NextSessionSeed();

  /// The serving pool (Sessions dispatch Submit() work here).
  Executor& executor() { return executor_; }

 private:
  // The prepared-plan cache's entry points (engine/batch_plan_internal.h).
  friend struct PreparedPlanAccess;

  PrivacyEngine(ModelSpec model, EngineOptions options,
                std::unique_ptr<Mechanism> mechanism, std::size_t num_threads);

  /// \brief The prepared plan stored under `shape`, or null. The caller
  /// validates a hit against its batch: the fingerprint only finds
  /// candidates. `generation` receives the model generation to hand to
  /// StorePreparedPlan. On a miss, `store` says whether the plan the caller
  /// is about to compile should be stored: true on the second sighting of
  /// `shape` this generation; a first sighting is only remembered.
  std::shared_ptr<const CompiledBatchPlan> FindPreparedPlan(
      std::uint64_t shape, std::uint64_t* generation, bool* store)
      PF_EXCLUDES(prepared_mutex_);

  /// \brief Stores a freshly compiled plan under `shape` — unless the model
  /// was hot-swapped since `generation` (the compile may straddle two
  /// record lengths), which drops it. Evicts FIFO past cache_capacity plans
  /// or kPreparedPlanRows resident rows; a plan of more rows than that is
  /// never stored.
  void StorePreparedPlan(std::uint64_t shape, std::uint64_t generation,
                         std::shared_ptr<const CompiledBatchPlan> plan)
      PF_EXCLUDES(prepared_mutex_);

  /// Body of SetRecordLength.
  Status SetRecordLengthLocked(std::size_t new_length)
      PF_REQUIRES(model_mutex_);

  /// Lock order: model_mutex_ before prepared_mutex_ (the hot-swap path
  /// nests them that way); nothing acquires model_mutex_ while holding
  /// prepared_mutex_.
  ///
  /// model_.length and mechanism_ are the only mutable model state; both
  /// are guarded by model_mutex_ (everything else in model_ is immutable
  /// after Create — immutable fields read on unlocked paths are
  /// snapshotted into const members below). model_generation_ tags
  /// prepared plans so a batch compile racing a hot-swap can never store a
  /// stale plan.
  mutable Mutex model_mutex_;
  ModelSpec model_ PF_GUARDED_BY(model_mutex_);
  const EngineOptions options_;
  /// Snapshot of model_.num_states (immutable after Create), readable
  /// without model_mutex_.
  const std::size_t num_states_;
  std::shared_ptr<const Mechanism> mechanism_ PF_GUARDED_BY(model_mutex_);
  /// Atomic so StorePreparedPlan can re-check it without nesting
  /// model_mutex_ inside prepared_mutex_ (the swap path nests the other
  /// way). Written only under model_mutex_.
  std::atomic<std::uint64_t> model_generation_{0};
  AnalysisCache cache_;
  Executor executor_;

  mutable Mutex prepared_mutex_;
  /// Prepared batch plans by batch-shape fingerprint (see PrepareBatchPlan
  /// in engine/batch_plan.h): the whole compiled plan, so a resubmitted
  /// shape binds only tickets, seed and data. Invalidated by a hot-swap;
  /// FIFO by prepared_order_, bounded by cache_capacity plans and by
  /// kPreparedPlanRows resident rows. A plan's size grows with its rows
  /// (per-row vectors, a spec and a compiled query per unique query), so
  /// the row budget, not the plan count, bounds the cache's memory.
  std::unordered_map<std::uint64_t, std::shared_ptr<const CompiledBatchPlan>>
      prepared_ PF_GUARDED_BY(prepared_mutex_);
  std::deque<std::uint64_t> prepared_order_ PF_GUARDED_BY(prepared_mutex_);
  /// Sum of num_rows() over prepared_.
  std::size_t prepared_rows_ PF_GUARDED_BY(prepared_mutex_) = 0;
  /// Twice the rows of perfbench columnar's 16 resident 1024-row plans;
  /// about 15 MiB when every row is a distinct custom query
  /// (BM_PreparedCacheFill).
  static constexpr std::size_t kPreparedPlanRows = std::size_t{1} << 15;
  /// Shapes sighted once this generation, direct-mapped by fingerprint: a
  /// slot holds the last shape that hashed to it, so a repeat is found in
  /// one probe and a new shape takes its slot. A plan is stored only on
  /// its shape's second sighting, so traffic whose shapes never recur
  /// within a generation (each append tick's releases) does not store
  /// plans the next append drops. A hot-swap zeroes the table, as does a
  /// consumed sighting (fingerprints are never 0). 256 slots: in
  /// perfbench's interactive and columnar workloads a shape recurs within
  /// 64 other new shapes, and a sighting overwritten early only costs one
  /// more cold compile.
  static constexpr std::size_t kSightedShapes = 256;
  std::array<std::uint64_t, kSightedShapes> prepared_sighted_
      PF_GUARDED_BY(prepared_mutex_) = {};
  std::atomic<std::uint64_t> session_seed_state_;
};

}  // namespace pf

#endif  // PUFFERFISH_ENGINE_PRIVACY_ENGINE_H_
