#include "engine/privacy_engine.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/fingerprint.h"
#include "common/parallel.h"
#include "engine/batch_plan.h"
#include "engine/session.h"
#include "graphical/elimination.h"
#include "pufferfish/node_classes.h"
#include "pufferfish/plan_store.h"

namespace pf {

// ------------------------------------------------------------- ModelSpec --

ModelSpec ModelSpec::ChainClass(std::vector<MarkovChain> thetas,
                                std::size_t length) {
  ModelSpec m;
  m.kind = Kind::kChainClass;
  m.chains = std::move(thetas);
  m.length = length;
  if (!m.chains.empty()) m.num_states = m.chains.front().num_states();
  return m;
}

ModelSpec ModelSpec::ChainClassFreeInitial(std::vector<Matrix> transitions,
                                           std::size_t length) {
  ModelSpec m;
  m.kind = Kind::kChainClassFreeInitial;
  m.transitions = std::move(transitions);
  m.length = length;
  if (!m.transitions.empty()) m.num_states = m.transitions.front().rows();
  return m;
}

ModelSpec ModelSpec::ChainSummary(ChainClassSummary summary,
                                  std::size_t num_states, std::size_t length) {
  ModelSpec m;
  m.kind = Kind::kChainSummary;
  m.summary = summary;
  m.num_states = num_states;
  m.length = length;
  return m;
}

ModelSpec ModelSpec::NetworkClass(std::vector<BayesianNetwork> thetas) {
  ModelSpec m;
  m.kind = Kind::kNetworkClass;
  m.networks = std::move(thetas);
  if (!m.networks.empty()) {
    m.length = m.networks.front().num_nodes();
    std::size_t arity = 0;
    for (std::size_t i = 0; i < m.networks.front().num_nodes(); ++i) {
      arity = std::max(arity,
                       static_cast<std::size_t>(m.networks.front().node(i).arity));
    }
    m.num_states = arity;
  }
  return m;
}

ModelSpec ModelSpec::OutputPairs(std::vector<ConditionalOutputPair> pairs) {
  ModelSpec m;
  m.kind = Kind::kOutputPairs;
  m.pairs = std::move(pairs);
  return m;
}

ModelSpec ModelSpec::Sensitivity(double sensitivity) {
  ModelSpec m;
  m.kind = Kind::kSensitivity;
  m.sensitivity = sensitivity;
  return m;
}

ModelSpec ModelSpec::GroupSensitivity(double group_sensitivity) {
  ModelSpec m;
  m.kind = Kind::kGroupSensitivity;
  m.sensitivity = group_sensitivity;
  return m;
}

const char* ModelSpec::KindName() const {
  switch (kind) {
    case Kind::kChainClass: return "ChainClass";
    case Kind::kChainClassFreeInitial: return "ChainClassFreeInitial";
    case Kind::kChainSummary: return "ChainSummary";
    case Kind::kNetworkClass: return "NetworkClass";
    case Kind::kOutputPairs: return "OutputPairs";
    case Kind::kSensitivity: return "Sensitivity";
    case Kind::kGroupSensitivity: return "GroupSensitivity";
  }
  return "Unknown";
}

// ------------------------------------------------------- mechanism policy --

namespace {

Status ValidateModel(const ModelSpec& model) {
  switch (model.kind) {
    case ModelSpec::Kind::kChainClass:
      if (model.chains.empty()) {
        return Status::InvalidArgument("chain class is empty");
      }
      if (model.length == 0) {
        return Status::InvalidArgument("chain class needs a positive length");
      }
      return Status::OK();
    case ModelSpec::Kind::kChainClassFreeInitial:
      if (model.transitions.empty()) {
        return Status::InvalidArgument("free-initial class has no transitions");
      }
      if (model.length == 0) {
        return Status::InvalidArgument("chain class needs a positive length");
      }
      return Status::OK();
    case ModelSpec::Kind::kChainSummary:
      if (model.length == 0) {
        return Status::InvalidArgument("chain summary needs a positive length");
      }
      return Status::OK();
    case ModelSpec::Kind::kNetworkClass:
      if (model.networks.empty()) {
        return Status::InvalidArgument("network class is empty");
      }
      return Status::OK();
    case ModelSpec::Kind::kOutputPairs:
      if (model.pairs.empty()) {
        return Status::InvalidArgument("output-pair model has no pairs");
      }
      return Status::OK();
    case ModelSpec::Kind::kSensitivity:
    case ModelSpec::Kind::kGroupSensitivity:
      return Status::OK();
  }
  return Status::Internal("unhandled model kind");
}

/// The mechanisms constructible from each model kind.
bool Compatible(ModelSpec::Kind model, MechanismKind mech) {
  switch (model) {
    case ModelSpec::Kind::kChainClass:
      return mech == MechanismKind::kMqmExact ||
             mech == MechanismKind::kMqmApprox || mech == MechanismKind::kGk16;
    case ModelSpec::Kind::kChainClassFreeInitial:
      return mech == MechanismKind::kMqmExact || mech == MechanismKind::kGk16;
    case ModelSpec::Kind::kChainSummary:
      return mech == MechanismKind::kMqmApprox;
    case ModelSpec::Kind::kNetworkClass:
      return mech == MechanismKind::kMqmGeneral;
    case ModelSpec::Kind::kOutputPairs:
      return mech == MechanismKind::kWasserstein;
    case ModelSpec::Kind::kSensitivity:
      return mech == MechanismKind::kLaplaceDp;
    case ModelSpec::Kind::kGroupSensitivity:
      return mech == MechanismKind::kGroupDp;
  }
  return false;
}

ChainUnifiedOptions ChainOptions(const EngineOptions& options,
                                 std::size_t max_nearby,
                                 std::size_t num_threads) {
  ChainUnifiedOptions chain;
  chain.max_nearby = max_nearby;
  chain.allow_stationary_shortcut = options.allow_stationary_shortcut;
  chain.num_threads = num_threads;
  return chain;
}

/// make_unique with the Mechanism upcast folded in, so BuildMechanism's
/// returns stay a single implicit conversion away from Result.
template <typename M, typename... Args>
std::unique_ptr<Mechanism> MakeMechanism(Args&&... args) {
  return std::make_unique<M>(std::forward<Args>(args)...);
}

Result<std::unique_ptr<Mechanism>> BuildMechanism(const ModelSpec& model,
                                                  const EngineOptions& options,
                                                  MechanismKind kind,
                                                  std::size_t num_threads) {
  switch (kind) {
    case MechanismKind::kLaplaceDp:
      return MakeMechanism<LaplaceDpUnified>(model.sensitivity);
    case MechanismKind::kGroupDp:
      return MakeMechanism<GroupDpUnified>(model.sensitivity);
    case MechanismKind::kGk16: {
      std::vector<Matrix> transitions = model.transitions;
      if (transitions.empty()) {
        transitions.reserve(model.chains.size());
        for (const MarkovChain& theta : model.chains) {
          transitions.push_back(theta.transition());
        }
      }
      return MakeMechanism<Gk16Unified>(std::move(transitions), model.length);
    }
    case MechanismKind::kWasserstein:
      return MakeMechanism<WassersteinUnified>(model.pairs,
                                               WassersteinBackend::kQuantile);
    case MechanismKind::kMqmGeneral: {
      MqmAnalyzeOptions mqm;
      mqm.max_quilt_size = options.max_quilt_size;
      mqm.num_threads = num_threads;
      mqm.backend = options.network_backend;
      mqm.separator = options.network_separator;
      return MakeMechanism<MqmGeneralUnified>(model.networks, mqm);
    }
    case MechanismKind::kMqmExact: {
      const ChainUnifiedOptions chain =
          ChainOptions(options, options.exact_max_nearby, num_threads);
      if (model.kind == ModelSpec::Kind::kChainClassFreeInitial) {
        return MakeMechanism<MqmExactFreeInitialUnified>(
            model.transitions, model.length, chain);
      }
      return MakeMechanism<MqmExactUnified>(model.chains, model.length, chain);
    }
    case MechanismKind::kMqmApprox: {
      // Width 0: Lemma 4.9's automatic quilt width.
      const ChainUnifiedOptions chain = ChainOptions(options, 0, num_threads);
      if (model.kind == ModelSpec::Kind::kChainSummary) {
        return MakeMechanism<MqmApproxUnified>(model.summary, model.length,
                                               chain);
      }
      return MakeMechanism<MqmApproxUnified>(model.chains, model.length,
                                             chain);
    }
  }
  return Status::Internal("unhandled mechanism kind");
}

}  // namespace

Result<MechanismKind> SelectMechanism(const ModelSpec& model,
                                      const EngineOptions& options) {
  PF_RETURN_NOT_OK(ValidateModel(model));
  if (options.mechanism.has_value()) {
    if (!Compatible(model.kind, *options.mechanism)) {
      return Status::InvalidArgument(
          std::string("mechanism override ") +
          MechanismKindName(*options.mechanism) +
          " cannot be built from a " + model.KindName() + " model");
    }
    return *options.mechanism;
  }
  switch (model.kind) {
    case ModelSpec::Kind::kChainClass:
      // Long chains: MQMApprox's Lemma 4.9 analysis is length-independent,
      // and per Section 5.3.2 its width is near-optimal at scale.
      return model.length > options.approx_length_cutoff
                 ? MechanismKind::kMqmApprox
                 : MechanismKind::kMqmExact;
    case ModelSpec::Kind::kChainClassFreeInitial:
      return MechanismKind::kMqmExact;
    case ModelSpec::Kind::kChainSummary:
      return MechanismKind::kMqmApprox;
    case ModelSpec::Kind::kNetworkClass: {
      // Structured networks of any size route to Algorithm 2 — its
      // variable-elimination inference is exponential only in treewidth —
      // but a model whose min-fill width already exceeds the cutoff would
      // build elimination tables of >= arity^(width+1) cells, so the
      // policy refuses it up front with the number in hand rather than
      // timing out in Analyze. (An explicit mechanism override skips this
      // screen: the caller opted in.)
      const std::size_t width =
          MinFillWidth(UnionMoralGraph(model.networks).adjacency());
      if (width > kNetworkWidthCutoff) {
        return Status::InvalidArgument(
            "network class min-fill width " + std::to_string(width) +
            " exceeds kNetworkWidthCutoff (" +
            std::to_string(kNetworkWidthCutoff) +
            "): structured inference would be exponential in it; simplify "
            "the model or override the mechanism");
      }
      return MechanismKind::kMqmGeneral;
    }
    case ModelSpec::Kind::kOutputPairs:
      return MechanismKind::kWasserstein;
    case ModelSpec::Kind::kSensitivity:
      return MechanismKind::kLaplaceDp;
    case ModelSpec::Kind::kGroupSensitivity:
      return MechanismKind::kGroupDp;
  }
  return Status::Internal("unhandled model kind");
}

// --------------------------------------------------------- PrivacyEngine --

namespace {

/// Base for engine-assigned session seeds. std::random_device alone is 32
/// bits and fully deterministic on some standard libraries, which would
/// reproduce the engine's noise-seed sequence across process restarts —
/// the correlated-noise hazard SessionOptions::seed exists to prevent. So
/// several draws are folded with a high-resolution timestamp and ASLR'd
/// address bits.
std::uint64_t RandomSeedBase() {
  // pf:allow(unseeded-randomness): this seeds the per-engine SESSION-seed
  // sequence, which must be distinct across engines/restarts — identical
  // noise streams would let an observer cancel the noise (see
  // SessionOptions::seed). Release noise itself stays deterministic per
  // (session seed, ticket).
  std::random_device rd;  // pf:allow(unseeded-randomness)
  std::uint64_t base = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  base = SplitMix64(base ^ static_cast<std::uint64_t>(
                               std::chrono::high_resolution_clock::now()
                                   .time_since_epoch()
                                   .count()));
  return SplitMix64(base ^ reinterpret_cast<std::uintptr_t>(&rd));
}

}  // namespace

PrivacyEngine::PrivacyEngine(ModelSpec model, EngineOptions options,
                             std::unique_ptr<Mechanism> mechanism,
                             std::size_t num_threads)
    : model_(std::move(model)),
      options_(options),
      num_states_(model_.num_states),
      mechanism_(std::move(mechanism)),
      cache_(options_.cache_capacity),
      executor_(ExecutorOptions{num_threads, options_.max_queue_depth}),
      session_seed_state_(RandomSeedBase()) {}

MechanismKind PrivacyEngine::mechanism_kind() const {
  MutexLock lock(model_mutex_);
  return mechanism_->kind();
}

std::shared_ptr<const Mechanism> PrivacyEngine::mechanism() const {
  MutexLock lock(model_mutex_);
  return mechanism_;
}

std::size_t PrivacyEngine::record_length() const {
  MutexLock lock(model_mutex_);
  return model_.length;
}

Status PrivacyEngine::AppendObservations(std::size_t delta) {
  MutexLock lock(model_mutex_);
  return SetRecordLengthLocked(model_.length + delta);
}

Status PrivacyEngine::SetRecordLength(std::size_t new_length) {
  MutexLock lock(model_mutex_);
  return SetRecordLengthLocked(new_length);
}

Status PrivacyEngine::SetRecordLengthLocked(std::size_t new_length) {
  switch (model_.kind) {
    case ModelSpec::Kind::kChainClass:
    case ModelSpec::Kind::kChainClassFreeInitial:
    case ModelSpec::Kind::kChainSummary:
      break;
    default:
      return Status::NotSupported(
          std::string("model kind ") + model_.KindName() +
          " has no record-length dimension to hot-swap");
  }
  if (new_length == 0) {
    return Status::InvalidArgument("record length must be positive");
  }
  if (new_length == model_.length) return Status::OK();
  ModelSpec updated = model_;
  updated.length = new_length;
  PF_ASSIGN_OR_RETURN(const MechanismKind kind,
                      SelectMechanism(updated, options_));
  PF_ASSIGN_OR_RETURN(
      std::unique_ptr<Mechanism> mechanism,
      BuildMechanism(updated, options_, kind, executor_.num_threads()));
  model_ = std::move(updated);
  mechanism_ = std::move(mechanism);
  // Bump the generation BEFORE clearing so a batch plan compiled across
  // this swap can never be stored against the new length.
  model_generation_.fetch_add(1, std::memory_order_release);
  {
    MutexLock prepared_lock(prepared_mutex_);
    prepared_.clear();
    prepared_order_.clear();
    prepared_rows_ = 0;
    prepared_sighted_.fill(0);
  }
  return Status::OK();
}

std::shared_ptr<const CompiledBatchPlan> PrivacyEngine::FindPreparedPlan(
    std::uint64_t shape, std::uint64_t* generation, bool* store) {
  MutexLock lock(prepared_mutex_);
  // Read under the lock the swap path clears under: a generation read here
  // is never older than the cache contents, so a plan compiled after this
  // lookup and stored under it cannot outlive the next hot-swap.
  *generation = model_generation_.load(std::memory_order_acquire);
  *store = false;
  auto it = prepared_.find(shape);
  if (it != prepared_.end()) return it->second;
  std::uint64_t& sighted = prepared_sighted_[shape % kSightedShapes];
  *store = sighted == shape;
  sighted = *store ? 0 : shape;
  return nullptr;
}

void PrivacyEngine::StorePreparedPlan(
    std::uint64_t shape, std::uint64_t generation,
    std::shared_ptr<const CompiledBatchPlan> plan) {
  const std::size_t rows = plan->num_rows();
  if (rows > kPreparedPlanRows) return;
  MutexLock lock(prepared_mutex_);
  // A plan whose compile overlapped a hot-swap is served but never cached.
  if (model_generation_.load(std::memory_order_acquire) != generation) return;
  // A racing thread may have stored the same shape first; keep its plan.
  if (!prepared_.try_emplace(shape, std::move(plan)).second) return;
  prepared_order_.push_back(shape);
  prepared_rows_ += rows;
  while ((prepared_rows_ > kPreparedPlanRows ||
          (options_.cache_capacity > 0 &&
           prepared_.size() > options_.cache_capacity)) &&
         !prepared_order_.empty()) {
    auto oldest = prepared_.find(prepared_order_.front());
    prepared_rows_ -= oldest->second->num_rows();
    prepared_.erase(oldest);
    prepared_order_.pop_front();
  }
}

Result<PrivacyEngine::AnalysisStats> PrivacyEngine::AnalyzeStats(
    double epsilon) {
  std::shared_ptr<const Mechanism> mechanism = this->mechanism();
  PF_ASSIGN_OR_RETURN(std::shared_ptr<const MechanismPlan> plan,
                      cache_.GetOrExtend(*mechanism, epsilon));
  AnalysisStats stats;
  if (plan->kind == MechanismKind::kMqmGeneral) {
    stats.total_nodes = plan->mqm.total_nodes;
    stats.scored_nodes = plan->mqm.scored_nodes;
    stats.dedup_ratio = plan->mqm.dedup_ratio();
    stats.induced_width = plan->mqm.induced_width;
    stats.treewidth_bound = plan->mqm.treewidth_bound;
    stats.memory = plan->mqm.memory;
  } else {
    stats.total_nodes = plan->chain.total_nodes;
    stats.scored_nodes = plan->chain.scored_nodes;
    stats.dedup_ratio = plan->chain.dedup_ratio();
    stats.memory = plan->chain.memory;
    stats.used_stationary_shortcut = plan->chain.used_stationary_shortcut;
  }
  return stats;
}

Status PrivacyEngine::SaveAnalyses(const std::string& path) const {
  return SavePlanSnapshot(path, cache_.ExportPlans());
}

Result<std::size_t> PrivacyEngine::LoadAnalyses(const std::string& path) {
  PF_FAILPOINT("engine.load_analyses");
  Result<std::vector<CachedPlan>> entries = LoadPlanSnapshot(path);
  if (!entries.ok()) {
    // Chain the context: the caller sees the whole failure path in one
    // message ("warm-restart load: plan snapshot: checksum mismatch").
    return entries.status().WithContext("warm-restart load");
  }
  return cache_.ImportPlans(entries.value());
}

std::uint64_t PrivacyEngine::NextSessionSeed() {
  // The SplitMix64 generator over a random per-engine base: every call
  // yields a distinct, well-scrambled seed.
  return SplitMix64(session_seed_state_.fetch_add(0x9E3779B97F4A7C15u));
}

Result<std::unique_ptr<PrivacyEngine>> PrivacyEngine::Create(
    ModelSpec model, EngineOptions options) {
  PF_ASSIGN_OR_RETURN(const MechanismKind kind,
                      SelectMechanism(model, options));
  const std::size_t num_threads = ResolveThreadCount(options.num_threads);
  PF_ASSIGN_OR_RETURN(std::unique_ptr<Mechanism> mechanism,
                      BuildMechanism(model, options, kind, num_threads));
  // pf:allow(naked-new-delete): private constructor, make_unique cannot
  // reach it; ownership is taken on the same expression.
  return std::unique_ptr<PrivacyEngine>(new PrivacyEngine(  // pf:allow(naked-new-delete)
      std::move(model), options, std::move(mechanism), num_threads));
}

Result<PrivacyEngine::CompiledQuery> PrivacyEngine::Compile(
    const QuerySpec& spec, std::size_t window_length,
    const RequestOptions& request) {
  // Refuse an already-dead request before doing any work (and, in the
  // Session flow, before the budget ledger is charged).
  if (request.deadline.expired()) {
    return Status::DeadlineExceeded("request deadline already expired")
        .WithContext("compile " + spec.CacheKey());
  }
  PF_FAILPOINT("engine.compile");
  // Snapshot the mutable model state once: the query and the plan are
  // compiled against the same record length even if a hot-swap races this
  // compile.
  std::shared_ptr<const Mechanism> mechanism;
  std::size_t model_length = 0;
  {
    MutexLock lock(model_mutex_);
    mechanism = mechanism_;
    model_length = model_.length;
  }
  if (window_length > model_length) {
    return Status::InvalidArgument(
        "window of " + std::to_string(window_length) +
        " observations exceeds the record length " +
        std::to_string(model_length));
  }
  const std::size_t compile_length =
      window_length == 0 ? model_length : window_length;
  PF_ASSIGN_OR_RETURN(
      VectorQuery query,
      CompileQuerySpec(spec, num_states_, compile_length));
  // Overload policy: past the shed threshold, a plan that is not already
  // resident is refused rather than analyzed cold (warm traffic is never
  // shed). The residency probe fingerprints the whole model, so it runs
  // only when the policy is on and the queue is at the threshold. The
  // refusal is transient: a retry succeeds once load drops.
  const std::size_t shed_depth = options_.shed_cold_queue_depth;
  const std::size_t depth = executor_.queue_depth();
  if (shed_depth > 0 && depth >= shed_depth &&
      !cache_.Contains(*mechanism, spec.epsilon)) {
    return Status::Unavailable("cold analysis shed under load (queue depth " +
                               std::to_string(depth) + " >= " +
                               std::to_string(shed_depth) +
                               "); retry after load drops")
        .WithContext("compile " + spec.CacheKey());
  }
  // The request's deadline, installed thread-locally for the duration of
  // the (possibly long) sigma analysis; ParallelFor carries it into pool
  // workers, so the checkpoints deep in the analysis loops see it.
  Result<std::shared_ptr<const MechanismPlan>> plan = [&] {
    DeadlineScope scope(request.deadline);
    return cache_.GetOrExtend(*mechanism, spec.epsilon);
  }();
  if (!plan.ok()) {
    return plan.status().WithContext("compile " + spec.CacheKey());
  }
  return CompiledQuery{std::move(query), std::move(plan).value()};
}

std::unique_ptr<Session> PrivacyEngine::CreateSession(
    const SessionOptions& options) {
  return std::make_unique<Session>(this, options);
}

std::unique_ptr<Session> PrivacyEngine::CreateSession() {
  return CreateSession(SessionOptions{});
}

}  // namespace pf
