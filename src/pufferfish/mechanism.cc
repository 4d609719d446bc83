#include "pufferfish/mechanism.h"

#include <cmath>
#include <string>

#include "common/fingerprint.h"
#include "engine/batch_kernels.h"

namespace pf {

const char* MechanismKindName(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kLaplaceDp: return "LaplaceDP";
    case MechanismKind::kGroupDp: return "GroupDP";
    case MechanismKind::kGk16: return "GK16";
    case MechanismKind::kWasserstein: return "Wasserstein";
    case MechanismKind::kMqmGeneral: return "MQM";
    case MechanismKind::kMqmExact: return "MQMExact";
    case MechanismKind::kMqmApprox: return "MQMApprox";
  }
  return "Unknown";
}

MechanismPlan Mechanism::NewPlan(double epsilon, double sigma) const {
  MechanismPlan plan;
  plan.kind = kind();
  plan.epsilon = epsilon;
  plan.sigma = sigma;
  plan.cache_hits = std::make_shared<std::atomic<std::uint64_t>>(0);
  return plan;
}

Result<std::unique_ptr<ResumableAnalysis>> Mechanism::AnalyzeResumable(
    double /*epsilon*/) const {
  return Status::NotSupported(std::string(MechanismKindName(kind())) +
                              " has no resumable (append-aware) analysis");
}

namespace {
Status CheckReleasable(const MechanismPlan& plan, double lipschitz) {
  if (!plan.applicable) {
    return Status::FailedPrecondition(
        std::string(MechanismKindName(plan.kind)) +
        " inapplicable for this class (no finite noise scale)");
  }
  if (!(lipschitz >= 0.0) || !std::isfinite(lipschitz)) {
    return Status::InvalidArgument("Lipschitz constant must be nonnegative");
  }
  if (!std::isfinite(plan.sigma) || plan.sigma < 0.0) {
    return Status::FailedPrecondition("plan has no finite noise scale");
  }
  return Status::OK();
}
}  // namespace

Result<Vector> ReleaseVector(const MechanismPlan& plan, const Vector& value,
                             double lipschitz, Rng* rng) {
  PF_RETURN_NOT_OK(CheckReleasable(plan, lipschitz));
  Vector out = value;
  AddLaplaceNoise(out.data(), out.size(), lipschitz * plan.sigma, rng);
  return out;
}

Status ReleaseBatchColumnar(
    const std::vector<std::shared_ptr<const MechanismPlan>>& plans,
    std::uint64_t seed, RecordBatch* batch) {
  // All validation before any noise: a refused batch must leave the truth
  // values untouched so the caller can surface the error without having
  // half-released anything.
  for (const auto& plan : plans) {
    if (plan == nullptr) return Status::InvalidArgument("null plan in batch");
    PF_RETURN_NOT_OK(CheckReleasable(*plan, /*lipschitz=*/0.0));
  }
  const std::size_t rows = batch->num_rows();
  const double* scales = batch->noise_scales();
  for (std::size_t r = 0; r < rows; ++r) {
    if (!std::isfinite(scales[r]) || scales[r] < 0.0) {
      return Status::FailedPrecondition(
          "row " + std::to_string(r) + " has no finite noise scale");
    }
  }
  // One noise pass (engine/batch_kernels): bit-identical to seeding a
  // per-row Rng(TicketNoiseSeed(seed, ticket)) and calling AddLaplaceNoise
  // row by row, but each row's mt19937_64 is built only as far as the row
  // draws from it, with the seeding interleaved across rows.
  const std::uint64_t* tickets = batch->tickets();
  std::vector<std::uint64_t> seeds(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    seeds[r] = TicketNoiseSeed(seed, tickets[r]);
  }
  BatchLaplaceNoise(batch->values(), batch->offsets(), scales, seeds.data(),
                    rows);
  return Status::OK();
}

// -------------------------------------------------------------- LaplaceDP --

Result<MechanismPlan> LaplaceDpUnified::Analyze(double epsilon) const {
  PF_RETURN_NOT_OK(ValidatePrivacyParams({epsilon}));
  if (!(sensitivity_ >= 0.0) || !std::isfinite(sensitivity_)) {
    return Status::InvalidArgument("sensitivity must be nonnegative and finite");
  }
  return NewPlan(epsilon, sensitivity_ / epsilon);
}

std::uint64_t LaplaceDpUnified::Fingerprint() const {
  return pf::Fingerprint{}.Add(static_cast<int>(kind())).Add(sensitivity_).hash();
}

// ---------------------------------------------------------------- GroupDP --

Result<MechanismPlan> GroupDpUnified::Analyze(double epsilon) const {
  PF_RETURN_NOT_OK(ValidatePrivacyParams({epsilon}));
  if (!(group_sensitivity_ >= 0.0) || !std::isfinite(group_sensitivity_)) {
    return Status::InvalidArgument("group sensitivity must be nonnegative");
  }
  return NewPlan(epsilon, group_sensitivity_ / epsilon);
}

std::uint64_t GroupDpUnified::Fingerprint() const {
  return pf::Fingerprint{}
      .Add(static_cast<int>(kind()))
      .Add(group_sensitivity_)
      .hash();
}

// ------------------------------------------------------------------- GK16 --

Result<MechanismPlan> Gk16Unified::Analyze(double epsilon) const {
  PF_ASSIGN_OR_RETURN(Gk16Analysis analysis,
                      Gk16Analyze(transitions_, length_, epsilon));
  MechanismPlan plan = NewPlan(epsilon, analysis.sigma);
  plan.applicable = analysis.applicable;
  plan.gk16 = analysis;
  return plan;
}

std::uint64_t Gk16Unified::Fingerprint() const {
  pf::Fingerprint fp;
  fp.Add(static_cast<int>(kind())).Add(length_).Add(transitions_.size());
  for (const Matrix& p : transitions_) fp.Add(p);
  return fp.hash();
}

// ------------------------------------------------------------ Wasserstein --

Result<MechanismPlan> WassersteinUnified::Analyze(double epsilon) const {
  PF_RETURN_NOT_OK(ValidatePrivacyParams({epsilon}));
  PF_ASSIGN_OR_RETURN(double w, WassersteinSensitivity(pairs_, backend_));
  MechanismPlan plan = NewPlan(epsilon, w / epsilon);
  plan.wasserstein_w = w;
  return plan;
}

std::uint64_t WassersteinUnified::Fingerprint() const {
  pf::Fingerprint fp;
  fp.Add(static_cast<int>(kind()))
      .Add(static_cast<int>(backend_))
      .Add(pairs_.size());
  for (const ConditionalOutputPair& pair : pairs_) {
    for (const DiscreteDistribution* d : {&pair.mu_i, &pair.mu_j}) {
      fp.Add(d->size());
      for (const DiscreteDistribution::Atom& atom : d->atoms()) {
        fp.Add(atom.x).Add(atom.p);
      }
    }
  }
  return fp.hash();
}

// ------------------------------------------------------------- MQMGeneral --

Result<MechanismPlan> MqmGeneralUnified::Analyze(double epsilon) const {
  PF_ASSIGN_OR_RETURN(MqmAnalysis analysis,
                      AnalyzeMarkovQuiltMechanism(thetas_, epsilon, options_));
  MechanismPlan plan = NewPlan(epsilon, analysis.sigma_max);
  plan.applicable = std::isfinite(analysis.sigma_max);
  plan.mqm = std::move(analysis);
  return plan;
}

std::uint64_t MqmGeneralUnified::Fingerprint() const {
  // dedup_nodes and num_threads deliberately excluded (the library-wide
  // convention, see AddChainOptions): the noise calibration and active
  // quilts are bit-identical for every value of both, so cached plans are
  // interchangeable. Only the analysis-COST diagnostics (scored_nodes,
  // dedup_ratio) reflect whichever scan filled the cache first — callers
  // comparing scan costs must use separate caches. Everything that can
  // change the released noise — search mode, separator caps, backend
  // (ulp-level), guards — is keyed.
  pf::Fingerprint fp;
  fp.Add(static_cast<int>(kind()))
      .Add(options_.max_quilt_size)  // The quilt-width cap changes the plan.
      .Add(options_.enumeration_limit)
      .Add(static_cast<int>(options_.backend))
      .Add(static_cast<int>(options_.quilt_search))
      .Add(kExhaustiveNodeLimit)  // Keeps saved plan keys stable.
      .Add(options_.separator.max_radius)
      .Add(options_.separator.max_quilt_size)
      .Add(thetas_.size());
  for (const BayesianNetwork& bn : thetas_) {
    fp.Add(bn.num_nodes());
    for (std::size_t i = 0; i < bn.num_nodes(); ++i) {
      const BayesianNetwork::Node& node = bn.node(i);
      fp.Add(node.arity).Add(node.parents.size());
      for (int p : node.parents) fp.Add(p);
      fp.Add(node.cpt);
    }
  }
  return fp.hash();
}

// --------------------------------------------------------------- MQMExact --

namespace {
ChainMqmOptions ToChainOptions(const ChainUnifiedOptions& options,
                               double epsilon) {
  ChainMqmOptions chain;
  chain.epsilon = epsilon;
  chain.max_nearby = options.max_nearby;
  chain.allow_stationary_shortcut = options.allow_stationary_shortcut;
  chain.dedup_nodes = options.dedup_nodes;
  chain.num_threads = options.num_threads;
  return chain;
}

void AddChainOptions(pf::Fingerprint* fp, const ChainUnifiedOptions& options) {
  // num_threads and dedup_nodes deliberately excluded: results are
  // invariant to both, so plans from different pool sizes or scan
  // strategies are interchangeable.
  fp->Add(options.max_nearby).Add(options.allow_stationary_shortcut);
}

// Adapter wrapping a ChainMqmAnalysis as a ResumableAnalysis: every
// ExtendTo emits a plan exactly as the owning mechanism's Analyze would
// build it at that length (ExtendTo itself guarantees the analysis bits
// match a cold run).
class ChainResumableAnalysis : public ResumableAnalysis {
 public:
  explicit ChainResumableAnalysis(ChainMqmAnalysis analysis)
      : analysis_(std::move(analysis)) {}

  std::size_t length() const override { return analysis_.length(); }

  Result<MechanismPlan> ExtendTo(std::size_t new_length) override {
    PF_RETURN_NOT_OK(analysis_.ExtendTo(new_length));
    return CurrentPlan();
  }

  Result<MechanismPlan> CurrentPlan() const {
    const ChainMqmResult& analysis = analysis_.result();
    MechanismPlan plan;
    plan.kind = MechanismKind::kMqmExact;
    plan.epsilon = epsilon_;
    plan.sigma = analysis.sigma_max;
    plan.applicable = std::isfinite(analysis.sigma_max);
    plan.chain = analysis;
    plan.cache_hits = std::make_shared<std::atomic<std::uint64_t>>(0);
    return plan;
  }

  void set_epsilon(double epsilon) { epsilon_ = epsilon; }

 private:
  ChainMqmAnalysis analysis_;
  double epsilon_ = 0.0;
};

Result<std::unique_ptr<ResumableAnalysis>> WrapChainAnalysis(
    Result<ChainMqmAnalysis> analysis, double epsilon) {
  if (!analysis.ok()) return analysis.status();
  auto wrapped = std::make_unique<ChainResumableAnalysis>(
      std::move(analysis).value());
  wrapped->set_epsilon(epsilon);
  return std::unique_ptr<ResumableAnalysis>(std::move(wrapped));
}
}  // namespace

Result<MechanismPlan> MqmExactUnified::Analyze(double epsilon) const {
  PF_ASSIGN_OR_RETURN(
      ChainMqmResult analysis,
      MqmExactAnalyze(thetas_, length_, ToChainOptions(options_, epsilon)));
  MechanismPlan plan = NewPlan(epsilon, analysis.sigma_max);
  plan.applicable = std::isfinite(analysis.sigma_max);
  plan.chain = analysis;
  return plan;
}

std::uint64_t MqmExactUnified::Fingerprint() const {
  pf::Fingerprint fp;
  fp.Add(static_cast<int>(kind())).Add(length_);
  AddChainOptions(&fp, options_);
  fp.Add(thetas_.size());
  for (const MarkovChain& theta : thetas_) {
    fp.Add(theta.initial()).Add(theta.transition());
  }
  return fp.hash();
}

std::uint64_t MqmExactUnified::PrefixFingerprint() const {
  // Fingerprint() minus the length term: equal across chain lengths of the
  // same class/config, so cached resumable analyses chain length-to-length.
  pf::Fingerprint fp;
  fp.Add(static_cast<int>(kind())).Add(kPrefixTag);
  AddChainOptions(&fp, options_);
  fp.Add(thetas_.size());
  for (const MarkovChain& theta : thetas_) {
    fp.Add(theta.initial()).Add(theta.transition());
  }
  return EnsureNonZeroFingerprint(fp.hash());
}

Result<std::unique_ptr<ResumableAnalysis>> MqmExactUnified::AnalyzeResumable(
    double epsilon) const {
  return WrapChainAnalysis(
      ChainMqmAnalysis::Analyze(thetas_, length_,
                                ToChainOptions(options_, epsilon)),
      epsilon);
}

Result<MechanismPlan> MqmExactFreeInitialUnified::Analyze(double epsilon) const {
  PF_ASSIGN_OR_RETURN(ChainMqmResult analysis,
                      MqmExactAnalyzeFreeInitial(
                          transitions_, length_,
                          ToChainOptions(options_, epsilon)));
  MechanismPlan plan = NewPlan(epsilon, analysis.sigma_max);
  plan.applicable = std::isfinite(analysis.sigma_max);
  plan.chain = analysis;
  return plan;
}

std::uint64_t MqmExactFreeInitialUnified::Fingerprint() const {
  pf::Fingerprint fp;
  fp.Add(static_cast<int>(kind()))
      .Add(std::uint64_t{0xF1EE});  // Distinguish the free-initial class.
  fp.Add(length_);
  AddChainOptions(&fp, options_);
  fp.Add(transitions_.size());
  for (const Matrix& p : transitions_) fp.Add(p);
  return fp.hash();
}

std::uint64_t MqmExactFreeInitialUnified::PrefixFingerprint() const {
  pf::Fingerprint fp;
  fp.Add(static_cast<int>(kind()))
      .Add(std::uint64_t{0xF1EE})  // Distinguish the free-initial class.
      .Add(kPrefixTag);
  AddChainOptions(&fp, options_);
  fp.Add(transitions_.size());
  for (const Matrix& p : transitions_) fp.Add(p);
  return EnsureNonZeroFingerprint(fp.hash());
}

Result<std::unique_ptr<ResumableAnalysis>>
MqmExactFreeInitialUnified::AnalyzeResumable(double epsilon) const {
  return WrapChainAnalysis(
      ChainMqmAnalysis::AnalyzeFreeInitial(transitions_, length_,
                                           ToChainOptions(options_, epsilon)),
      epsilon);
}

// -------------------------------------------------------------- MQMApprox --

MqmApproxUnified::MqmApproxUnified(const std::vector<MarkovChain>& thetas,
                                   std::size_t length,
                                   ChainUnifiedOptions options)
    : length_(length), options_(options) {
  Result<ChainClassSummary> summary = SummarizeChainClass(thetas);
  if (summary.ok()) {
    summary_ = summary.value();
  } else {
    summary_status_ = summary.status();
  }
}

Result<MechanismPlan> MqmApproxUnified::Analyze(double epsilon) const {
  PF_RETURN_NOT_OK(summary_status_);
  PF_ASSIGN_OR_RETURN(
      ChainMqmResult analysis,
      MqmApproxAnalyze(summary_, length_, ToChainOptions(options_, epsilon)));
  MechanismPlan plan = NewPlan(epsilon, analysis.sigma_max);
  plan.applicable = std::isfinite(analysis.sigma_max);
  plan.chain = analysis;
  return plan;
}

std::uint64_t MqmApproxUnified::Fingerprint() const {
  pf::Fingerprint fp;
  fp.Add(static_cast<int>(kind())).Add(length_);
  AddChainOptions(&fp, options_);
  fp.Add(summary_.pi_min).Add(summary_.eigengap).Add(summary_.all_reversible);
  return fp.hash();
}

}  // namespace pf
