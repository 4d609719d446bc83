// The unified mechanism engine: every privacy mechanism in the library —
// the paper's Algorithms 1-4 plus the three baselines — behind one
// plan-then-execute lifecycle:
//
//     Mechanism (model + config)
//        |  Analyze(epsilon)          expensive, data-independent
//        v
//     MechanismPlan (sigma, diagnostics)
//        |  ReleaseVector /           cheap, per query, explicit Rng
//        |  ReleaseBatchColumnar
//        v
//     noisy value(s)
//
// The split mirrors the paper's structure: the privacy analysis (quilt
// search, Wasserstein sup, spectral condition) never looks at the data, so
// a plan computed once serves any number of queries against any database —
// and can be cached (AnalysisCache) or shipped to serving replicas.
//
// Release is a free function of the plan, not a virtual on the mechanism:
// all seven mechanisms release identically (value + L * sigma * Lap(1)),
// which is the deduplication this layer exists to enforce.
#ifndef PUFFERFISH_PUFFERFISH_MECHANISM_H_
#define PUFFERFISH_PUFFERFISH_MECHANISM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/gk16.h"
#include "common/random.h"
#include "common/record_batch.h"
#include "common/status.h"
#include "graphical/bayesian_network.h"
#include "graphical/markov_chain.h"
#include "pufferfish/framework.h"
#include "pufferfish/markov_quilt_mechanism.h"
#include "pufferfish/mqm_approx.h"
#include "pufferfish/mqm_exact.h"
#include "pufferfish/wasserstein_mechanism.h"

namespace pf {

/// The seven mechanisms of the paper and its evaluation.
enum class MechanismKind {
  kLaplaceDp,    ///< Laplace mechanism, entry DP (Table 1 "DP" baseline).
  kGroupDp,      ///< Laplace with group sensitivity (Definition B.1).
  kGk16,         ///< Ghosh-Kleinberg inferential-privacy baseline.
  kWasserstein,  ///< Algorithm 1 over explicit conditional output pairs.
  kMqmGeneral,   ///< Algorithm 2 on general Bayesian networks.
  kMqmExact,     ///< Algorithm 3, exact chain max-influence (Eq. (5)).
  kMqmApprox,    ///< Algorithm 4, Lemma 4.8 / C.1 influence bounds.
};

/// Human-readable mechanism name ("MQMExact", ...).
const char* MechanismKindName(MechanismKind kind);

/// \brief The output of Mechanism::Analyze: everything a release needs.
///
/// `sigma` is the Laplace scale per unit Lipschitz constant; a release adds
/// lipschitz * sigma * Lap(1) noise per coordinate. Kind-specific
/// diagnostics (active quilts, spectral norms, W) ride along for
/// inspection, benchmarks, and composition accounting.
struct MechanismPlan {
  MechanismKind kind = MechanismKind::kLaplaceDp;
  /// Privacy level the plan was calibrated for.
  double epsilon = 0.0;
  /// Laplace scale multiplier per unit Lipschitz constant.
  double sigma = 0.0;
  /// False when the construction does not apply (GK16's spectral condition
  /// rho >= 1); Release then fails with FailedPrecondition.
  bool applicable = true;

  /// Diagnostics for kMqmGeneral.
  MqmAnalysis mqm;
  /// Diagnostics for kMqmExact / kMqmApprox.
  ChainMqmResult chain;
  /// Diagnostics for kGk16.
  Gk16Analysis gk16;
  /// Diagnostics for kWasserstein: the sensitivity W of Algorithm 1.
  double wasserstein_w = 0.0;

  /// Times this exact plan was served from an AnalysisCache instead of
  /// being recomputed (0 for a freshly analyzed plan). Shared across copies
  /// of the plan.
  ///
  /// Concurrency (audited under TSan, tests/tsan_stress_test.cc): the
  /// counter is a plain atomic with the default seq_cst ordering; it is a
  /// pure statistic, never used to publish other data, so no load/store
  /// ordering relationship with the plan contents is required or implied —
  /// readers racing a hit simply see a count that is at most one behind.
  std::uint64_t cache_hit_count() const {
    return cache_hits == nullptr ? 0 : cache_hits->load();
  }

  /// Incremented by AnalysisCache on every hit; allocated by Analyze.
  std::shared_ptr<std::atomic<std::uint64_t>> cache_hits;
};

/// \brief A resumable (append-aware) analysis handle: the streaming
/// counterpart of Mechanism::Analyze for mechanisms whose model has a
/// record-length dimension that can grow (chains serving appended
/// observations). Produced by Mechanism::AnalyzeResumable; the
/// AnalysisCache chains these across lengths (see PrefixFingerprint), so a
/// plan for length T' is computed by extending the retained analysis at T
/// instead of re-analyzing from scratch.
///
/// Not thread-safe: ExtendTo mutates the retained state, so callers
/// serialize per handle (the AnalysisCache holds a per-entry mutex).
class ResumableAnalysis {
 public:
  virtual ~ResumableAnalysis() = default;

  /// Record length the analysis currently covers.
  virtual std::size_t length() const = 0;

  /// \brief Extends to new_length >= length() and returns the plan at the
  /// new length — bit-identical to a cold Analyze at new_length (same
  /// sigma, active quilt, and diagnostics). new_length == length() returns
  /// the current plan; new_length < length() is InvalidArgument.
  virtual Result<MechanismPlan> ExtendTo(std::size_t new_length) = 0;
};

/// \brief A mechanism = model + configuration, ready to be analyzed at any
/// privacy level. Implementations are immutable after construction, so one
/// mechanism can be analyzed concurrently at several epsilons.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  virtual MechanismKind kind() const = 0;

  /// \brief The expensive, data-independent phase: validates the model and
  /// computes the noise calibration (sigma) for this epsilon.
  virtual Result<MechanismPlan> Analyze(double epsilon) const = 0;

  /// \brief Stable 64-bit fingerprint of the model and configuration
  /// (including quilt-width caps); combined with epsilon it keys the
  /// AnalysisCache. Mechanisms with equal fingerprints must produce equal
  /// plans.
  virtual std::uint64_t Fingerprint() const = 0;

  /// \brief Fingerprint of the model and configuration with the record
  /// length REMOVED: two mechanisms that differ only in chain length share
  /// it, which is what lets the AnalysisCache seed the analysis for
  /// (model, epsilon, T') from the cached one for (model, epsilon, T)
  /// instead of a cold Analyze. Returns 0 (never a valid chain key) for
  /// mechanisms with no extendable length dimension — the default.
  virtual std::uint64_t PrefixFingerprint() const { return 0; }

  /// Record length the model covers, for mechanisms whose
  /// PrefixFingerprint() is nonzero; 0 otherwise.
  virtual std::size_t ExtendableLength() const { return 0; }

  /// \brief Starts a resumable analysis at `epsilon` covering
  /// ExtendableLength(). Default: NotSupported (only the MQMExact chain
  /// mechanisms retain per-length state worth resuming).
  virtual Result<std::unique_ptr<ResumableAnalysis>> AnalyzeResumable(
      double epsilon) const;

 protected:
  /// Helper for Analyze implementations: a plan skeleton with the counter
  /// allocated.
  MechanismPlan NewPlan(double epsilon, double sigma) const;
};

// ----------------------------------------------------------------------
// The release half of the lifecycle: free functions of the plan. These two,
// ReleaseVector and ReleaseBatchColumnar, are the only places in the
// library that add noise; every mechanism releases through them (the
// pf-analyzer noise-site rule keeps it so).
// ----------------------------------------------------------------------

/// Releases one vector query that is L-Lipschitz in L1 over the whole
/// vector: independent L * sigma * Lap(1) noise per coordinate. A scalar
/// query is a 1-vector; many scalar values under one plan are one Vector
/// (noise is independent per coordinate either way). Composition is the
/// caller's ledger (see CompositionAccountant).
Result<Vector> ReleaseVector(const MechanismPlan& plan, const Vector& value,
                             double lipschitz, Rng* rng);

/// \brief Columnar batch release — the noise half of the columnar serving
/// path. `batch` arrives with truth values, per-row noise scales
/// (lipschitz * sigma, the clip kernel's output), and tickets populated;
/// row r gains independent Laplace(noise_scales()[r]) noise per coordinate
/// drawn from Rng(TicketNoiseSeed(seed, tickets()[r])) — the same
/// per-ticket stream the scalar serving path uses, so a row released here
/// is bit-identical to the scalar release of the same query under the same
/// ticket, at any thread count. `plans` holds the distinct plans the rows
/// release under, validated exactly like Release (an inapplicable plan or
/// non-finite scale refuses the whole batch before ANY noise lands — a
/// half-noised batch is not a release state this layer permits).
Status ReleaseBatchColumnar(
    const std::vector<std::shared_ptr<const MechanismPlan>>& plans,
    std::uint64_t seed, RecordBatch* batch);

// ----------------------------------------------------------------------
// The seven mechanisms, ported onto the engine.
// ----------------------------------------------------------------------

/// Laplace mechanism with explicit L1 sensitivity (entry DP).
class LaplaceDpUnified : public Mechanism {
 public:
  explicit LaplaceDpUnified(double sensitivity) : sensitivity_(sensitivity) {}
  MechanismKind kind() const override { return MechanismKind::kLaplaceDp; }
  Result<MechanismPlan> Analyze(double epsilon) const override;
  std::uint64_t Fingerprint() const override;

 private:
  double sensitivity_;
};

/// Laplace mechanism with group sensitivity (Definition B.1).
class GroupDpUnified : public Mechanism {
 public:
  explicit GroupDpUnified(double group_sensitivity)
      : group_sensitivity_(group_sensitivity) {}
  MechanismKind kind() const override { return MechanismKind::kGroupDp; }
  Result<MechanismPlan> Analyze(double epsilon) const override;
  std::uint64_t Fingerprint() const override;

 private:
  double group_sensitivity_;
};

/// GK16 over a class of chain transition matrices of given length. Plans
/// are marked inapplicable when the spectral condition fails.
class Gk16Unified : public Mechanism {
 public:
  Gk16Unified(std::vector<Matrix> transitions, std::size_t length)
      : transitions_(std::move(transitions)), length_(length) {}
  MechanismKind kind() const override { return MechanismKind::kGk16; }
  Result<MechanismPlan> Analyze(double epsilon) const override;
  std::uint64_t Fingerprint() const override;

 private:
  std::vector<Matrix> transitions_;
  std::size_t length_;
};

/// Algorithm 1 over explicitly enumerated conditional output pairs.
class WassersteinUnified : public Mechanism {
 public:
  explicit WassersteinUnified(std::vector<ConditionalOutputPair> pairs)
      : pairs_(std::move(pairs)) {}
  MechanismKind kind() const override { return MechanismKind::kWasserstein; }
  Result<MechanismPlan> Analyze(double epsilon) const override;
  std::uint64_t Fingerprint() const override;

 private:
  std::vector<ConditionalOutputPair> pairs_;
};

/// Algorithm 2 on a class of general Bayesian networks.
class MqmGeneralUnified : public Mechanism {
 public:
  MqmGeneralUnified(std::vector<BayesianNetwork> thetas,
                    MqmAnalyzeOptions options = {})
      : thetas_(std::move(thetas)), options_(options) {}
  MechanismKind kind() const override { return MechanismKind::kMqmGeneral; }
  Result<MechanismPlan> Analyze(double epsilon) const override;
  std::uint64_t Fingerprint() const override;

 private:
  std::vector<BayesianNetwork> thetas_;
  MqmAnalyzeOptions options_;
};

/// Per-Analyze knobs shared by the chain mechanisms; epsilon lives in
/// Analyze, everything else here. Mirrors ChainMqmOptions minus epsilon.
///
/// Streaming note: the MQMExact mechanisms also support
/// AnalyzeResumable/ExtendTo (see ResumableAnalysis) — an analysis at
/// length T extends to T' > T bit-identically to a cold Analyze at T',
/// re-scoring only the O(max_nearby) boundary classes. These options are
/// part of the prefix fingerprint, so changing any of them (not the
/// length) starts a fresh analysis chain.
struct ChainUnifiedOptions {
  std::size_t max_nearby = 64;
  bool allow_stationary_shortcut = true;
  /// Marginal-dedup node scan (see ChainMqmOptions::dedup_nodes);
  /// bit-identical either way, so excluded from the plan fingerprint.
  bool dedup_nodes = true;
  /// Analysis worker threads; 0 = hardware concurrency (the library-wide
  /// convention, see common/parallel.h). Plans are bit-identical for every
  /// value, so this too is excluded from the plan fingerprint.
  std::size_t num_threads = 0;
};

/// Algorithm 3 (exact chain max-influence) over an explicit chain class.
class MqmExactUnified : public Mechanism {
 public:
  MqmExactUnified(std::vector<MarkovChain> thetas, std::size_t length,
                  ChainUnifiedOptions options = {})
      : thetas_(std::move(thetas)), length_(length), options_(options) {}
  MechanismKind kind() const override { return MechanismKind::kMqmExact; }
  Result<MechanismPlan> Analyze(double epsilon) const override;
  std::uint64_t Fingerprint() const override;
  /// Chain-length-free fingerprint + resumable analysis: plans for longer
  /// chains of the same class extend instead of re-analyzing.
  std::uint64_t PrefixFingerprint() const override;
  std::size_t ExtendableLength() const override { return length_; }
  Result<std::unique_ptr<ResumableAnalysis>> AnalyzeResumable(
      double epsilon) const override;

 private:
  std::vector<MarkovChain> thetas_;
  std::size_t length_;
  ChainUnifiedOptions options_;
};

/// Algorithm 3 with the Appendix C.4 class Theta = Delta_k x P: every
/// transition matrix paired with every initial distribution (the Figure 4
/// synthetic setting).
class MqmExactFreeInitialUnified : public Mechanism {
 public:
  MqmExactFreeInitialUnified(std::vector<Matrix> transitions,
                             std::size_t length,
                             ChainUnifiedOptions options = {})
      : transitions_(std::move(transitions)), length_(length),
        options_(options) {}
  MechanismKind kind() const override { return MechanismKind::kMqmExact; }
  Result<MechanismPlan> Analyze(double epsilon) const override;
  std::uint64_t Fingerprint() const override;
  /// Chain-length-free fingerprint + resumable analysis: plans for longer
  /// chains of the same class extend instead of re-analyzing.
  std::uint64_t PrefixFingerprint() const override;
  std::size_t ExtendableLength() const override { return length_; }
  Result<std::unique_ptr<ResumableAnalysis>> AnalyzeResumable(
      double epsilon) const override;

 private:
  std::vector<Matrix> transitions_;
  std::size_t length_;
  ChainUnifiedOptions options_;
};

/// Algorithm 4 (influence bounds) from a chain-class mixing summary.
class MqmApproxUnified : public Mechanism {
 public:
  MqmApproxUnified(ChainClassSummary summary, std::size_t length,
                   ChainUnifiedOptions options = {})
      : summary_(summary), length_(length), options_(options) {}
  /// Convenience: summarizes an explicit chain class first (may fail, so
  /// the failure is deferred to Analyze).
  MqmApproxUnified(const std::vector<MarkovChain>& thetas, std::size_t length,
                   ChainUnifiedOptions options = {});
  MechanismKind kind() const override { return MechanismKind::kMqmApprox; }
  Result<MechanismPlan> Analyze(double epsilon) const override;
  std::uint64_t Fingerprint() const override;

 private:
  ChainClassSummary summary_;
  Status summary_status_ = Status::OK();
  std::size_t length_;
  ChainUnifiedOptions options_;
};

}  // namespace pf

#endif  // PUFFERFISH_PUFFERFISH_MECHANISM_H_
