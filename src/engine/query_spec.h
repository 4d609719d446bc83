// Declarative queries for the PrivacyEngine front door. A QuerySpec names
// *what* to release (sum, mean, state frequency, histogram, or a custom
// Lipschitz function) and at which epsilon; the engine compiles it — once,
// cached — into a concrete (VectorQuery, MechanismPlan) pair sized to the
// engine's model. Callers never hand-wire Lipschitz constants for the
// built-in kinds: they follow from the model's state count and length
// exactly as in src/pufferfish/query.h.
#ifndef PUFFERFISH_ENGINE_QUERY_SPEC_H_
#define PUFFERFISH_ENGINE_QUERY_SPEC_H_

#include <cstddef>
#include <functional>
#include <string>

#include "common/deadline.h"
#include "common/histogram.h"
#include "common/matrix.h"
#include "common/status.h"
#include "pufferfish/query.h"

namespace pf {

/// \brief Per-request serving constraints, carried through Compile,
/// PrepareBatchPlan and every Session release. Default-constructed options
/// impose nothing.
struct RequestOptions {
  /// Give up past this point: refused up front (before any budget charge)
  /// when already expired, and honored mid-analysis at the cooperative
  /// checkpoints (power ladder, node scans, variable elimination).
  Deadline deadline;
};

/// The built-in query shapes plus the custom escape hatch.
enum class QueryKind {
  kSum,                  ///< sum_t X_t (Lipschitz k-1).
  kMean,                 ///< (1/T) sum_t X_t (Lipschitz (k-1)/T).
  kStateFrequency,       ///< Fraction of time in one state (Lipschitz 1/T).
  kCountHistogram,       ///< Per-state counts (Lipschitz 2).
  kFrequencyHistogram,   ///< Relative frequencies (Lipschitz 2/T).
  kCustomScalar,         ///< Caller-supplied scalar L-Lipschitz query.
  kCustomVector,         ///< Caller-supplied vector L-Lipschitz (L1) query.
};

const char* QueryKindName(QueryKind kind);

/// \brief A declarative query: kind + parameters + privacy level.
///
/// Construct via the factories; a default-constructed spec is kSum at
/// epsilon 1. Two specs with the same CacheKey() compile identically, which
/// is what the engine's prepared-plan cache relies on — so custom queries
/// must carry a caller-chosen unique name.
struct QuerySpec {
  QueryKind kind = QueryKind::kSum;
  /// Privacy level this query is served at (one Analyze per epsilon).
  double epsilon = 1.0;
  /// State index for kStateFrequency.
  int state = 0;
  /// Name for custom queries (part of CacheKey(), which identifies them).
  std::string name;
  /// Custom query bodies (exactly one set, matching the kind). They must be
  /// safe to call concurrently: a prepared batch plan (PrepareBatchPlan in
  /// engine/batch_plan.h) holds one copy of each body and is shared by every
  /// release of its shape, so executor threads and synchronous callers may
  /// call the same function object at once. Keep them free of unguarded
  /// mutable state.
  std::function<double(const StateSequence&)> scalar_fn;
  std::function<Vector(const StateSequence&)> vector_fn;
  /// Lipschitz constant for custom queries.
  double lipschitz = 1.0;
  /// Output dimension for kCustomVector.
  std::size_t dim = 1;

  static QuerySpec Sum(double epsilon = 1.0);
  static QuerySpec Mean(double epsilon = 1.0);
  static QuerySpec StateFrequency(int state, double epsilon = 1.0);
  static QuerySpec CountHistogram(double epsilon = 1.0);
  static QuerySpec FrequencyHistogram(double epsilon = 1.0);
  static QuerySpec CustomScalar(std::string name,
                                std::function<double(const StateSequence&)> fn,
                                double lipschitz, double epsilon = 1.0);
  static QuerySpec CustomVector(std::string name,
                                std::function<Vector(const StateSequence&)> fn,
                                double lipschitz, std::size_t dim,
                                double epsilon = 1.0);

  /// Returns this spec at a different privacy level (sweeps, sessions with
  /// per-query budgets).
  QuerySpec WithEpsilon(double new_epsilon) const;

  /// Key identifying the compiled form: kind, parameters, and the epsilon
  /// bit pattern. Custom queries are keyed by their name; reusing a name
  /// with a different body serves the first body (documented caller bug).
  std::string CacheKey() const;

  /// Structural validity (finite positive epsilon, bodies present for
  /// custom kinds, nonnegative Lipschitz constant).
  Status Validate() const;
};

/// \brief Compiles a spec to a concrete vector query for a model with
/// `num_states` states and records of length `length`. Built-in kinds that
/// need the state space or length fail with FailedPrecondition when the
/// model has none (num_states == 0 / length == 0) — e.g. Wasserstein
/// output-pair models serve only kSum and custom queries.
Result<VectorQuery> CompileQuerySpec(const QuerySpec& spec,
                                     std::size_t num_states,
                                     std::size_t length);

}  // namespace pf

#endif  // PUFFERFISH_ENGINE_QUERY_SPEC_H_
