// Per-tenant serving sessions: every release is charged against an epsilon
// budget through the Theorem 4.4 CompositionAccountant (K releases compose
// to K * max_k epsilon_k when they share active quilts). A session refuses
// releases that would overrun the budget (ResourceExhausted) or mix active
// quilts (FailedPrecondition — the Theorem 4.4 precondition).
//
// One serving path: every release is a compiled batch plan
// (engine/batch_plan.h). The entry points differ only in where the plan
// runs and how the result comes back:
//
//     Release(spec, data[, window[, request]])        1-row plan, caller thread
//     Submit(spec, data | shared_ptr[, window[, request]])
//                                                     1-row plan, executor
//     SubmitColumnar(batch, data[, request])          N-row plan, executor
//
// Each plans (PrepareBatchPlan: a resubmitted shape is a prepared-plan
// cache hit), charges once (Charge: rows = 1 is the scalar case), then runs
// ExecuteBatchPlan. The async entry points claim an executor permit BEFORE
// the charge, so a shed request never debits epsilon.
//
// Determinism: each accepted release draws its noise from an RNG seeded by
// (session seed, ticket), where tickets are assigned in call order. Results
// are therefore bit-identical for any executor thread count, any completion
// order, and whichever entry point served them.
#ifndef PUFFERFISH_ENGINE_SESSION_H_
#define PUFFERFISH_ENGINE_SESSION_H_

#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <optional>

#include "common/matrix.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/batch_plan.h"
#include "engine/privacy_engine.h"
#include "engine/query_spec.h"
#include "pufferfish/composition.h"

namespace pf {

struct SessionOptions {
  /// Total epsilon this session may spend (Theorem 4.4 composed level).
  /// Default: unmetered.
  double epsilon_budget = std::numeric_limits<double>::infinity();
  /// Seed for the session's deterministic noise stream. Unset (the
  /// default), the engine assigns every session a distinct seed: two
  /// sessions releasing the same value from the same noise stream would
  /// let an observer cancel the noise and recover the exact private
  /// value, so identical streams must be something a caller asks for
  /// explicitly (reproducible experiments), never an accident.
  std::optional<std::uint64_t> seed;
};

// DataWindow lives in engine/batch_plan.h; it is re-exported here so
// existing includes of session.h keep compiling.

/// One released query: the noisy value plus its accounting facts.
struct ReleaseResult {
  /// The released (noisy) query value; dimension 1 for scalar kinds.
  Vector value;
  /// Epsilon charged for this release.
  double epsilon = 0.0;
  /// Noise scale multiplier the plan used.
  double sigma = 0.0;
  MechanismKind mechanism = MechanismKind::kLaplaceDp;
  /// Submission sequence number (also the noise-stream index).
  std::uint64_t ticket = 0;
};

/// \brief A privacy-budget ledger over one engine. Thread-safe; cheap to
/// create (plans are shared through the engine's caches). The engine must
/// outlive the session.
class Session {
 public:
  Session(PrivacyEngine* engine, const SessionOptions& options);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// \brief Synchronous release: plans `spec` over `window` as a 1-row
  /// batch plan (prepared-plan cache), charges the budget, then evaluates
  /// and noises it on the calling thread — no executor permit. The window
  /// is resolved against `data` now; All() (the default) compiles against
  /// the engine's full record length. Refusals (bad window, expired
  /// deadline, cold-shed, budget, quilt mismatch) charge nothing; a
  /// deadline expiring mid-analysis cancels it at the next checkpoint.
  Result<ReleaseResult> Release(const QuerySpec& spec,
                                const StateSequence& data,
                                const DataWindow& window = DataWindow::All(),
                                const RequestOptions& request = {});

  /// \brief Asynchronous release of a 1-row plan: compilation and the
  /// budget charge happen now (in call order — tickets and the ledger are
  /// deterministic), evaluation and the noise draw run on the engine's
  /// executor. Admission happens strictly before accounting: the executor
  /// permit is claimed first, so a request shed with Unavailable or
  /// refused for any reason returns an already-resolved errored future and
  /// never debits epsilon. This overload shares the caller's snapshot (no
  /// copy per call).
  std::future<Result<ReleaseResult>> Submit(
      const QuerySpec& spec, std::shared_ptr<const StateSequence> data,
      const DataWindow& window = DataWindow::All(),
      const RequestOptions& request = {});
  /// As above over a borrowed database: copies the whole record for All(),
  /// or only the resolved window slice (O(W)) otherwise.
  std::future<Result<ReleaseResult>> Submit(
      const QuerySpec& spec, const StateSequence& data,
      const DataWindow& window = DataWindow::All(),
      const RequestOptions& request = {});

  /// \brief The columnar batch path: admits, prices the WHOLE batch under
  /// one Theorem 4.4 composed charge, and returns a single future over a
  /// struct-of-arrays result batch. All-or-nothing, unlike a loop of
  /// Submits (each row admitted and charged on its own): a batch that
  /// fails to compile, mixes active quilts, would overrun the budget, or is
  /// shed (queue full, cold-shed policy) is refused whole and debits
  /// NOTHING. Admission strictly precedes accounting, exactly like Submit.
  /// Row i releases under ticket first + i, drawing from the same
  /// per-ticket noise stream a 1-row Submit would — released values are
  /// bit-identical to submitting the same specs one by one, in order, at
  /// any thread count and SimdLevel, while skipping the per-row
  /// dispatch/future/allocation overhead (see bench_batch_serving).
  std::future<Result<BatchReleaseResult>> SubmitColumnar(
      const BatchQuerySpec& batch, const StateSequence& data,
      const RequestOptions& request = {});

  double epsilon_budget() const { return options_.epsilon_budget; }
  /// Composed epsilon spent so far (K * max_k epsilon_k, Theorem 4.4).
  double EpsilonSpent() const;
  /// Budget still spendable (infinite for unmetered sessions).
  double EpsilonRemaining() const;
  std::size_t num_releases() const;

 private:
  /// \brief The one charge function (rows = 1 is the scalar case): every
  /// unique plan must be releasable, every row must share one active quilt
  /// (with each other and the ledger), and the composed level
  /// (K + rows) * max epsilon must fit the budget — else the whole plan is
  /// refused and nothing is recorded. Returns the first of `rows`
  /// contiguous tickets. Takes the ledger lock for pricing and recording
  /// only; the `session.charge` failpoint fires before it.
  Result<std::uint64_t> Charge(const CompiledBatchPlan& plan)
      PF_EXCLUDES(mutex_);

  /// \brief The admission tail shared by Submit and SubmitColumnar, in
  /// shed-before-charge order: executor permit, charge, then the executor
  /// task (which keeps the permit) runs ExecuteBatchPlan.
  /// T is ReleaseResult (row 0 of a 1-row plan) or BatchReleaseResult.
  template <typename T>
  std::future<Result<T>> Enqueue(
      Result<std::shared_ptr<const CompiledBatchPlan>> prepared,
      std::shared_ptr<const StateSequence> data);

  PrivacyEngine* const engine_;
  const SessionOptions options_;
  /// Resolved noise seed (options_.seed or engine-assigned).
  const std::uint64_t seed_;

  mutable Mutex mutex_;
  CompositionAccountant accountant_ PF_GUARDED_BY(mutex_);
  std::uint64_t next_ticket_ PF_GUARDED_BY(mutex_) = 0;
};

}  // namespace pf

#endif  // PUFFERFISH_ENGINE_SESSION_H_
