#include "engine/session.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>
#include <utility>

#include "common/failpoint.h"
#include "pufferfish/framework.h"

namespace pf {

namespace {

/// The quilt identity a release is accounted under. Chain mechanisms use
/// their active quilt (the Theorem 4.4 object; the stationary search makes
/// it represent every node). General-network plans fold *all* per-node
/// active quilts into one signature-carrying quilt — Definition 4.5's
/// precondition covers every S_{Q,i}, so a mismatch at any node must
/// refuse composition, not just one at the worst node. The remaining
/// mechanisms get a kind-tagged placeholder so releases of the same
/// (mechanism, model) ledger together but never alias a real quilt.
MarkovQuilt PlanActiveQuilt(const MechanismPlan& plan) {
  switch (plan.kind) {
    case MechanismKind::kMqmExact:
    case MechanismKind::kMqmApprox:
      return plan.chain.active_quilt;
    case MechanismKind::kMqmGeneral: {
      MarkovQuilt all;
      all.target = -1 - static_cast<int>(plan.kind);
      for (const QuiltScore& per_node : plan.mqm.active) {
        all.quilt.push_back(per_node.quilt.target);
        all.quilt.insert(all.quilt.end(), per_node.quilt.quilt.begin(),
                         per_node.quilt.quilt.end());
        all.quilt.push_back(
            -2 - static_cast<int>(per_node.quilt.nearby_count));  // Separator.
      }
      return all;
    }
    default:
      break;
  }
  MarkovQuilt tag;
  tag.target = -1 - static_cast<int>(plan.kind);
  return tag;
}

template <typename T>
std::future<Result<T>> ReadyError(Status status) {
  std::promise<Result<T>> promise;
  promise.set_value(Result<T>(std::move(status)));
  return promise.get_future();
}

/// Row 0 of a released 1-row plan as a ReleaseResult.
Result<ReleaseResult> FirstRow(Result<BatchReleaseResult> released) {
  if (!released.ok()) return released.status();
  const RecordBatch& batch = released.value().batch;
  ReleaseResult result;
  result.value = batch.RowVector(0);
  result.epsilon = batch.epsilons()[0];
  result.sigma = batch.sigmas()[0];
  result.mechanism = released.value().mechanism;
  result.ticket = batch.tickets()[0];
  return result;
}

}  // namespace

Session::Session(PrivacyEngine* engine, const SessionOptions& options)
    : engine_(engine),
      options_(options),
      seed_(options.seed.has_value() ? *options.seed
                                     : engine->NextSessionSeed()) {}

Result<std::uint64_t> Session::Charge(const CompiledBatchPlan& plan) {
  // Models a refusal between admission and the charge (e.g. a ledger
  // backend outage): the caller drops its permit and nothing is charged.
  PF_FAILPOINT("session.charge");
  // A plan that can never release (GK16 outside its spectral condition, a
  // non-finite noise scale) must be refused *before* charging: the failed
  // release would produce nothing, so it must not burn budget. Every row
  // releases one of these plans, so their epsilons, validated here, are the
  // rows' and their max is the plan's.
  double plan_max = 0.0;
  for (const PrivacyEngine::CompiledQuery& q : plan.compiled) {
    const MechanismPlan& mp = *q.plan;
    if (!mp.applicable || !std::isfinite(mp.sigma) || mp.sigma < 0.0) {
      return Status::FailedPrecondition(
          std::string(MechanismKindName(mp.kind)) +
          " has no finite noise scale (inapplicable for this model class); "
          "nothing was charged");
    }
    PF_RETURN_NOT_OK(ValidatePrivacyParams({mp.epsilon}));
    plan_max = std::max(plan_max, mp.epsilon);
  }
  // Theorem 4.4's precondition, checked across the plan before touching
  // the ledger: every row must release under one active quilt (which
  // RecordStrict then checks against the ledger's earlier releases).
  const MarkovQuilt quilt = PlanActiveQuilt(*plan.compiled.front().plan);
  for (std::size_t u = 1; u < plan.compiled.size(); ++u) {
    if (!SameActiveQuilt(quilt, PlanActiveQuilt(*plan.compiled[u].plan))) {
      return Status::FailedPrecondition(
          "batch mixes active quilts (rows would compose under different "
          "Theorem 4.4 objects); the batch was refused whole and nothing "
          "was charged");
    }
  }
  // Price the whole plan as one composed charge, under the ledger lock: K
  // existing releases plus `rows` new ones compose to (K + rows) * max
  // epsilon. Admitting at the composed level is equivalent to admitting
  // each row sequentially (every intermediate level is bounded by the
  // final one), so 1-row and columnar plans admit exactly the same
  // prefixes of work. The shared tie rule (ComposedBudgetAdmits) forgives
  // floating-point dust at exact-fit boundaries like B = 0.3, eps = 0.1,
  // never a genuine overrun, so a budget of B admits exactly
  // floor(B / eps) equal-epsilon releases on every platform.
  const std::size_t rows = plan.num_rows();
  MutexLock lock(mutex_);
  const double max_epsilon = std::max(accountant_.MaxEpsilon(), plan_max);
  const double budget = options_.epsilon_budget;
  if (!ComposedBudgetAdmits(accountant_.num_releases() + rows, max_epsilon,
                            budget)) {
    const double prospective =
        static_cast<double>(accountant_.num_releases() + rows) * max_epsilon;
    return Status::ResourceExhausted(
        "privacy budget exhausted: " + std::to_string(rows) +
        " more release(s) would compose to epsilon " +
        std::to_string(prospective) + " > budget " + std::to_string(budget) +
        "; nothing was charged");
  }
  // Records only if the active quilt matches every earlier release
  // (Theorem 4.4's precondition); a mismatch refuses with
  // FailedPrecondition and charges nothing.
  PF_RETURN_NOT_OK(accountant_.RecordStrict(rows, plan_max, quilt));
  const std::uint64_t first = next_ticket_;
  next_ticket_ += rows;
  return first;
}

Result<ReleaseResult> Session::Release(const QuerySpec& spec,
                                       const StateSequence& data,
                                       const DataWindow& window,
                                       const RequestOptions& request) {
  PF_ASSIGN_OR_RETURN(
      const std::shared_ptr<const CompiledBatchPlan> plan,
      PrepareBatchPlan(engine_, BatchQuerySpec().Add(spec, window),
                       data.size(), request));
  PF_ASSIGN_OR_RETURN(const std::uint64_t ticket, Charge(*plan));
  return FirstRow(ExecuteBatchPlan(*plan, data, seed_, ticket));
}

template <typename T>
std::future<Result<T>> Session::Enqueue(
    Result<std::shared_ptr<const CompiledBatchPlan>> prepared,
    std::shared_ptr<const StateSequence> data) {
  // Plan before claiming any serving resources: a request that cannot
  // compile should not occupy an executor slot.
  if (!prepared.ok()) return ReadyError<T>(prepared.status());
  // Admission strictly precedes accounting. The executor permit is claimed
  // before the charge, so a request shed here resolves to Unavailable with
  // the ledger untouched; once the charge lands, hand-off cannot fail
  // (Submit with a valid permit always enqueues), so a charged ticket
  // always produces a release or a typed execute error — never a silently
  // dropped debit.
  Result<Executor::Permit> permit = engine_->executor().TryAcquire();
  if (!permit.ok()) return ReadyError<T>(permit.status());
  Result<std::uint64_t> charged = Charge(*prepared.value());
  // A refused charge drops the permit (~Permit returns its slot).
  if (!charged.ok()) return ReadyError<T>(charged.status());
  std::shared_ptr<const CompiledBatchPlan> plan = std::move(prepared).value();
  return engine_->executor().Submit(
      std::move(permit).value(),
      [plan = std::move(plan), data = std::move(data), seed = seed_,
       first_ticket = charged.value()]() -> Result<T> {
        Result<BatchReleaseResult> released =
            ExecuteBatchPlan(*plan, *data, seed, first_ticket);
        if constexpr (std::is_same_v<T, ReleaseResult>) {
          return FirstRow(std::move(released));
        } else {
          return released;
        }
      });
}

std::future<Result<ReleaseResult>> Session::Submit(
    const QuerySpec& spec, std::shared_ptr<const StateSequence> data,
    const DataWindow& window, const RequestOptions& request) {
  const std::size_t size = data->size();
  return Enqueue<ReleaseResult>(
      PrepareBatchPlan(engine_, BatchQuerySpec().Add(spec, window), size,
                       request),
      std::move(data));
}

std::future<Result<ReleaseResult>> Session::Submit(
    const QuerySpec& spec, const StateSequence& data, const DataWindow& window,
    const RequestOptions& request) {
  if (window.full_record()) {
    return Submit(spec, std::make_shared<const StateSequence>(data), window,
                  request);
  }
  // Copy only the window: the task plans Range(0, W) over the slice, which
  // compiles at the same window length as `window` over `data`.
  Result<std::pair<std::size_t, std::size_t>> span =
      ResolveDataWindow(window, data.size());
  if (!span.ok()) return ReadyError<ReleaseResult>(span.status());
  const auto [offset, length] = span.value();
  const auto begin = data.begin() + static_cast<std::ptrdiff_t>(offset);
  return Submit(spec,
                std::make_shared<const StateSequence>(
                    begin, begin + static_cast<std::ptrdiff_t>(length)),
                DataWindow::Range(0, length), request);
}

std::future<Result<BatchReleaseResult>> Session::SubmitColumnar(
    const BatchQuerySpec& batch, const StateSequence& data,
    const RequestOptions& request) {
  return Enqueue<BatchReleaseResult>(
      PrepareBatchPlan(engine_, batch, data.size(), request),
      std::make_shared<const StateSequence>(data));
}

double Session::EpsilonSpent() const {
  MutexLock lock(mutex_);
  return accountant_.TotalEpsilon();
}

double Session::EpsilonRemaining() const {
  MutexLock lock(mutex_);
  return std::max(0.0, options_.epsilon_budget - accountant_.TotalEpsilon());
}

std::size_t Session::num_releases() const {
  MutexLock lock(mutex_);
  return accountant_.num_releases();
}

}  // namespace pf
