#include "pufferfish/composition.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "pufferfish/framework.h"

namespace pf {

namespace {
/// Relative tie slack of ComposedBudgetAdmits, in units of machine
/// epsilon: covers the representation error of decimal epsilon/budget
/// literals (<= 1 ulp each) plus the single product rounding, with room to
/// spare, while staying ~13 orders of magnitude below the smallest genuine
/// overrun (one whole epsilon = 1/K relative).
constexpr double kBudgetTieUlps = 16.0;
}  // namespace

bool ComposedBudgetAdmits(std::size_t num_releases, double max_epsilon,
                          double budget) {
  if (std::isinf(budget) && budget > 0.0) return true;  // Unmetered.
  const double composed = static_cast<double>(num_releases) * max_epsilon;
  if (!std::isfinite(composed)) return false;
  const double slack = kBudgetTieUlps *
                       std::numeric_limits<double>::epsilon() *
                       std::max(std::fabs(budget), std::fabs(composed));
  return composed <= budget + slack;
}

bool SameActiveQuilt(const MarkovQuilt& a, const MarkovQuilt& b) {
  return a.target == b.target && a.nearby_count == b.nearby_count &&
         a.quilt == b.quilt;
}

Status CompositionAccountant::RecordStrict(std::size_t count,
                                           double max_epsilon,
                                           const MarkovQuilt& active_quilt) {
  // Validate everything BEFORE mutating: all-or-nothing is the contract.
  // Shared with every mechanism's Analyze: the ledger and the mechanisms
  // must agree on what a valid epsilon is.
  PF_RETURN_NOT_OK(ValidatePrivacyParams({max_epsilon}));
  if (count == 0) return Status::OK();
  if (!MatchesActiveQuilt(active_quilt)) {
    return Status::FailedPrecondition(
        "release refused: its active quilt differs from the ledger's "
        "earlier releases, so Theorem 4.4 composition does not apply; "
        "serve it from a separate session");
  }
  if (num_releases_ == 0) first_quilt_ = active_quilt;
  num_releases_ += count;
  if (max_epsilon > max_epsilon_) max_epsilon_ = max_epsilon;
  return Status::OK();
}

Status CompositionAccountant::RecordBatchStrict(
    const std::vector<double>& epsilons, const MarkovQuilt& active_quilt) {
  if (epsilons.empty()) return Status::OK();
  double max_epsilon = epsilons.front();
  for (double epsilon : epsilons) {
    PF_RETURN_NOT_OK(ValidatePrivacyParams({epsilon}));
    max_epsilon = std::max(max_epsilon, epsilon);
  }
  return RecordStrict(epsilons.size(), max_epsilon, active_quilt);
}

Status CompositionAccountant::RecordReleaseStrict(
    double epsilon, const MarkovQuilt& active_quilt) {
  return RecordStrict(1, epsilon, active_quilt);
}

double CompositionAccountant::TotalEpsilon() const {
  return static_cast<double>(num_releases_) * max_epsilon_;
}

bool CompositionAccountant::MatchesActiveQuilt(const MarkovQuilt& quilt) const {
  return num_releases_ == 0 || SameActiveQuilt(quilt, first_quilt_);
}

void CompositionAccountant::Reset() {
  num_releases_ = 0;
  max_epsilon_ = 0.0;
  first_quilt_ = MarkovQuilt();
}

}  // namespace pf
