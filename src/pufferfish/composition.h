// Sequential composition accounting for the Markov Quilt Mechanism
// (Theorem 4.4). Pufferfish does not compose in general, but MQM releases
// that share the same quilt sets S_{Q,i} — and hence the same *active*
// quilts (Definition 4.5) — compose linearly: K releases at epsilon each
// give K * epsilon Pufferfish privacy (K * max_k epsilon_k when levels
// differ, provided the same S_{Q,i} is used throughout).
#ifndef PUFFERFISH_PUFFERFISH_COMPOSITION_H_
#define PUFFERFISH_PUFFERFISH_COMPOSITION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graphical/markov_quilt.h"

namespace pf {

/// \brief Deterministic budget-admission predicate shared by every ledger:
/// true iff `num_releases` releases at a worst per-release level of
/// `max_epsilon` fit a budget of `budget` under Theorem 4.4 pricing
/// (composed level K * max_epsilon).
///
/// The comparison forgives only floating-point dust: the product
/// K * max_epsilon is admitted when it exceeds the budget by at most
/// kBudgetTieUlps relative units (~3.6e-15 relative — decimal epsilons and
/// budgets carry ~1 ulp of representation error each and the product one
/// more rounding, so a true tie like B = 0.3, eps = 0.1, K = 3 lands
/// within 2 ulps). A genuine overrun is off by a whole epsilon — at least
/// 1/K relative — so the documented "exactly floor(B / eps) equal-epsilon
/// releases" guarantee holds on every platform for any K below ~1e13,
/// and no release that truly exceeds the budget is ever admitted. The rule
/// is a pure function of its arguments: the same ledger history admits the
/// same release everywhere, deterministically.
///
/// [[nodiscard]]: an admission check whose answer is dropped is a budget
/// bug by construction — callers must branch on it before releasing.
[[nodiscard]] bool ComposedBudgetAdmits(std::size_t num_releases,
                                        double max_epsilon, double budget);

/// \brief True iff releases under `a` and `b` compose under Theorem 4.4:
/// same target, same quilt nodes X_Q, same nearby count. The explicit
/// `nearby` / `remote` lists are derived from those and not compared.
[[nodiscard]] bool SameActiveQuilt(const MarkovQuilt& a, const MarkovQuilt& b);

/// \brief Tracks repeated MQM releases over the same database and reports
/// the composed privacy guarantee of Theorem 4.4.
class CompositionAccountant {
 public:
  CompositionAccountant() = default;

  /// Number of releases recorded so far (K).
  std::size_t num_releases() const { return num_releases_; }

  /// \brief Composed privacy parameter: K * max_k epsilon_k (Theorem 4.4).
  /// Zero when no release has been recorded.
  double TotalEpsilon() const;

  /// Largest single-release epsilon recorded so far (0 when empty); with
  /// num_releases() this lets callers price a prospective release as
  /// (K+1) * max(MaxEpsilon(), epsilon) before committing it.
  double MaxEpsilon() const { return max_epsilon_; }

  /// \brief True when `quilt` matches the active quilt of every recorded
  /// release (vacuously true for an empty ledger). Lets a budget ledger
  /// *refuse* a Theorem 4.4 violation up front.
  [[nodiscard]] bool MatchesActiveQuilt(const MarkovQuilt& quilt) const;

  /// \brief Records `count` releases whose largest epsilon is
  /// `max_epsilon`, all sharing `active_quilt` (the caller verifies that,
  /// Theorem 4.4's precondition, and that every smaller epsilon is valid),
  /// or none of them: only K and the max enter the composed level. An
  /// invalid `max_epsilon` (non-positive or non-finite: InvalidArgument) or
  /// a quilt mismatch with the ledger's earlier releases
  /// (FailedPrecondition) refuses them all with the ledger untouched, so a
  /// refused batch never debits partial epsilon. `count` = 0 records
  /// nothing.
  Status RecordStrict(std::size_t count, double max_epsilon,
                      const MarkovQuilt& active_quilt);

  /// Every release in `epsilons`, or none: validates each entry, then
  /// RecordStrict(epsilons.size(), max, active_quilt).
  Status RecordBatchStrict(const std::vector<double>& epsilons,
                           const MarkovQuilt& active_quilt);

  /// One release: RecordStrict(1, epsilon, active_quilt).
  Status RecordReleaseStrict(double epsilon, const MarkovQuilt& active_quilt);

  /// Forgets all recorded releases.
  void Reset();

 private:
  // Only the count and the max enter Theorem 4.4's K * max_k epsilon_k.
  std::uint64_t num_releases_ = 0;
  double max_epsilon_ = 0.0;
  /// The first release's active quilt, which every later one must match
  /// (SameActiveQuilt).
  MarkovQuilt first_quilt_;
};

}  // namespace pf

#endif  // PUFFERFISH_PUFFERFISH_COMPOSITION_H_
