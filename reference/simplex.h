// A small dense two-phase primal simplex solver for standard-form LPs
//   min c'x  s.t.  A x = b, x >= 0.
// The LP oracle of the reference W_inf solver (transport-polytope
// feasibility, reference/wasserstein_reference.h), validated against
// max-flow and brute-force vertex enumeration by the property tests.
#ifndef PUFFERFISH_REFERENCE_SIMPLEX_H_
#define PUFFERFISH_REFERENCE_SIMPLEX_H_

#include "common/matrix.h"
#include "common/status.h"

namespace pf {

/// An optimal LP solution: the primal point and its objective value.
struct LpSolution {
  Vector x;
  double objective = 0.0;
};

/// \brief Solves min c'x s.t. A x = b, x >= 0 by two-phase simplex (Bland's
/// rule, so cycling cannot occur). Errors:
///  - InvalidArgument on dimension mismatches;
///  - FailedPrecondition when the constraints are infeasible;
///  - NumericalError when the objective is unbounded below.
Result<LpSolution> SolveStandardFormLp(const Matrix& a, const Vector& b,
                                       const Vector& c);

/// \brief Phase-1 only: returns some x >= 0 with A x = b, or
/// FailedPrecondition when none exists.
Result<Vector> FindFeasiblePoint(const Matrix& a, const Vector& b);

}  // namespace pf

#endif  // PUFFERFISH_REFERENCE_SIMPLEX_H_
