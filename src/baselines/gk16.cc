#include "baselines/gk16.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "pufferfish/framework.h"

namespace pf {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPi = 3.14159265358979323846;
}  // namespace

double Gk16PairwiseInfluence(const Matrix& transition) {
  const std::size_t k = transition.rows();
  double worst = 0.0;
  for (std::size_t x = 0; x < k; ++x) {
    for (std::size_t xp = 0; xp < k; ++xp) {
      if (x == xp) continue;
      for (std::size_t y = 0; y < k; ++y) {
        for (std::size_t yp = 0; yp < k; ++yp) {
          if (y == yp) continue;
          const double num = transition(x, y) * transition(xp, yp);
          const double den = transition(x, yp) * transition(xp, y);
          if (num <= 0.0) continue;
          if (den <= 0.0) return kInf;
          worst = std::max(worst, std::log(num / den));
        }
      }
    }
  }
  return 0.25 * worst;
}

Result<Gk16Analysis> Gk16Analyze(const std::vector<Matrix>& transitions,
                                 std::size_t length, double epsilon) {
  PF_RETURN_NOT_OK(ValidatePrivacyParams({epsilon}));
  if (transitions.empty()) return Status::InvalidArgument("empty class");
  if (length < 2) return Status::InvalidArgument("chain length must be >= 2");
  Gk16Analysis analysis;
  for (const Matrix& p : transitions) {
    if (p.rows() != p.cols() || !p.IsRowStochastic(1e-8)) {
      return Status::InvalidArgument("transition matrix must be row-stochastic");
    }
    analysis.nu = std::max(analysis.nu, Gk16PairwiseInfluence(p));
  }
  if (std::isinf(analysis.nu)) {
    analysis.spectral_norm = kInf;
    analysis.applicable = false;
    analysis.sigma = kInf;
    return analysis;
  }
  // Spectral norm of the T x T symmetric tridiagonal Toeplitz matrix with
  // zero diagonal and nu off-diagonal: 2 nu cos(pi / (T + 1)).
  analysis.spectral_norm =
      2.0 * analysis.nu * std::cos(kPi / static_cast<double>(length + 1));
  analysis.applicable = analysis.spectral_norm < 1.0;
  analysis.sigma = analysis.applicable
                       ? (1.0 + analysis.spectral_norm) /
                             (epsilon * (1.0 - analysis.spectral_norm))
                       : kInf;
  return analysis;
}

Result<Gk16Analysis> Gk16Analyze(const std::vector<MarkovChain>& thetas,
                                 std::size_t length, double epsilon) {
  std::vector<Matrix> transitions;
  transitions.reserve(thetas.size());
  for (const MarkovChain& theta : thetas) transitions.push_back(theta.transition());
  return Gk16Analyze(transitions, length, epsilon);
}

}  // namespace pf
