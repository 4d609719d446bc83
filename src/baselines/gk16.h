// GK16: the concurrent mechanism of Ghosh & Kleinberg, "Inferential privacy
// guarantees for differentially private mechanisms" (arXiv:1603.01508),
// implemented for Markov chains as the paper's Section 5 comparison
// baseline. No public implementation exists; this follows the construction
// the paper describes and documents the calibration in DESIGN.md §4:
//
//  - Each theta induces a pairwise "influence" nu(theta) between adjacent
//    chain nodes: a quarter of the worst log cross-ratio
//      nu = (1/4) max_{x != x', y != y'} log [P(x,y) P(x',y') /
//                                             (P(x,y') P(x',y))],
//    the log-odds change at a node when a neighbour's value flips.
//  - The influence matrix of a length-T chain is tridiagonal with nu on the
//    off-diagonals; its spectral norm is rho = 2 nu cos(pi/(T+1)).
//  - The mechanism applies only when rho < 1 (the spectral norm condition
//    that fails left of the dashed line in Figure 4 and on both real
//    datasets); when it applies, Laplace noise of scale
//    L (1 + rho) / (epsilon (1 - rho)) is added.
//
// Matching the paper's observations: the threshold is independent of
// epsilon; any zero transition probability makes nu (hence rho) infinite,
// so empirically estimated chains with unobserved transitions are N/A; and
// as Theta narrows to near-uniform chains the noise approaches the plain
// Laplace-DP level, beating MQM for the narrowest classes.
#ifndef PUFFERFISH_BASELINES_GK16_H_
#define PUFFERFISH_BASELINES_GK16_H_

#include <cstddef>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "graphical/markov_chain.h"

namespace pf {

/// Analysis outcome of the GK16 construction on a chain class.
struct Gk16Analysis {
  /// Worst pairwise influence nu over the class; +infinity when a
  /// transition probability is zero.
  double nu = 0.0;
  /// Spectral norm of the tridiagonal influence matrix.
  double spectral_norm = 0.0;
  /// True iff spectral_norm < 1 (the mechanism's applicability condition).
  bool applicable = false;
  /// Laplace scale multiplier (per unit Lipschitz constant) when applicable:
  /// (1 + rho) / (epsilon (1 - rho)); +infinity otherwise.
  double sigma = 0.0;
};

/// Pairwise influence nu of a single transition matrix (see header comment).
double Gk16PairwiseInfluence(const Matrix& transition);

/// \brief Runs the GK16 analysis for a class of transition matrices over a
/// length-T chain at privacy level epsilon.
Result<Gk16Analysis> Gk16Analyze(const std::vector<Matrix>& transitions,
                                 std::size_t length, double epsilon);

/// Convenience overload for explicit chains (uses their transition
/// matrices).
Result<Gk16Analysis> Gk16Analyze(const std::vector<MarkovChain>& thetas,
                                 std::size_t length, double epsilon);

}  // namespace pf

#endif  // PUFFERFISH_BASELINES_GK16_H_
