// Seeded random number generation: uniform, categorical and Laplace draws.
// Every randomized component in the library takes an explicit Rng so that
// experiments are reproducible bit-for-bit from a seed.
#ifndef PUFFERFISH_COMMON_RANDOM_H_
#define PUFFERFISH_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace pf {

/// \brief Reproducible random source wrapping std::mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xC0FFEE) : gen_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform();
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::size_t UniformInt(std::size_t n);

  /// \brief A draw from Laplace(0, scale): density (1/2b) exp(-|x|/b).
  ///
  /// This is the noise distribution of every mechanism in the paper
  /// (Algorithms 1-4 all end with "return F(D) + Lap(sigma) noise").
  double Laplace(double scale);

  /// \brief Index drawn from a categorical distribution given by `probs`
  /// (need not be exactly normalized; sampled proportionally).
  ///
  /// Degenerate weight vectors — empty, containing a negative or
  /// non-finite entry, or summing to zero — are rejected: TryCategorical
  /// returns InvalidArgument, and Categorical (the assert-like convenience
  /// used by the samplers, whose inputs are validated distributions)
  /// aborts with a message. The pre-fix behavior silently returned index 0
  /// for an all-zero vector and the last index for a NaN-poisoned one,
  /// which turned modeling bugs into quietly skewed samples.
  Result<std::size_t> TryCategorical(const Vector& probs);
  std::size_t Categorical(const Vector& probs);

  /// A point drawn uniformly from the probability simplex of dimension k
  /// (used for random initial distributions in the Figure 4 experiments).
  Vector UniformSimplex(std::size_t k);

  /// Underlying engine (for std::shuffle etc.).
  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

/// Expected absolute value of Laplace(0, b) noise, i.e. b.
/// Provided for readability when predicting L1 errors in tests/benches.
inline double LaplaceExpectedAbs(double scale) { return scale; }

/// \brief Inverse-CDF map from a uniform draw u in [0, 1) to
/// Laplace(0, scale). Finite for EVERY input: the boundary region
/// (u so close to 0 that 1 - 2|u - 1/2| underflows to 0, where the naive
/// formula returns -infinity) is clamped to the distribution's finite
/// extreme. Rng::Laplace additionally redraws the exact boundary u = 0, so
/// generator streams never even reach the clamp. Exposed so the boundary
/// behavior is testable without steering the generator onto the
/// measure-zero draw.
double LaplaceInverseCdf(double u, double scale);

/// \brief values[i] += Lap(scale) for i in [0, n), drawn in index order:
/// the release step every mechanism ends with (Algorithms 1-4: "return
/// F(D) + Lap(sigma) noise"), independent per coordinate. ReleaseVector
/// calls it, and it is the documented reference BatchLaplaceNoise
/// reproduces bit for bit.
void AddLaplaceNoise(double* values, std::size_t n, double scale, Rng* rng);

/// \brief The per-ticket noise-stream seed shared by the scalar and
/// columnar serving paths: SplitMix64 over (session seed, ticket). Each
/// ticket gets an independent, reproducible stream regardless of which
/// executor thread — or which serving path — draws from it, which is the
/// whole bit-identity story: a query released columnar under ticket t adds
/// exactly the noise the scalar path would have added under ticket t.
std::uint64_t TicketNoiseSeed(std::uint64_t seed, std::uint64_t ticket);

}  // namespace pf

#endif  // PUFFERFISH_COMMON_RANDOM_H_
