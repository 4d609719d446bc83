#include "common/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/fingerprint.h"

namespace pf {

double Rng::Uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
}

double Rng::Uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

std::size_t Rng::UniformInt(std::size_t n) {
  assert(n > 0);
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(gen_);
}

double LaplaceInverseCdf(double u, double scale) {
  // Inverse CDF: X = -b * sgn(t) * ln(1 - 2|t|), t = u - 1/2 in
  // (-1/2, 1/2).
  const double t = u - 0.5;
  // sgn(t), with t = +0 counted positive. copysign rather than a compare:
  // t's sign is a fair coin per draw, so a branch mispredicts on half of
  // them. The two agree for every t that u - 1/2 can produce (never -0.0
  // under round-to-nearest), and for a NaN u both return that NaN.
  const double sign = std::copysign(1.0, t);
  // The tail 1 - 2|t| rounds to exactly 0 for u below ~1e-17 (u - 0.5
  // collapses to -1/2), where log would produce the infinite noise value
  // this fix removes; clamp to the smallest positive normal. No draw
  // uniform_real_distribution emits (multiples of 2^-53) hits the clamp,
  // so generator-fed noise streams are unchanged bit for bit.
  const double tail = std::max(1.0 - 2.0 * std::fabs(t),
                               std::numeric_limits<double>::min());
  return -scale * sign * std::log(tail);
}

double Rng::Laplace(double scale) {
  assert(scale >= 0.0);
  // Uniform() draws from the half-open [0, 1); the boundary draw u = 0
  // maps through the inverse CDF to log(0) = -infinity — an infinite
  // noise value released to the caller. Redraw into the open interval:
  // the conditional distribution is unchanged, and every non-boundary
  // draw produces bit-identical values to the pre-fix stream.
  double u;
  do {
    u = Uniform();
  } while (u == 0.0);
  return LaplaceInverseCdf(u, scale);
}

Result<std::size_t> Rng::TryCategorical(const Vector& probs) {
  if (probs.empty()) {
    return Status::InvalidArgument("categorical weights are empty");
  }
  double total = 0.0;
  for (double p : probs) {
    // (p >= 0) is false for NaN, so this also rejects NaN-poisoned
    // weights instead of letting r = NaN fall through every bucket.
    if (!(p >= 0.0) || !std::isfinite(p)) {
      return Status::InvalidArgument(
          "categorical weights must be finite and nonnegative");
    }
    total += p;
  }
  if (total <= 0.0) {
    // All-zero weights: the pre-fix scan returned index 0 because
    // r = Uniform() * 0 satisfied r <= 0 immediately.
    return Status::InvalidArgument("categorical weights sum to zero");
  }
  if (!std::isfinite(total)) {
    // Finite weights can still overflow the sum (e.g. several 1e308
    // entries); r = Uniform() * inf never terminates the scan early, which
    // would silently return the last index on every draw.
    return Status::InvalidArgument("categorical weights overflow their sum");
  }
  double r = Uniform() * total;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    r -= probs[i];
    if (r <= 0.0) return i;
  }
  return probs.size() - 1;  // Guard against floating point underflow.
}

std::size_t Rng::Categorical(const Vector& probs) {
  // pf:allow(value-or-die): Categorical's documented contract IS to abort
  // on invalid weights (see random.h / PR 4); callers that must not abort
  // use TryCategorical and handle the Status.
  return TryCategorical(probs).ValueOrDie();  // pf:allow(value-or-die)
}

Vector Rng::UniformSimplex(std::size_t k) {
  assert(k > 0);
  // Exponential spacings method: normalize i.i.d. Exp(1) draws.
  Vector v(k);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    v[i] = -std::log(1.0 - Uniform());
    sum += v[i];
  }
  for (double& x : v) x /= sum;
  return v;
}

void AddLaplaceNoise(double* values, std::size_t n, double scale, Rng* rng) {
  for (std::size_t i = 0; i < n; ++i) values[i] += rng->Laplace(scale);
}

std::uint64_t TicketNoiseSeed(std::uint64_t seed, std::uint64_t ticket) {
  return SplitMix64(seed + 0x9E3779B97F4A7C15u * ticket);
}

}  // namespace pf
