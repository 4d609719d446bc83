// Order-sensitive 64-bit fingerprinting of models and mechanism
// configurations. Used by the AnalysisCache to key cached analyses: two
// mechanisms with bit-identical models, parameters, and kind tags produce
// the same fingerprint. The hasher mixes one 64-bit word per step with
// xxHash64's round, runs the doubles of a Vector or Matrix through four
// independent lanes, and avalanches the state in hash().
//
// Fingerprints are persisted: plan snapshots (plan_store.h) store each
// cached plan under its Mechanism::Fingerprint(). Any change to what this
// hasher returns must bump the snapshot format tag, or a restored engine
// would import keys that no mechanism matches again.
#ifndef PUFFERFISH_COMMON_FINGERPRINT_H_
#define PUFFERFISH_COMMON_FINGERPRINT_H_

#include <cstdint>
#include <cstring>

#include "common/matrix.h"

namespace pf {

/// The raw bit pattern of a double (cache keys treat epsilons as equal iff
/// bit-identical; note -0.0 != 0.0 and NaNs never match themselves).
inline std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// \brief Domain-separation tag for PREFIX fingerprints: hashes of a model
/// with its record-length dimension removed (Mechanism::PrefixFingerprint).
/// Folding the tag guarantees a prefix fingerprint never collides with the
/// full fingerprint of the same model by construction — the two key
/// different cache namespaces (plans vs resumable analyses).
inline constexpr std::uint64_t kPrefixTag = 0x5741505045454E44u;  // "append"

/// \brief Maps the one reserved value (0 = "no prefix fingerprint" in
/// Mechanism::PrefixFingerprint) away so a real hash can never be mistaken
/// for the sentinel. Deterministic: equal inputs stay equal.
inline std::uint64_t EnsureNonZeroFingerprint(std::uint64_t h) {
  return h == 0 ? kPrefixTag : h;
}

/// \brief One SplitMix64 scramble step: a cheap, well-distributed 64-bit
/// mix shared by the cache key hash and the per-session/per-ticket seed
/// derivations (keep the constants in one place).
inline std::uint64_t SplitMix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15u;
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9u;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBu;
  z ^= z >> 31;
  return z;
}

/// \brief Incremental word-at-a-time hasher over primitive values and
/// containers.
///
/// Each Add also folds in a type/length tag, so e.g. the vectors {1.0} ++
/// {2.0} and {1.0, 2.0} hash differently.
class Fingerprint {
 public:
  Fingerprint& Add(std::uint64_t v) {
    state_ = Round(state_, v);
    return *this;
  }

  Fingerprint& Add(int v) {
    return Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }

  Fingerprint& Add(bool v) { return Add(static_cast<std::uint64_t>(v)); }

  Fingerprint& Add(double v) { return Add(DoubleBits(v)); }

  Fingerprint& Add(const Vector& v) {
    Add(std::uint64_t{0x7EC5});
    Add(v.size());
    AddDoubles(v.data(), v.size());
    return *this;
  }

  Fingerprint& Add(const Matrix& m) {
    Add(std::uint64_t{0xB1A5});
    Add(m.rows()).Add(m.cols());
    AddDoubles(m.RowPtr(0), m.rows() * m.cols());  // Rows are contiguous.
    return *this;
  }

  std::uint64_t hash() const {
    // Avalanche: every state bit reaches every output bit.
    std::uint64_t h = state_;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  // xxHash64's primes.
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87u;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Fu;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9u;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63u;
  static constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5u;

  static std::uint64_t Rotl(std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  }

  // One xxHash64 round: a bijection of `acc` for each fixed word.
  static std::uint64_t Round(std::uint64_t acc, std::uint64_t v) {
    acc += v * kP2;
    acc = Rotl(acc, 31);
    return acc * kP1;
  }

  static std::uint64_t MergeLane(std::uint64_t h, std::uint64_t lane) {
    h ^= Round(0, lane);
    return h * kP1 + kP4;
  }

  // Bulk path: four independent lanes, seeded from the running state, take
  // the words in turn (word i goes to lane i % 4), so their multiplies
  // overlap instead of forming one serial chain. The lanes then fold back
  // into the state, and the n % 4 tail words mix in one at a time.
  void AddDoubles(const double* p, std::size_t n) {
    std::size_t i = 0;
    if (n >= 4) {
      std::uint64_t a = state_ + kP1 + kP2;
      std::uint64_t b = state_ + kP2;
      std::uint64_t c = state_;
      std::uint64_t d = state_ - kP1;
      for (; i + 4 <= n; i += 4) {
        a = Round(a, DoubleBits(p[i]));
        b = Round(b, DoubleBits(p[i + 1]));
        c = Round(c, DoubleBits(p[i + 2]));
        d = Round(d, DoubleBits(p[i + 3]));
      }
      std::uint64_t h = Rotl(a, 1) + Rotl(b, 7) + Rotl(c, 12) + Rotl(d, 18);
      h = MergeLane(h, a);
      h = MergeLane(h, b);
      h = MergeLane(h, c);
      h = MergeLane(h, d);
      state_ = h;
    }
    for (; i < n; ++i) Add(DoubleBits(p[i]));
  }

  std::uint64_t state_ = kP5;
};

}  // namespace pf

#endif  // PUFFERFISH_COMMON_FINGERPRINT_H_
