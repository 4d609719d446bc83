// The analysis-cache key hasher: every model double reaches the hash
// through both the four-lane bulk path and the n % 4 tail, type and length
// tags keep differently-shaped containers apart, and the finalizer
// avalanches the state.
#include "common/fingerprint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "dist/discrete_distribution.h"
#include "graphical/bayesian_network.h"
#include "graphical/markov_chain.h"
#include "pufferfish/mechanism.h"

namespace pf {
namespace {

constexpr std::size_t kStates = 32;

double OneUlpUp(double x) { return std::nextafter(x, 2.0); }

// A dense k-state chain whose cells are all distinct (a flipped cell can
// never coincide with its neighbour's value).
Vector TestInitial() {
  Vector initial(kStates);
  double sum = 0.0;
  for (std::size_t i = 0; i < kStates; ++i) {
    initial[i] = 1.0 + 0.01 * static_cast<double>(i);
    sum += initial[i];
  }
  for (double& x : initial) x /= sum;
  return initial;
}

Matrix TestTransition() {
  Matrix m(kStates, kStates);
  for (std::size_t r = 0; r < kStates; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < kStates; ++c) {
      m(r, c) = 1.0 + 0.001 * static_cast<double>(r * kStates + c);
      sum += m(r, c);
    }
    for (std::size_t c = 0; c < kStates; ++c) m(r, c) /= sum;
  }
  return m;
}

MqmExactUnified Mechanism(const Vector& initial, const Matrix& transition) {
  return MqmExactUnified(
      {MarkovChain::Make(initial, transition).ValueOrDie()}, 1000);
}

TEST(FingerprintTest, OneUlpInAnyTransitionCellChangesBothFingerprints) {
  const Vector initial = TestInitial();
  const Matrix transition = TestTransition();
  const MqmExactUnified base = Mechanism(initial, transition);
  const std::uint64_t full = base.Fingerprint();
  const std::uint64_t prefix = base.PrefixFingerprint();
  for (std::size_t r = 0; r < kStates; ++r) {
    for (std::size_t c = 0; c < kStates; ++c) {
      Matrix flipped = transition;
      flipped(r, c) = OneUlpUp(flipped(r, c));
      const MqmExactUnified m = Mechanism(initial, flipped);
      EXPECT_NE(m.Fingerprint(), full) << "cell (" << r << ", " << c << ")";
      EXPECT_NE(m.PrefixFingerprint(), prefix)
          << "cell (" << r << ", " << c << ")";
    }
  }
}

TEST(FingerprintTest, OneUlpInAnyInitialEntryChangesBothFingerprints) {
  const Vector initial = TestInitial();
  const Matrix transition = TestTransition();
  const MqmExactUnified base = Mechanism(initial, transition);
  for (std::size_t i = 0; i < kStates; ++i) {
    Vector flipped = initial;
    flipped[i] = OneUlpUp(flipped[i]);
    const MqmExactUnified m = Mechanism(flipped, transition);
    EXPECT_NE(m.Fingerprint(), base.Fingerprint()) << "entry " << i;
    EXPECT_NE(m.PrefixFingerprint(), base.PrefixFingerprint())
        << "entry " << i;
  }
}

TEST(FingerprintTest, EveryTailLengthHashesDistinctlyAndSeesEveryEntry) {
  // Lengths 0..9 cover each n % 4 tail with and without a bulk block.
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= 9; ++n) {
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = 0.5 + static_cast<double>(i);
    const std::uint64_t h = Fingerprint{}.Add(v).hash();
    EXPECT_TRUE(seen.insert(h).second) << "length " << n << " collided";
    for (std::size_t i = 0; i < n; ++i) {
      Vector flipped = v;
      flipped[i] = OneUlpUp(flipped[i]);
      EXPECT_NE(Fingerprint{}.Add(flipped).hash(), h)
          << "length " << n << ", entry " << i;
    }
  }
}

TEST(FingerprintTest, MatrixShapeIsPartOfTheHash) {
  std::vector<double> data(16);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.25 * static_cast<double>(i + 1);
  }
  std::set<std::uint64_t> seen;
  for (const std::size_t rows : {1u, 2u, 4u}) {
    const std::size_t cols = data.size() / rows;
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < data.size(); ++i) m(i / cols, i % cols) = data[i];
    EXPECT_TRUE(seen.insert(Fingerprint{}.Add(m).hash()).second)
        << rows << "x" << cols << " collided";
  }
}

TEST(FingerprintTest, ConcatenatedVectorsDifferFromTheirJoin) {
  EXPECT_NE(Fingerprint{}.Add(Vector{1.0}).Add(Vector{2.0}).hash(),
            Fingerprint{}.Add(Vector{1.0, 2.0}).hash());
}

TEST(FingerprintTest, EveryInputBitFlipsAboutHalfTheOutputBits) {
  // Strict avalanche on one-word inputs: flipping any input bit flips on
  // average close to 32 of the 64 output bits. A bare xxHash64 round
  // without the finalizer averages under 18 for the top input bit.
  for (int bit = 0; bit < 64; ++bit) {
    int flipped = 0;
    constexpr int kSamples = 256;
    for (int s = 0; s < kSamples; ++s) {
      const std::uint64_t v = SplitMix64(static_cast<std::uint64_t>(s));
      const std::uint64_t w = v ^ (std::uint64_t{1} << bit);
      flipped += __builtin_popcountll(Fingerprint{}.Add(v).hash() ^
                                      Fingerprint{}.Add(w).hash());
    }
    EXPECT_GE(flipped, 28 * kSamples) << "input bit " << bit;
    EXPECT_LE(flipped, 36 * kSamples) << "input bit " << bit;
  }
}

TEST(FingerprintTest, KnownAnswerMqmExactFingerprint) {
  // Plan snapshots persist Mechanism::Fingerprint() as their keys. If this
  // value changes, bump the PFPLAN format tag in plan_store.cc so that
  // snapshots from older builds are refused instead of imported under
  // keys no mechanism matches.
  const MqmExactUnified m(
      {MarkovChain::Make({0.5, 0.25, 0.25}, Matrix{{0.5, 0.25, 0.25},
                                                  {0.25, 0.5, 0.25},
                                                  {0.125, 0.375, 0.5}})
           .ValueOrDie()},
      100);
  EXPECT_EQ(m.Fingerprint(), std::uint64_t{0xE7D0F49D9530435Bu});
}

TEST(FingerprintTest, KnownAnswerMqmGeneralFingerprint) {
  // A three-node chain network under default MqmAnalyzeOptions. Pins the
  // PFPLAN02 key of network plans (see KnownAnswerMqmExactFingerprint).
  const MqmGeneralUnified m(
      {BayesianNetwork::FromMarkovChain({0.5, 0.25, 0.25},
                                        Matrix{{0.5, 0.25, 0.25},
                                               {0.25, 0.5, 0.25},
                                               {0.125, 0.375, 0.5}},
                                        3)
           .ValueOrDie()});
  EXPECT_EQ(m.Fingerprint(), std::uint64_t{0x43B33AF9BD6E78F7u});
}

TEST(FingerprintTest, KnownAnswerWassersteinFingerprint) {
  // Two conditional output pairs. Pins the PFPLAN02 key of output-pair
  // plans (see KnownAnswerMqmExactFingerprint).
  const auto dist = [](std::vector<DiscreteDistribution::Atom> atoms) {
    return DiscreteDistribution::Make(std::move(atoms)).ValueOrDie();
  };
  const WassersteinUnified m(
      {{dist({{0.0, 0.5}, {1.0, 0.5}}), dist({{0.0, 0.25}, {2.0, 0.75}})},
       {dist({{1.0, 1.0}}), dist({{0.5, 0.125}, {3.0, 0.875}})}});
  EXPECT_EQ(m.Fingerprint(), std::uint64_t{0x7083F30C16B201E7u});
}

}  // namespace
}  // namespace pf
