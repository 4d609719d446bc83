// pf_analyzer fixture: clean twin of text_rules_bad.cc — MUST NOT trip
// any folded text rule, and proves that pf:allow markers suppress.

#include <cstdint>
#include <memory>
#include <random>

int NoiseGood(std::uint64_t seed) {
  std::mt19937_64 gen(seed);  // Seeded engine: fine.
  return static_cast<int>(gen());
}

double FmaGood(double x, double y, double z) {
  return x * y + z;  // Explicit mul then add: no contraction.
}

std::unique_ptr<int> OwnGood() {
  return std::make_unique<int>(7);  // Ownership via make_unique.
}

double ReleaseVector(double value, double scale);

double NoiseSiteGood(double value) {
  return ReleaseVector(value, 1.0);  // Noise through the release primitive.
}

int MarkedNoise() {
  // A deliberate exception with an inline justification is suppressed:
  return rand();  // pf:allow(unseeded-randomness): fixture proves markers work
}
