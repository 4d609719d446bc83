#include "engine/batch_kernels.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "common/matrix.h"
#include "common/random.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PF_SIMD_X86 1
#include <immintrin.h>
#endif

namespace pf {

namespace {

void AggregatePortable(const int* data, std::size_t n,
                       const AggregateSpec& spec, AggregateStats* stats) {
  const int k = static_cast<int>(spec.k);
  std::int64_t sum = 0;
  bool oor = false;
  std::int64_t* counts = stats->counts;
  std::int64_t* matches = stats->match_counts;
  const std::size_t num_match = spec.match_states.size();
  for (std::size_t t = 0; t < n; ++t) {
    const int v = data[t];
    sum += v;
    if (k > 0) {
      if (v >= 0 && v < k) {
        ++counts[v];
      } else {
        oor = true;
      }
    }
    for (std::size_t m = 0; m < num_match; ++m) {
      matches[m] += (v == spec.match_states[m]) ? 1 : 0;
    }
  }
  stats->sum = sum;  // The sum is free alongside the pass; always report it.
  stats->out_of_range = oor;
}

#ifdef PF_SIMD_X86
// AVX2 aggregate: 8 int32 lanes per step. The state sum widens each half
// to int64 lanes (exact — no overflow below 2^63), the range check ORs a
// per-lane out-of-bounds mask into a sticky accumulator, and each match
// target keeps 8 int32 lane counters (cmpeq yields -1 per matching lane;
// subtracting accumulates +1). The histogram itself stays scalar over the
// already-loaded block — 8 dependent memory increments don't vectorize,
// and the loads are the expensive part. Everything is integer arithmetic,
// so the result is bit-identical to the portable kernel by construction.
__attribute__((target("avx2"))) void AggregateAvx2(const int* data,
                                                   std::size_t n,
                                                   const AggregateSpec& spec,
                                                   AggregateStats* stats) {
  const int k = static_cast<int>(spec.k);
  std::int64_t* counts = stats->counts;
  std::int64_t* matches = stats->match_counts;
  const std::size_t num_match = spec.match_states.size();

  __m256i sum_lo = _mm256_setzero_si256();
  __m256i sum_hi = _mm256_setzero_si256();
  __m256i oor_acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  const __m256i kvec = _mm256_set1_epi32(k);
  // Per-target 8-lane match counters (int32; safe for n < 2^31 per lane,
  // far beyond any record this engine serves).
  __m256i match_acc[8];
  const std::size_t vec_match = num_match <= 8 ? num_match : 8;
  __m256i match_target[8];
  for (std::size_t m = 0; m < vec_match; ++m) {
    match_acc[m] = _mm256_setzero_si256();
    match_target[m] = _mm256_set1_epi32(spec.match_states[m]);
  }

  std::size_t t = 0;
  for (; t + 8 <= n; t += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + t));
    // Widen to 2x4 int64 lanes and accumulate the sum exactly.
    sum_lo = _mm256_add_epi64(
        sum_lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
    sum_hi = _mm256_add_epi64(
        sum_hi, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
    if (k > 0) {
      // out-of-range lane = (v < 0) | (v >= k).
      const __m256i neg = _mm256_cmpgt_epi32(zero, v);
      const __m256i high = _mm256_cmpgt_epi32(kvec, v);  // v < k per lane
      oor_acc = _mm256_or_si256(
          oor_acc, _mm256_or_si256(neg, _mm256_andnot_si256(high, _mm256_set1_epi32(-1))));
      // Histogram over the in-register block, scalar increments.
      for (int lane = 0; lane < 8; ++lane) {
        const int s = data[t + lane];
        if (s >= 0 && s < k) ++counts[s];
      }
    }
    for (std::size_t m = 0; m < vec_match; ++m) {
      match_acc[m] = _mm256_sub_epi32(match_acc[m],
                                      _mm256_cmpeq_epi32(v, match_target[m]));
    }
    for (std::size_t m = vec_match; m < num_match; ++m) {
      const int target = spec.match_states[m];
      for (int lane = 0; lane < 8; ++lane) {
        matches[m] += (data[t + lane] == target) ? 1 : 0;
      }
    }
  }

  // Horizontal reductions (integer adds — order-free).
  alignas(32) std::int64_t lanes64[4];
  std::int64_t sum = 0;
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes64), sum_lo);
  sum += lanes64[0] + lanes64[1] + lanes64[2] + lanes64[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes64), sum_hi);
  sum += lanes64[0] + lanes64[1] + lanes64[2] + lanes64[3];
  bool oor = _mm256_movemask_epi8(oor_acc) != 0;
  for (std::size_t m = 0; m < vec_match; ++m) {
    alignas(32) std::int32_t lanes32[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes32), match_acc[m]);
    for (int lane = 0; lane < 8; ++lane) matches[m] += lanes32[lane];
  }

  // Scalar tail.
  for (; t < n; ++t) {
    const int v = data[t];
    sum += v;
    if (k > 0) {
      if (v >= 0 && v < k) {
        ++counts[v];
      } else {
        oor = true;
      }
    }
    for (std::size_t m = 0; m < num_match; ++m) {
      matches[m] += (v == spec.match_states[m]) ? 1 : 0;
    }
  }

  stats->sum = sum;
  stats->out_of_range = oor;
}

__attribute__((target("avx2"))) void ClipScalesAvx2(const double* lipschitz,
                                                    const double* sigmas,
                                                    std::size_t n,
                                                    double* scales) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(scales + i, _mm256_mul_pd(_mm256_loadu_pd(lipschitz + i),
                                               _mm256_loadu_pd(sigmas + i)));
  }
  for (; i < n; ++i) scales[i] = lipschitz[i] * sigmas[i];
}
#endif  // PF_SIMD_X86

// ---- BatchLaplaceNoise ---------------------------------------------------
//
// An exact replica of libstdc++'s std::mt19937_64
// (std::mersenne_twister_engine<uint64_t, 64, 312, 156, 31,
// 0xb5026f5aa96619e9, 29, 0x5555555555555555, 17, 0x71d67fffeda60000, 37,
// 0xfff7eee000000000, 43, 6364136223846793005>), materialised lazily.
// std:: seeds all 312 state words and twists all of them before the first
// output, but output k is temper(twisted word k), and std::'s in-place twist
// computes word k from words k, k + 1 and k + 156 (mod 312) as they stand
// when the pass reaches k. Twisting word k only when it is drawn therefore
// yields the same stream, and a freshly seeded engine's first d <= 156
// outputs read only seed words [0, d] and [156, 156 + d).
//
// The scalar kernel (the portable reference) keeps a seeded and a draw
// cursor per lane: a row of d draws costs 156 + d seeding steps and d twist
// steps instead of 312 + 312. Drawing past word 311 starts the next
// generation exactly as std::'s regular retwist does, and a u = 0 redraw
// past the seeded prefix extends it. The seeding recurrence is strictly
// serial per engine (each word depends on the previous) but independent
// across rows, so groups of kNoiseLanes rows seed their shared prefix
// interleaved and the multiply chains pipeline.
//
// The wide kernel (AVX-512F+DQ, taken at SimdLevel::kAvx2) runs the same
// recurrence for kWideNoiseRows rows as 4 register-held 8-lane chains and
// stores only the seed words the group's first-generation draws read:
// [0, widest] and [156, 156 + widest). It then twists, tempers and
// converts each draw 8 lanes at a time. Every step is integer arithmetic
// except the conversion, a correctly rounded u64 -> double (the same
// rounding as the scalar cast) times the exact power 2^-64, so each lane's
// draws are the scalar kernel's bit for bit. A row that drew u = 0 would
// need the redraw, which only the scalar kernel does: the wide kernel
// hands that row back whole, and the scalar kernel replays it from its
// seed.
//
// Both kernels replicate uniform_real_distribution<double>(0, 1) per draw:
// one tempered 64-bit output divided by 2^64, with generate_canonical's
// below-1.0 clamp. Pinned bit-for-bit against std:: by the
// BatchLaplaceNoise* kernel tests and the scalar-vs-columnar serving suite.

constexpr std::size_t kMtN = 312;
constexpr std::size_t kMtM = 156;
constexpr std::uint64_t kMtMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kMtUpperMask = 0xffffffff80000000ULL;
constexpr std::uint64_t kMtLowerMask = 0x000000007fffffffULL;
constexpr std::uint64_t kMtInitMult = 6364136223846793005ULL;
constexpr std::size_t kNoiseLanes = 8;
/// The largest double below 1.0: generate_canonical's clamp value.
constexpr double kBelowOne = 1.0 - std::numeric_limits<double>::epsilon() / 2;

/// One row's engine, contiguous so a narrow row touches only the cache
/// lines of its prefix. Words [0, pos) are twisted for the current
/// generation; words [pos, seeded) still hold the previous generation (the
/// seeding sequence, at first); `pos` is the next word to twist and output.
struct MtLane {
  std::uint64_t s[kMtN];
  std::size_t seeded;
  std::size_t pos;
};

/// The wide kernel's seed slots: slot i < w + 1 holds seed word i, slot
/// w + 1 + j holds seed word 156 + j, for a group whose widest row draws
/// w words. Each slot holds one word per row of the group, row-minor, so a
/// slot is 4 aligned vectors; drawing word k overwrites slot k with draw
/// k's unit double (bits), which no later draw reads.
constexpr std::size_t kWideSlots = 2 * kWideNoiseMaxWidth + 1;

/// The noise stage's ~20 KB of stack scratch, left uninitialised: each
/// kernel writes the words it reads first. The wide kernel's slots share
/// the scalar kernel's storage, so taking it adds no stack.
union NoiseScratch {
  MtLane lanes[kNoiseLanes];
  alignas(64) std::uint64_t slots[kWideSlots * kWideNoiseRows];
};
static_assert(sizeof(NoiseScratch) == sizeof(MtLane) * kNoiseLanes,
              "the wide kernel's slots must fit in the scalar lanes");

inline std::uint64_t MtTemper(std::uint64_t y) {
  y ^= (y >> 29) & 0x5555555555555555ULL;
  y ^= (y << 17) & 0x71d67fffeda60000ULL;
  y ^= (y << 37) & 0xfff7eee000000000ULL;
  y ^= (y >> 43);
  return y;
}

/// One twist step from state words x_k, x_{k+1}, x_{k+m} (branchless form
/// of the (y & 1) ? matrix_a : 0 conditional).
inline std::uint64_t MtTwistWord(std::uint64_t xk, std::uint64_t xk1,
                                 std::uint64_t xkm) {
  const std::uint64_t y = (xk & kMtUpperMask) | (xk1 & kMtLowerMask);
  return xkm ^ (y >> 1) ^ (kMtMatrixA & (0 - (y & 1ULL)));
}

/// Seed words that drawing words [0, end) of the first generation reads:
/// word k < 156 reads s[k + 156], word k >= 156 reads s[k + 1].
inline std::size_t MtSeedPrefix(std::size_t end) {
  return std::min(kMtN, end + kMtM);
}

inline std::uint64_t MtSeedWord(std::uint64_t prev, std::size_t i) {
  return kMtInitMult * (prev ^ (prev >> 62)) + static_cast<std::uint64_t>(i);
}

/// Seeds `lanes` engines from seeds[] to `end` seed words each,
/// interleaved across lanes.
void MtSeedLanes(MtLane* mt, const std::uint64_t* seeds, std::size_t lanes,
                 std::size_t end) {
  for (std::size_t l = 0; l < lanes; ++l) {
    mt[l].s[0] = seeds[l];
    mt[l].seeded = end;
    mt[l].pos = 0;
  }
  for (std::size_t i = 1; i < end; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) {
      mt[l].s[i] = MtSeedWord(mt[l].s[i - 1], i);
    }
  }
}

/// The lane's next output: twists word `pos` in place and tempers it.
inline std::uint64_t MtNext(MtLane* mt) {
  if (mt->pos == kMtN) mt->pos = 0;  // The next generation.
  const std::size_t k = mt->pos++;
  std::uint64_t* s = mt->s;
  // Only a redraw reads past the seed prefix its group was given.
  for (; mt->seeded < MtSeedPrefix(k + 1); ++mt->seeded) {
    s[mt->seeded] = MtSeedWord(s[mt->seeded - 1], mt->seeded);
  }
  const std::size_t next = k + 1 == kMtN ? 0 : k + 1;
  const std::size_t mid = k < kMtN - kMtM ? k + kMtM : k + kMtM - kMtN;
  s[k] = MtTwistWord(s[k], s[next], s[mid]);
  return MtTemper(s[k]);
}

/// uniform_real_distribution<double>(0, 1) on a 64-bit engine output,
/// libstdc++ generate_canonical semantics: one division by 2^64, and the
/// result clamped to the largest double below 1.0 when the conversion of x
/// to double rounds up to 2^64 (x within 512 of the top of the range).
inline double MtUnitDraw(std::uint64_t x) {
  const double u = static_cast<double>(x) / 18446744073709551616.0;
  return u >= 1.0 ? kBelowOne : u;
}

/// Draws of the widest row in rows [begin, end).
std::size_t WidestRow(const std::size_t* offsets, std::size_t begin,
                      std::size_t end) {
  std::size_t widest = 0;
  for (std::size_t r = begin; r < end; ++r) {
    widest = std::max(widest, offsets[r + 1] - offsets[r]);
  }
  return widest;
}

/// The scalar kernel over rows [begin, end), in groups of kNoiseLanes.
void NoiseRowsScalar(double* values, const std::size_t* offsets,
                     const double* scales, const std::uint64_t* seeds,
                     std::size_t begin, std::size_t end, MtLane* mt) {
  for (std::size_t base = begin; base < end; base += kNoiseLanes) {
    const std::size_t lanes = std::min(kNoiseLanes, end - base);
    MtSeedLanes(mt, seeds + base, lanes,
                MtSeedPrefix(WidestRow(offsets, base, base + lanes)));
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t r = base + l;
      double* out = values + offsets[r];
      const std::size_t n = offsets[r + 1] - offsets[r];
      const double scale = scales[r];
      for (std::size_t j = 0; j < n; ++j) {
        // Rng::Laplace's boundary redraw: u = 0 maps to log(0), so the
        // scalar path discards it; discard the same draws here.
        double u;
        do {
          u = MtUnitDraw(MtNext(&mt[l]));
        } while (u == 0.0);
        out[j] += LaplaceInverseCdf(u, scale);
      }
    }
  }
}

#ifdef PF_SIMD_X86
// The wide kernel is written with GCC vector extensions, not intrinsics:
// under target("avx512f,avx512dq") they lower to the same instructions
// (vpmullq, vpsrlq, vpternlogq, vcvtuqq2pd), while GCC 12's
// avx512fintrin.h shift and min intrinsics raise -Wmaybe-uninitialized.
typedef std::uint64_t U64x8 __attribute__((vector_size(64), may_alias));
typedef std::int64_t I64x8 __attribute__((vector_size(64), may_alias));
typedef double F64x8 __attribute__((vector_size(64), may_alias));
constexpr std::size_t kWideVecs = kWideNoiseRows / 8;

/// One seeding step on the group's chains: x = mult * (x ^ x >> 62) + i.
__attribute__((target("avx512f,avx512dq"))) inline void MtSeedStep512(
    U64x8* x, std::uint64_t i) {
  for (std::size_t v = 0; v < kWideVecs; ++v) {
    x[v] = kMtInitMult * (x[v] ^ (x[v] >> 62)) + i;
  }
}

__attribute__((target("avx512f,avx512dq"))) inline void MtStoreSlot512(
    const U64x8* x, std::uint64_t* slot) {
  for (std::size_t v = 0; v < kWideVecs; ++v) {
    reinterpret_cast<U64x8*>(slot)[v] = x[v];
  }
}

/// The wide kernel's draws for one group of kWideNoiseRows rows whose
/// widest row draws w <= kWideNoiseMaxWidth words: leaves draw k of row l
/// as a unit double's bits in slots[k * kWideNoiseRows + l], for k < w.
/// Returns the mask of rows that drew u = 0 (the scalar kernel replays
/// them; a draw past a row's width counts too, which costs only speed).
__attribute__((target("avx512f,avx512dq"))) std::uint32_t WideNoiseDraws(
    const std::uint64_t* seeds, std::size_t w, std::uint64_t* slots) {
  U64x8 x[kWideVecs];
  std::memcpy(x, seeds, sizeof(x));
  MtStoreSlot512(x, slots);
  std::size_t i = 1;
  for (; i <= w; ++i) {
    MtSeedStep512(x, i);
    MtStoreSlot512(x, slots + i * kWideNoiseRows);
  }
  for (; i < kMtM; ++i) MtSeedStep512(x, i);
  for (; i < kMtM + w; ++i) {
    MtSeedStep512(x, i);
    MtStoreSlot512(x, slots + (i - kMtM + w + 1) * kWideNoiseRows);
  }

  const F64x8 below_one = F64x8{} + kBelowOne;
  I64x8 drew_zero[kWideVecs] = {};
  for (std::size_t k = 0; k < w; ++k) {
    U64x8* word = reinterpret_cast<U64x8*>(slots + k * kWideNoiseRows);
    const U64x8* next = word + kWideVecs;
    const U64x8* mid =
        reinterpret_cast<const U64x8*>(slots + (w + 1 + k) * kWideNoiseRows);
    for (std::size_t v = 0; v < kWideVecs; ++v) {
      const U64x8 y = (word[v] & kMtUpperMask) | (next[v] & kMtLowerMask);
      U64x8 t = mid[v] ^ (y >> 1) ^ (kMtMatrixA & (0 - (y & 1)));
      t ^= (t >> 29) & 0x5555555555555555ULL;
      t ^= (t << 17) & 0x71d67fffeda60000ULL;
      t ^= (t << 37) & 0xfff7eee000000000ULL;
      t ^= t >> 43;
      drew_zero[v] |= t == 0;
      // x / 2^64, clamped below 1.0; every u < 1 passes unchanged.
      const F64x8 u = __builtin_convertvector(t, F64x8) * 0x1p-64;
      word[v] = reinterpret_cast<U64x8>(u < below_one ? u : below_one);
    }
  }
  std::uint32_t redraw = 0;
  for (std::size_t l = 0; l < kWideNoiseRows; ++l) {
    if (drew_zero[l / 8][l % 8] != 0) redraw |= 1u << l;
  }
  return redraw;
}

/// The wide kernel over rows [base, base + kWideNoiseRows), whose widest
/// row draws w <= kWideNoiseMaxWidth words.
void NoiseGroupWide(double* values, const std::size_t* offsets,
                    const double* scales, const std::uint64_t* seeds,
                    std::size_t base, std::size_t w, NoiseScratch* scratch) {
  std::uint32_t redraw = WideNoiseDraws(seeds + base, w, scratch->slots);
  for (std::size_t l = 0; l < kWideNoiseRows; ++l) {
    if ((redraw >> l) & 1u) continue;
    const std::size_t r = base + l;
    double* out = values + offsets[r];
    const std::size_t n = offsets[r + 1] - offsets[r];
    for (std::size_t j = 0; j < n; ++j) {
      double u;
      std::memcpy(&u, &scratch->slots[j * kWideNoiseRows + l], sizeof(u));
      out[j] += LaplaceInverseCdf(u, scales[r]);
    }
  }
  // Every other row is done with the slots: the scalar lanes reuse them.
  for (; redraw != 0; redraw &= redraw - 1) {
    const std::size_t r =
        base + static_cast<std::size_t>(__builtin_ctz(redraw));
    NoiseRowsScalar(values, offsets, scales, seeds, r, r + 1, scratch->lanes);
  }
}
#endif  // PF_SIMD_X86

/// Whether full row groups take the wide kernel at the active SimdLevel.
bool WideNoiseActive() {
#ifdef PF_SIMD_X86
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512dq");
  return ActiveSimdLevel() == SimdLevel::kAvx2 && supported;
#else
  return false;
#endif
}

}  // namespace

void AggregateStates(const int* data, std::size_t n, const AggregateSpec& spec,
                     AggregateStats* stats) {
  assert(spec.k == 0 || stats->counts != nullptr);
  assert(spec.match_states.empty() || stats->match_counts != nullptr);
  for (std::size_t i = 0; i < spec.k; ++i) stats->counts[i] = 0;
  for (std::size_t m = 0; m < spec.match_states.size(); ++m) {
    stats->match_counts[m] = 0;
  }
  stats->sum = 0;
  stats->out_of_range = false;
  if (n == 0) return;
#ifdef PF_SIMD_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    AggregateAvx2(data, n, spec, stats);
    return;
  }
#endif
  AggregatePortable(data, n, spec, stats);
}

void ClipScales(const double* lipschitz, const double* sigmas, std::size_t n,
                double* scales) {
#ifdef PF_SIMD_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    ClipScalesAvx2(lipschitz, sigmas, n, scales);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) scales[i] = lipschitz[i] * sigmas[i];
}

void BatchLaplaceNoise(double* values, const std::size_t* offsets,
                       const double* scales, const std::uint64_t* seeds,
                       std::size_t rows) {
  NoiseScratch scratch;
  std::size_t base = 0;
#ifdef PF_SIMD_X86
  if (WideNoiseActive()) {
    for (; base + kWideNoiseRows <= rows; base += kWideNoiseRows) {
      const std::size_t widest =
          WidestRow(offsets, base, base + kWideNoiseRows);
      if (widest <= kWideNoiseMaxWidth) {
        NoiseGroupWide(values, offsets, scales, seeds, base, widest, &scratch);
      } else {
        NoiseRowsScalar(values, offsets, scales, seeds, base,
                        base + kWideNoiseRows, scratch.lanes);
      }
    }
  }
#endif
  // The partial tail group, or every row when the wide kernel is off.
  NoiseRowsScalar(values, offsets, scales, seeds, base, rows, scratch.lanes);
}

const char* NoiseKernelName() {
  return WideNoiseActive() ? "avx512x32" : "scalar";
}

}  // namespace pf
