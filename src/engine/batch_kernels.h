// Vectorized execution kernels for the columnar batch-serving path. The
// physical batch plan (engine/batch_plan.h) lowers every derivable query
// shape onto two data-parallel primitives:
//
//   AggregateStates   one pass over the (windowed) record computing the
//                     integer statistics every built-in query kind derives
//                     from: the state sum, the per-state count histogram,
//                     and exact-match counts for requested states
//   ClipScales        the per-row Lipschitz calibration ("clip") stage:
//                     scales[i] = lipschitz[i] * sigma[i]
//
// Both dispatch over the runtime SimdLevel seam (common/matrix.h): the
// portable kernel is the reference, the AVX2 kernel is 8-wide (int32) /
// 4-wide (double). Bit-identity across levels is structural, not hoped
// for: AggregateStates is pure integer arithmetic (sums and counts are
// associative and exact, so lane order cannot change the result), and
// ClipScales is elementwise with one rounding per element. The
// scalar-vs-columnar suite re-verifies both at every level. The noise
// stage (BatchLaplaceNoise, below) dispatches too, and emits one
// generator stream on every path.
//
// This file is on pf-analyzer's bit-exact-pinned list (determinism pass):
// no unordered iteration, no unseeded randomness, no FMA contraction.
#ifndef PUFFERFISH_ENGINE_BATCH_KERNELS_H_
#define PUFFERFISH_ENGINE_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pf {

/// What one aggregation pass must compute for a window of the record.
struct AggregateSpec {
  /// Histogram bins to count; 0 when no histogram-shaped row needs them.
  std::size_t k = 0;
  /// Compute the integer state sum (sum/mean rows).
  bool need_sum = false;
  /// Distinct exact-match targets (one per StateFrequency state). Matched
  /// literally against the data — including states outside [0, k) — so the
  /// derived frequency is bit-identical to the scalar query's match loop.
  std::vector<int> match_states;
};

/// Output of one aggregation pass. `counts` and `match_counts` are
/// caller-provided buffers of spec.k and spec.match_states.size() entries.
struct AggregateStats {
  /// sum_t data[t], exact in int64 (the scalar path's double accumulation
  /// is exact below 2^53, where the two agree bit for bit; a record whose
  /// running state sum exceeds 2^53 is out of this engine's envelope).
  std::int64_t sum = 0;
  /// Any state outside [0, k) (meaningful only when spec.k > 0). The
  /// histogram derive stage then releases the all-zero vector, matching
  /// the scalar CountHistogramQuery's ValueOr fallback bit for bit.
  bool out_of_range = false;
  std::int64_t* counts = nullptr;
  std::int64_t* match_counts = nullptr;
};

/// \brief One pass over data[0, n) computing `spec`'s statistics into
/// `stats` (whose counts/match_counts buffers must be sized per the spec).
/// Runtime-dispatched over ActiveSimdLevel(); every level is bit-identical
/// (integer arithmetic only).
void AggregateStates(const int* data, std::size_t n, const AggregateSpec& spec,
                     AggregateStats* stats);

/// \brief The clip stage: scales[i] = lipschitz[i] * sigmas[i] for i in
/// [0, n). Elementwise (one rounding per entry), so every SimdLevel is
/// bit-identical.
void ClipScales(const double* lipschitz, const double* sigmas, std::size_t n,
                double* scales);

/// \brief The noise stage: for each row r in [0, rows), adds independent
/// Laplace noise of scale scales[r] to values[offsets[r], offsets[r+1]),
/// drawn from a fresh generator seeded with seeds[r]. Bit-identical by
/// construction to the scalar release loop
///
///   Rng rng(seeds[r]);
///   AddLaplaceNoise(values + offsets[r], offsets[r+1] - offsets[r],
///                   scales[r], &rng);
///
/// for every row: each row consumes the exact mt19937_64 +
/// uniform_real_distribution<double>(0, 1) draw sequence (pinned against
/// std:: by the BatchLaplaceNoise* kernel tests and the scalar-vs-columnar
/// suite). What changes is the work done, not the stream: std:: seeds and
/// twists all 312 state words before a row's first draw, but a row of
/// d <= 156 draws reads only the first 156 + d seed words and d twisted
/// words, so the kernel seeds each group of rows only that far (interleaved
/// across the group, so the serial seeding recurrences pipeline) and twists
/// each state word when it is drawn. Wider rows, the regular retwist after
/// 312 draws and the u = 0 redraw extend a row's state on demand.
///
/// Two kernels emit that one stream. The scalar kernel is the portable
/// reference and runs at every SimdLevel. At kAvx2 on a CPU with
/// AVX-512F+DQ, full groups of kWideNoiseRows rows whose widest row has at
/// most kWideNoiseMaxWidth draws take the wide kernel instead: it seeds the
/// group's engines in 8-lane registers, stores only the seed words a draw
/// reads, and twists, tempers and converts 8 draws per instruction with
/// integer ops and an exact u64 -> double scaling (the logarithm stays
/// scalar). The partial tail group, over-wide groups and any row that drew
/// u = 0 run the scalar kernel. NoiseKernelName() names the kernel full
/// groups take.
void BatchLaplaceNoise(double* values, const std::size_t* offsets,
                       const double* scales, const std::uint64_t* seeds,
                       std::size_t rows);

/// Rows per group on BatchLaplaceNoise's wide kernel, and the widest row
/// (in draws) such a group may hold.
inline constexpr std::size_t kWideNoiseRows = 32;
inline constexpr std::size_t kWideNoiseMaxWidth = 32;

/// \brief The kernel BatchLaplaceNoise runs full row groups on at the
/// active SimdLevel: "avx512x32" (the wide kernel) or "scalar".
const char* NoiseKernelName();

}  // namespace pf

#endif  // PUFFERFISH_ENGINE_BATCH_KERNELS_H_
