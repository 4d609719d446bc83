// Columnar record batches for batch-at-a-time serving: one buffer layer
// carrying many query values per column instead of one heap object per
// query. A RecordBatch is a struct-of-arrays over `rows` released queries:
//
//   values   flat double buffer; row i's values are
//            values[offsets[i] .. offsets[i+1])  (Arrow-style list layout,
//            so scalar rows and k-bin histogram rows share one buffer)
//   offsets  rows + 1 monotone indices into values
//   epsilon / sigma / noise_scale / ticket   per-row accounting columns
//
// Every column lives in one exact-size buffer the batch owns: building a
// batch costs one heap allocation whatever its row count, and dropping it
// frees everything at once — no per-row allocation or destruction on the
// serving hot path. Every column is POD, so nothing needs destructing.
//
// A RecordBatch owns its buffer, so it is movable (futures can carry it out
// of the executor) but not copyable.
#ifndef PUFFERFISH_COMMON_RECORD_BATCH_H_
#define PUFFERFISH_COMMON_RECORD_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/matrix.h"

namespace pf {

/// \brief Struct-of-arrays buffer over `rows` released query values.
class RecordBatch {
 public:
  /// An empty batch (no rows, no storage).
  RecordBatch() = default;

  RecordBatch(RecordBatch&&) = default;
  RecordBatch& operator=(RecordBatch&&) = default;
  RecordBatch(const RecordBatch&) = delete;
  RecordBatch& operator=(const RecordBatch&) = delete;

  /// \brief Allocates a batch of `rows` rows holding `total_values` values
  /// across all rows. Columns are uninitialized except offsets[0] = 0 and
  /// offsets[rows] = total_values; the builder (the batch executor) fills
  /// the interior offsets, values, and meta columns.
  static RecordBatch Make(std::size_t rows, std::size_t total_values);

  std::size_t num_rows() const { return rows_; }
  /// Total values across all rows (the flat buffer's length).
  std::size_t num_values() const { return total_values_; }
  bool empty() const { return rows_ == 0; }

  /// Flat value buffer (kernels write truth here, then add noise in
  /// place).
  double* values() { return values_; }
  const double* values() const { return values_; }

  /// rows + 1 monotone offsets into values().
  std::size_t* offsets() { return offsets_; }
  const std::size_t* offsets() const { return offsets_; }

  /// Per-row epsilon the release was charged at.
  double* epsilons() { return epsilons_; }
  const double* epsilons() const { return epsilons_; }

  /// Per-row plan noise multiplier sigma.
  double* sigmas() { return sigmas_; }
  const double* sigmas() const { return sigmas_; }

  /// Per-row Laplace scale actually applied (lipschitz * sigma — the clip
  /// kernel's output).
  double* noise_scales() { return noise_scales_; }
  const double* noise_scales() const { return noise_scales_; }

  /// Per-row submission ticket (also the noise-stream index).
  std::uint64_t* tickets() { return tickets_; }
  const std::uint64_t* tickets() const { return tickets_; }

  /// Number of values in row `i`.
  std::size_t row_size(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }
  /// Pointer to row i's first value.
  const double* row(std::size_t i) const { return values_ + offsets_[i]; }
  double* row(std::size_t i) { return values_ + offsets_[i]; }

  /// Row i's values as an owned Vector (convenience for callers comparing
  /// against the scalar ReleaseResult path; the columnar accessors above
  /// are the zero-copy route).
  Vector RowVector(std::size_t i) const {
    return Vector(row(i), row(i) + row_size(i));
  }

  /// Bytes the batch owns: its one buffer, holding every column.
  std::size_t retained_bytes() const { return bytes_; }

 private:
  std::unique_ptr<std::byte[]> buffer_;
  std::size_t bytes_ = 0;
  std::size_t rows_ = 0;
  std::size_t total_values_ = 0;
  double* values_ = nullptr;
  std::size_t* offsets_ = nullptr;
  double* epsilons_ = nullptr;
  double* sigmas_ = nullptr;
  double* noise_scales_ = nullptr;
  std::uint64_t* tickets_ = nullptr;
};

}  // namespace pf

#endif  // PUFFERFISH_COMMON_RECORD_BATCH_H_
