#include "common/record_batch.h"

namespace pf {

RecordBatch RecordBatch::Make(std::size_t rows, std::size_t total_values) {
  RecordBatch batch;
  batch.rows_ = rows;
  batch.total_values_ = total_values;
  // Every column holds 8-byte elements, so packing them back to back in
  // one buffer keeps each naturally aligned.
  static_assert(sizeof(double) == 8 && sizeof(std::size_t) == 8 &&
                    sizeof(std::uint64_t) == 8,
                "RecordBatch packs 8-byte columns");
  const std::size_t words = total_values  // values
                            + (rows + 1)  // offsets
                            + 3 * rows    // epsilons, sigmas, noise scales
                            + rows;       // tickets
  batch.bytes_ = words * 8;
  batch.buffer_ = std::make_unique<std::byte[]>(batch.bytes_);
  std::byte* next = batch.buffer_.get();
  auto take = [&next](std::size_t n) -> void* {
    void* column = next;
    next += n * 8;
    return column;
  };
  batch.values_ = static_cast<double*>(take(total_values));
  batch.offsets_ = static_cast<std::size_t*>(take(rows + 1));
  batch.epsilons_ = static_cast<double*>(take(rows));
  batch.sigmas_ = static_cast<double*>(take(rows));
  batch.noise_scales_ = static_cast<double*>(take(rows));
  batch.tickets_ = static_cast<std::uint64_t*>(take(rows));
  batch.offsets_[0] = 0;
  batch.offsets_[rows] = total_values;
  return batch;
}

}  // namespace pf
