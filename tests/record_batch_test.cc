// RecordBatch: the struct-of-arrays buffer under the columnar serving
// path. Covers the Arrow-style list layout (offsets bracketing a flat value
// buffer), the per-row accounting columns, move semantics (the executor
// hands batches out through futures), and the one-buffer allocation
// contract.
#include "common/record_batch.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/arena.h"

namespace pf {
namespace {

TEST(RecordBatchTest, EmptyBatchHasNoStorage) {
  RecordBatch batch;
  EXPECT_EQ(batch.num_rows(), 0u);
  EXPECT_EQ(batch.num_values(), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.retained_bytes(), 0u);
}

TEST(RecordBatchTest, MakeBracketsTheValueBuffer) {
  RecordBatch batch = RecordBatch::Make(/*rows=*/3, /*total_values=*/6);
  EXPECT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.num_values(), 6u);
  EXPECT_FALSE(batch.empty());
  // Make pins the bracketing offsets; the builder fills the interior.
  EXPECT_EQ(batch.offsets()[0], 0u);
  EXPECT_EQ(batch.offsets()[3], 6u);
}

TEST(RecordBatchTest, ListLayoutRowAccessors) {
  // Rows of mixed width sharing one flat buffer: a scalar, a 4-bin
  // histogram, another scalar.
  RecordBatch batch = RecordBatch::Make(3, 6);
  batch.offsets()[1] = 1;
  batch.offsets()[2] = 5;
  for (std::size_t i = 0; i < 6; ++i) {
    batch.values()[i] = static_cast<double>(i) * 10.0;
  }
  EXPECT_EQ(batch.row_size(0), 1u);
  EXPECT_EQ(batch.row_size(1), 4u);
  EXPECT_EQ(batch.row_size(2), 1u);
  EXPECT_EQ(batch.row(0)[0], 0.0);
  EXPECT_EQ(batch.row(1)[0], 10.0);
  EXPECT_EQ(batch.row(1)[3], 40.0);
  EXPECT_EQ(batch.row(2)[0], 50.0);
  const Vector middle = batch.RowVector(1);
  ASSERT_EQ(middle.size(), 4u);
  EXPECT_EQ(middle[0], 10.0);
  EXPECT_EQ(middle[3], 40.0);
}

TEST(RecordBatchTest, AccountingColumnsAreWritable) {
  RecordBatch batch = RecordBatch::Make(2, 2);
  batch.epsilons()[0] = 0.5;
  batch.epsilons()[1] = 1.5;
  batch.sigmas()[0] = 2.0;
  batch.sigmas()[1] = 3.0;
  batch.noise_scales()[0] = 4.0;
  batch.noise_scales()[1] = 6.0;
  batch.tickets()[0] = 7;
  batch.tickets()[1] = 8;
  const RecordBatch& view = batch;
  EXPECT_EQ(view.epsilons()[1], 1.5);
  EXPECT_EQ(view.sigmas()[0], 2.0);
  EXPECT_EQ(view.noise_scales()[1], 6.0);
  EXPECT_EQ(view.tickets()[0], 7u);
}

TEST(RecordBatchTest, MoveTransfersOwnership) {
  RecordBatch batch = RecordBatch::Make(2, 3);
  batch.offsets()[1] = 2;
  batch.values()[0] = 1.0;
  batch.values()[2] = 3.0;
  const double* values = batch.values();
  const std::size_t retained = batch.retained_bytes();
  ASSERT_GT(retained, 0u);

  RecordBatch moved = std::move(batch);
  // The buffer (and thus every column pointer) moves, not the bytes.
  EXPECT_EQ(moved.values(), values);
  EXPECT_EQ(moved.num_rows(), 2u);
  EXPECT_EQ(moved.retained_bytes(), retained);
  EXPECT_EQ(moved.values()[2], 3.0);
  EXPECT_EQ(moved.row_size(0), 2u);
}

TEST(RecordBatchTest, OneBufferForTypicalBatches) {
  // The columns are sized up front into one buffer: a 1k-row scalar batch
  // owns exactly its columns and never grows while the executor fills it.
  RecordBatch batch = RecordBatch::Make(1024, 1024);
  const std::size_t before = batch.retained_bytes();
  EXPECT_EQ(before, (1024 + 1025 + 4 * 1024) * 8u);
  for (std::size_t i = 0; i < 1024; ++i) {
    batch.offsets()[i] = i;
    batch.values()[i] = static_cast<double>(i);
    batch.epsilons()[i] = 1.0;
    batch.sigmas()[i] = 1.0;
    batch.noise_scales()[i] = 1.0;
    batch.tickets()[i] = i;
  }
  EXPECT_EQ(batch.retained_bytes(), before);
}

// A 1-row batch (every synchronous Release) owns a buffer of its own exact
// size and touches no arena: the process-wide arena counters, which the
// analysis memory stats aggregate, stay put.
TEST(RecordBatchTest, SmallBatchOwnsExactBytesAndNoArena) {
  const std::uint64_t blocks = Arena::TotalBlockAllocations();
  const std::uint64_t retained = Arena::TotalRetainedBytes();
  RecordBatch batch = RecordBatch::Make(1, 1);
  EXPECT_EQ(Arena::TotalBlockAllocations(), blocks);
  EXPECT_EQ(Arena::TotalRetainedBytes(), retained);
  EXPECT_LT(batch.retained_bytes(), 4096u);
  EXPECT_EQ(batch.retained_bytes(), (1 + 2 + 4) * 8u);
}

}  // namespace
}  // namespace pf
