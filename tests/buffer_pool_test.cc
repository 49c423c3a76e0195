#include "partition/buffer_pool.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace tane {
namespace {

TEST(BufferPoolTest, DryPoolHandsOutEmptyBuffer) {
  PartitionBufferPool pool(1);
  std::vector<int32_t> buffer = pool.Acquire(0, 128);
  EXPECT_EQ(buffer.capacity(), 0u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquires, 1);
  EXPECT_EQ(stats.reuses, 0);
}

TEST(BufferPoolTest, RecycledBufferIsReused) {
  PartitionBufferPool pool(1);
  std::vector<int32_t> buffer;
  buffer.reserve(100);
  buffer.assign(50, 7);
  pool.Recycle(std::move(buffer));
  EXPECT_GT(pool.pooled_bytes(), 0);

  // Acquire keeps the recycled size/contents; only capacity is promised.
  std::vector<int32_t> reused = pool.Acquire(0, 80);
  EXPECT_GE(reused.capacity(), 100u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.recycles, 1);
  EXPECT_EQ(stats.reuses, 1);
}

TEST(BufferPoolTest, ZeroCapacityBuffersAreNotPooled) {
  PartitionBufferPool pool(1);
  pool.Recycle(std::vector<int32_t>());
  EXPECT_EQ(pool.pooled_bytes(), 0);
  EXPECT_EQ(pool.stats().recycles, 0);
}

TEST(BufferPoolTest, ByteCapDropsExcessBuffers) {
  // Cap small enough for exactly one of the two recycled buffers.
  PartitionBufferPool pool(1, /*max_pooled_bytes=*/600);
  std::vector<int32_t> first(128);   // 512 bytes
  std::vector<int32_t> second(128);  // would exceed the 600-byte cap
  pool.Recycle(std::move(first));
  pool.Recycle(std::move(second));
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.recycles, 2);
  EXPECT_EQ(stats.dropped, 1);
  EXPECT_LE(pool.pooled_bytes(), 600);
}

TEST(BufferPoolTest, AcquirePrefersSufficientCapacity) {
  PartitionBufferPool pool(1);
  std::vector<int32_t> small;
  small.reserve(10);
  std::vector<int32_t> large;
  large.reserve(1000);
  pool.Recycle(std::move(small));
  pool.Recycle(std::move(large));

  std::vector<int32_t> buffer = pool.Acquire(0, 500);
  EXPECT_GE(buffer.capacity(), 500u);
}

TEST(BufferPoolTest, SlotsDrawFromSharedFreelist) {
  // Slots refill from the shared freelist in batches of up to
  // kRefillBatch (8), so give the freelist enough buffers that every
  // slot's first refill finds some left.
  PartitionBufferPool pool(4);
  for (int i = 0; i < 32; ++i) {
    std::vector<int32_t> buffer;
    buffer.reserve(64);
    pool.Recycle(std::move(buffer));
  }
  for (int slot = 0; slot < 4; ++slot) {
    std::vector<int32_t> buffer = pool.Acquire(slot, 32);
    EXPECT_GE(buffer.capacity(), 64u) << slot;
  }
  EXPECT_EQ(pool.stats().reuses, 4);
}

TEST(BufferPoolTest, RecyclePartitionReturnsBothArrays) {
  StatusOr<StrippedPartition> partition =
      StrippedPartition::Create(4, {0, 1, 2, 3}, {0, 2, 4});
  ASSERT_TRUE(partition.ok());
  PartitionBufferPool pool(1);
  pool.Recycle(std::move(partition).value());
  EXPECT_EQ(pool.stats().recycles, 2);  // row_ids + class_offsets
  EXPECT_GT(pool.pooled_bytes(), 0);
}

}  // namespace
}  // namespace tane
