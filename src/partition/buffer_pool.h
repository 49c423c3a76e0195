#ifndef TANE_PARTITION_BUFFER_POOL_H_
#define TANE_PARTITION_BUFFER_POOL_H_

#include <cstdint>
#include <vector>

#include "partition/stripped_partition.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tane {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Traffic counters for a PartitionBufferPool; snapshot via stats().
struct BufferPoolStats {
  /// Buffers handed out by Acquire.
  int64_t acquires = 0;
  /// Acquires served from a freelist (no fresh heap allocation).
  int64_t reuses = 0;
  /// Buffers returned by Recycle.
  int64_t recycles = 0;
  /// Recycled buffers dropped because the pool was at its byte cap.
  int64_t dropped = 0;
};

/// A freelist of `std::vector<int32_t>` buffers shared between the partition
/// store (which recycles the CSR arrays of released partitions) and the
/// per-worker PartitionProduct scratch (which acquires them for product
/// output). Once the pool has seen one level's worth of buffers, steady-state
/// products run without touching the allocator at all.
///
/// Only benchmarks attach a pool (the layer replay and the micro bench).
/// The discovery driver does not: a recycled buffer keeps the grow-only
/// capacity of the largest partition it ever held, so stored partitions
/// would carry that slack for life (see DESIGN.md, "Partition memory
/// layout"). The class goes once the benchmarks stop attaching it.
///
/// Concurrency model: every worker owns a numbered slot with a private,
/// lock-free cache of buffers; the shared freelist behind a mutex is touched
/// only to refill an empty slot cache (in batches) and by Recycle. Both
/// benchmark users are single-threaded, so the mutex is never contended.
///
/// A byte cap bounds retained memory: recycling beyond `max_pooled_bytes`
/// frees the buffer instead of hoarding it. Retained bytes are visible via
/// pooled_bytes() so memory budgets can account for them.
class PartitionBufferPool {
 public:
  static constexpr int64_t kDefaultMaxPooledBytes = 256ll << 20;

  explicit PartitionBufferPool(int num_slots = 1,
                               int64_t max_pooled_bytes = kDefaultMaxPooledBytes);

  PartitionBufferPool(const PartitionBufferPool&) = delete;
  PartitionBufferPool& operator=(const PartitionBufferPool&) = delete;

  /// Hands out a buffer, preferring a pooled one whose capacity already
  /// covers `capacity_hint`. The returned buffer keeps its recycled size
  /// and contents (callers resize/clear as needed — a shrinking resize
  /// costs nothing, where handing out cleared buffers would force a
  /// zero-fill of memory about to be overwritten); its capacity is whatever
  /// the freelist had — callers reserve the rest (and count the allocation)
  /// themselves. `slot` must be in [0, num_slots).
  std::vector<int32_t> Acquire(int slot, size_t capacity_hint);

  /// Returns a buffer to the shared freelist (or frees it at the byte cap).
  /// Thread-safe.
  void Recycle(std::vector<int32_t>&& buffer);

  /// Recycles both CSR arrays of `partition`, leaving it empty but valid.
  void Recycle(StrippedPartition&& partition);

  /// Bytes currently retained across the shared freelist and every slot
  /// cache. Meaningful between parallel regions (when no worker is
  /// mutating its slot).
  int64_t pooled_bytes() const;

  BufferPoolStats stats() const;

  /// Mirrors the pool counters into `metrics` as they happen: acquire and
  /// reuse counts land on the slot's shard (the registry must have at least
  /// num_slots shards), recycle and drop counts on the shared lane. Not
  /// owned; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  int num_slots() const { return static_cast<int>(slots_.size()); }

 private:
  // Buffers moved from the shared freelist into a slot per refill.
  static constexpr size_t kRefillBatch = 8;

  struct Slot {
    std::vector<std::vector<int32_t>> buffers;
    int64_t bytes = 0;
    // Counters accumulate lock-free per slot and are summed in stats().
    int64_t acquires = 0;
    int64_t reuses = 0;
  };

  const int64_t max_pooled_bytes_;
  // Each slot is owned by exactly one worker during a parallel region; the
  // aggregate readers (stats/pooled_bytes) only run between regions, so the
  // slots deliberately carry no lock. mu_ guards only the shared freelist.
  std::vector<Slot> slots_;
  // Set before the run's parallel regions start; read-only afterwards.
  obs::MetricsRegistry* metrics_ = nullptr;

  mutable Mutex mu_;
  std::vector<std::vector<int32_t>> shared_ TANE_GUARDED_BY(mu_);
  int64_t shared_bytes_ TANE_GUARDED_BY(mu_) = 0;
  int64_t recycles_ TANE_GUARDED_BY(mu_) = 0;
  int64_t dropped_ TANE_GUARDED_BY(mu_) = 0;
};

}  // namespace tane

#endif  // TANE_PARTITION_BUFFER_POOL_H_
