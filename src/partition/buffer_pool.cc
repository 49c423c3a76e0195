#include "partition/buffer_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/mutex.h"

namespace tane {

namespace {

int64_t CapacityBytes(const std::vector<int32_t>& buffer) {
  return static_cast<int64_t>(buffer.capacity() * sizeof(int32_t));
}

}  // namespace

PartitionBufferPool::PartitionBufferPool(int num_slots,
                                         int64_t max_pooled_bytes)
    : max_pooled_bytes_(max_pooled_bytes),
      slots_(std::max(num_slots, 1)) {}

std::vector<int32_t> PartitionBufferPool::Acquire(int slot,
                                                  size_t capacity_hint) {
  Slot& cache = slots_[slot];
  ++cache.acquires;
  if (metrics_ != nullptr) metrics_->Add(slot, obs::kPoolAcquires, 1);
  if (cache.buffers.empty()) {
    MutexLock lock(&mu_);
    const size_t take = std::min(kRefillBatch, shared_.size());
    for (size_t i = 0; i < take; ++i) {
      shared_bytes_ -= CapacityBytes(shared_.back());
      cache.bytes += CapacityBytes(shared_.back());
      cache.buffers.push_back(std::move(shared_.back()));
      shared_.pop_back();
    }
  }
  if (cache.buffers.empty()) {
    return {};  // pool dry: the caller allocates (and counts it)
  }
  // Prefer the first buffer already big enough; otherwise the largest, so
  // the caller's reserve grows the least-wasteful candidate.
  size_t best = 0;
  for (size_t i = 0; i < cache.buffers.size(); ++i) {
    if (cache.buffers[i].capacity() >= capacity_hint) {
      best = i;
      break;
    }
    if (cache.buffers[i].capacity() > cache.buffers[best].capacity()) {
      best = i;
    }
  }
  std::vector<int32_t> buffer = std::move(cache.buffers[best]);
  cache.buffers[best] = std::move(cache.buffers.back());
  cache.buffers.pop_back();
  cache.bytes -= CapacityBytes(buffer);
  ++cache.reuses;
  if (metrics_ != nullptr) metrics_->Add(slot, obs::kPoolReuses, 1);
  // Contents and size are left as recycled: a caller that resizes to a
  // smaller-or-equal size pays nothing, where a cleared buffer would force
  // it to zero-fill the whole range it is about to overwrite anyway.
  return buffer;
}

void PartitionBufferPool::Recycle(std::vector<int32_t>&& buffer) {
  if (buffer.capacity() == 0) return;
  MutexLock lock(&mu_);
  ++recycles_;
  if (metrics_ != nullptr) metrics_->AddShared(obs::kPoolRecycles, 1);
  if (shared_bytes_ + CapacityBytes(buffer) > max_pooled_bytes_) {
    ++dropped_;
    if (metrics_ != nullptr) metrics_->AddShared(obs::kPoolDropped, 1);
    return;  // `buffer` frees on scope exit
  }
  shared_bytes_ += CapacityBytes(buffer);
  shared_.push_back(std::move(buffer));
}

void PartitionBufferPool::Recycle(StrippedPartition&& partition) {
  std::vector<int32_t> rows;
  std::vector<int32_t> offsets;
  partition.MoveBuffersInto(&rows, &offsets);
  Recycle(std::move(rows));
  Recycle(std::move(offsets));
}

int64_t PartitionBufferPool::pooled_bytes() const {
  int64_t total = 0;
  for (const Slot& slot : slots_) total += slot.bytes;
  MutexLock lock(&mu_);
  return total + shared_bytes_;
}

BufferPoolStats PartitionBufferPool::stats() const {
  BufferPoolStats stats;
  for (const Slot& slot : slots_) {
    stats.acquires += slot.acquires;
    stats.reuses += slot.reuses;
  }
  MutexLock lock(&mu_);
  stats.recycles = recycles_;
  stats.dropped = dropped_;
  return stats;
}

}  // namespace tane
