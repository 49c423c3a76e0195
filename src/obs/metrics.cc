#include "obs/metrics.h"

// tane-atomics: single-writer
// See metrics.h: value-only cells, relaxed by contract.

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>

#include "util/mutex.h"

namespace tane {
namespace obs {

std::string_view CounterName(CounterId id) {
  switch (id) {
    case kValidityTests:      return "validity_tests";
    case kG3Scans:            return "g3_scans";
    case kG3ScansSkipped:     return "g3_scans_skipped";
    case kPartitionProducts:  return "partition_products";
    case kProductAllocations: return "product_allocations";
    case kProductRowsScanned: return "product_rows_scanned";
    case kProductLabelReuses: return "product_label_reuses";
    case kG3RowsScanned:      return "g3_rows_scanned";
    case kSetsGenerated:      return "sets_generated";
    case kKeysFound:          return "keys_found";
    case kNodesProcessed:     return "nodes_processed";
    case kFdsEmitted:         return "fds_emitted";
    case kPoolAcquires:       return "pool_acquires";
    case kPoolReuses:         return "pool_reuses";
    case kPoolRecycles:       return "pool_recycles";
    case kPoolDropped:        return "pool_dropped";
    case kSpillWrites:        return "spill_writes";
    case kSpillReads:         return "spill_reads";
    case kSpillBytesWritten:  return "spill_bytes_written";
    case kSpillBytesRead:     return "spill_bytes_read";
    case kCheckpointWrites:   return "checkpoint_writes";
    case kCheckpointBytesWritten: return "checkpoint_bytes_written";
    case kCheckpointNodesWritten: return "checkpoint_nodes_written";
    case kCheckpointNodesRestored: return "checkpoint_nodes_restored";
    case kCheckpointReads:    return "checkpoint_reads";
    case kCheckpointBytesRead: return "checkpoint_bytes_read";
    case kCounterCount:       break;
  }
  return "unknown_counter";
}

std::string_view GaugeName(GaugeId id) {
  switch (id) {
    case kCurrentLevel:       return "current_level";
    case kLevelNodesTotal:    return "level_nodes_total";
    case kLevelNodesStart:    return "level_nodes_start";
    case kMaxLevelSize:       return "max_level_size";
    case kResidentBytes:      return "resident_bytes";
    case kPeakResidentBytes:  return "peak_resident_bytes";
    case kDegradedToDisk:     return "degraded_to_disk";
    case kCheckpointLastLevel: return "checkpoint_last_level";
    case kResumedFromLevel:   return "resumed_from_level";
    case kGaugeCount:         break;
  }
  return "unknown_gauge";
}

std::string_view HistogramName(HistogramId id) {
  switch (id) {
    case kProductClasses:    return "product_classes";
    case kProductMemberRows: return "product_member_rows";
    case kG3ScanMemberRows:  return "g3_scan_member_rows";
    case kHistogramCount:    break;
  }
  return "unknown_histogram";
}

namespace {

// Bucket 0 holds zeros (and negatives, which the runtime never produces);
// bucket b >= 1 covers [2^(b-1), 2^b). The top bucket absorbs the tail.
int BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  const int width = std::bit_width(static_cast<uint64_t>(value));
  return std::min(width, kHistogramBuckets - 1);
}

// Inclusive value range represented by one bucket.
void BucketBounds(int bucket, double* lo, double* hi) {
  if (bucket <= 0) {
    *lo = 0.0;
    *hi = 0.0;
    return;
  }
  *lo = static_cast<double>(int64_t{1} << (bucket - 1));
  *hi = bucket >= 63 ? *lo * 2.0
                     : static_cast<double>((int64_t{1} << bucket) - 1);
}

}  // namespace

double HistogramSnapshot::Percentile(double p) const {
  if (count <= 0) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(count);
  int64_t cumulative = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= rank) {
      double lo = 0.0;
      double hi = 0.0;
      BucketBounds(b, &lo, &hi);
      const double into =
          (rank - static_cast<double>(cumulative - buckets[b])) /
          static_cast<double>(buckets[b]);
      const double value = lo + into * (hi - lo);
      return std::min(value, static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

MetricsRegistry::MetricsRegistry(int num_shards)
    : num_shards_(std::max(1, num_shards)),
      shards_(std::make_unique<Shard[]>(
          static_cast<size_t>(std::max(1, num_shards)))) {}

void MetricsRegistry::Record(int shard, HistogramId id, int64_t value) {
  ShardHistogram& h = shards_[shard].histograms[id];
  const int bucket = BucketIndex(value);
  std::atomic<int64_t>& cell = h.buckets[bucket];
  cell.store(cell.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  h.count.store(h.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  h.sum.store(h.sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  if (value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_relaxed);
  }
}

void MetricsRegistry::AddHwSpan(std::string_view phase,
                                const HwCounters& delta) {
  MutexLock lock(&hw_mu_);
  auto it = hw_phases_.find(phase);
  if (it == hw_phases_.end()) {
    it = hw_phases_.emplace(std::string(phase), HwPhase{}).first;
  }
  ++it->second.spans;
  it->second.hw += delta;
}

int64_t MetricsRegistry::CounterTotal(CounterId id) const {
  int64_t total = shared_counters_[id].load(std::memory_order_relaxed);
  for (int shard = 0; shard < num_shards_; ++shard) {
    total += shards_[shard].counters[id].load(std::memory_order_relaxed);
  }
  return total;
}

std::array<int64_t, kCounterCount> MetricsRegistry::CounterTotals() const {
  std::array<int64_t, kCounterCount> totals{};
  for (int id = 0; id < kCounterCount; ++id) {
    totals[id] = shared_counters_[id].load(std::memory_order_relaxed);
  }
  for (int shard = 0; shard < num_shards_; ++shard) {
    for (int id = 0; id < kCounterCount; ++id) {
      totals[id] +=
          shards_[shard].counters[id].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.counters = CounterTotals();
  for (int id = 0; id < kGaugeCount; ++id) {
    snapshot.gauges[id] = gauges_[id].load(std::memory_order_relaxed);
  }
  for (int id = 0; id < kHistogramCount; ++id) {
    HistogramSnapshot& out = snapshot.histograms[id];
    for (int shard = 0; shard < num_shards_; ++shard) {
      const ShardHistogram& h = shards_[shard].histograms[id];
      out.count += h.count.load(std::memory_order_relaxed);
      out.sum += h.sum.load(std::memory_order_relaxed);
      out.max = std::max(out.max, h.max.load(std::memory_order_relaxed));
      for (int b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
      }
    }
  }
  snapshot.hw_backend = std::string(PerfBackendName(PerfCounters::backend()));
  {
    MutexLock lock(&hw_mu_);
    snapshot.hw_phases.reserve(hw_phases_.size());
    for (const auto& [phase, agg] : hw_phases_) {
      HwPhaseSnapshot row;
      row.phase = phase;
      row.spans = agg.spans;
      row.hw = agg.hw;
      snapshot.hw_phases.push_back(std::move(row));
    }
  }
  return snapshot;
}

}  // namespace obs
}  // namespace tane
