#ifndef TANE_OBS_METRICS_H_
#define TANE_OBS_METRICS_H_

// tane-atomics: single-writer
// Declared with no published words on purpose: every cell is an
// independent monotonic value (sharded counters, histogram fields) that
// readers only aggregate into a snapshot. Relaxed is the contract — no
// cell's value is ever used to order a read of another cell.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/perf_counters.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tane {
namespace obs {

/// Monotonic counters. Worker-owned counters (validity tests, scans,
/// products, ...) accumulate in per-worker shards with no cross-thread
/// contention; shared-path counters (spill I/O, pool recycling) use the
/// registry's dedicated atomic lane. Snapshot() aggregates both.
enum CounterId : int {
  kValidityTests = 0,   ///< the paper's v
  kG3Scans,             ///< exact error scans executed
  kG3ScansSkipped,      ///< scans the e(·) bounds made unnecessary
  kPartitionProducts,   ///< Lemma-3 products computed
  kProductAllocations,  ///< heap allocations inside Multiply
  kProductRowsScanned,  ///< member rows walked by Multiply's label+probe
  kProductLabelReuses,  ///< products whose labeling pass was token-skipped
  kG3RowsScanned,       ///< member rows walked by error-measure scans
  kSetsGenerated,       ///< the paper's s
  kKeysFound,           ///< sets removed by key pruning
  kNodesProcessed,      ///< lattice nodes whose validity tests finished
  kFdsEmitted,          ///< minimal dependencies recorded
  kPoolAcquires,        ///< buffers handed out by the buffer pool
  kPoolReuses,          ///< acquires served without a heap allocation
  kPoolRecycles,        ///< buffers returned to the pool
  kPoolDropped,         ///< recycles rejected at the pool byte cap
  kSpillWrites,         ///< partition records written to spill segments
  kSpillReads,          ///< partition records read back from spill segments
  kSpillBytesWritten,
  kSpillBytesRead,
  kCheckpointWrites,    ///< snapshot files durably written
  kCheckpointBytesWritten,
  kCheckpointNodesWritten,  ///< survivor nodes serialized into snapshots
  kCheckpointNodesRestored,  ///< survivor nodes rehydrated on resume
  kCheckpointReads,     ///< snapshot files read back for resume
  kCheckpointBytesRead,
  kCounterCount,
};

/// Point-in-time values, written by the coordinator (or the stores) and
/// read by the progress monitor / trace exporter at any moment.
enum GaugeId : int {
  kCurrentLevel = 0,    ///< lattice level currently being processed
  kLevelNodesTotal,     ///< nodes in the current level
  kLevelNodesStart,     ///< kNodesProcessed total when this level began
  kMaxLevelSize,        ///< the paper's s_max
  kResidentBytes,       ///< partitions + accessor caches + scratch resident
  kPeakResidentBytes,
  kDegradedToDisk,      ///< 1 once a kAuto store spilled mid-run
  kCheckpointLastLevel,  ///< deepest level captured by a durable snapshot
  kResumedFromLevel,    ///< snapshot level this run restarted from (0: fresh)
  kGaugeCount,
};

/// Fixed log2-bucket histograms for size/cost distributions on the hot
/// path. Bucket b >= 1 covers values in [2^(b-1), 2^b); bucket 0 holds
/// zeros. 32 buckets cover every int64 value the runtime produces.
enum HistogramId : int {
  kProductClasses = 0,   ///< stripped classes per partition product
  kProductMemberRows,    ///< member rows (‖π‖) per partition product
  kG3ScanMemberRows,     ///< member rows touched per exact error scan
  kHistogramCount,
};

inline constexpr int kHistogramBuckets = 32;

std::string_view CounterName(CounterId id);
std::string_view GaugeName(GaugeId id);
std::string_view HistogramName(HistogramId id);

/// Aggregated view of one histogram: per-bucket counts plus exact count,
/// sum, and max. Percentiles interpolate linearly inside the bucket that
/// crosses the requested rank, clamped to the observed max.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  std::array<int64_t, kHistogramBuckets> buckets{};

  /// p in [0, 100]. Returns 0 for an empty histogram.
  double Percentile(double p) const;
  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Hardware-counter totals attributed to one span phase ("run", "level",
/// "products", ...), summed over every span whose name starts with that
/// phase key. spans counts the contributing spans.
struct HwPhaseSnapshot {
  std::string phase;
  int64_t spans = 0;
  HwCounters hw;
};

/// A consistent-enough aggregate of every metric: counter totals summed
/// across shards, current gauge values, and merged histograms. Taken while
/// workers run it may lag individual shards by a few increments, but each
/// shard value is read atomically — never torn.
struct MetricsSnapshot {
  std::array<int64_t, kCounterCount> counters{};
  std::array<int64_t, kGaugeCount> gauges{};
  std::array<HistogramSnapshot, kHistogramCount> histograms{};
  /// Per-phase hardware-counter aggregates, sorted by phase name. Empty
  /// when no span ran under an attached registry; zero-valued rows under
  /// the noop backend (the *shape* never depends on the platform).
  std::vector<HwPhaseSnapshot> hw_phases;
  /// PerfBackendName of the backend live when the snapshot was taken.
  std::string hw_backend = "noop";

  int64_t counter(CounterId id) const { return counters[id]; }
  int64_t gauge(GaugeId id) const { return gauges[id]; }
  const HistogramSnapshot& histogram(HistogramId id) const {
    return histograms[id];
  }
};

/// The run-wide metrics registry. Designed so instrumentation adds no
/// contention to the product hot path:
///
///  * every worker owns one cache-line-padded *shard*; Add()/Record() on a
///    shard are single-writer relaxed atomic stores (a plain load+add+store,
///    no lock prefix, no sharing) — the monitor thread reading concurrently
///    sees exact, untorn values;
///  * code that cannot name a worker (disk store, pool recycling) uses
///    AddShared(), a relaxed fetch_add on a dedicated shared lane;
///  * gauges are plain atomics written by the coordinator and the stores;
///    MaxGauge, which window tasks call too, is a compare-exchange loop.
///
/// Snapshot() may be called from any thread at any time (the heartbeat
/// monitor does, once per period) and costs O(shards × metrics).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int num_shards = 1);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  int num_shards() const { return num_shards_; }

  /// Adds `delta` to a counter on the caller-owned shard. Each shard must
  /// have exactly one writer thread at a time (TANE's worker index gives
  /// that for free); readers may run concurrently.
  ///
  /// Single-writer contract (deliberately unlocked): this is a plain
  /// load+add+store on an atomic cell, NOT a fetch_add. Two threads writing
  /// the same shard concurrently would lose increments. The contract is
  /// structural — worker w only ever passes shard w, and the coordinator
  /// uses shard 0 only outside parallel regions — and cannot be expressed
  /// as a lock annotation; it is documented here, checked by the
  /// shard-aggregation exactness tests in tests/obs_test.cc, and guarded
  /// dynamically by the tsan preset. Code that cannot name a unique writer
  /// must use AddShared() instead.
  void Add(int shard, CounterId id, int64_t delta) {
    std::atomic<int64_t>& cell = shards_[shard].counters[id];
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  /// Adds `delta` from any thread (atomic read-modify-write). This is the
  /// shared lane for paths with no worker identity — spill I/O inside the
  /// disk store, pool recycling. The fetch_add *is* the synchronization: no
  /// lock guards these cells, so the lane needs no TANE_GUARDED_BY and stays
  /// safe from any thread.
  void AddShared(CounterId id, int64_t delta) {
    shared_counters_[id].fetch_add(delta, std::memory_order_relaxed);
  }

  void SetGauge(GaugeId id, int64_t value) {
    gauges_[id].store(value, std::memory_order_relaxed);
  }

  /// Raises the gauge to `value` if larger. Callable from any thread: the
  /// level window's tasks sample the peak concurrently.
  void MaxGauge(GaugeId id, int64_t value) {
    std::atomic<int64_t>& cell = gauges_[id];
    int64_t seen = cell.load(std::memory_order_relaxed);
    while (value > seen &&
           !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
  }

  int64_t gauge(GaugeId id) const {
    return gauges_[id].load(std::memory_order_relaxed);
  }

  /// Records one histogram observation on the caller-owned shard.
  void Record(int shard, HistogramId id, int64_t value);

  /// Accumulates one span's hardware-counter delta under `phase` (the span
  /// name up to its first space, so "level 3" folds into "level"). Spans
  /// are per-phase / per-level — a few dozen per run — so a mutex-guarded
  /// map is plenty. Thread-safe.
  void AddHwSpan(std::string_view phase, const HwCounters& delta)
      TANE_EXCLUDES(hw_mu_);

  /// The current total of one counter across all shards.
  int64_t CounterTotal(CounterId id) const;

  /// All counter totals, cheap enough for span-delta capture.
  std::array<int64_t, kCounterCount> CounterTotals() const;

  /// Full aggregate of counters, gauges, and histograms.
  MetricsSnapshot Snapshot() const;

 private:
  struct ShardHistogram {
    std::array<std::atomic<int64_t>, kHistogramBuckets> buckets{};
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> max{0};
  };

  // Padded so two workers' hot counters never share a cache line.
  struct alignas(64) Shard {
    std::array<std::atomic<int64_t>, kCounterCount> counters{};
    std::array<ShardHistogram, kHistogramCount> histograms;
  };

  const int num_shards_;
  std::unique_ptr<Shard[]> shards_;
  std::array<std::atomic<int64_t>, kCounterCount> shared_counters_{};
  std::array<std::atomic<int64_t>, kGaugeCount> gauges_{};

  struct HwPhase {
    int64_t spans = 0;
    HwCounters hw;
  };
  mutable Mutex hw_mu_;
  std::map<std::string, HwPhase, std::less<>> hw_phases_
      TANE_GUARDED_BY(hw_mu_);
};

}  // namespace obs
}  // namespace tane

#endif  // TANE_OBS_METRICS_H_
