#ifndef TANE_CORE_RESULT_H_
#define TANE_CORE_RESULT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/fd.h"
#include "lattice/attribute_set.h"
#include "obs/metrics.h"

namespace tane {

/// Wall-clock and summed worker-busy time of one level's parallelized
/// phases (validity testing and next-level partition products). Their
/// ratio is not a speedup: busy time is wall time a worker spent inside the
/// level, stalls and lock waits included, so it grows with the thread count
/// whether or not the level ran any faster. Only a run at another thread
/// count can tell the speedup.
struct LevelParallelStats {
  int level = 0;
  /// Lattice nodes the level processed (its |L_ℓ|).
  int64_t nodes = 0;
  double wall_seconds = 0.0;
  /// Busy wall time summed across all participating workers.
  double worker_seconds = 0.0;
};

/// Counters describing the work a discovery run performed; used by the
/// bench harness and by the ablation studies.
struct DiscoveryStats {
  /// Levels of the lattice processed (largest ℓ with L_ℓ nonempty).
  int levels_processed = 0;
  /// Total attribute sets placed in levels (the paper's s).
  int64_t sets_generated = 0;
  /// Size of the largest level (the paper's s_max).
  int64_t max_level_size = 0;
  /// Validity tests performed (the paper's v).
  int64_t validity_tests = 0;
  /// Exact g3 scans executed in approximate mode.
  int64_t g3_scans = 0;
  /// g3 scans skipped because the e(·) bounds already decided validity.
  int64_t g3_scans_skipped = 0;
  /// Partition products computed.
  int64_t partition_products = 0;
  /// Heap allocations performed inside PartitionProduct::Multiply across
  /// all workers: scratch growth plus each product's exact-size output.
  /// The driver attaches no buffer pool, so outputs cost 2 per product, or
  /// 1 when the product is empty.
  int64_t product_allocations = 0;
  /// Member rows actually walked by partition products (labeling + probe
  /// passes) across all workers — the honest rows/sec denominator.
  int64_t product_rows_scanned = 0;
  /// Products whose labeling pass was skipped because consecutive products
  /// shared their left parent (see PartitionProduct::Multiply's a_token).
  int64_t product_label_reuses = 0;
  /// Member rows walked by error-measure scans across all workers.
  int64_t g3_rows_scanned = 0;
  /// Keys found (sets removed by key pruning).
  int64_t keys_found = 0;
  /// Peak bytes of partitions resident in memory at once.
  int64_t peak_partition_bytes = 0;
  /// Total bytes written to the spill directory (disk mode only).
  int64_t spill_bytes_written = 0;
  /// True when a kAuto run breached its memory budget and migrated the
  /// partition store to disk mid-run.
  bool degraded_to_disk = false;
  /// Wall-clock seconds for the whole discovery.
  double wall_seconds = 0.0;
  /// Seconds spent loading/encoding the input relation. Filled by drivers
  /// (the CLI, the bench harness) — Discover itself never sees the file.
  double read_seconds = 0.0;
  /// Seconds spent rendering output (FDs, trace, run report). Also filled
  /// by drivers.
  double report_seconds = 0.0;
  /// Worker threads the run executed with (TaneConfig::num_threads).
  int num_threads = 1;
  /// Snapshot files durably written by this run (checkpointing only).
  int64_t checkpoint_writes = 0;
  /// Total serialized snapshot bytes those writes published.
  int64_t checkpoint_bytes = 0;
  /// Wall-clock seconds spent serializing and fsyncing snapshots.
  double checkpoint_seconds = 0.0;
  /// Snapshot level this run resumed from; 0 for a fresh run.
  int resumed_from_level = 0;
  /// Per-level timing of the parallelized phases, in level order.
  std::vector<LevelParallelStats> level_parallel;
};

/// Whether a discovery run finished the full levelwise search or was ended
/// early by its RunController. A partial result is *prefix-correct*: every
/// dependency and key it lists is genuinely minimal and also appears in the
/// complete run's output — the search just did not get to the rest.
enum class Completion : int32_t {
  kComplete = 0,
  kDeadlineExpired = 1,
  kCancelled = 2,
  /// The run stopped itself at TaneConfig::stop_after_level — a deliberate,
  /// checkpointed pause rather than a resource-driven wind-down.
  kSuspended = 3,
};

/// Returns "complete", "deadline_expired", "cancelled", or "suspended".
std::string_view CompletionToString(Completion completion);

/// The output of a discovery run: all minimal non-trivial dependencies with
/// g3 ≤ ε, the minimal keys encountered by key pruning, and run statistics.
struct DiscoveryResult {
  std::vector<FunctionalDependency> fds;
  std::vector<AttributeSet> keys;
  DiscoveryStats stats;

  /// Full metric aggregate from the run's registry: every counter the
  /// stats above are views over, plus gauges and size/cost histograms.
  /// Consumed by the run report and the bench JSON emitters.
  obs::MetricsSnapshot metrics;

  /// kComplete for a full run; otherwise why the run ended early. Partial
  /// results still satisfy the prefix-correctness guarantee above.
  Completion completion = Completion::kComplete;

  /// Number of lattice levels fully processed (dependencies computed and
  /// pruning applied). Equals stats.levels_processed on a complete run.
  int completed_levels = 0;

  /// True when the run ended early AND left a durable snapshot behind, so
  /// rerunning with TaneConfig::resume continues from completed_levels
  /// instead of starting over. This is the retryable/fatal distinction a
  /// job scheduler needs: resumable failures re-enqueue, the rest alert.
  bool resumable = false;

  /// Number of dependencies found (the N column in the paper's tables).
  int64_t num_fds() const { return static_cast<int64_t>(fds.size()); }

  /// Convenience: did the run finish the whole search?
  bool complete() const { return completion == Completion::kComplete; }
};

}  // namespace tane

#endif  // TANE_CORE_RESULT_H_
