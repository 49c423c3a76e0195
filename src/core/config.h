#ifndef TANE_CORE_CONFIG_H_
#define TANE_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "relation/schema.h"
#include "util/run_control.h"
#include "util/status.h"

namespace tane {

namespace obs {
class Tracer;
}  // namespace obs

/// Which approximation error decides validity in approximate mode. All
/// three measures of Kivinen & Mannila are computable from the same two
/// partitions; g3 is the paper's choice and the only one with the O(1)
/// e(·)-based bounds.
enum class ErrorMeasure {
  /// Minimum fraction of rows to remove (the paper's measure).
  kG3,
  /// Fraction of rows involved in at least one violating pair.
  kG2,
  /// Fraction of ordered row pairs that violate.
  kG1,
};

/// Where level partitions live during the search: when the run's
/// PartitionStore spills a partition to its spill directory.
enum class StorageMode {
  /// TANE/MEM: never. Both the current and previous level's partitions stay
  /// in main memory. With a RunController memory budget, a breach aborts
  /// the run with kResourceExhausted.
  kMemory,
  /// TANE (scalable version): at every Put. Partitions are read back when
  /// needed, keeping only O(1) partitions resident.
  kDisk,
  /// Graceful degradation: starts as kMemory and, when the resident
  /// partition bytes exceed the RunController memory budget, spills every
  /// resident partition and continues as kDisk. A TANE/MEM run that
  /// outgrows RAM becomes a TANE run instead of dying; a spill that fails
  /// partway leaves the unwritten partitions resident. Without a budget,
  /// behaves exactly like kMemory.
  kAuto,
};

/// Tuning knobs for a TANE run. The defaults reproduce the paper's TANE/MEM
/// exact-FD configuration; every pruning rule can be toggled individually
/// for the ablation benches.
struct TaneConfig {
  /// Error threshold ε. 0 discovers exact FDs; ε > 0 discovers all minimal
  /// approximate dependencies with error ≤ ε (paper §5, "Approximate
  /// dependencies") under the selected `measure`.
  double epsilon = 0.0;

  /// The error measure thresholded by `epsilon`. Defaults to the paper's
  /// g3; g1 and g2 are the other measures of Kivinen & Mannila [5], equally
  /// anti-monotone in the left-hand side, so the same levelwise search and
  /// minimality logic apply.
  ErrorMeasure measure = ErrorMeasure::kG3;

  /// Upper limit on left-hand-side size (the |X| column of Table 3).
  /// kMaxAttributes means unlimited.
  int max_lhs_size = kMaxAttributes;

  /// Apply line 8 of COMPUTE-DEPENDENCIES (the C⁺ strengthening from
  /// Lemma 4.1). Without it the algorithm is still correct but prunes less —
  /// this is exactly the paper's remark about removing line 8.
  bool use_rhs_plus_pruning = true;

  /// Apply the key-pruning rule of PRUNE (Lemma 4.2).
  bool use_key_pruning = true;

  /// Drop A from C⁺(X) when a discovered dependency lhs' → A with
  /// lhs' ⊆ X and |lhs'| <= 1 is already known: any later dependency that
  /// would rely on that candidate has lhs ⊇ X ⊇ lhs' and cannot be minimal.
  /// This is what lets the approximate search collapse at large ε (the
  /// paper's Table 2/Figure 3 time drops), where dependencies with empty or
  /// singleton left-hand sides cover every attribute early.
  bool use_covered_rhs_pruning = true;

  /// Use the e(·)-based g3 bounds to skip exact error scans in approximate
  /// mode (extended-version optimization).
  bool use_g3_bounds = true;

  /// When true (the default), every *emitted* dependency carries its exact
  /// g3 error even if the bounds already proved validity; when false, a
  /// dependency proven valid by the upper bound reports that bound instead,
  /// saving the O(|r|) scan.
  bool compute_exact_errors = true;

  /// Use stripped partitions (singleton classes dropped). Turning this off
  /// reproduces the "full partition" baseline of the extended version.
  bool use_stripped_partitions = true;

  /// Compute each level partition as the product of two previous-level
  /// partitions (Lemma 3, the TANE way). When false, every partition is
  /// folded from the single-attribute partitions instead — the paper's §6
  /// characterization of Schlimmer's decision-tree approach, "slower by a
  /// factor O(|R|)". Exposed for the ablation bench.
  bool use_partition_products = true;

  /// Worker threads for per-level node processing (partition products,
  /// error scans, and validity tests). 1 (the default) runs fully serial
  /// with no thread ever spawned; N > 1 runs each level as a task window:
  /// every candidate node is one task (product + error + validity + store
  /// Put), handed out by one claim counter. Output is identical for every
  /// thread count: each task writes only its own node's slot, and the
  /// emissions and rhs⁺ updates are merged strictly in node order after
  /// the window, so every dependency, rhs⁺ set and key decision is
  /// deterministic. Store handles follow Put order, which varies with
  /// scheduling, and nothing observable depends on them. Must be in
  /// [1, kMaxNumThreads].
  int num_threads = 1;

  /// Upper bound on num_threads — generous for real hardware while keeping
  /// a typo like --threads=1000000 from exhausting the process.
  static constexpr int kMaxNumThreads = 256;

  StorageMode storage = StorageMode::kMemory;

  /// Spill directory for StorageMode::kDisk and the kAuto fallback. Empty
  /// selects a fresh directory under the system temp dir, removed when the
  /// run finishes.
  std::string spill_directory;

  /// Optional resource governor (deadline, cancellation token, memory
  /// budget); see util/run_control.h. Not owned; must outlive the run.
  /// When the deadline expires or cancellation is requested, Discover
  /// returns a *partial* DiscoveryResult (completion != kComplete) with
  /// every dependency already proven, instead of an error.
  RunController* run_controller = nullptr;

  /// Optional tracer; when set, the run emits nested phase spans (run →
  /// level → {generate, resolve, products, validity, prune, release,
  /// spill} → per-worker slices; level 1's resolve, `base-partitions`
  /// window and release sit directly under run) for Chrome/Perfetto
  /// export. Not owned; must outlive the run.
  obs::Tracer* tracer = nullptr;

  /// Heartbeat period for the progress monitor; 0 (the default) disables
  /// it. When positive, a monitor thread logs one Info line per period
  /// (remember to lower the log severity to see them).
  double progress_period_seconds = 0.0;

  /// Directory for crash-safe run snapshots (core/run_snapshot.h). Empty
  /// (the default) disables checkpointing entirely. When set, a snapshot is
  /// written whenever the run winds down early at a level boundary
  /// (deadline, cancellation, stop_after_level, memory-budget breach), so
  /// an interrupted run is resumable instead of merely prefix-correct.
  std::string checkpoint_directory;

  /// Also write a snapshot after *every* completed level, making the run
  /// robust to SIGKILL/crash at any point: at most one level of work is
  /// ever lost. Costs one snapshot serialization + fsync per level.
  /// Requires checkpoint_directory.
  bool checkpoint_every_level = false;

  /// Resume from the latest valid snapshot in checkpoint_directory instead
  /// of starting from level 1. The snapshot's config and dataset
  /// fingerprints must match this run (kFailedPrecondition otherwise); a
  /// missing snapshot falls back to a fresh run so schedulers can always
  /// pass the flag. Requires checkpoint_directory.
  bool resume = false;

  /// Suspend the run (Completion::kSuspended) after this many completed
  /// levels, writing a final snapshot when checkpointing is enabled. 0 (the
  /// default) never suspends. This is the cooperative half of
  /// checkpoint/resume — a scheduler can slice a long discovery into
  /// resumable level-sized steps — and what the resume-determinism tests
  /// use to stop a run at an exact boundary.
  int stop_after_level = 0;

  /// Validates field ranges (ε ∈ [0,1], positive max_lhs_size, ...).
  Status Validate() const;
};

}  // namespace tane

#endif  // TANE_CORE_CONFIG_H_
