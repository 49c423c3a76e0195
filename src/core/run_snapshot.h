#ifndef TANE_CORE_RUN_SNAPSHOT_H_
#define TANE_CORE_RUN_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/fd.h"
#include "core/result.h"
#include "lattice/attribute_set.h"
#include "relation/relation.h"
#include "util/status.h"

namespace tane {

/// Checkpoint/resume model for a discovery run. A snapshot captures the run
/// at a *level boundary* — after PRUNE of level ℓ, before GENERATE-NEXT-
/// LEVEL — which is the only point where the whole search state reduces to
/// a small closed set: the dependencies and keys emitted so far, the
/// surviving nodes of level ℓ with their C⁺ sets and partitions, and the
/// deterministic work counters. Everything else (fold mode's singleton
/// partitions, probe tables, pools) is derived from the relation or is
/// scratch, and is deliberately rebuilt on resume rather than stored.
///
/// Resume is exact: restoring the emitted dependencies in emission order
/// rebuilds every pruning index (found_lhs_by_rhs_, covered-rhs masks)
/// byte-for-byte, and the survivor partitions round-trip through
/// SerializePartition, so the continued search emits exactly what the
/// uninterrupted run would have — at any thread count and storage mode,
/// since neither participates in the fingerprint.

/// One surviving lattice node of the checkpointed level.
struct SnapshotNode {
  AttributeSet set;
  AttributeSet cplus;
  /// e(X)·|r| of the node's partition (Node::error).
  int64_t error = 0;
  /// SerializePartition image of π_X.
  std::string partition_bytes;
};

/// The deterministic counters a resumed run carries forward so its final
/// totals equal the uninterrupted run's. Timing-, allocation- and cache-
/// dependent counters are deliberately absent: they describe *this
/// process's* work, not the search, and legitimately differ across a crash.
struct SnapshotCounters {
  int64_t sets_generated = 0;
  int64_t validity_tests = 0;
  int64_t g3_scans = 0;
  int64_t g3_scans_skipped = 0;
  int64_t partition_products = 0;
  int64_t keys_found = 0;
  int64_t nodes_processed = 0;
  int64_t fds_emitted = 0;
  int64_t max_level_size = 0;
};

struct RunSnapshot {
  /// Bumped on any incompatible layout change; a mismatch rejects the file.
  static constexpr uint32_t kFormatVersion = 1;

  /// Fingerprint of the output-affecting configuration (ConfigFingerprint).
  uint32_t config_fingerprint = 0;
  /// Content fingerprint of the encoded relation (DatasetFingerprint).
  std::string dataset_fingerprint;
  int64_t num_rows = 0;
  int32_t num_columns = 0;

  /// The lattice level this snapshot completes (PRUNE applied).
  int32_t completed_level = 0;

  /// Dependencies in emission order — NOT canonical order; the order is
  /// what rebuilds the pruning indexes exactly on resume.
  std::vector<FunctionalDependency> fds;
  /// Keys in emission order.
  std::vector<AttributeSet> keys;

  SnapshotCounters counters;
  std::vector<LevelParallelStats> level_parallel;

  /// Surviving nodes of `completed_level`, in node order.
  std::vector<SnapshotNode> survivors;

  /// Size of the file this snapshot was loaded from. Not serialized —
  /// filled by LoadLatestSnapshot so the restore path can account its
  /// read I/O (checkpoint_reads / checkpoint_bytes_read counters).
  int64_t serialized_bytes = 0;

  /// Encodes into the CRC32-framed container format (util/checkpoint.h).
  std::string Serialize() const;

  /// Inverse of Serialize. Corruption (bad magic/version/CRC, truncation)
  /// returns kFailedPrecondition with a "snapshot corrupt" message.
  static StatusOr<RunSnapshot> Deserialize(std::string_view bytes);
};

/// Hash of every TaneConfig field that can change discovery *output*:
/// epsilon, measure, max_lhs_size, the pruning toggles, exact-error policy,
/// stripped partitions, and the product-vs-fold strategy. Execution knobs
/// (threads, storage, observability) are excluded by design so a
/// run can resume on different hardware with a different storage plan.
uint32_t ConfigFingerprint(const TaneConfig& config);

/// Content fingerprint of the encoded relation: schema names plus the
/// dictionary codes of every column, rendered "crc32:xxxxxxxx". Two files
/// that encode to the same relation fingerprint identically. Shared by the
/// run report and the snapshot validator.
std::string DatasetFingerprint(const Relation& relation);

/// Path of the snapshot file for `level` under `directory`.
std::string SnapshotPath(const std::string& directory, int level);

/// Durably writes `snapshot` as the latest checkpoint under `directory`
/// (created if missing): atomic-rename publish, then older level files are
/// unlinked. After a crash at any point the directory still holds at least
/// one complete, valid snapshot if one was ever written. Returns the
/// serialized size in bytes.
[[nodiscard]] StatusOr<int64_t> WriteSnapshot(const std::string& directory,
                                              const RunSnapshot& snapshot);

/// Loads the highest-level snapshot under `directory`. Returns kNotFound
/// when the directory has no snapshot files; a corrupt latest snapshot is
/// an error (kFailedPrecondition), never a silent fallback to older state.
StatusOr<RunSnapshot> LoadLatestSnapshot(const std::string& directory);

/// Removes every snapshot file under `directory` (a completed run's
/// checkpoints; the results are now the durable artifact). Missing
/// directory is OK.
[[nodiscard]] Status RemoveSnapshots(const std::string& directory);

/// True when `status` reports a corrupt/truncated snapshot (as opposed to a
/// fingerprint mismatch or plain I/O failure). Corruption is *resumable-
/// class*: the scheduler should restart the run from scratch rather than
/// alert, and the CLI maps it to the resumable exit code.
bool IsSnapshotCorruptStatus(const Status& status);

}  // namespace tane

#endif  // TANE_CORE_RUN_SNAPSHOT_H_
