#ifndef TANE_PARTITION_ERROR_H_
#define TANE_PARTITION_ERROR_H_

#include <cstdint>
#include <vector>

#include "partition/stripped_partition.h"
#include "util/status.h"

namespace tane {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// ⌊ε·scale⌋: the exact integer validity threshold. A dependency is valid
/// iff its violation count (g3 removals, g2 rows, or g1 ordered pairs) is
/// <= this value, where `scale` is |r| (g3, g2) or |r|² (g1). Computing the
/// threshold once and comparing raw counts against it keeps every validity
/// decision in exact integer arithmetic — floating-point comparisons with
/// absolute slack (the old `error <= ε + 1e-9`) misclassify borderline
/// dependencies once ε·scale grows past the point where a double's ulp
/// exceeds the slack. tools/tane_lint.py's float-threshold rule enforces
/// that validity tests go through this helper.
int64_t IntegerThreshold(double epsilon, double scale);

/// Lower and upper bounds on the g3 removal count of X → A derived from the
/// e(·) values alone (extended version [4], "a method to quickly bound the
/// g3 error"):
///
///     e(X) − e(X∪A)  ≤  removal count  ≤  e(X).
///
/// TANE's approximate mode uses these to skip the O(|r|) exact scan whenever
/// the bound already decides validity against the threshold ε.
struct G3Bounds {
  int64_t lower = 0;
  int64_t upper = 0;
};

/// Computes the bounds above from the two partitions' e(·) values. O(1).
G3Bounds BoundG3RemovalCount(const StrippedPartition& lhs,
                             const StrippedPartition& lhs_with_rhs);

/// Computes the exact g3 error of dependencies X → A from π_X and π_{X∪A}
/// (paper §2): for every class c of π_X the rows outside the largest
/// π_{X∪A}-subclass of c must be removed. Structurally a counting pass —
/// and implemented as one: the labeling pass is an epoch-tagged scatter
/// (StrippedPartition::LabelRows, with no reset pass between calls, like
/// PartitionProduct's probe table), and the counting pass reads each row's
/// π_{X∪A} class straight from the probe table. The per-class accumulation
/// is branch-free — rows that are singletons in π_{X∪A} are predicated into
/// a dummy counter slot instead of branching.
///
/// The scratch arrays are reused across calls; construction takes the
/// relation's row count, but partitions over more rows simply grow the
/// scratch. Instances are not thread-safe; parallel callers keep one
/// G3Calculator per worker.
///
/// Every method fails with kInvalidArgument when the two partitions
/// disagree on their row count.
class G3Calculator {
 public:
  explicit G3Calculator(int64_t num_rows);

  /// Mirrors the member rows walked by every scan into `metrics`
  /// (kG3RowsScanned), on shard `shard`. Not owned; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics, int shard = 0) {
    metrics_ = metrics;
    metrics_shard_ = shard;
  }

  /// The minimum number of rows to remove so that X → A holds.
  /// Both partitions may be stripped or unstripped.
  StatusOr<int64_t> RemovalCount(const StrippedPartition& lhs,
                                 const StrippedPartition& lhs_with_rhs);

  /// g3(X → A) = RemovalCount / |r|, in [0, 1]. Returns 0 for empty
  /// relations.
  StatusOr<double> Error(const StrippedPartition& lhs,
                         const StrippedPartition& lhs_with_rhs);

  /// The g1 numerator (Kivinen & Mannila [5]): the number of *ordered* row
  /// pairs (t, u), t ≠ u, that agree on X but differ on A. g1 itself is
  /// this count divided by |r|².
  StatusOr<int64_t> ViolatingPairCount(const StrippedPartition& lhs,
                                       const StrippedPartition& lhs_with_rhs);

  /// g1(X → A) = ViolatingPairCount / |r|².
  StatusOr<double> G1Error(const StrippedPartition& lhs,
                           const StrippedPartition& lhs_with_rhs);

  /// The g2 numerator: the number of rows involved in at least one
  /// violating pair. A row t violates iff its π_X class contains a row
  /// disagreeing on A, i.e. iff the class splits under π_{X∪A}.
  StatusOr<int64_t> ViolatingRowCount(const StrippedPartition& lhs,
                                      const StrippedPartition& lhs_with_rhs);

  /// g2(X → A) = ViolatingRowCount / |r|.
  StatusOr<double> G2Error(const StrippedPartition& lhs,
                           const StrippedPartition& lhs_with_rhs);

  /// Member rows walked (labeling + counting passes) since construction.
  int64_t rows_scanned() const { return rows_scanned_; }

 private:
  // Validates the operands, grows the scratch when they cover more rows
  // than the constructed size, and runs the epoch-tagged labeling pass over
  // lhs_with_rhs. On success `*base` holds the epoch the labels were
  // written at: probe_[row] - *base is the π_{X∪A} class of `row`, negative
  // for singletons (and for stale labels of earlier calls — no reset pass
  // is ever needed).
  Status PrepareAndLabel(const StrippedPartition& lhs,
                         const StrippedPartition& lhs_with_rhs,
                         int32_t* base);

  void RecordScan(const StrippedPartition& lhs,
                  const StrippedPartition& lhs_with_rhs);

  int64_t num_rows_;
  // probe_[row] = probe_base_ + class index in π_{X∪A}; entries below
  // probe_base_ are stale (or the initial -1). Re-initialized only when the
  // base nears INT32_MAX.
  std::vector<int32_t> probe_;
  int64_t probe_base_ = 0;
  // counts_[cls] = rows of the current π_X class seen in π_{X∪A} class cls.
  // One extra trailing slot absorbs the predicated counts of invalid rows.
  std::vector<int32_t> counts_;
  // Touched counter slots of the current π_X class; written branch-free,
  // so sized rather than push_back-grown.
  std::vector<int32_t> touched_;

  obs::MetricsRegistry* metrics_ = nullptr;
  int metrics_shard_ = 0;
  int64_t rows_scanned_ = 0;
};

}  // namespace tane

#endif  // TANE_PARTITION_ERROR_H_
