#include "partition/error.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/metrics.h"

namespace tane {

int64_t IntegerThreshold(double epsilon, double scale) {
  const double product = epsilon * scale;
  if (product >= static_cast<double>(std::numeric_limits<int64_t>::max())) {
    return std::numeric_limits<int64_t>::max();
  }
  return std::max<int64_t>(0, static_cast<int64_t>(std::floor(product)));
}

G3Bounds BoundG3RemovalCount(const StrippedPartition& lhs,
                             const StrippedPartition& lhs_with_rhs) {
  G3Bounds bounds;
  bounds.upper = lhs.Error();
  bounds.lower = std::max<int64_t>(0, lhs.Error() - lhs_with_rhs.Error());
  return bounds;
}

G3Calculator::G3Calculator(int64_t num_rows)
    : num_rows_(num_rows), probe_(num_rows, -1) {
  // Sized to the row-count bounds up front (a partition over |r| rows has at
  // most |r| classes and member rows); the +1 slots are the dummy counter
  // (counts_) and the headroom for the unconditional branch-free append
  // (touched_).
  counts_.assign(num_rows + 1, 0);
  touched_.assign(num_rows + 1, 0);
}

Status G3Calculator::PrepareAndLabel(const StrippedPartition& lhs,
                                     const StrippedPartition& lhs_with_rhs,
                                     int32_t* base) {
  if (lhs.num_rows() != lhs_with_rhs.num_rows()) {
    return Status::InvalidArgument(
        "error-measure operands disagree on row count: " +
        std::to_string(lhs.num_rows()) + " vs " +
        std::to_string(lhs_with_rhs.num_rows()));
  }
  if (lhs.num_rows() > num_rows_) {
    // Partitions over more rows than the constructed scratch size: grow to
    // fit rather than corrupt memory or abort.
    num_rows_ = lhs.num_rows();
    probe_.assign(num_rows_, -1);
    counts_.assign(num_rows_ + 1, 0);
    touched_.assign(num_rows_ + 1, 0);
    probe_base_ = 0;
  }

  // Epoch-tagged labeling: labels of earlier calls sit below the new base
  // and read as "singleton", so there is no reset pass anywhere. The table
  // is re-initialized only when the labels would overflow int32 (amortized
  // over ~2^31 classes, effectively never in one run).
  const int64_t fine_classes = lhs_with_rhs.num_classes();
  if (probe_base_ + fine_classes > INT32_MAX) {
    probe_.assign(probe_.size(), -1);
    probe_base_ = 0;
  }
  *base = static_cast<int32_t>(probe_base_);
  lhs_with_rhs.LabelRows(probe_.data(), *base);
  probe_base_ += fine_classes;
  return Status::OK();
}

void G3Calculator::RecordScan(const StrippedPartition& lhs,
                              const StrippedPartition& lhs_with_rhs) {
  const int64_t rows = static_cast<int64_t>(lhs.row_ids().size()) +
                       static_cast<int64_t>(lhs_with_rhs.row_ids().size());
  rows_scanned_ += rows;
  if (metrics_ != nullptr) {
    metrics_->Add(metrics_shard_, obs::kG3RowsScanned, rows);
  }
}

StatusOr<int64_t> G3Calculator::RemovalCount(
    const StrippedPartition& lhs, const StrippedPartition& lhs_with_rhs) {
  int32_t base = 0;
  TANE_RETURN_IF_ERROR(PrepareAndLabel(lhs, lhs_with_rhs, &base));

  // Rows that are singletons in π_{X∪A} (negative group after the epoch
  // subtraction) are predicated into the dummy counter slot past the real
  // classes; its count never feeds `largest` (their effective subclass size
  // is 1, the initial value), and the touched list resets it with the rest.
  const int32_t dummy = static_cast<int32_t>(lhs_with_rhs.num_classes());
  int64_t removals = 0;
  const int32_t* const coarse_rows = lhs.row_ids().data();
  const int32_t* const probe = probe_.data();
  int32_t* const counts = counts_.data();
  int32_t* const touched = touched_.data();
  for (int64_t cls = 0; cls < lhs.num_classes(); ++cls) {
    const int32_t end = lhs.class_end(cls);
    // The largest subclass has size >= 1 even if every row of this class is
    // a singleton in π_{X∪A}.
    int32_t largest = 1;
    int64_t touched_count = 0;
    for (int32_t i = lhs.class_begin(cls); i < end; ++i) {
      const int32_t g = probe[coarse_rows[i]] - base;
      const int32_t valid = static_cast<int32_t>(g >= 0);
      const int32_t idx = valid ? g : dummy;
      const int32_t cnt = counts[idx] + 1;
      counts[idx] = cnt;
      touched[touched_count] = idx;
      touched_count += static_cast<int64_t>(cnt == 1);
      const int32_t effective = valid ? cnt : 1;
      largest = std::max(largest, effective);
    }
    for (int64_t t = 0; t < touched_count; ++t) counts[touched[t]] = 0;
    removals += lhs.class_size(cls) - largest;
  }

  RecordScan(lhs, lhs_with_rhs);
  return removals;
}

StatusOr<double> G3Calculator::Error(const StrippedPartition& lhs,
                                     const StrippedPartition& lhs_with_rhs) {
  if (lhs.num_rows() == 0) return 0.0;
  TANE_ASSIGN_OR_RETURN(const int64_t removals,
                        RemovalCount(lhs, lhs_with_rhs));
  return static_cast<double>(removals) /
         static_cast<double>(lhs.num_rows());
}

StatusOr<int64_t> G3Calculator::ViolatingPairCount(
    const StrippedPartition& lhs, const StrippedPartition& lhs_with_rhs) {
  int32_t base = 0;
  TANE_RETURN_IF_ERROR(PrepareAndLabel(lhs, lhs_with_rhs, &base));

  // Ordered agreeing pairs within a class c: |c|·(|c|−1). Of those, pairs
  // also agreeing on A: Σ |c'|·(|c'|−1) over the subclasses c' ⊆ c. Rows
  // that are singletons in π_{X∪A} form subclasses of size 1 contributing
  // zero, so only stored subclasses need counting — the skip branch stays,
  // since the correction sum must not see the dummy slot.
  int64_t violating = 0;
  const int32_t* const coarse_rows = lhs.row_ids().data();
  const int32_t* const probe = probe_.data();
  int32_t* const counts = counts_.data();
  int32_t* const touched = touched_.data();
  for (int64_t cls = 0; cls < lhs.num_classes(); ++cls) {
    const int64_t size = lhs.class_size(cls);
    violating += size * (size - 1);
    const int32_t end = lhs.class_end(cls);
    int64_t touched_count = 0;
    for (int32_t i = lhs.class_begin(cls); i < end; ++i) {
      const int32_t fine_cls = probe[coarse_rows[i]] - base;
      if (fine_cls < 0) continue;
      const int32_t cnt = counts[fine_cls] + 1;
      counts[fine_cls] = cnt;
      touched[touched_count] = fine_cls;
      touched_count += static_cast<int64_t>(cnt == 1);
    }
    for (int64_t t = 0; t < touched_count; ++t) {
      const int32_t fine_cls = touched[t];
      const int64_t sub = counts[fine_cls];
      violating -= sub * (sub - 1);
      counts[fine_cls] = 0;
    }
  }

  RecordScan(lhs, lhs_with_rhs);
  return violating;
}

StatusOr<double> G3Calculator::G1Error(const StrippedPartition& lhs,
                                       const StrippedPartition& lhs_with_rhs) {
  if (lhs.num_rows() == 0) return 0.0;
  TANE_ASSIGN_OR_RETURN(const int64_t pairs,
                        ViolatingPairCount(lhs, lhs_with_rhs));
  return static_cast<double>(pairs) /
         (static_cast<double>(lhs.num_rows()) *
          static_cast<double>(lhs.num_rows()));
}

StatusOr<int64_t> G3Calculator::ViolatingRowCount(
    const StrippedPartition& lhs, const StrippedPartition& lhs_with_rhs) {
  int32_t base = 0;
  TANE_RETURN_IF_ERROR(PrepareAndLabel(lhs, lhs_with_rhs, &base));

  // Every row of a π_X class that splits under π_{X∪A} is in violation
  // with the rows of the other subclasses; classes that stay whole
  // contribute nothing.
  int64_t violating = 0;
  const int32_t* const coarse_rows = lhs.row_ids().data();
  const int32_t* const probe = probe_.data();
  int32_t* const counts = counts_.data();
  int32_t* const touched = touched_.data();
  for (int64_t cls = 0; cls < lhs.num_classes(); ++cls) {
    const int64_t size = lhs.class_size(cls);
    const int32_t end = lhs.class_end(cls);
    // The class stays whole iff some subclass has the full class size.
    bool whole = false;
    int64_t touched_count = 0;
    for (int32_t i = lhs.class_begin(cls); i < end; ++i) {
      const int32_t fine_cls = probe[coarse_rows[i]] - base;
      if (fine_cls < 0) continue;
      const int32_t cnt = counts[fine_cls] + 1;
      counts[fine_cls] = cnt;
      touched[touched_count] = fine_cls;
      touched_count += static_cast<int64_t>(cnt == 1);
      whole = whole || (cnt == size);
    }
    for (int64_t t = 0; t < touched_count; ++t) counts[touched[t]] = 0;
    if (!whole) violating += size;
  }

  RecordScan(lhs, lhs_with_rhs);
  return violating;
}

StatusOr<double> G3Calculator::G2Error(const StrippedPartition& lhs,
                                       const StrippedPartition& lhs_with_rhs) {
  if (lhs.num_rows() == 0) return 0.0;
  TANE_ASSIGN_OR_RETURN(const int64_t rows,
                        ViolatingRowCount(lhs, lhs_with_rhs));
  return static_cast<double>(rows) / static_cast<double>(lhs.num_rows());
}

}  // namespace tane
