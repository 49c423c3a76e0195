#ifndef TANE_PARTITION_STRIPPED_PARTITION_H_
#define TANE_PARTITION_STRIPPED_PARTITION_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace tane {

/// A partition π_X of the rows of a relation into equivalence classes, in
/// the (optionally) *stripped* representation of the TANE paper: equivalence
/// classes of size one are dropped, since they can never witness a violation
/// of a dependency and never shrink under further refinement.
///
/// Storage is CSR-style: `row_ids()` is the concatenation of all classes and
/// `class_offsets()` delimits them, so a partition with c classes and m
/// member rows costs exactly (m + c + 1) 32-bit words.
///
/// Key quantities (paper §2 and §5, extended version [4]):
///  * full rank |π_X|  = num_rows − e(X), exposed as FullRank();
///  * e(X)             = ‖π_X‖ − |classes| over stripped classes, exposed as
///                       Error() — the minimum number of rows to remove to
///                       make X a superkey;
///  * Lemma 2 test     : X→A holds  ⇔  |π_X| = |π_X∪A|  ⇔  e(X) = e(X∪A).
class StrippedPartition {
 public:
  /// An empty partition over `num_rows` rows (every class a singleton).
  explicit StrippedPartition(int64_t num_rows = 0, bool stripped = true)
      : num_rows_(num_rows), stripped_(stripped) {}

  /// Assembles from raw CSR arrays. `class_offsets` must start at 0, end at
  /// row_ids.size(), and be non-decreasing; row ids must be in range and
  /// distinct. When `stripped` is true, every class must have size >= 2.
  static StatusOr<StrippedPartition> Create(int64_t num_rows,
                                            std::vector<int32_t> row_ids,
                                            std::vector<int32_t> class_offsets,
                                            bool stripped = true);

  int64_t num_rows() const { return num_rows_; }

  /// Whether singleton classes have been dropped from the representation.
  bool stripped() const { return stripped_; }

  /// Number of stored equivalence classes.
  int64_t num_classes() const {
    return static_cast<int64_t>(class_offsets_.size()) - 1;
  }

  /// Number of rows in stored classes (‖π‖ in the paper).
  int64_t num_member_rows() const {
    return static_cast<int64_t>(row_ids_.size());
  }

  /// e(X): the minimum number of rows whose removal makes every class a
  /// singleton. Zero iff the attribute set is a superkey.
  int64_t Error() const { return num_member_rows() - num_classes(); }

  /// |π_X|: the full number of equivalence classes, counting singletons.
  int64_t FullRank() const { return num_rows_ - Error(); }

  /// True when no two rows agree on the underlying attribute set.
  bool IsSuperkey() const { return Error() == 0; }

  const std::vector<int32_t>& row_ids() const { return row_ids_; }
  const std::vector<int32_t>& class_offsets() const { return class_offsets_; }

  int32_t class_begin(int64_t cls) const { return class_offsets_[cls]; }
  int32_t class_end(int64_t cls) const { return class_offsets_[cls + 1]; }
  int32_t class_size(int64_t cls) const {
    return class_offsets_[cls + 1] - class_offsets_[cls];
  }

  /// Returns an equivalent partition with singleton classes removed. The
  /// identity when already stripped.
  StrippedPartition Stripped() const;

  /// Returns an equivalent unstripped partition (singletons re-added as
  /// one-row classes, in ascending row order after the stored classes).
  StrippedPartition Unstripped() const;

  /// Returns a canonical form — rows sorted within each class, classes
  /// sorted by first row — for structural comparison in tests.
  StrippedPartition Canonicalized() const;

  /// True when every class of this partition is contained in a single class
  /// of `other` (π refines π'). O(member rows of both). Used by Lemma 1.
  bool Refines(const StrippedPartition& other) const;

  /// Writes `base + c` into probe[row] for every member row of class c: the
  /// labeling pass of the probe-table algorithm, shared by
  /// PartitionProduct (pass 1) and G3Calculator. `probe` must cover
  /// num_rows() entries; rows outside stored classes are left untouched.
  void LabelRows(int32_t* probe, int32_t base) const;

  /// Moves the CSR arrays out for buffer recycling, leaving this partition
  /// empty (all singletons) but structurally valid.
  void MoveBuffersInto(std::vector<int32_t>* row_ids,
                       std::vector<int32_t>* class_offsets);

  /// Approximate heap footprint in bytes.
  int64_t EstimatedBytes() const {
    return static_cast<int64_t>((row_ids_.capacity() +
                                 class_offsets_.capacity()) *
                                sizeof(int32_t));
  }

  friend bool operator==(const StrippedPartition& a,
                         const StrippedPartition& b) {
    return a.num_rows_ == b.num_rows_ && a.stripped_ == b.stripped_ &&
           a.row_ids_ == b.row_ids_ && a.class_offsets_ == b.class_offsets_;
  }

 private:
  friend class PartitionProduct;
  friend class PartitionBuilder;

  /// Adopts already-built CSR arrays without validation; `class_offsets`
  /// must satisfy the Create invariants. Used by PartitionProduct so pooled
  /// buffers become the partition's storage with no copy and — unlike the
  /// public constructors — no allocation for the initial {0} offsets.
  StrippedPartition(int64_t num_rows, bool stripped,
                    std::vector<int32_t> row_ids,
                    std::vector<int32_t> class_offsets)
      : num_rows_(num_rows),
        stripped_(stripped),
        row_ids_(std::move(row_ids)),
        class_offsets_(std::move(class_offsets)) {}

  int64_t num_rows_ = 0;
  bool stripped_ = true;
  std::vector<int32_t> row_ids_;
  std::vector<int32_t> class_offsets_{0};
};

}  // namespace tane

#endif  // TANE_PARTITION_STRIPPED_PARTITION_H_
