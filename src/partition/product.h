#ifndef TANE_PARTITION_PRODUCT_H_
#define TANE_PARTITION_PRODUCT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "partition/buffer_pool.h"
#include "partition/stripped_partition.h"
#include "util/status.h"

namespace tane {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Computes partition products π' · π'' = π_{X∪Y} (Lemma 3) with the
/// linear-time probe-table algorithm of the TANE paper, in two passes:
///
///  * pass 1 labels the rows of `a` with epoch-tagged class ids
///    (StrippedPartition::LabelRows, the loop G3Calculator labels with);
///  * pass 2 scatters `b`'s rows into a flat bucket arena, branch-free per
///    row (invalid rows are predicated onto a trash bucket). See product.cc
///    for the two emission strategies (index-order scan vs first-seen
///    touched list), selected by operand shape alone.
///
/// All scratch is flat arrays — an O(|r|) epoch-labelled probe table (no
/// reset pass between calls), a bucket arena laid out by `a`'s own CSR
/// offsets (each bucket's capacity is exactly its `a` class size), a
/// per-class cursor/count array, and two staging arrays the product is
/// emitted into — owned by this object, sized for |r| rows at construction,
/// and reused across calls. Surviving buckets stream into the staging
/// arrays with contiguous copies, so Multiply performs no per-class heap
/// allocations.
///
/// The result is copied out of the staging arrays into vectors of exactly
/// its size: a stored partition carries no slack capacity, which is what
/// its EstimatedBytes() and the memory budget charge. That costs two heap
/// allocations per product (one when the product has no member rows), which
/// allocations() counts. With a PartitionBufferPool attached
/// (set_buffer_pool), the output vectors come from recycled buffers instead
/// and keep their recycled capacity; once the pool has warmed up, those
/// products are allocation-free. Only benchmarks attach a pool.
///
/// The emission strategy is a pure function of the operands, so the output
/// (and the allocation count) is bit-identical across thread counts.
/// Instances are not thread-safe; parallel callers keep one
/// PartitionProduct per worker (see core/tane.cc).
///
/// Both operands must be over the same number of rows and use the same
/// representation (stripped or unstripped); the result uses that
/// representation as well. Operands over more rows than the constructed
/// size are fine — the probe table grows to fit — but operands that
/// disagree with each other are rejected with kInvalidArgument.
class PartitionProduct {
 public:
  explicit PartitionProduct(int64_t num_rows);

  /// Output buffers are acquired from `pool` (slot `slot`) instead of the
  /// heap. The pool must outlive this object; pass nullptr to detach.
  void set_buffer_pool(PartitionBufferPool* pool, int slot = 0) {
    pool_ = pool;
    pool_slot_ = slot;
  }

  /// Mirrors allocation counts (kProductAllocations), the rows-scanned /
  /// label-reuse counters, and the class-count / member-row histograms of
  /// every successful product into `metrics`, on shard `shard` (the
  /// caller's worker index). Not owned; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics, int shard = 0) {
    metrics_ = metrics;
    metrics_shard_ = shard;
  }

  /// The least refined common refinement of `a` and `b`. Fails with
  /// kInvalidArgument when the operands disagree on row count or
  /// representation.
  ///
  /// `a_token`, when nonzero, is a caller-provided identity for `a`'s
  /// *content*: two calls on the same PartitionProduct passing the same
  /// nonzero token promise that their `a` operands are structurally equal,
  /// which lets Multiply skip re-labeling the probe table (pass 1) when
  /// consecutive products share their left parent, as each run of
  /// GenerateNextLevel's block-ordered candidates does. The discovery
  /// driver passes the store handle (+1): handles are allocated by a
  /// monotone counter and never reused, so equal handles always mean equal
  /// content. Passing 0 (the default) never reuses. Reuse changes neither
  /// the output nor the allocation count — only the rows scanned.
  StatusOr<StrippedPartition> Multiply(const StrippedPartition& a,
                                       const StrippedPartition& b,
                                       uint64_t a_token = 0);

  /// Heap allocations performed by Multiply since construction: scratch
  /// growth plus the output vectors — two per product without a pool (one
  /// when the product is empty), and only those a warmed-up pool could not
  /// cover with one.
  int64_t allocations() const { return allocations_; }

  /// Returns allocations() and resets the counter (for periodic merges
  /// into run-wide stats).
  int64_t TakeAllocations() { return std::exchange(allocations_, 0); }

  /// Member rows actually walked by Multiply since construction: the
  /// labeling pass over `a` (skipped on token reuse) plus the probe pass
  /// over `b`. This is the honest denominator for rows/sec — the nominal
  /// relation row count overstates the work by the singleton-stripped
  /// fraction and ignores label reuse.
  int64_t rows_scanned() const { return rows_scanned_; }

  int64_t TakeRowsScanned() { return std::exchange(rows_scanned_, 0); }

  /// Products whose labeling pass was skipped because `a_token` matched the
  /// previous call.
  int64_t label_reuses() const { return label_reuses_; }

  /// Test hook for the epoch-overflow path: plants an arbitrary probe_base_
  /// so a test can drive the base across the INT32_MAX re-initialization
  /// boundary without 2^31 real products. Clears the table (labels written
  /// at a base *above* the planted one would otherwise alias as live) and
  /// invalidates token reuse.
  void set_probe_base_for_testing(int64_t base) {
    probe_.assign(probe_.size(), -1);
    probe_base_ = base;
    labeled_classes_ = 0;
    last_a_token_ = 0;
  }

  int64_t probe_base_for_testing() const { return probe_base_; }

  /// Bytes retained by the reusable scratch arrays (probe table, per-class
  /// size arrays, bucket arena, staging arrays), for memory-budget
  /// accounting.
  int64_t ScratchBytes() const {
    return static_cast<int64_t>(
        (probe_.capacity() + group_size_.capacity() + touched_.capacity() +
         bucket_data_.capacity() + stage_rows_.capacity() +
         stage_offsets_.capacity()) *
        sizeof(int32_t));
  }

 private:
  // One heap allocation happened: bump the local counter and, when a
  // registry is attached, the kProductAllocations shard counter with it.
  void CountAllocation();

  // Sizes the staging arrays for num_rows_ rows.
  void ResizeStaging();

  // Copies `size` staged values into an output vector: an exact-size heap
  // vector, or a pooled buffer grown to `bound` if it is too small.
  std::vector<int32_t> TakeOutput(const int32_t* data, size_t size,
                                  size_t bound);

  int64_t num_rows_;
  // probe_[row] = probe_base_ + class index within `a` for the currently
  // labeled operand; entries below probe_base_ are stale labels from
  // earlier calls (or the initial -1). Advancing probe_base_ past the live
  // labels invalidates them all at once, so no reset pass over `a`'s rows
  // is needed between calls; the table is only re-initialized when the base
  // nears INT32_MAX.
  std::vector<int32_t> probe_;
  int64_t probe_base_ = 0;
  // Classes labeled at probe_base_ by the previous call; the next
  // non-reusing call advances the base past them.
  int64_t labeled_classes_ = 0;
  // Content identity of the currently labeled `a` (0 = not reusable).
  uint64_t last_a_token_ = 0;
  // Per-`a`-class scratch (sized classes + trash + 1): bucket cursors on
  // the index-scan emission path, bucket fill counts on the touched-list
  // path. All-zero between products — both paths restore that invariant.
  std::vector<int32_t> group_size_;
  // Touched-list path only: the `a` classes the current `b` class touched,
  // in first-seen order — which is that path's emission order. Written
  // branch-free (unconditional store, predicated advance), so it is kept
  // sized rather than push_back-grown.
  std::vector<int32_t> touched_;
  // Flat bucket arena: bucket for `a` class g occupies the range that class
  // g occupies in `a`'s own CSR layout (a.class_offsets()[g], exact
  // capacity by construction), so buckets never need growth or checks. The
  // trash bucket for predicated invalid-row writes sits past them, at the
  // end offset `a`'s CSR array already carries, sized for a full `b` class
  // (hence the a.rows + b.rows arena bound).
  std::vector<int32_t> bucket_data_;

  // The product under construction: member rows and class offsets, sized
  // for the worst case (|r| rows, |r| + 1 offsets) and copied out at their
  // exact size once the product is complete.
  std::vector<int32_t> stage_rows_;
  std::vector<int32_t> stage_offsets_;

  PartitionBufferPool* pool_ = nullptr;
  int pool_slot_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  int metrics_shard_ = 0;
  int64_t allocations_ = 0;
  int64_t rows_scanned_ = 0;
  int64_t label_reuses_ = 0;
};

}  // namespace tane

#endif  // TANE_PARTITION_PRODUCT_H_
