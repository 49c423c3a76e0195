#include "partition/product.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace tane {
namespace {

// Per-`b`-class scatter loops for pass 2 of Multiply. All variants are
// branch-free per row: invalid rows are predicated onto the trash bucket
// with one select, every store unconditional. The scratch arrays are
// genuinely disjoint, so the pointers are __restrict-qualified — without
// it the compiler must order every cursor load after the previous bucket
// store and the loop cannot pipeline.
//
// kGathered selects the group source: the kernel-gathered SoA label stream
// (large-probe regime, SIMD gather + prefetch) or direct probe-table loads
// (cache-resident regime, where the extra pass through groups[] costs more
// than it saves).
//
// kChained breaks the scatter's store-to-load forwarding chain: the
// last-hit group's counter lives in registers and is flushed to memory one
// iteration late, so a run of rows landing in the same bucket advances a
// register instead of round-tripping through the store buffer (~5 cycles
// per row on current x86 cores). The flush-late protocol is safe because
// the only memory read that can observe the stale value — loading the
// counter of the not-yet-flushed group — is exactly the case the select
// replaces with the register. Worth two extra ops per row only when
// consecutive rows collide often, i.e. when `a` has few classes; with many
// classes the plain loop wins. Chained or not, the stores and final state
// are identical, so the choice is invisible in the output.

// Cursor variant: cursor[g] is the next free slot of bucket g (initialized
// to the bucket base); bucket fill levels are recovered from cursor
// positions by the caller's index-order emission scan, so the row loop
// carries no touched-list bookkeeping at all.
template <bool kGathered, bool kChained>
void ScatterWithCursors(const int32_t* __restrict rows, int32_t begin,
                        int32_t end, const int32_t* __restrict probe,
                        int32_t base, const int32_t* __restrict groups,
                        int32_t trash_group, int32_t* __restrict cursor,
                        int32_t* __restrict bucket_data) {
  if constexpr (kChained) {
    int32_t last_gs = trash_group;
    int32_t last_cur = cursor[trash_group];
    for (int32_t i = begin; i < end; ++i) {
      const int32_t row = rows[i];
      const int32_t g = kGathered ? groups[i] : probe[row] - base;
      const int32_t gs = g >= 0 ? g : trash_group;
      const int32_t mem_cur = cursor[gs];
      cursor[last_gs] = last_cur;
      const int32_t cur = gs == last_gs ? last_cur : mem_cur;
      bucket_data[cur] = row;
      last_gs = gs;
      last_cur = cur + 1;
    }
    cursor[last_gs] = last_cur;
  } else {
    for (int32_t i = begin; i < end; ++i) {
      const int32_t row = rows[i];
      const int32_t g = kGathered ? groups[i] : probe[row] - base;
      const int32_t gs = g >= 0 ? g : trash_group;
      const int32_t cur = cursor[gs];
      bucket_data[cur] = row;
      cursor[gs] = cur + 1;
    }
  }
}

// Counting variant for many-class operands, where an emission scan over
// every `a` class per `b` class would dwarf the row walk: group_size[]
// counts bucket fill levels and the touched list records first-seen groups
// (unconditional store, predicated advance), preserving the original
// first-seen emission order. Returns the touched count.
template <bool kGathered, bool kChained>
int64_t ScatterWithCounts(const int32_t* __restrict rows, int32_t begin,
                          int32_t end, const int32_t* __restrict probe,
                          int32_t base, const int32_t* __restrict groups,
                          int32_t trash_group,
                          const int32_t* __restrict bucket_base,
                          int32_t* __restrict group_size,
                          int32_t* __restrict bucket_data,
                          int32_t* __restrict touched) {
  int64_t touched_count = 0;
  if constexpr (kChained) {
    int32_t last_gs = trash_group;
    int32_t last_count = group_size[trash_group];
    for (int32_t i = begin; i < end; ++i) {
      const int32_t row = rows[i];
      const int32_t g = kGathered ? groups[i] : probe[row] - base;
      const int32_t gs = g >= 0 ? g : trash_group;
      const int32_t mem_count = group_size[gs];
      group_size[last_gs] = last_count;
      const int32_t count = gs == last_gs ? last_count : mem_count;
      bucket_data[bucket_base[gs] + count] = row;
      touched[touched_count] = gs;
      touched_count += static_cast<int64_t>(count == 0);
      last_gs = gs;
      last_count = count + 1;
    }
    group_size[last_gs] = last_count;
  } else {
    for (int32_t i = begin; i < end; ++i) {
      const int32_t row = rows[i];
      const int32_t g = kGathered ? groups[i] : probe[row] - base;
      const int32_t gs = g >= 0 ? g : trash_group;
      const int32_t count = group_size[gs];
      bucket_data[bucket_base[gs] + count] = row;
      group_size[gs] = count + 1;
      touched[touched_count] = gs;
      touched_count += static_cast<int64_t>(count == 0);
    }
  }
  return touched_count;
}

// Collisions are frequent enough for the flush-late chain to pay off when
// rows outnumber buckets by a wide margin; past this many `a` classes the
// plain loop's two fewer ops per row win. Empirical knee on the bench
// datasets (few-class paper attributes vs many-class near-key attributes).
constexpr int64_t kChainedMaxClasses = 64;

}  // namespace

PartitionProduct::PartitionProduct(int64_t num_rows)
    : num_rows_(num_rows), probe_(num_rows, -1) {
  // Pre-warm the scratch arrays to their row-count bounds (a partition over
  // |r| rows has at most |r| classes and |r| member rows). Lazy growth in
  // Multiply would be counted as allocations, and since each worker owns
  // its own PartitionProduct, lazy warm-up makes the run-wide allocation
  // count scale with the worker count; paying it up front keeps
  // allocations-per-product thread-count-invariant (and 0 in steady state).
  group_size_.assign(num_rows + 2, 0);
  touched_.assign(num_rows + 2, 0);
  groups_.assign(num_rows, 0);
  bucket_data_.resize(2 * num_rows);
  ResizeStaging();
  WarmRadixScratch();
}

void PartitionProduct::ResizeStaging() {
  // A product over num_rows_ rows has at most num_rows_ member rows and, in
  // the unstripped representation, as many classes (plus the leading 0).
  stage_rows_.resize(num_rows_);
  stage_offsets_.resize(num_rows_ + 1);
}

std::vector<int32_t> PartitionProduct::TakeOutput(const int32_t* data,
                                                  size_t size, size_t bound) {
  std::vector<int32_t> out;
  if (pool_ != nullptr) {
    // Pooled capacities only grow, to the operands' output bound, so a
    // warmed-up pool serves every product without allocating.
    out = pool_->Acquire(pool_slot_, bound);
    if (out.capacity() < size) {
      out.clear();  // don't let reserve copy recycled contents
      out.reserve(bound);
      CountAllocation();
    }
    out.assign(data, data + size);
  } else if (size > 0) {
    out.assign(data, data + size);
    CountAllocation();
  }
  return out;
}

void PartitionProduct::CountAllocation() {
  ++allocations_;
  if (metrics_ != nullptr) {
    metrics_->Add(metrics_shard_, obs::kProductAllocations, 1);
  }
}

void PartitionProduct::WarmRadixScratch() {
  // Pure function of num_rows_ and the radix threshold, never of the call
  // sequence: workers constructed alike stay allocation-identical.
  if (radix_.ShouldUse(num_rows_, num_rows_)) {
    radix_.EnsureCapacity(num_rows_);
  }
}

void PartitionProduct::set_radix_min_probe_bytes_for_testing(int64_t bytes) {
  radix_.set_min_probe_bytes_for_testing(bytes);
  WarmRadixScratch();
}

StatusOr<StrippedPartition> PartitionProduct::Multiply(
    const StrippedPartition& a, const StrippedPartition& b,
    uint64_t a_token) {
  if (a.num_rows() != b.num_rows()) {
    return Status::InvalidArgument(
        "partition product operands disagree on row count: " +
        std::to_string(a.num_rows()) + " vs " + std::to_string(b.num_rows()));
  }
  if (a.stripped() != b.stripped()) {
    return Status::InvalidArgument(
        "partition product operands mix stripped and unstripped "
        "representations");
  }
  if (a.num_rows() > num_rows_) {
    // A partition over more rows than the constructed scratch size: grow to
    // fit rather than corrupt memory or abort. Growth discards any live
    // labels, so token reuse is off until the next labeling pass.
    num_rows_ = a.num_rows();
    probe_.assign(num_rows_, -1);
    groups_.assign(num_rows_, 0);
    ResizeStaging();
    probe_base_ = 0;
    labeled_classes_ = 0;
    last_a_token_ = 0;
    WarmRadixScratch();
    CountAllocation();
  }
  const int32_t min_size = a.stripped() ? 2 : 1;
  const int64_t a_classes = a.num_classes();

  // +2: one slot for the trash bucket, and one more so the touched list's
  // branch-free unconditional store stays in bounds after every group
  // (including trash) has been recorded.
  if (static_cast<int64_t>(group_size_.size()) < a_classes + 2) {
    group_size_.assign(a_classes + 2, 0);
    touched_.assign(a_classes + 2, 0);
    CountAllocation();
  }
  // The trash bucket (see pass 2) needs capacity for a full `b` class after
  // the real buckets, whose combined capacity is `a`'s member-row count.
  if (bucket_data_.size() <
      a.row_ids().size() + b.row_ids().size()) {
    bucket_data_.resize(a.row_ids().size() + b.row_ids().size());
    CountAllocation();
  }
  if (groups_.size() < b.row_ids().size()) {
    groups_.assign(b.row_ids().size(), 0);
    CountAllocation();
  }

  const std::vector<int32_t>& a_rows = a.row_ids();
  int32_t* const probe = probe_.data();
  int64_t rows_scanned = 0;

  // Pass 1: label rows with base + class index in `a` — unless the caller
  // vouches (via a_token) that `a` is the operand already labeled, in which
  // case the live labels are reused verbatim. Entries from earlier calls
  // sit below the base and read as "unlabeled", so there is no reset pass
  // anywhere.
  const bool reuse =
      a_token != 0 && a_token == last_a_token_ && labeled_classes_ == a_classes;
  if (reuse) {
    ++label_reuses_;
  } else {
    // Advance the epoch past the previous call's labels, re-initializing
    // the table when the labels would overflow int32 (amortized over ~2^31
    // product classes, effectively never in one run).
    probe_base_ += labeled_classes_;
    if (probe_base_ + a_classes > INT32_MAX) {
      probe_.assign(probe_.size(), -1);
      probe_base_ = 0;
    }
    radix_.LabelRows(*kernel_, probe, num_rows_, a_rows.data(),
                     a.class_offsets().data(), a_classes,
                     static_cast<int32_t>(probe_base_));
    labeled_classes_ = a_classes;
    last_a_token_ = a_token;
    rows_scanned += static_cast<int64_t>(a_rows.size());
  }
  const int32_t base = static_cast<int32_t>(probe_base_);

  // Products are staged in arrays sized for the worst case and copied out
  // at their exact size: a stored partition holds no slack for life.
  int32_t* const out_rows_data = stage_rows_.data();
  int32_t* const out_offsets_data = stage_offsets_.data();
  int32_t out_size = 0;
  int64_t out_classes = 0;
  out_offsets_data[0] = 0;

  // Pass 2, per class of `b`: a branch-free scatter routes each of the
  // class's rows into a flat bucket per `a` class — bucket `g` lives at
  // `a`'s own CSR offset for class `g`, whose size is an exact capacity
  // bound. Invalid rows (stale epoch or singleton in `a`) are predicated
  // onto the trash bucket `a_classes` instead of branching: `a`'s CSR
  // offsets array already carries its end offset, so the per-bucket scratch
  // extends to the trash bucket with no special-casing — one select per
  // row, every store unconditional. Trash is filtered at emission, so the
  // state is exactly as if invalid rows were skipped. Qualifying buckets
  // then stream into the output with a straight contiguous copy.
  //
  // Two cache-conscious regimes, both pure functions of operand shape (so
  // the output is identical for every kernel and thread count):
  //
  //  * Group source. When the probe table outgrows the cache (the same
  //    threshold that turns on radix labeling), the kernel gathers all of
  //    `b`'s labels into the SoA group stream first — SIMD gather + software
  //    prefetch overlap the random probe loads that an in-order walk would
  //    stall on. Cache-resident tables skip the gather: probe loads hit L1
  //    and the extra pass through groups[] costs more than it saves.
  //
  //  * Emission. When `a` has few classes (the common low-level case), an
  //    index-order scan over all `a` classes per `b` class recovers the
  //    bucket fill levels from the scatter cursors — the row loop carries no
  //    bookkeeping beyond the cursor itself, and product classes emit
  //    grouped by `b` class, ordered by `a` class index within it. When the
  //    scan would dwarf the row walk ((a_classes+1) x b_classes >
  //    b_member_rows), the scatter counts fill levels and records first-seen
  //    groups in the touched list, and emission walks that list in
  //    first-seen order. The order differs between the two strategies, but
  //    the choice depends only on the operands' class/row counts, never on
  //    the kernel or any runtime state.
  const std::vector<int32_t>& b_rows = b.row_ids();
  const int32_t* const b_rows_data = b_rows.data();
  const int32_t* const bucket_base = a.class_offsets().data();
  const int32_t trash_group = static_cast<int32_t>(a_classes);
  int32_t* const group_size = group_size_.data();
  int32_t* const touched = touched_.data();
  int32_t* const bucket_data = bucket_data_.data();
  int32_t* const groups = groups_.data();
  rows_scanned += static_cast<int64_t>(b_rows.size());

  const bool gathered = num_rows_ * static_cast<int64_t>(sizeof(int32_t)) >=
                        radix_.min_probe_bytes();
  if (gathered) {
    // One gather over the whole member-row array: maximal SIMD runs, one
    // dispatch. groups_[i] then lines up with b_rows[i] in every class.
    kernel_->gather_groups(probe, b_rows_data,
                           static_cast<int64_t>(b_rows.size()), base, groups);
  }
  const bool index_scan =
      (a_classes + 1) * b.num_classes() <= static_cast<int64_t>(b_rows.size());
  const bool chained = a_classes <= kChainedMaxClasses;

  if (index_scan) {
    using CursorScatter = void (*)(const int32_t*, int32_t, int32_t,
                                   const int32_t*, int32_t, const int32_t*,
                                   int32_t, int32_t*, int32_t*);
    const CursorScatter scatter =
        gathered ? (chained ? &ScatterWithCursors<true, true>
                            : &ScatterWithCursors<true, false>)
                 : (chained ? &ScatterWithCursors<false, true>
                            : &ScatterWithCursors<false, false>);
    // group_size_ doubles as the cursor array (it is all-zero between
    // products; re-zeroed below to keep that invariant for the counting
    // path).
    int32_t* const cursor = group_size;
    for (int64_t g = 0; g <= a_classes; ++g) cursor[g] = bucket_base[g];
    for (int64_t cls = 0; cls < b.num_classes(); ++cls) {
      const int32_t begin = b.class_begin(cls);
      const int32_t end = b.class_end(cls);
      scatter(b_rows_data, begin, end, probe, base, groups, trash_group,
              cursor, bucket_data);
      for (int64_t g = 0; g < a_classes; ++g) {
        const int32_t bucket_begin = bucket_base[g];
        const int32_t count = cursor[g] - bucket_begin;
        cursor[g] = bucket_begin;
        if (count < min_size) continue;
        std::copy(bucket_data + bucket_begin,
                  bucket_data + bucket_begin + count,
                  out_rows_data + out_size);
        out_size += count;
        out_offsets_data[++out_classes] = out_size;
      }
      cursor[trash_group] = bucket_base[trash_group];
    }
    for (int64_t g = 0; g <= a_classes; ++g) cursor[g] = 0;
  } else {
    using CountScatter = int64_t (*)(const int32_t*, int32_t, int32_t,
                                     const int32_t*, int32_t, const int32_t*,
                                     int32_t, const int32_t*, int32_t*,
                                     int32_t*, int32_t*);
    const CountScatter scatter =
        gathered ? (chained ? &ScatterWithCounts<true, true>
                            : &ScatterWithCounts<true, false>)
                 : (chained ? &ScatterWithCounts<false, true>
                            : &ScatterWithCounts<false, false>);
    for (int64_t cls = 0; cls < b.num_classes(); ++cls) {
      const int32_t begin = b.class_begin(cls);
      const int32_t end = b.class_end(cls);
      const int64_t touched_count =
          scatter(b_rows_data, begin, end, probe, base, groups, trash_group,
                  bucket_base, group_size, bucket_data, touched);
      for (int64_t t = 0; t < touched_count; ++t) {
        const int32_t group = touched[t];
        const int32_t count = group_size[group];
        group_size[group] = 0;
        if (count < min_size || group == trash_group) continue;
        const int32_t* const bucket = bucket_data + bucket_base[group];
        std::copy(bucket, bucket + count, out_rows_data + out_size);
        out_size += count;
        out_offsets_data[++out_classes] = out_size;
      }
    }
  }

  // Bounds for pooled outputs: every emitted row is a member row of both
  // operands, and every emitted class holds at least min_size of them.
  const size_t row_bound = std::min(a_rows.size(), b_rows.size());
  std::vector<int32_t> out_rows =
      TakeOutput(out_rows_data, static_cast<size_t>(out_size), row_bound);
  std::vector<int32_t> out_offsets =
      TakeOutput(out_offsets_data, static_cast<size_t>(out_classes) + 1,
                 row_bound / static_cast<size_t>(min_size) + 1);

  rows_scanned_ += rows_scanned;
  if (metrics_ != nullptr) {
    metrics_->Add(metrics_shard_, obs::kProductRowsScanned, rows_scanned);
    if (reuse) {
      metrics_->Add(metrics_shard_, obs::kProductLabelReuses, 1);
    }
    metrics_->Record(metrics_shard_, obs::kProductClasses, out_classes);
    metrics_->Record(metrics_shard_, obs::kProductMemberRows, out_size);
  }
  return StrippedPartition(a.num_rows(), a.stripped(), std::move(out_rows),
                           std::move(out_offsets));
}

}  // namespace tane
