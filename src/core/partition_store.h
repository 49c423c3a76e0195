#ifndef TANE_CORE_PARTITION_STORE_H_
#define TANE_CORE_PARTITION_STORE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "partition/buffer_pool.h"
#include "partition/stripped_partition.h"
#include "util/mutex.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tane {

namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs

/// Storage for level partitions. TANE proper (the scalable version, §6)
/// keeps partitions on disk and reads them back level by level; TANE/MEM
/// keeps them in RAM. One class serves both: each handle's slot holds
/// either its resident partition or the spill record it was written to,
/// and when a slot spills is fixed at construction:
///
///   PartitionStore()              never (StorageMode::kMemory);
///   PartitionStore::Open(dir)     at every Put (StorageMode::kDisk);
///   PartitionStore(budget, dir)   once resident bytes pass `budget`
///                                 (StorageMode::kAuto). Every resident
///                                 slot then spills, in handle order, and
///                                 every later Put goes straight to disk;
///                                 budget <= 0 never spills.
///
/// A spill drops a slot's partition only after its record is written, so
/// a spill that fails partway leaves that slot and every later one
/// resident and readable: no handle is lost to a failed write.
///
/// Handles: issued densely from 0, in the order Put is called in, and never
/// reused. Get, Release and Peek of a released, negative or never-issued
/// handle fail (NotFound, or a null Peek).
///
/// Thread-safety: any method may be called from any thread. One Mutex
/// guards the store's bookkeeping: the slot table, the spill policy flags,
/// the segment table and its write cursor. It is held only for that
/// bookkeeping, for copying a resident partition out in Get, and for a
/// spill's pwrite at the segment cursor, since the record's offset and the
/// cleanup of a failed write depend on the cursor. A Put into a store
/// that spills every Put serializes and checksums its record without the
/// lock, then locks to write it; a Get of a spilled slot pins the slot's
/// segment under the lock, then reads, verifies and decodes the record
/// without it, and unpins the segment under a second short lock. A segment's file descriptor is
/// closed, and its file unlinked, only once no live partition and no
/// pinned read refer to it, so a Get racing the Release of its own handle
/// returns the partition or NotFound and never reads a closed or reused
/// descriptor. TANE's level loop resolves the parent level's partitions
/// once per task window with Peek on the coordinator and hands workers the
/// borrowed pointers, so a worker only reaches the store itself (Get, for
/// a copy) when Peek cannot serve a borrow. A pointer returned by Peek
/// stays valid across Puts of other handles, concurrent ones included,
/// and across Releases of other handles; only Release of the peeked handle
/// — or a spill at a window boundary (see BeginTaskWindow) — invalidates
/// it.
///
/// Spill I/O goes to append-only segment files under the spill directory.
/// Each spilled Put is one sequential write of size O(|r|) and each Get of
/// a spilled slot one positioned read, matching the paper's cost model of
/// O(s) disk accesses of size O(|r|). Segments whose partitions have all
/// been released are unlinked, so — because TANE releases whole levels —
/// disk usage tracks the two live levels (O(s_max·|r|)) rather than the
/// total spill volume. Every record carries a CRC32 of its payload,
/// validated on read before deserialization (both outside the lock, see
/// above); writes and reads loop over short transfers and EINTR;
/// transient kIoError failures are retried with capped exponential backoff
/// (see util/retry.h) before surfacing, and surfaced errors name the
/// segment path. A write that fails permanently unlinks the segment when
/// it holds no other live partitions, or truncates the partial record away
/// otherwise, so failed runs leave no torn segment files behind. Spill writes and reads are instrumented with the
/// "disk_store.put", "disk_store.get", and "disk_store.open_segment"
/// failpoints (util/failpoint.h) for fault-injection tests.
class PartitionStore {
 public:
  /// A store that keeps every partition in main memory.
  PartitionStore() = default;

  /// A store that starts in memory and spills once resident bytes exceed
  /// `budget_bytes` (never, for budget_bytes <= 0). The spill directory is
  /// created at the first spill; `spill_directory` names it as for Open.
  PartitionStore(int64_t budget_bytes, std::string spill_directory)
      : budget_bytes_(budget_bytes),
        spill_directory_(std::move(spill_directory)) {}

  /// Opens a store that spills every Put to a directory: `directory`, or
  /// if empty a fresh directory under the system temp dir, distinct from
  /// every other such directory in the process even when threads open
  /// stores concurrently. A directory created by the store (including a
  /// named one that did not yet exist) is deleted on destruction together
  /// with any remaining segment files.
  static StatusOr<std::unique_ptr<PartitionStore>> Open(
      std::string directory = "");

  ~PartitionStore();

  PartitionStore(const PartitionStore&) = delete;
  PartitionStore& operator=(const PartitionStore&) = delete;

  /// Stores a partition and returns its handle. Takes the partition by
  /// value so hot callers can move products straight into the store without
  /// a copy.
  StatusOr<int64_t> Put(StrippedPartition partition);

  /// Retrieves a stored partition. The handle stays valid until Release.
  StatusOr<StrippedPartition> Get(int64_t handle);

  /// Frees the resources behind `handle`. Releasing twice is an error.
  Status Release(int64_t handle);

  /// Borrowing accessor: returns a pointer to the partition when it is
  /// resident, else nullptr (callers then fall back to Get). The pointer is
  /// invalidated by Release of this handle or by a spill; inside a task
  /// window it survives concurrent Puts of other handles.
  const StrippedPartition* Peek(int64_t handle) const;

  /// Brackets a parallel task window. Between BeginTaskWindow and
  /// EndTaskWindow the driver's workers hold Peek borrows while other
  /// threads Put, so a budget breach inside a window does not spill — that
  /// would free the borrowed partitions — but is recorded, and
  /// EndTaskWindow performs the spill after the driver's quiesce point.
  /// The driver guarantees no Release happens inside a window.
  void BeginTaskWindow();
  Status EndTaskWindow();

  /// Attaches a buffer pool: the store recycles partition buffers into
  /// `pool` on Release and on every Put that spills its argument, closing
  /// the allocation loop with PartitionProduct. The pool must outlive the
  /// store; nullptr detaches. Only benchmarks attach one; the discovery
  /// driver does not.
  void set_buffer_pool(PartitionBufferPool* pool) {
    MutexLock lock(&mu_);
    pool_ = pool;
  }

  /// Attaches the run's metrics registry: spill I/O counts its records and
  /// bytes on the registry's shared lane (kSpillWrites/kSpillReads/
  /// kSpillBytes*), and a budget spill sets kDegradedToDisk. Not owned;
  /// nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics) {
    MutexLock lock(&mu_);
    metrics_ = metrics;
  }

  /// Attaches a tracer that marks each budget spill as a "spill" span. Not
  /// owned; nullptr detaches.
  void set_tracer(obs::Tracer* tracer) {
    MutexLock lock(&mu_);
    tracer_ = tracer;
  }

  /// Bytes of the partitions currently resident in main memory.
  int64_t resident_bytes() const {
    MutexLock lock(&mu_);
    return resident_bytes_;
  }

  /// Total bytes ever written to secondary storage (0 for memory stores).
  int64_t bytes_written() const {
    MutexLock lock(&mu_);
    return bytes_written_;
  }

  /// True once every Put goes straight to disk: from Open on, or once a
  /// budget store's resident partitions have all spilled.
  bool spilled() const {
    MutexLock lock(&mu_);
    return spill_every_put_;
  }

  /// The directory segments are written to; empty until it is created.
  std::string directory() const {
    MutexLock lock(&mu_);
    return directory_;
  }

  /// Bytes currently occupied by live (non-unlinked) segments.
  int64_t disk_bytes() const;

  /// Overrides the backoff policy used for transient spill-I/O retries
  /// (tests install a counting sleep hook; production keeps the default).
  void set_retry_policy(RetryPolicy policy) {
    retry_policy_ = std::move(policy);
  }

 private:
  // A segment rotates once it exceeds this many bytes.
  static constexpr int64_t kSegmentBytes = 32 << 20;

  // Where a spilled partition's record lies.
  struct SpillRecord {
    int32_t segment = -1;
    int64_t offset = 0;
    int64_t size = 0;
  };
  // One handle's state: its partition while resident, its record once
  // spilled, neither once released.
  using Slot = std::variant<std::monostate, StrippedPartition, SpillRecord>;
  struct Segment {
    int fd = -1;
    int64_t live_partitions = 0;
    // Gets reading a record of this segment without the lock.
    int64_t reads_in_flight = 0;
    int64_t bytes = 0;
    bool sealed = false;
  };

  // The slot of a live handle, else nullptr.
  Slot* FindSlot(int64_t handle) TANE_REQUIRES(mu_);
  const Slot* FindSlot(int64_t handle) const TANE_REQUIRES(mu_);
  // Creates the spill directory on first use.
  Status OpenDirectory() TANE_REQUIRES(mu_);
  // Writes every resident slot to disk in handle order (a budget spill).
  Status SpillResident() TANE_REQUIRES(mu_);
  // Appends an encoded record (EncodeRecord in the .cc) to the newest
  // segment, at its cursor.
  StatusOr<SpillRecord> WriteRecord(std::string_view record)
      TANE_REQUIRES(mu_);
  std::string SegmentPath(int32_t segment) const TANE_REQUIRES(mu_);
  Status OpenNewSegment() TANE_REQUIRES(mu_);
  // Closes and unlinks a sealed segment that no live partition and no
  // read in flight refer to.
  void DropSegmentIfDead(int32_t segment) TANE_REQUIRES(mu_);
  // One write/read attempt of a whole record at a fixed offset, looping
  // over short transfers and EINTR; retried on transient errors.
  static Status WriteRecordOnce(int fd, std::string_view record,
                                int64_t offset);
  static Status ReadRecordOnce(int fd, char* buffer, int64_t size,
                               int64_t offset);
  // Removes the partial record a permanently failed write left behind:
  // unlinks the segment when nothing else lives in it, else truncates it
  // back to its last durable byte.
  void CleanupFailedWrite(int32_t segment) TANE_REQUIRES(mu_);

  mutable Mutex mu_;
  // Immutable after construction.
  const int64_t budget_bytes_ = 0;
  const std::string spill_directory_;
  // Handle h is slots_[h - base_]. Release empties a slot in place and
  // pops the released prefix, so the table spans the oldest live handle to
  // the newest. std::deque's push_back and pop_front move no other
  // element, so a resident partition stays at its address until its own
  // slot is released or spilled — the borrow contract Peek rests on.
  std::deque<Slot> slots_ TANE_GUARDED_BY(mu_);
  int64_t base_ TANE_GUARDED_BY(mu_) = 0;
  int64_t resident_bytes_ TANE_GUARDED_BY(mu_) = 0;
  // Set by Open, and by a budget store's first complete spill.
  bool spill_every_put_ TANE_GUARDED_BY(mu_) = false;
  // True between BeginTaskWindow and EndTaskWindow: spills are deferred.
  bool in_window_ TANE_GUARDED_BY(mu_) = false;
  // A budget breach happened mid-window; EndTaskWindow performs the spill.
  bool pending_spill_ TANE_GUARDED_BY(mu_) = false;
  // The spill directory, once created, and whether the store created it.
  std::string directory_ TANE_GUARDED_BY(mu_);
  bool owns_directory_ TANE_GUARDED_BY(mu_) = false;
  std::vector<Segment> segments_ TANE_GUARDED_BY(mu_);
  int64_t bytes_written_ TANE_GUARDED_BY(mu_) = 0;
  PartitionBufferPool* pool_ TANE_GUARDED_BY(mu_) = nullptr;
  obs::MetricsRegistry* metrics_ TANE_GUARDED_BY(mu_) = nullptr;
  obs::Tracer* tracer_ TANE_GUARDED_BY(mu_) = nullptr;
  // Installed before the store sees concurrent traffic (test-only setter).
  RetryPolicy retry_policy_;
};

/// The store's three configurations go by their StorageMode names; all
/// three are the one class above.
using MemoryPartitionStore = PartitionStore;
using DiskPartitionStore = PartitionStore;
using AutoPartitionStore = PartitionStore;

/// Serializes `partition` into a compact binary image (used by the disk
/// store and directly testable).
std::string SerializePartition(const StrippedPartition& partition);

/// Inverse of SerializePartition; validates the header and array sizes.
StatusOr<StrippedPartition> DeserializePartition(std::string_view bytes);

}  // namespace tane

#endif  // TANE_CORE_PARTITION_STORE_H_
