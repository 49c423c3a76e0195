#ifndef TANE_CORE_PARTITION_STORE_H_
#define TANE_CORE_PARTITION_STORE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
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

/// Storage abstraction for level partitions. TANE proper (the scalable
/// version, §6) keeps partitions on disk and reads them back level by
/// level; TANE/MEM keeps them in RAM. The driver is written against this
/// interface so both variants share one code path.
///
/// Handles: every implementation issues them densely from 0, in the order
/// Put is called in, and never reuses one. Get, Release and Peek of a
/// released, negative or never-issued handle fail (NotFound, or a null
/// Peek).
///
/// Thread-safety: every implementation below guards its state with a lock,
/// so any method may be called from any thread. TANE's level loop resolves
/// the parent level's partitions once per task window with Peek on the
/// coordinator and hands workers the borrowed pointers, so a worker only
/// reaches the store itself (Get, for a copy) when Peek cannot serve a
/// borrow. A pointer returned by Peek stays valid across Puts of other
/// handles, concurrent ones included, and across Releases of other
/// handles; only Release of the peeked handle — or a store migration at a
/// window boundary (see BeginTaskWindow) — invalidates it.
class PartitionStore {
 public:
  virtual ~PartitionStore() = default;

  /// Stores a partition and returns its handle. Takes the partition by
  /// value so hot callers can move products straight into the store without
  /// a copy.
  virtual StatusOr<int64_t> Put(StrippedPartition partition) = 0;

  /// Retrieves a stored partition. The handle stays valid until Release.
  virtual StatusOr<StrippedPartition> Get(int64_t handle) = 0;

  /// Frees the resources behind `handle`. Releasing twice is an error.
  virtual Status Release(int64_t handle) = 0;

  /// Attaches a buffer pool: stores that hold partition buffers recycle
  /// them into `pool` on Release (and on any Put that discards its
  /// argument), closing the allocation loop with PartitionProduct. The pool
  /// must outlive the store; nullptr detaches. Default: no recycling. Only
  /// benchmarks attach one; the discovery driver does not.
  virtual void set_buffer_pool(PartitionBufferPool* pool) { (void)pool; }

  /// Attaches the run's metrics registry: stores that perform spill I/O
  /// count their records and bytes on the registry's shared lane
  /// (kSpillWrites/kSpillReads/kSpillBytes*; kDegradedToDisk for the kAuto
  /// migration). Not owned; nullptr detaches. Default: ignored.
  virtual void set_metrics(obs::MetricsRegistry* metrics) { (void)metrics; }

  /// Attaches a tracer so stores can mark rare, expensive transitions —
  /// today only the kAuto mid-run spill migration, emitted as a "spill"
  /// span. Not owned; nullptr detaches. Default: ignored.
  virtual void set_tracer(obs::Tracer* tracer) { (void)tracer; }

  /// Borrowing accessor: returns a pointer to the resident partition when
  /// the store can serve one without I/O or copying, else nullptr (callers
  /// then fall back to Get). The pointer is invalidated by Release of this
  /// handle or by a window-boundary migration; inside a task window it
  /// survives concurrent Puts of other handles.
  virtual const StrippedPartition* Peek(int64_t handle) const {
    (void)handle;
    return nullptr;
  }

  /// Brackets a parallel task window. Between BeginTaskWindow and
  /// EndTaskWindow the driver's workers hold Peek borrows while other
  /// threads Put, so implementations must not relocate or evict resident
  /// partitions mid-window — the kAuto store defers its memory-to-disk
  /// spill migration to EndTaskWindow. The driver guarantees no Release
  /// happens inside a window. Defaults are no-ops for stores that never
  /// relocate resident data.
  virtual void BeginTaskWindow() {}
  virtual Status EndTaskWindow() { return Status::OK(); }

  /// Bytes currently resident in main memory on behalf of the store.
  virtual int64_t resident_bytes() const = 0;

  /// Total bytes ever written to secondary storage (0 for memory stores).
  virtual int64_t bytes_written() const = 0;

 protected:
  /// The per-handle state of a store, addressed by position: handle h is
  /// slot h − base. Release empties a slot in place and pops the released
  /// prefix, so the table spans the oldest live handle to the newest.
  /// std::deque's push_back and pop_front move no other element, so a
  /// pointer to a live handle's value stays valid until that handle is
  /// released — the borrow contract Peek rests on. Not thread-safe; each
  /// store guards its table with its own lock.
  template <typename T>
  class HandleTable {
   public:
    /// Stores `value` under the next handle and returns that handle.
    int64_t Add(T value) {
      slots_.emplace_back(std::move(value));
      return base_ + static_cast<int64_t>(slots_.size()) - 1;
    }

    /// The value of a live handle, or nullptr for a released, negative or
    /// never-issued one.
    T* Find(int64_t handle) {
      const int64_t slot = Slot(handle);
      return slot < 0 ? nullptr : &*slots_[slot];
    }
    const T* Find(int64_t handle) const {
      const int64_t slot = Slot(handle);
      return slot < 0 ? nullptr : &*slots_[slot];
    }

    /// Removes a live handle and returns its value; nullopt for a handle
    /// Find would not serve.
    std::optional<T> Take(int64_t handle) {
      const int64_t slot = Slot(handle);
      if (slot < 0) return std::nullopt;
      std::optional<T> value = std::move(slots_[slot]);
      slots_[slot].reset();
      while (!slots_.empty() && !slots_.front().has_value()) {
        slots_.pop_front();
        ++base_;
      }
      return value;
    }

    /// Every live handle lies in [begin_handle(), end_handle()).
    int64_t begin_handle() const { return base_; }
    int64_t end_handle() const {
      return base_ + static_cast<int64_t>(slots_.size());
    }

   private:
    // The slot index of a live handle, else -1.
    int64_t Slot(int64_t handle) const {
      const int64_t slot = handle - base_;
      return handle >= base_ && slot < static_cast<int64_t>(slots_.size()) &&
                     slots_[slot].has_value()
                 ? slot
                 : -1;
    }

    std::deque<std::optional<T>> slots_;
    int64_t base_ = 0;
  };
};

/// Keeps every partition in main memory (the TANE/MEM configuration).
///
/// One mutex guards a handle table (PartitionStore::HandleTable): a Put
/// appends a slot and never moves a stored partition, which is what keeps
/// Peek borrows valid across the commit frontier's Puts. Handles are issued
/// in the order Put is called in, which the commit frontier keeps
/// deterministic.
class MemoryPartitionStore : public PartitionStore {
 public:
  MemoryPartitionStore() = default;

  StatusOr<int64_t> Put(StrippedPartition partition) override;
  StatusOr<StrippedPartition> Get(int64_t handle) override;
  Status Release(int64_t handle) override;
  const StrippedPartition* Peek(int64_t handle) const override;
  int64_t resident_bytes() const override;
  int64_t bytes_written() const override { return 0; }
  void set_buffer_pool(PartitionBufferPool* pool) override {
    MutexLock lock(&mu_);
    pool_ = pool;
  }

 private:
  mutable Mutex mu_;
  HandleTable<StrippedPartition> partitions_ TANE_GUARDED_BY(mu_);
  int64_t resident_bytes_ TANE_GUARDED_BY(mu_) = 0;
  PartitionBufferPool* pool_ TANE_GUARDED_BY(mu_) = nullptr;
};

/// Spills partitions to append-only segment files under a directory (the
/// scalable TANE configuration). Each Put is one sequential write of size
/// O(|r|) and each Get one positioned read, matching the paper's cost model
/// of O(s) disk accesses of size O(|r|). Segments whose partitions have all
/// been released are unlinked, so — because TANE releases whole levels —
/// disk usage tracks the two live levels (O(s_max·|r|)) rather than the
/// total spill volume.
///
/// Spill I/O is hardened: every record carries a CRC32 of its payload,
/// validated on read before deserialization; writes and reads loop over
/// short transfers and EINTR; transient kIoError failures are retried with
/// capped exponential backoff (see util/retry.h) before surfacing, and
/// surfaced errors name the segment path. A write that fails permanently
/// unlinks the segment when it holds no other live partitions, or truncates
/// the partial record away otherwise, so failed runs leave no torn segment
/// files behind. Put/Get are instrumented with the "disk_store.put",
/// "disk_store.get", and "disk_store.open_segment" failpoints
/// (util/failpoint.h) for fault-injection tests.
class DiskPartitionStore : public PartitionStore {
 public:
  /// Opens a store rooted at `directory`; if empty, creates a fresh
  /// directory under the system temp dir, distinct from every other such
  /// directory in the process even when threads open stores concurrently.
  /// A directory created by the store (including a named one that did not
  /// yet exist) is deleted on destruction together with any remaining
  /// segment files.
  static StatusOr<std::unique_ptr<DiskPartitionStore>> Open(
      std::string directory = "");

  ~DiskPartitionStore() override;

  DiskPartitionStore(const DiskPartitionStore&) = delete;
  DiskPartitionStore& operator=(const DiskPartitionStore&) = delete;

  StatusOr<int64_t> Put(StrippedPartition partition) override;
  StatusOr<StrippedPartition> Get(int64_t handle) override;
  Status Release(int64_t handle) override;
  void set_buffer_pool(PartitionBufferPool* pool) override {
    WriterMutexLock lock(&mu_);
    pool_ = pool;
  }
  void set_metrics(obs::MetricsRegistry* metrics) override {
    WriterMutexLock lock(&mu_);
    metrics_ = metrics;
  }
  int64_t resident_bytes() const override { return 0; }
  int64_t bytes_written() const override {
    ReaderMutexLock lock(&mu_);
    return bytes_written_;
  }

  const std::string& directory() const { return directory_; }

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

  struct Entry {
    int32_t segment = -1;
    int64_t offset = 0;
    int64_t size = 0;
  };
  struct Segment {
    int fd = -1;
    int64_t live_partitions = 0;
    int64_t bytes = 0;
    bool sealed = false;
  };

  DiskPartitionStore(std::string directory, bool owns_directory)
      : directory_(std::move(directory)), owns_directory_(owns_directory) {}

  std::string SegmentPath(int32_t segment) const;
  Status OpenNewSegment() TANE_REQUIRES(mu_);
  void DropSegmentIfDead(int32_t segment) TANE_REQUIRES(mu_);
  // One write/read attempt of a whole record at a fixed offset, looping
  // over short transfers and EINTR; retried by Put/Get on transient errors.
  Status WriteRecordOnce(int fd, std::string_view record, int64_t offset);
  Status ReadRecordOnce(int fd, char* buffer, int64_t size, int64_t offset);
  // Removes the partial record a permanently failed write left behind:
  // unlinks the segment when nothing else lives in it, else truncates it
  // back to its last durable byte.
  void CleanupFailedWrite(int32_t segment) TANE_REQUIRES(mu_);

  mutable SharedMutex mu_;
  // Immutable after Open(); readable without the lock.
  std::string directory_;
  bool owns_directory_ = false;
  HandleTable<Entry> entries_ TANE_GUARDED_BY(mu_);
  std::vector<Segment> segments_ TANE_GUARDED_BY(mu_);
  PartitionBufferPool* pool_ TANE_GUARDED_BY(mu_) = nullptr;
  obs::MetricsRegistry* metrics_ TANE_GUARDED_BY(mu_) = nullptr;
  int64_t bytes_written_ TANE_GUARDED_BY(mu_) = 0;
  // Installed before the store sees concurrent traffic (test-only setter).
  RetryPolicy retry_policy_;
};

/// Starts in memory (TANE/MEM speed) and, the first time resident bytes
/// exceed `budget_bytes`, transparently migrates every live partition into
/// a DiskPartitionStore and serves all later traffic from disk — the
/// StorageMode::kAuto graceful-degradation policy. Handles issued before
/// the migration remain valid throughout. With budget_bytes <= 0 the store
/// never spills and is equivalent to MemoryPartitionStore.
///
/// Inside a task window (BeginTaskWindow/EndTaskWindow) a budget breach
/// does not migrate immediately — workers hold Peek borrows into the
/// memory store that a migration would free — it is recorded and performed
/// at EndTaskWindow, after the driver's quiesce point.
class AutoPartitionStore : public PartitionStore {
 public:
  AutoPartitionStore(int64_t budget_bytes, std::string spill_directory)
      : budget_bytes_(budget_bytes),
        spill_directory_(std::move(spill_directory)) {}

  StatusOr<int64_t> Put(StrippedPartition partition) override;
  StatusOr<StrippedPartition> Get(int64_t handle) override;
  Status Release(int64_t handle) override;
  const StrippedPartition* Peek(int64_t handle) const override;
  void BeginTaskWindow() override;
  Status EndTaskWindow() override;
  void set_buffer_pool(PartitionBufferPool* pool) override {
    WriterMutexLock lock(&mu_);
    memory_.set_buffer_pool(pool);
    pool_ = pool;
    if (disk_ != nullptr) disk_->set_buffer_pool(pool);
  }
  void set_metrics(obs::MetricsRegistry* metrics) override {
    WriterMutexLock lock(&mu_);
    metrics_ = metrics;
    if (disk_ != nullptr) disk_->set_metrics(metrics);
  }
  void set_tracer(obs::Tracer* tracer) override {
    WriterMutexLock lock(&mu_);
    tracer_ = tracer;
  }
  int64_t resident_bytes() const override {
    ReaderMutexLock lock(&mu_);
    return disk_ == nullptr ? memory_.resident_bytes() : 0;
  }
  int64_t bytes_written() const override {
    ReaderMutexLock lock(&mu_);
    return disk_ == nullptr ? 0 : disk_->bytes_written();
  }

  /// True once the memory budget was breached and the store moved to disk.
  bool spilled() const {
    ReaderMutexLock lock(&mu_);
    return disk_ != nullptr;
  }

 private:
  Status SpillToDisk() TANE_REQUIRES(mu_);

  mutable SharedMutex mu_;
  int64_t budget_bytes_;  // immutable after construction
  const std::string spill_directory_;
  // The inner stores guard their own state; mu_ guards which one is active
  // (disk_ null vs. not) and the handle indirection around them.
  MemoryPartitionStore memory_;
  std::unique_ptr<DiskPartitionStore> disk_ TANE_GUARDED_BY(mu_);
  PartitionBufferPool* pool_ TANE_GUARDED_BY(mu_) = nullptr;
  obs::MetricsRegistry* metrics_ TANE_GUARDED_BY(mu_) = nullptr;
  obs::Tracer* tracer_ TANE_GUARDED_BY(mu_) = nullptr;
  // This store's handle -> the active inner store's handle; every entry is
  // rewritten in place, in handle order, when the store migrates to disk.
  HandleTable<int64_t> inner_handles_ TANE_GUARDED_BY(mu_);
  // True between BeginTaskWindow and EndTaskWindow: spills are deferred.
  bool in_window_ TANE_GUARDED_BY(mu_) = false;
  // A budget breach happened mid-window; EndTaskWindow performs the spill.
  bool pending_spill_ TANE_GUARDED_BY(mu_) = false;
};

/// Serializes `partition` into a compact binary image (used by the disk
/// store and directly testable).
std::string SerializePartition(const StrippedPartition& partition);

/// Inverse of SerializePartition; validates the header and array sizes.
StatusOr<StrippedPartition> DeserializePartition(std::string_view bytes);

}  // namespace tane

#endif  // TANE_CORE_PARTITION_STORE_H_
