#ifndef TANE_CORE_PARTITION_STORE_H_
#define TANE_CORE_PARTITION_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

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
/// Thread-safety: every implementation below guards its state with
/// reader-writer locking (the memory store stripes it by handle), so the
/// read path (Get/Peek, the parallel level executor's Acquire traffic)
/// proceeds concurrently across workers while Put/Release serialize per
/// stripe. A pointer returned by Peek stays valid across concurrent Puts
/// of *other* handles inside a task window (see BeginTaskWindow); only
/// Release of the peeked handle — or a store migration at a window
/// boundary — invalidates it.
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
};

/// Keeps every partition in main memory (the TANE/MEM configuration).
///
/// The map is striped by handle across kStripes independent reader-writer
/// locks, so a Put committing on one stripe never blocks worker Peek/Get
/// traffic on the other stripes — the lock that used to serialize the
/// whole store under the parallel executor's commit path. Handles come
/// from a single atomic counter, so assignment order (and therefore every
/// handle value) is decided purely by the order Put is called in, which
/// the driver keeps deterministic via its commit frontier.
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
    pool_.store(pool, std::memory_order_release);
  }

 private:
  static constexpr int kStripes = 8;  // power of two: stripe = handle & 7

  struct Stripe {
    mutable SharedMutex mu;
    std::unordered_map<int64_t, StrippedPartition> partitions
        TANE_GUARDED_BY(mu);
    int64_t resident_bytes TANE_GUARDED_BY(mu) = 0;
  };

  Stripe stripes_[kStripes];
  // Set-once publication pointer and a monotonic id counter: each cell's
  // explicit orders are its whole contract. tane-lint: allow(naked-atomic)
  std::atomic<PartitionBufferPool*> pool_{nullptr};
  // tane-lint: allow(naked-atomic)
  std::atomic<int64_t> next_handle_{0};
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
  std::unordered_map<int64_t, Entry> entries_ TANE_GUARDED_BY(mu_);
  std::vector<Segment> segments_ TANE_GUARDED_BY(mu_);
  PartitionBufferPool* pool_ TANE_GUARDED_BY(mu_) = nullptr;
  obs::MetricsRegistry* metrics_ TANE_GUARDED_BY(mu_) = nullptr;
  int64_t next_handle_ TANE_GUARDED_BY(mu_) = 0;
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
  // rewritten in place when the store migrates to disk.
  std::unordered_map<int64_t, int64_t> inner_handles_ TANE_GUARDED_BY(mu_);
  int64_t next_handle_ TANE_GUARDED_BY(mu_) = 0;
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
