#include "core/partition_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/mutex.h"

namespace tane {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// MemoryPartitionStore

StatusOr<int64_t> MemoryPartitionStore::Put(StrippedPartition partition) {
  MutexLock lock(&mu_);
  resident_bytes_ += partition.EstimatedBytes();
  return partitions_.Add(std::move(partition));
}

StatusOr<StrippedPartition> MemoryPartitionStore::Get(int64_t handle) {
  MutexLock lock(&mu_);
  const StrippedPartition* partition = partitions_.Find(handle);
  if (partition == nullptr) {
    return Status::NotFound("no partition with handle " +
                            std::to_string(handle));
  }
  return *partition;
}

const StrippedPartition* MemoryPartitionStore::Peek(int64_t handle) const {
  MutexLock lock(&mu_);
  // The pointer outlives the lock: the handle table moves no stored
  // partition on a Put or on another handle's Release, so only Release of
  // this handle invalidates it.
  return partitions_.Find(handle);
}

Status MemoryPartitionStore::Release(int64_t handle) {
  MutexLock lock(&mu_);
  std::optional<StrippedPartition> partition = partitions_.Take(handle);
  if (!partition.has_value()) {
    return Status::NotFound("release of unknown handle " +
                            std::to_string(handle));
  }
  resident_bytes_ -= partition->EstimatedBytes();
  if (pool_ != nullptr) pool_->Recycle(std::move(*partition));
  return Status::OK();
}

int64_t MemoryPartitionStore::resident_bytes() const {
  MutexLock lock(&mu_);
  return resident_bytes_;
}

// ---------------------------------------------------------------------------
// Serialization

namespace {

constexpr uint32_t kPartitionMagic = 0x54414E45;  // "TANE"

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(std::string_view* in, T* value) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(value, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

}  // namespace

std::string SerializePartition(const StrippedPartition& partition) {
  std::string out;
  const auto& rows = partition.row_ids();
  const auto& offsets = partition.class_offsets();
  out.reserve(32 + (rows.size() + offsets.size()) * sizeof(int32_t));
  AppendPod(&out, kPartitionMagic);
  AppendPod(&out, static_cast<uint8_t>(partition.stripped() ? 1 : 0));
  AppendPod(&out, partition.num_rows());
  AppendPod(&out, static_cast<int64_t>(rows.size()));
  AppendPod(&out, static_cast<int64_t>(offsets.size()));
  // Empty vectors may have a null data(); append/memcpy forbid that even
  // for zero sizes.
  if (!rows.empty()) {
    out.append(reinterpret_cast<const char*>(rows.data()),
               rows.size() * sizeof(int32_t));
  }
  if (!offsets.empty()) {
    out.append(reinterpret_cast<const char*>(offsets.data()),
               offsets.size() * sizeof(int32_t));
  }
  return out;
}

StatusOr<StrippedPartition> DeserializePartition(std::string_view bytes) {
  uint32_t magic = 0;
  uint8_t stripped = 0;
  int64_t num_rows = 0, num_member_rows = 0, num_offsets = 0;
  if (!ReadPod(&bytes, &magic) || magic != kPartitionMagic) {
    return Status::InvalidArgument("bad partition magic");
  }
  if (!ReadPod(&bytes, &stripped) || !ReadPod(&bytes, &num_rows) ||
      !ReadPod(&bytes, &num_member_rows) || !ReadPod(&bytes, &num_offsets)) {
    return Status::InvalidArgument("truncated partition header");
  }
  if (num_rows < 0 || num_member_rows < 0 || num_offsets < 1) {
    return Status::InvalidArgument("corrupt partition header");
  }
  const size_t payload =
      (static_cast<size_t>(num_member_rows) + num_offsets) * sizeof(int32_t);
  if (bytes.size() != payload) {
    return Status::InvalidArgument("partition payload size mismatch");
  }
  std::vector<int32_t> row_ids(num_member_rows);
  std::vector<int32_t> offsets(num_offsets);
  if (num_member_rows > 0) {
    std::memcpy(row_ids.data(), bytes.data(),
                num_member_rows * sizeof(int32_t));
  }
  std::memcpy(offsets.data(), bytes.data() + num_member_rows * sizeof(int32_t),
              num_offsets * sizeof(int32_t));
  return StrippedPartition::Create(num_rows, std::move(row_ids),
                                   std::move(offsets), stripped != 0);
}

// ---------------------------------------------------------------------------
// DiskPartitionStore

StatusOr<std::unique_ptr<DiskPartitionStore>> DiskPartitionStore::Open(
    std::string directory) {
  std::error_code ec;
  bool owns = false;
  if (directory.empty()) {
    fs::path base = fs::temp_directory_path(ec);
    if (ec) return Status::IoError("no temp directory: " + ec.message());
    // Pick an unused name; PIDs and a counter keep concurrent runs apart.
    // Runs on different threads may Open at once: the relaxed fetch_add
    // only has to hand each attempt a distinct suffix, it publishes
    // nothing. tane-lint: allow(naked-atomic)
    static std::atomic<int> counter{0};
    for (int attempt = 0; attempt < 1000; ++attempt) {
      fs::path candidate =
          base / ("tane-spill-" + std::to_string(::getpid()) + "-" +
                  std::to_string(
                      counter.fetch_add(1, std::memory_order_relaxed)));
      if (fs::create_directory(candidate, ec) && !ec) {
        directory = candidate.string();
        owns = true;
        break;
      }
    }
    if (directory.empty()) {
      return Status::IoError("could not create a spill directory");
    }
  } else if (!fs::exists(directory, ec)) {
    if (!fs::create_directories(directory, ec) || ec) {
      return Status::IoError("cannot create spill directory " + directory +
                             ": " + ec.message());
    }
    owns = true;
  }
  // Private constructor: make_unique cannot reach it, so the raw new is
  // wrapped immediately. tane-lint: allow(naked-new)
  return std::unique_ptr<DiskPartitionStore>(
      new DiskPartitionStore(std::move(directory), owns));
}

DiskPartitionStore::~DiskPartitionStore() {
  std::error_code ec;
  for (size_t segment = 0; segment < segments_.size(); ++segment) {
    if (segments_[segment].fd >= 0) {
      ::close(segments_[segment].fd);
      fs::remove(SegmentPath(static_cast<int32_t>(segment)), ec);
    }
  }
  if (owns_directory_) fs::remove_all(directory_, ec);
}

std::string DiskPartitionStore::SegmentPath(int32_t segment) const {
  return (fs::path(directory_) / ("seg" + std::to_string(segment) + ".bin"))
      .string();
}

Status DiskPartitionStore::OpenNewSegment() {
  const int32_t id = static_cast<int32_t>(segments_.size());
  const std::string path = SegmentPath(id);
  TANE_INJECT_FAILPOINT("disk_store.open_segment");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  if (fd < 0) {
    const int err = errno;
    // O_CREAT can leave an empty file behind on some failures; don't.
    std::error_code ec;
    fs::remove(path, ec);
    return Status::IoError("cannot create segment " + path + ": " +
                           std::strerror(err));
  }
  segments_.push_back(Segment{fd, 0, 0, false});
  return Status::OK();
}

Status DiskPartitionStore::WriteRecordOnce(int fd, std::string_view record,
                                           int64_t offset) {
  TANE_INJECT_FAILPOINT("disk_store.put");
  size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::pwrite(fd, record.data() + written, record.size() - written,
                 offset + static_cast<int64_t>(written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status DiskPartitionStore::ReadRecordOnce(int fd, char* buffer, int64_t size,
                                          int64_t offset) {
  TANE_INJECT_FAILPOINT("disk_store.get");
  int64_t read = 0;
  while (read < size) {
    const ssize_t n = ::pread(fd, buffer + read, size - read, offset + read);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IoError("segment truncated");
    read += n;
  }
  return Status::OK();
}

void DiskPartitionStore::CleanupFailedWrite(int32_t segment_id) {
  Segment& segment = segments_[segment_id];
  if (segment.fd < 0) return;
  if (segment.live_partitions == 0) {
    // Nothing durable lives here: drop the whole torn segment file.
    ::close(segment.fd);
    segment.fd = -1;
    segment.sealed = true;
    std::error_code ec;
    fs::remove(SegmentPath(segment_id), ec);
    return;
  }
  // Earlier records are still live; just cut the partial record off. The
  // truncate is best-effort (the primary write error is already being
  // surfaced), but a failure means a torn record stays on disk — log it.
  if (::ftruncate(segment.fd, segment.bytes) != 0) {
    TANE_LOG(Warning) << "could not truncate torn spill record in "
                      << SegmentPath(segment_id) << ": "
                      << std::strerror(errno);
  }
}

void DiskPartitionStore::DropSegmentIfDead(int32_t segment_id) {
  Segment& segment = segments_[segment_id];
  if (segment.fd < 0 || !segment.sealed || segment.live_partitions > 0) {
    return;
  }
  ::close(segment.fd);
  segment.fd = -1;
  std::error_code ec;
  fs::remove(SegmentPath(segment_id), ec);
}

StatusOr<int64_t> DiskPartitionStore::Put(StrippedPartition partition) {
  WriterMutexLock lock(&mu_);
  if (segments_.empty() || segments_.back().sealed) {
    TANE_RETURN_IF_ERROR(OpenNewSegment());
  }
  const int32_t segment_id = static_cast<int32_t>(segments_.size()) - 1;
  Segment& segment = segments_[segment_id];

  // Record layout: CRC32 of the payload, then the serialized partition.
  std::string record;
  {
    const std::string payload = SerializePartition(partition);
    record.reserve(sizeof(uint32_t) + payload.size());
    AppendPod(&record, Crc32(payload));
    record += payload;
  }

  const int64_t offset = segment.bytes;
  const Status status = RetryWithBackoff(retry_policy_, [&] {
    return WriteRecordOnce(segment.fd, record, offset);
  });
  if (!status.ok()) {
    CleanupFailedWrite(segment_id);
    return Status(status.code(), "spill write to " + SegmentPath(segment_id) +
                                     " failed: " + status.message());
  }
  segment.bytes += static_cast<int64_t>(record.size());
  ++segment.live_partitions;
  bytes_written_ += static_cast<int64_t>(record.size());
  if (metrics_ != nullptr) {
    metrics_->AddShared(obs::kSpillWrites, 1);
    metrics_->AddShared(obs::kSpillBytesWritten,
                        static_cast<int64_t>(record.size()));
  }
  // The partition now lives on disk; its in-memory buffers are free for
  // reuse by the next product.
  if (pool_ != nullptr) pool_->Recycle(std::move(partition));

  const int64_t handle = entries_.Add(
      Entry{segment_id, offset, static_cast<int64_t>(record.size())});
  if (segment.bytes >= kSegmentBytes) segment.sealed = true;
  return handle;
}

StatusOr<StrippedPartition> DiskPartitionStore::Get(int64_t handle) {
  // Reads share the lock: concurrent preads at distinct offsets are safe,
  // and the segment behind a live handle cannot be unlinked while readers
  // hold the shared lock (Release takes it exclusively).
  ReaderMutexLock lock(&mu_);
  const Entry* found = entries_.Find(handle);
  if (found == nullptr) {
    return Status::NotFound("no partition with handle " +
                            std::to_string(handle));
  }
  const Entry& entry = *found;
  const Segment& segment = segments_[entry.segment];
  std::string record(entry.size, '\0');
  const Status status = RetryWithBackoff(retry_policy_, [&] {
    return ReadRecordOnce(segment.fd, record.data(), entry.size, entry.offset);
  });
  if (!status.ok()) {
    return Status(status.code(), "spill read from " +
                                     SegmentPath(entry.segment) +
                                     " failed: " + status.message());
  }

  std::string_view view(record);
  uint32_t stored_crc = 0;
  if (!ReadPod(&view, &stored_crc)) {
    return Status::IoError("spill record in " + SegmentPath(entry.segment) +
                           " too short for its checksum");
  }
  if (Crc32(view) != stored_crc) {
    return Status::IoError("spill segment " + SegmentPath(entry.segment) +
                           " corrupt: checksum mismatch for handle " +
                           std::to_string(handle));
  }
  if (metrics_ != nullptr) {
    metrics_->AddShared(obs::kSpillReads, 1);
    metrics_->AddShared(obs::kSpillBytesRead, entry.size);
  }
  return DeserializePartition(view);
}

Status DiskPartitionStore::Release(int64_t handle) {
  WriterMutexLock lock(&mu_);
  const std::optional<Entry> entry = entries_.Take(handle);
  if (!entry.has_value()) {
    return Status::NotFound("release of unknown handle " +
                            std::to_string(handle));
  }
  const int32_t segment_id = entry->segment;
  --segments_[segment_id].live_partitions;
  // The newest segment is sealed on release pressure too: once TANE starts
  // releasing a level, the segments holding it should become reclaimable
  // even if they never filled up.
  if (segment_id == static_cast<int32_t>(segments_.size()) - 1 &&
      segments_[segment_id].live_partitions == 0) {
    segments_[segment_id].sealed = true;
  }
  DropSegmentIfDead(segment_id);
  return Status::OK();
}

int64_t DiskPartitionStore::disk_bytes() const {
  ReaderMutexLock lock(&mu_);
  int64_t total = 0;
  for (const Segment& segment : segments_) {
    if (segment.fd >= 0) total += segment.bytes;
  }
  return total;
}

// ---------------------------------------------------------------------------
// AutoPartitionStore

StatusOr<int64_t> AutoPartitionStore::Put(StrippedPartition partition) {
  WriterMutexLock lock(&mu_);
  int64_t inner = 0;
  if (disk_ == nullptr) {
    TANE_ASSIGN_OR_RETURN(inner, memory_.Put(std::move(partition)));
  } else {
    TANE_ASSIGN_OR_RETURN(inner, disk_->Put(std::move(partition)));
  }
  const int64_t handle = inner_handles_.Add(inner);
  if (disk_ == nullptr && budget_bytes_ > 0 &&
      memory_.resident_bytes() > budget_bytes_) {
    if (in_window_) {
      // Workers may hold Peek borrows into the memory store; migrating now
      // would free the partitions under them. Spill at the window boundary.
      pending_spill_ = true;
    } else {
      TANE_RETURN_IF_ERROR(SpillToDisk());
    }
  }
  return handle;
}

void AutoPartitionStore::BeginTaskWindow() {
  WriterMutexLock lock(&mu_);
  in_window_ = true;
}

Status AutoPartitionStore::EndTaskWindow() {
  WriterMutexLock lock(&mu_);
  in_window_ = false;
  if (!pending_spill_ || disk_ != nullptr) {
    pending_spill_ = false;
    return Status::OK();
  }
  pending_spill_ = false;
  return SpillToDisk();
}

Status AutoPartitionStore::SpillToDisk() {
  // The span makes the migration visible in the trace timeline; its counter
  // deltas show the spill writes it performed.
  obs::SpanGuard span(tracer_, "spill", metrics_);
  TANE_ASSIGN_OR_RETURN(disk_, DiskPartitionStore::Open(spill_directory_));
  if (pool_ != nullptr) disk_->set_buffer_pool(pool_);
  if (metrics_ != nullptr) disk_->set_metrics(metrics_);
  // Partitions migrate in handle order; the outer handles (the only thing
  // callers see) stay unchanged.
  int64_t migrated = 0;
  for (int64_t handle = inner_handles_.begin_handle();
       handle < inner_handles_.end_handle(); ++handle) {
    int64_t* inner = inner_handles_.Find(handle);
    if (inner == nullptr) continue;
    TANE_ASSIGN_OR_RETURN(StrippedPartition partition, memory_.Get(*inner));
    TANE_ASSIGN_OR_RETURN(const int64_t disk_handle,
                          disk_->Put(std::move(partition)));
    TANE_RETURN_IF_ERROR(memory_.Release(*inner));
    *inner = disk_handle;
    ++migrated;
  }
  if (metrics_ != nullptr) metrics_->SetGauge(obs::kDegradedToDisk, 1);
  span.AddArg("migrated_partitions", migrated);
  // A mid-run spill is exactly the kind of state transition a postmortem
  // wants on the timeline: runs that died shortly after degrading to disk
  // read very differently from runs that died in memory.
  if (obs::FlightRecorder* recorder = obs::FlightRecorder::active()) {
    recorder->Record(-1, obs::FlightEventType::kSpill, "spill-to-disk",
                     migrated);
  }
  return Status::OK();
}

StatusOr<StrippedPartition> AutoPartitionStore::Get(int64_t handle) {
  ReaderMutexLock lock(&mu_);
  const int64_t* inner = inner_handles_.Find(handle);
  if (inner == nullptr) {
    return Status::NotFound("no partition with handle " +
                            std::to_string(handle));
  }
  return disk_ == nullptr ? memory_.Get(*inner) : disk_->Get(*inner);
}

Status AutoPartitionStore::Release(int64_t handle) {
  WriterMutexLock lock(&mu_);
  const std::optional<int64_t> inner = inner_handles_.Take(handle);
  if (!inner.has_value()) {
    return Status::NotFound("release of unknown handle " +
                            std::to_string(handle));
  }
  return disk_ == nullptr ? memory_.Release(*inner) : disk_->Release(*inner);
}

const StrippedPartition* AutoPartitionStore::Peek(int64_t handle) const {
  ReaderMutexLock lock(&mu_);
  if (disk_ != nullptr) return nullptr;
  const int64_t* inner = inner_handles_.Find(handle);
  return inner == nullptr ? nullptr : memory_.Peek(*inner);
}

}  // namespace tane
