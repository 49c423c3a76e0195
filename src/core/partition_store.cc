#include "core/partition_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <utility>
#include <variant>

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

// Appends SerializePartition's image of `partition` to `out`.
void AppendSerialized(const StrippedPartition& partition, std::string* out) {
  const auto& rows = partition.row_ids();
  const auto& offsets = partition.class_offsets();
  out->reserve(out->size() + 32 +
               (rows.size() + offsets.size()) * sizeof(int32_t));
  AppendPod(out, kPartitionMagic);
  AppendPod(out, static_cast<uint8_t>(partition.stripped() ? 1 : 0));
  AppendPod(out, partition.num_rows());
  AppendPod(out, static_cast<int64_t>(rows.size()));
  AppendPod(out, static_cast<int64_t>(offsets.size()));
  // Empty vectors may have a null data(); append/memcpy forbid that even
  // for zero sizes.
  if (!rows.empty()) {
    out->append(reinterpret_cast<const char*>(rows.data()),
                rows.size() * sizeof(int32_t));
  }
  if (!offsets.empty()) {
    out->append(reinterpret_cast<const char*>(offsets.data()),
                offsets.size() * sizeof(int32_t));
  }
}

// A spill record: the CRC32 of the serialized partition, then the
// serialized partition, built in one buffer.
std::string EncodeRecord(const StrippedPartition& partition) {
  std::string record(sizeof(uint32_t), '\0');
  AppendSerialized(partition, &record);
  const uint32_t crc =
      Crc32(std::string_view(record).substr(sizeof(uint32_t)));
  std::memcpy(record.data(), &crc, sizeof(crc));
  return record;
}

}  // namespace

std::string SerializePartition(const StrippedPartition& partition) {
  std::string out;
  AppendSerialized(partition, &out);
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
// PartitionStore

StatusOr<std::unique_ptr<PartitionStore>> PartitionStore::Open(
    std::string directory) {
  auto store = std::make_unique<PartitionStore>(/*budget_bytes=*/0,
                                                std::move(directory));
  {
    MutexLock lock(&store->mu_);
    store->spill_every_put_ = true;
    TANE_RETURN_IF_ERROR(store->OpenDirectory());
  }
  return store;
}

PartitionStore::~PartitionStore() {
  std::error_code ec;
  for (size_t segment = 0; segment < segments_.size(); ++segment) {
    if (segments_[segment].fd >= 0) {
      ::close(segments_[segment].fd);
      fs::remove(SegmentPath(static_cast<int32_t>(segment)), ec);
    }
  }
  if (owns_directory_) fs::remove_all(directory_, ec);
}

Status PartitionStore::OpenDirectory() {
  if (!directory_.empty()) return Status::OK();
  std::error_code ec;
  if (spill_directory_.empty()) {
    fs::path base = fs::temp_directory_path(ec);
    if (ec) return Status::IoError("no temp directory: " + ec.message());
    // Pick an unused name; PIDs and a counter keep concurrent runs apart.
    // Runs on different threads may open stores at once: the relaxed
    // fetch_add only has to hand each attempt a distinct suffix, it
    // publishes nothing. tane-lint: allow(naked-atomic)
    static std::atomic<int> counter{0};
    for (int attempt = 0; attempt < 1000; ++attempt) {
      fs::path candidate =
          base / ("tane-spill-" + std::to_string(::getpid()) + "-" +
                  std::to_string(
                      counter.fetch_add(1, std::memory_order_relaxed)));
      if (fs::create_directory(candidate, ec) && !ec) {
        directory_ = candidate.string();
        owns_directory_ = true;
        return Status::OK();
      }
    }
    return Status::IoError("could not create a spill directory");
  }
  if (!fs::exists(spill_directory_, ec)) {
    if (!fs::create_directories(spill_directory_, ec) || ec) {
      return Status::IoError("cannot create spill directory " +
                             spill_directory_ + ": " + ec.message());
    }
    owns_directory_ = true;
  }
  directory_ = spill_directory_;
  return Status::OK();
}

std::string PartitionStore::SegmentPath(int32_t segment) const {
  return (fs::path(directory_) / ("seg" + std::to_string(segment) + ".bin"))
      .string();
}

Status PartitionStore::OpenNewSegment() {
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
  segments_.push_back(Segment{.fd = fd});
  return Status::OK();
}

Status PartitionStore::WriteRecordOnce(int fd, std::string_view record,
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

Status PartitionStore::ReadRecordOnce(int fd, char* buffer, int64_t size,
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

void PartitionStore::CleanupFailedWrite(int32_t segment_id) {
  Segment& segment = segments_[segment_id];
  if (segment.fd < 0) return;
  if (segment.live_partitions == 0) {
    // Nothing durable lives here: drop the whole torn segment file.
    segment.sealed = true;
    DropSegmentIfDead(segment_id);
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

void PartitionStore::DropSegmentIfDead(int32_t segment_id) {
  Segment& segment = segments_[segment_id];
  if (segment.fd < 0 || !segment.sealed || segment.live_partitions > 0 ||
      segment.reads_in_flight > 0) {
    return;
  }
  ::close(segment.fd);
  segment.fd = -1;
  std::error_code ec;
  fs::remove(SegmentPath(segment_id), ec);
}

StatusOr<PartitionStore::SpillRecord> PartitionStore::WriteRecord(
    std::string_view record) {
  TANE_RETURN_IF_ERROR(OpenDirectory());
  if (segments_.empty() || segments_.back().sealed) {
    TANE_RETURN_IF_ERROR(OpenNewSegment());
  }
  const int32_t segment_id = static_cast<int32_t>(segments_.size()) - 1;
  Segment& segment = segments_[segment_id];

  const int64_t offset = segment.bytes;
  const Status status = RetryWithBackoff(retry_policy_, [&] {
    return WriteRecordOnce(segment.fd, record, offset);
  });
  if (!status.ok()) {
    CleanupFailedWrite(segment_id);
    return Status(status.code(), "spill write to " + SegmentPath(segment_id) +
                                     " failed: " + status.message());
  }
  const int64_t size = static_cast<int64_t>(record.size());
  segment.bytes += size;
  ++segment.live_partitions;
  if (segment.bytes >= kSegmentBytes) segment.sealed = true;
  bytes_written_ += size;
  if (metrics_ != nullptr) {
    metrics_->AddShared(obs::kSpillWrites, 1);
    metrics_->AddShared(obs::kSpillBytesWritten, size);
  }
  return SpillRecord{segment_id, offset, size};
}

const PartitionStore::Slot* PartitionStore::FindSlot(int64_t handle) const {
  const int64_t slot = handle - base_;
  if (handle < base_ || slot >= static_cast<int64_t>(slots_.size()) ||
      std::holds_alternative<std::monostate>(slots_[slot])) {
    return nullptr;
  }
  return &slots_[slot];
}

PartitionStore::Slot* PartitionStore::FindSlot(int64_t handle) {
  return const_cast<Slot*>(std::as_const(*this).FindSlot(handle));
}

StatusOr<int64_t> PartitionStore::Put(StrippedPartition partition) {
  {
    MutexLock lock(&mu_);
    if (!spill_every_put_) {
      const int64_t handle = base_ + static_cast<int64_t>(slots_.size());
      resident_bytes_ += partition.EstimatedBytes();
      slots_.emplace_back(std::move(partition));
      if (budget_bytes_ > 0 && resident_bytes_ > budget_bytes_) {
        if (in_window_) {
          // Workers may hold Peek borrows of resident partitions; spilling
          // now would free them. Spill at the window boundary.
          pending_spill_ = true;
        } else {
          TANE_RETURN_IF_ERROR(SpillResident());
        }
      }
      return handle;
    }
  }
  // A store never stops spilling every Put, so the record is serialized
  // and checksummed without the lock; only its write at the segment cursor
  // and the new slot need it.
  const std::string record = EncodeRecord(partition);
  MutexLock lock(&mu_);
  TANE_ASSIGN_OR_RETURN(const SpillRecord entry, WriteRecord(record));
  // The partition now lives on disk; its in-memory buffers are free for
  // reuse by the next product.
  if (pool_ != nullptr) pool_->Recycle(std::move(partition));
  slots_.emplace_back(entry);
  return base_ + static_cast<int64_t>(slots_.size()) - 1;
}

StatusOr<StrippedPartition> PartitionStore::Get(int64_t handle) {
  SpillRecord entry;
  int fd = -1;
  {
    MutexLock lock(&mu_);
    const Slot* slot = FindSlot(handle);
    if (slot == nullptr) {
      return Status::NotFound("no partition with handle " +
                              std::to_string(handle));
    }
    if (const auto* partition = std::get_if<StrippedPartition>(slot)) {
      return *partition;
    }
    entry = std::get<SpillRecord>(*slot);
    // Pin the segment: its fd stays open until the unpin below, even if
    // `handle` is released meanwhile.
    Segment& segment = segments_[entry.segment];
    ++segment.reads_in_flight;
    fd = segment.fd;
  }

  // Read and verify without the lock, and decode after the unpin.
  // Concurrent preads, and a pwrite at the cursor, touch disjoint byte
  // ranges of the segment.
  std::string record(entry.size, '\0');
  const Status read = RetryWithBackoff(retry_policy_, [&] {
    return ReadRecordOnce(fd, record.data(), entry.size, entry.offset);
  });
  std::string_view payload(record);
  uint32_t stored_crc = 0;
  const bool has_crc = read.ok() && ReadPod(&payload, &stored_crc);
  const bool intact = has_crc && Crc32(payload) == stored_crc;
  {
    MutexLock lock(&mu_);
    --segments_[entry.segment].reads_in_flight;
    DropSegmentIfDead(entry.segment);
    if (!read.ok()) {
      return Status(read.code(), "spill read from " +
                                     SegmentPath(entry.segment) +
                                     " failed: " + read.message());
    }
    if (!has_crc) {
      return Status::IoError("spill record in " + SegmentPath(entry.segment) +
                             " too short for its checksum");
    }
    if (!intact) {
      return Status::IoError("spill segment " + SegmentPath(entry.segment) +
                             " corrupt: checksum mismatch for handle " +
                             std::to_string(handle));
    }
    if (metrics_ != nullptr) {
      metrics_->AddShared(obs::kSpillReads, 1);
      metrics_->AddShared(obs::kSpillBytesRead, entry.size);
    }
  }
  return DeserializePartition(payload);
}

const StrippedPartition* PartitionStore::Peek(int64_t handle) const {
  MutexLock lock(&mu_);
  // The pointer outlives the lock: the slot table moves no resident
  // partition on a Put or on another handle's Release, so only Release of
  // this handle, or a spill, invalidates it.
  const Slot* slot = FindSlot(handle);
  return slot == nullptr ? nullptr : std::get_if<StrippedPartition>(slot);
}

Status PartitionStore::Release(int64_t handle) {
  MutexLock lock(&mu_);
  Slot* slot = FindSlot(handle);
  if (slot == nullptr) {
    return Status::NotFound("release of unknown handle " +
                            std::to_string(handle));
  }
  if (auto* partition = std::get_if<StrippedPartition>(slot)) {
    resident_bytes_ -= partition->EstimatedBytes();
    if (pool_ != nullptr) pool_->Recycle(std::move(*partition));
  } else {
    const int32_t segment_id = std::get<SpillRecord>(*slot).segment;
    --segments_[segment_id].live_partitions;
    // The newest segment is sealed on release pressure too: once TANE
    // starts releasing a level, the segments holding it should become
    // reclaimable even if they never filled up.
    if (segment_id == static_cast<int32_t>(segments_.size()) - 1 &&
        segments_[segment_id].live_partitions == 0) {
      segments_[segment_id].sealed = true;
    }
    DropSegmentIfDead(segment_id);
  }
  *slot = std::monostate();
  while (!slots_.empty() &&
         std::holds_alternative<std::monostate>(slots_.front())) {
    slots_.pop_front();
    ++base_;
  }
  return Status::OK();
}

void PartitionStore::BeginTaskWindow() {
  MutexLock lock(&mu_);
  in_window_ = true;
}

Status PartitionStore::EndTaskWindow() {
  MutexLock lock(&mu_);
  in_window_ = false;
  if (!pending_spill_) return Status::OK();
  pending_spill_ = false;
  return SpillResident();
}

Status PartitionStore::SpillResident() {
  // The span makes the spill visible in the trace timeline; its counter
  // deltas show the spill writes it performed.
  obs::SpanGuard span(tracer_, "spill", metrics_);
  int64_t migrated = 0;
  for (Slot& slot : slots_) {
    auto* partition = std::get_if<StrippedPartition>(&slot);
    if (partition == nullptr) continue;
    // Dropped only once written: a failed write leaves the rest resident.
    // Encoded under the lock: a budget spill runs on the coordinator,
    // between windows.
    TANE_ASSIGN_OR_RETURN(const SpillRecord record,
                          WriteRecord(EncodeRecord(*partition)));
    resident_bytes_ -= partition->EstimatedBytes();
    if (pool_ != nullptr) pool_->Recycle(std::move(*partition));
    slot = record;
    ++migrated;
  }
  spill_every_put_ = true;
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

int64_t PartitionStore::disk_bytes() const {
  MutexLock lock(&mu_);
  int64_t total = 0;
  for (const Segment& segment : segments_) {
    if (segment.fd >= 0) total += segment.bytes;
  }
  return total;
}

}  // namespace tane
