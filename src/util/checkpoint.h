#ifndef TANE_UTIL_CHECKPOINT_H_
#define TANE_UTIL_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace tane {

/// Crash-safe file primitives shared by the checkpoint subsystem and every
/// artifact writer (--report, --trace, bench --json). The durability
/// contract is the classic temp-file protocol:
///
///   1. write the full contents to `<path>.tmp.<pid>` in the target
///      directory (same filesystem, so the rename below is atomic),
///   2. fsync the temp file, so its bytes are durable before it becomes
///      visible under the final name,
///   3. rename(2) it over `path` — atomic on POSIX, so readers see either
///      the complete old file or the complete new file, never a torn mix,
///   4. fsync the containing directory, so the rename itself is durable.
///
/// A crash (including SIGKILL) at any point leaves either the previous
/// file intact or the new file complete; at worst a stale `.tmp.` file
/// remains, which writers ignore and the next successful write of the same
/// path removes. Each step carries a FailPoint ("checkpoint.write_temp",
/// "checkpoint.fsync", "checkpoint.rename", "checkpoint.dir_fsync") so the
/// chaos harness can kill or fault a real process at every transition.

/// Atomically replaces `path` with `contents` using the protocol above.
[[nodiscard]] Status AtomicWriteFile(const std::string& path,
                                     std::string_view contents);

/// Reads the whole file into a string ("checkpoint.read" failpoint).
[[nodiscard]] StatusOr<std::string> ReadFileToString(const std::string& path);

/// CRC32-framed container format for versioned snapshot files. A file is a
/// fixed header followed by tagged frames; every frame carries the CRC of
/// its payload, validated before the payload is interpreted, so truncation
/// or bit rot is detected instead of deserialized. This mirrors the
/// PartitionStore spill record layout ([crc32][payload]) with an
/// explicit tag and length so readers can skip frames they do not know.
///
/// Frame layout (little-endian, like the partition serializer):
///   uint32 tag | uint64 payload_size | uint32 crc32(payload) | payload
void AppendFrame(std::string* out, uint32_t tag, std::string_view payload);

/// Reads one frame off the front of `in`, advancing it. Returns
/// kFailedPrecondition ("snapshot corrupt: ...") on truncation or checksum
/// mismatch — deliberately not kIoError, which retry layers treat as
/// transient.
[[nodiscard]] Status ReadFrame(std::string_view* in, uint32_t* tag,
                               std::string_view* payload);

}  // namespace tane

#endif  // TANE_UTIL_CHECKPOINT_H_
