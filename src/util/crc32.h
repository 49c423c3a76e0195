#ifndef TANE_UTIL_CRC32_H_
#define TANE_UTIL_CRC32_H_

#include <cstdint>
#include <string_view>

namespace tane {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`. Pass the return
/// value of a previous call as `seed` to checksum data incrementally.
/// Computed slice-by-8 (8 input bytes per step from eight 256-entry
/// tables; the tail, and every byte on big-endian hosts, one at a time),
/// with the same values as the byte-at-a-time definition. PartitionStore
/// checksums every spill record on write and verifies it on read, outside
/// its lock; checkpoint frames and fingerprints use the same function.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

}  // namespace tane

#endif  // TANE_UTIL_CRC32_H_
