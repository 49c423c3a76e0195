#ifndef TANE_UTIL_CRC32_H_
#define TANE_UTIL_CRC32_H_

#include <cstdint>
#include <string_view>

namespace tane {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`. Pass the return
/// value of a previous call as `seed` to checksum data incrementally.
/// Used by PartitionStore to detect torn or corrupted spill records
/// before they are deserialized.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

}  // namespace tane

#endif  // TANE_UTIL_CRC32_H_
