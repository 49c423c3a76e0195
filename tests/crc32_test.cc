#include "util/crc32.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "util/random.h"

namespace tane {
namespace {

TEST(Crc32Test, MatchesKnownVectors) {
  // Standard CRC-32 (IEEE) check values.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  const uint32_t clean = Crc32(data);
  for (size_t byte : {size_t{0}, data.size() / 2, data.size() - 1}) {
    std::string corrupt = data;
    corrupt[byte] ^= 0x01;
    EXPECT_NE(Crc32(corrupt), clean) << "flip at byte " << byte;
  }
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "partition payload bytes";
  const uint32_t whole = Crc32(data);
  const uint32_t split = Crc32(data.substr(8), Crc32(data.substr(0, 8)));
  EXPECT_EQ(split, whole);
}

TEST(Crc32Test, SeedChangesResult) {
  EXPECT_NE(Crc32("abc", 0), Crc32("abc", 1));
}

// CRC-32 one bit at a time straight from the polynomial, with no table.
uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t crc = ~0u;
  for (char ch : data) {
    crc ^= static_cast<uint8_t>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

// Every length 0..1100 at every byte offset 0..7 crosses each boundary of
// the 8-byte step: aligned and unaligned starts, and tails of 0..7 bytes.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLength = 1100;
  for (uint64_t seed : {uint64_t{0}, uint64_t{0xDEADBEEF}}) {
    Rng rng(seed);
    std::string buffer(kMaxLength + 8, '\0');
    for (char& ch : buffer) ch = static_cast<char>(rng.Next());
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t length = 0; length <= kMaxLength; ++length) {
        const std::string_view data(buffer.data() + offset, length);
        ASSERT_EQ(Crc32(data), BitwiseCrc32(data))
            << "seed " << seed << ", offset " << offset << ", length "
            << length;
      }
    }
  }

  Rng rng(0xDEADBEEF);
  std::string buffer(300, '\0');
  for (char& ch : buffer) ch = static_cast<char>(rng.Next());
  const std::string_view data(buffer);
  const uint32_t whole = BitwiseCrc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32(data.substr(split), Crc32(data.substr(0, split))), whole)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace tane
