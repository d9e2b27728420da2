#include "util/crc32.h"

#include <array>

namespace asteria::util {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so one
// lookup per byte of an 8-byte word folds the whole word at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (; size >= 8; bytes += 8, size -= 8) {
    crc = kTables[7][(crc ^ bytes[0]) & 0xFFu] ^
          kTables[6][((crc >> 8) ^ bytes[1]) & 0xFFu] ^
          kTables[5][((crc >> 16) ^ bytes[2]) & 0xFFu] ^
          kTables[4][(crc >> 24) ^ bytes[3]] ^ kTables[3][bytes[4]] ^
          kTables[2][bytes[5]] ^ kTables[1][bytes[6]] ^ kTables[0][bytes[7]];
  }
  for (; size > 0; ++bytes, --size) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace asteria::util
