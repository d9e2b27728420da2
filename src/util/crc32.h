// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib/PNG variant) — the
// one checksum the whole tree uses. Lives in util (the base layer) so both
// the store containers and the util request log can frame lines with it;
// store::Crc32 forwards here. Computed slicing-by-8: eight table lookups
// fold each 8-byte word, with the same values as the bytewise definition.
#pragma once

#include <cstddef>
#include <cstdint>

namespace asteria::util {

// Chain blocks by passing the previous return value as `seed`.
std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

}  // namespace asteria::util
