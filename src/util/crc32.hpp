// CRC-32 (IEEE 802.3 polynomial, the same checksum gzip uses).
//
// Every compressed Gompresso block stores the CRC of its uncompressed
// content; the decompressor verifies it so that corruption-injection tests
// can assert detection rather than silent garbage.
#pragma once

#include <cstdint>

#include "util/common.hpp"

namespace gompresso {

/// Computes CRC-32 over `data`, continuing from `seed` (pass 0 to start).
std::uint32_t crc32(ByteSpan data, std::uint32_t seed = 0);

/// CRC-32 of the concatenation A‖B from crc_a = crc32(A), crc_b =
/// crc32(B) and len_b = |B|, without touching the bytes (zlib's GF(2)
/// operator method: shift crc_a through len_b zero bytes by repeated
/// squaring of the one-zero-bit operator, O(log len_b) 32x32 matrix
/// products). This lets segments of one gzip member be checksummed on
/// different threads and folded in order afterwards.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

}  // namespace gompresso
