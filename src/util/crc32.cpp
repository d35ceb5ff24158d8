#include "util/crc32.hpp"

#include <array>

namespace gompresso {
namespace {

// Slice-by-4 tables, generated at static-init time from the reflected
// polynomial 0xEDB88320.
struct Crc32Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

const Crc32Tables kTables;

}  // namespace

std::uint32_t crc32(ByteSpan data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xFFu] ^ kTables.t[2][(crc >> 8) & 0xFFu] ^
          kTables.t[1][(crc >> 16) & 0xFFu] ^ kTables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n--) crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
  return ~crc;
}

namespace {

// A linear operator on 32-bit CRC states over GF(2): column k is the
// image of state bit k.
using Gf2Matrix = std::array<std::uint32_t, 32>;

std::uint32_t gf2_times(const Gf2Matrix& mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (unsigned k = 0; vec != 0; ++k, vec >>= 1) {
    if ((vec & 1u) != 0) sum ^= mat[k];
  }
  return sum;
}

Gf2Matrix gf2_square(const Gf2Matrix& mat) {
  Gf2Matrix sq;
  for (unsigned k = 0; k < 32; ++k) sq[k] = gf2_times(mat, mat[k]);
  return sq;
}

}  // namespace

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  if (len_b == 0) return crc_a;
  // The operator that feeds one zero bit through the reflected CRC
  // register; squared twice it feeds four, and once more one zero byte.
  Gf2Matrix op;
  op[0] = 0xEDB88320u;
  for (unsigned k = 1; k < 32; ++k) op[k] = 1u << (k - 1);
  op = gf2_square(gf2_square(gf2_square(op)));
  // Apply op^(2^j) for every set bit j of len_b: crc_a moved past len_b
  // zero bytes. crc32() is affine in its input, and the constant parts
  // of the two sides (its pre- and post-inversion) cancel, so the
  // shifted crc_a and crc_b combine by a plain XOR.
  while (true) {
    if ((len_b & 1u) != 0) crc_a = gf2_times(op, crc_a);
    len_b >>= 1;
    if (len_b == 0) break;
    op = gf2_square(op);
  }
  return crc_a ^ crc_b;
}

}  // namespace gompresso
