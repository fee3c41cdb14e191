#include "digruber/net/wire/crc32c.hpp"

#include <array>

namespace digruber::net::wire {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables: `t[0]` advances the CRC by one byte; `t[k][b]` is
/// byte `b`'s contribution after k more zero bytes, so eight lookups fold
/// eight input bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr std::array<Table, 8> kTables = make_tables();

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  const auto& t = kTables;
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    // The first four bytes, read little-endian whatever the host order.
    const std::uint32_t lo =
        crc ^ (std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
               std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
  return ~crc;
}

}  // namespace digruber::net::wire
