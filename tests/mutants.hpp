// Mutants of a valid byte string, for the disk-parser fuzz loops: bit flips,
// truncation at every length up to 64 bytes (keeping a prefix, and cutting
// as many bytes off the end), appended bytes, and each 4-byte window (every
// count or length field among them) set to 0xFFFFFFFF. A fixed-seed rng
// makes every run feed the same inputs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace gpf::test {

inline std::vector<std::vector<std::uint8_t>> byte_mutants(
    const std::vector<std::uint8_t>& base, std::mt19937_64& rng) {
  std::vector<std::vector<std::uint8_t>> out;
  if (!base.empty()) {
    for (int i = 0; i < 48; ++i) {
      std::vector<std::uint8_t> b = base;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int k = 0; k < flips; ++k) {
        const std::size_t bit = rng() % (b.size() * 8);
        b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      out.push_back(std::move(b));
    }
  }
  for (std::size_t len = 0; len < std::min<std::size_t>(base.size(), 64);
       ++len) {
    out.emplace_back(base.begin(), base.begin() + static_cast<long>(len));
    out.emplace_back(base.begin(), base.end() - static_cast<long>(len + 1));
  }
  for (int extra = 1; extra <= 8; ++extra) {
    std::vector<std::uint8_t> b = base;
    for (int k = 0; k < extra; ++k) b.push_back(static_cast<std::uint8_t>(rng()));
    out.push_back(std::move(b));
  }
  for (std::size_t at = 0; at + 4 <= base.size(); ++at) {
    std::vector<std::uint8_t> b = base;
    std::fill(b.begin() + static_cast<long>(at),
              b.begin() + static_cast<long>(at + 4), 0xFF);
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace gpf::test
