// Little-endian byte serialization helpers and CRC32 for the campaign store.
// Records are written field-by-field (never by struct memcpy) so the on-disk
// format is independent of host padding and endianness.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace gpf::store {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), as used by zip/png.
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0);

/// Appends little-endian fields to a byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// Fixed-width NUL-padded string field (truncates over-long names).
  void fixed_str(const std::string& s, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i)
      out_.push_back(i < s.size() ? static_cast<std::uint8_t>(s[i]) : 0);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Reads little-endian fields from a byte buffer; throws on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string fixed_str(std::size_t width) {
    const auto b = take(width);
    std::size_t len = 0;
    while (len < width && b[len] != 0) ++len;
    return std::string(reinterpret_cast<const char*>(b.data()), len);
  }
  /// Reads a u32 element count and checks that that many elements of
  /// `elem_bytes` each fit in the bytes left, so a corrupt count cannot size
  /// an allocation. `what` names the field in the error.
  std::size_t count(std::size_t elem_bytes, const std::string& what) {
    const std::uint32_t n = u32();
    if (n > remaining() / elem_bytes)
      throw std::runtime_error(what + ": count " + std::to_string(n) +
                               " exceeds the " + std::to_string(remaining()) +
                               " bytes left");
    return n;
  }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (data_.size() - pos_ < n)
      throw std::runtime_error("store record: truncated payload");
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace gpf::store
