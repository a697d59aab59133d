// LaneWord<N>: the SIMD word the bit-parallel (PPSFP) batch engine is
// templated over. Lane k of a word carries one net's value under fault k, so
// the engine's whole inner loop is and/or/xor/not over these words; widening
// the word widens the campaign batch. N = 64 is the scalar baseline
// (one std::uint64_t), N = 256 maps to one AVX2 ymm register and N = 512 to
// one AVX-512 zmm register when the translation unit is compiled with the
// matching -m flags. The type is built on the GCC/Clang vector extension, so
// the same source compiles to scalar, SSE-pair, ymm or zmm code purely from
// the per-TU target flags — which is how batchsim{64,256,512}.cpp provide
// three ISA paths behind one runtime-dispatched interface (batchsim.hpp).
//
// LaneMask is the width-agnostic companion: a plain (non-vector) bitset of
// up to kMaxLanes lanes used at the public BatchSim boundary, so callers
// (replay loop, campaign drivers) iterate diverged/live lanes without
// knowing the dispatched width.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#if defined(__AVX__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace gpf::gate {

/// One bit per batch lane, sized for the widest engine this build can
/// instantiate. Lanes >= the active width are simply never set.
class LaneMask {
 public:
  static constexpr unsigned kMaxLanes = 512;
  static constexpr unsigned kChunks = kMaxLanes / 64;

  constexpr LaneMask() = default;

  bool any() const {
    std::uint64_t m = 0;
    for (const std::uint64_t c : w_) m |= c;
    return m != 0;
  }
  bool test(unsigned lane) const { return (w_[lane >> 6] >> (lane & 63)) & 1; }
  void set(unsigned lane) { w_[lane >> 6] |= std::uint64_t{1} << (lane & 63); }
  void clear(unsigned lane) {
    w_[lane >> 6] &= ~(std::uint64_t{1} << (lane & 63));
  }
  unsigned count() const {
    unsigned n = 0;
    for (const std::uint64_t c : w_) n += static_cast<unsigned>(std::popcount(c));
    return n;
  }
  std::uint64_t chunk(unsigned i) const { return w_[i]; }
  void set_chunk(unsigned i, std::uint64_t v) { w_[i] = v; }

  LaneMask& operator&=(const LaneMask& o) {
    for (unsigned i = 0; i < kChunks; ++i) w_[i] &= o.w_[i];
    return *this;
  }
  LaneMask& operator|=(const LaneMask& o) {
    for (unsigned i = 0; i < kChunks; ++i) w_[i] |= o.w_[i];
    return *this;
  }
  friend LaneMask operator&(LaneMask a, const LaneMask& b) { return a &= b; }
  friend LaneMask operator|(LaneMask a, const LaneMask& b) { return a |= b; }
  friend bool operator==(const LaneMask& a, const LaneMask& b) {
    return a.w_ == b.w_;
  }

 private:
  std::array<std::uint64_t, kChunks> w_{};
};

/// Visit every set lane of `m` in ascending order.
template <class F>
inline void for_each_lane(const LaneMask& m, F&& f) {
  for (unsigned c = 0; c < LaneMask::kChunks; ++c)
    for (std::uint64_t rest = m.chunk(c); rest; rest &= rest - 1)
      f(static_cast<unsigned>(c * 64 + std::countr_zero(rest)));
}

/// The GCC/Clang extended-vector type behind each width. The vector_size
/// argument must not be template-dependent (GCC silently drops dependent
/// attributes), hence one explicit specialization per supported width.
template <unsigned N>
struct LaneVec;
template <>
struct LaneVec<64> {
  typedef std::uint64_t type __attribute__((vector_size(8)));
};
template <>
struct LaneVec<256> {
  typedef std::uint64_t type __attribute__((vector_size(32)));
};
template <>
struct LaneVec<512> {
  typedef std::uint64_t type __attribute__((vector_size(64)));
};

/// N fault lanes packed into one SIMD register's worth of bits. Also doubles
/// as the engine-internal lane mask (diff/force masks share the bit layout).
template <unsigned N>
struct LaneWord {
  static_assert(N >= 64 && N % 64 == 0 && N <= LaneMask::kMaxLanes,
                "lane width must be a multiple of 64, at most kMaxLanes");
  static constexpr unsigned kLanes = N;
  static constexpr unsigned kChunks = N / 64;
  using Vec = typename LaneVec<N>::type;

  Vec v;

  static LaneWord zero() { return LaneWord{Vec{}}; }
  static LaneWord ones() { return ~zero(); }
  /// All-lanes broadcast of one golden bit, without a branch: golden bits
  /// are data, so a branch here mispredicts at their rate.
  static LaneWord broadcast(std::uint8_t bit) {
    return LaneWord{Vec{} - static_cast<std::uint64_t>(bit != 0)};
  }
  /// Word with exactly lane `lane` set.
  static LaneWord bit(unsigned lane) {
    LaneWord b = zero();
    b.v[lane >> 6] = std::uint64_t{1} << (lane & 63);
    return b;
  }
  /// Word carrying the low kLanes bits of a LaneMask (bits beyond N, which a
  /// narrower engine can never have set, are dropped).
  static LaneWord from_mask(const LaneMask& m) {
    LaneWord w = zero();
    for (unsigned i = 0; i < kChunks; ++i) w.v[i] = m.chunk(i);
    return w;
  }

  friend LaneWord operator~(LaneWord a) { return {~a.v}; }
  friend LaneWord operator&(LaneWord a, LaneWord b) { return {a.v & b.v}; }
  friend LaneWord operator|(LaneWord a, LaneWord b) { return {a.v | b.v}; }
  friend LaneWord operator^(LaneWord a, LaneWord b) { return {a.v ^ b.v}; }
  LaneWord& operator&=(LaneWord o) {
    v &= o.v;
    return *this;
  }
  LaneWord& operator|=(LaneWord o) {
    v |= o.v;
    return *this;
  }
  LaneWord& operator^=(LaneWord o) {
    v ^= o.v;
    return *this;
  }

  /// One vector test on the AVX paths (their TUs define the macros) rather
  /// than extracting and OR-ing every 64-bit chunk.
  bool any() const {
#if defined(__AVX512F__)
    if constexpr (N == 512)
      return _mm512_test_epi64_mask(reinterpret_cast<__m512i>(v),
                                    reinterpret_cast<__m512i>(v)) != 0;
#endif
#if defined(__AVX__)
    if constexpr (N == 256)
      return !_mm256_testz_si256(reinterpret_cast<__m256i>(v),
                                 reinterpret_cast<__m256i>(v));
#endif
    std::uint64_t m = 0;
    for (unsigned i = 0; i < kChunks; ++i) m |= v[i];
    return m != 0;
  }
  bool test(unsigned lane) const { return (v[lane >> 6] >> (lane & 63)) & 1; }
  void set(unsigned lane) { v[lane >> 6] |= std::uint64_t{1} << (lane & 63); }
  void clear(unsigned lane) {
    v[lane >> 6] &= ~(std::uint64_t{1} << (lane & 63));
  }

  LaneMask to_mask() const {
    LaneMask m;
    for (unsigned i = 0; i < kChunks; ++i) m.set_chunk(i, v[i]);
    return m;
  }
};

}  // namespace gpf::gate
