#include "arch/exec.hpp"

#include <algorithm>
#include <cmath>

#include "common/bitops.hpp"
#include "softfloat/fp32.hpp"
#include "softfloat/intops.hpp"
#include "softfloat/sfu.hpp"

namespace gpf::arch {

using isa::Op;

namespace {

// NaN results are pinned in integer logic. x86 returns the NaN of the first
// source operand, and which operand of a commutative op comes first is the
// compiler's choice (a vectorized loop and a scalar call can differ). The
// rules below are what the scalar-only FastExec returned on x86-64 (GCC 12),
// so exports stay byte-identical; test_exec pins them.
constexpr std::uint32_t kQuietBit = 0x00400000u;
constexpr bool is_nan(std::uint32_t x) { return (x & 0x7FFFFFFFu) > 0x7F800000u; }
constexpr bool is_snan(std::uint32_t x) { return is_nan(x) && !(x & kQuietBit); }

/// FADD/FMUL: the first NaN of (a, b), quieted; otherwise `r`.
constexpr std::uint32_t nan_or(std::uint32_t a, std::uint32_t b, std::uint32_t r) {
  return is_nan(a) ? a | kQuietBit : is_nan(b) ? b | kQuietBit : r;
}

/// FMIN/FMAX (C fmin/fmax): a quiet NaN yields the other operand; two NaNs or
/// a signaling one yield that NaN, quieted, `a` first.
constexpr std::uint32_t min_max_nan(std::uint32_t a, std::uint32_t b) {
  if (is_nan(a) && (is_nan(b) || is_snan(a))) return a | kQuietBit;
  if (is_snan(b)) return b | kQuietBit;
  return is_nan(a) ? b : a;
}

/// FastExec's operations, one lambda per op. `visit` is called with the
/// lambda for `op`, so alu() and alu_warp() share one table and agree bit
/// for bit.
template <class Visit>
decltype(auto) fast_op(Op op, Visit&& visit) {
  using U = std::uint32_t;
  using S = std::int32_t;
  using F = sf::SfuFunc;
  switch (op) {
    case Op::IADD: return visit([](U a, U b, U) { return a + b; });
    case Op::ISUB: return visit([](U a, U b, U) { return a - b; });
    case Op::IMUL: return visit([](U a, U b, U) { return a * b; });
    case Op::IMAD: return visit([](U a, U b, U c) { return a * b + c; });
    case Op::IMIN:
      return visit([](U a, U b, U) { return static_cast<U>(std::min(S(a), S(b))); });
    case Op::IMAX:
      return visit([](U a, U b, U) { return static_cast<U>(std::max(S(a), S(b))); });
    case Op::IABS:
      return visit([](U a, U, U) { return S(a) < 0 ? 0u - a : a; });
    case Op::SHL: return visit([](U a, U b, U) { return b >= 32 ? 0 : a << b; });
    case Op::SHR: return visit([](U a, U b, U) { return b >= 32 ? 0 : a >> b; });
    case Op::SHRA:
      return visit(
          [](U a, U b, U) { return static_cast<U>(b >= 32 ? S(a) >> 31 : S(a) >> b); });
    case Op::LOP_AND: return visit([](U a, U b, U) { return a & b; });
    case Op::LOP_OR: return visit([](U a, U b, U) { return a | b; });
    case Op::LOP_XOR: return visit([](U a, U b, U) { return a ^ b; });
    case Op::LOP_NOT: return visit([](U a, U, U) { return ~a; });

    case Op::FADD:
      return visit(
          [](U a, U b, U) { return nan_or(a, b, f32_bits(bits_f32(a) + bits_f32(b))); });
    case Op::FMUL:
      return visit(
          [](U a, U b, U) { return nan_or(a, b, f32_bits(bits_f32(a) * bits_f32(b))); });
    case Op::FFMA:
      // NaN priority b, a, c.
      return visit([](U a, U b, U c) {
        if (is_nan(a) || is_nan(b) || is_nan(c)) return nan_or(b, a, c | kQuietBit);
        return f32_bits(std::fmaf(bits_f32(a), bits_f32(b), bits_f32(c)));
      });
    case Op::FMIN:
      return visit([](U a, U b, U) {
        const U r = bits_f32(a) < bits_f32(b) ? a : b;
        return is_nan(a) || is_nan(b) ? min_max_nan(a, b) : r;
      });
    case Op::FMAX:
      return visit([](U a, U b, U) {
        const U r = bits_f32(a) > bits_f32(b) ? a : b;
        return is_nan(a) || is_nan(b) ? min_max_nan(a, b) : r;
      });
    case Op::F2I: return visit([](U a, U, U) { return sf::f2i(a); });
    case Op::I2F:
      return visit([](U a, U, U) { return f32_bits(static_cast<float>(S(a))); });

    // SFU ops use the same polynomial pipeline as SoftExec so golden outputs
    // are identical across backends.
    case Op::FSIN: return visit([](U a, U, U) { return sf::sfu_eval(F::Sin, a); });
    case Op::FEXP: return visit([](U a, U, U) { return sf::sfu_eval(F::Exp2, a); });
    case Op::FRCP: return visit([](U a, U, U) { return sf::sfu_eval(F::Rcp, a); });
    case Op::FSQRT: return visit([](U a, U, U) { return sf::sfu_eval(F::Sqrt, a); });
    case Op::FLG2: return visit([](U a, U, U) { return sf::sfu_eval(F::Lg2, a); });

    default: return visit([](U, U, U) { return U{0}; });
  }
}

}  // namespace

void ExecUnit::alu_warp(Op op, RowIn a, RowIn b, RowIn c, std::uint32_t mask,
                        RowOut out) {
  for_each_lane(mask, [&](unsigned lane) {
    out[lane] = alu(op, a[lane], b[lane], c[lane], lane);
  });
}

std::uint32_t FastExec::alu(Op op, std::uint32_t a, std::uint32_t b, std::uint32_t c,
                            unsigned /*lane*/) {
  return fast_op(op, [&](auto f) { return f(a, b, c); });
}

void FastExec::alu_warp(Op op, RowIn a, RowIn b, RowIn c, std::uint32_t mask,
                        RowOut out) {
  fast_op(op, [&](auto f) {
    for_each_lane(mask, [&](unsigned lane) { out[lane] = f(a[lane], b[lane], c[lane]); });
  });
}

std::uint32_t SoftExec::alu(Op op, std::uint32_t a, std::uint32_t b, std::uint32_t c,
                            unsigned lane) {
  const sf::BusFaultSet* lf = lane_faults_[lane % kWarpSize];
  switch (op) {
    case Op::IADD: return sf::iadd(a, b, lf);
    case Op::ISUB: return sf::isub(a, b, lf);
    case Op::IMUL: return sf::imul(a, b, lf);
    case Op::IMAD: return sf::imad(a, b, c, lf);
    case Op::IMIN: return sf::imin(a, b, lf);
    case Op::IMAX: return sf::imax(a, b, lf);

    case Op::FADD: return sf::fadd(a, b, lf);
    case Op::FMUL: return sf::fmul(a, b, lf);
    case Op::FFMA: return sf::ffma(a, b, c, lf);
    case Op::FMIN: return sf::fmin(a, b, lf);
    case Op::FMAX: return sf::fmax(a, b, lf);
    case Op::F2I: return sf::f2i(a, lf);
    case Op::I2F: return sf::i2f(a, lf);

    case Op::FSIN: case Op::FEXP: case Op::FRCP: case Op::FSQRT: case Op::FLG2: {
      const sf::BusFaultSet* sfb = sfu_faults_[sfu_of_lane(lane) % sfu_count_];
      sf::SfuFunc fn = sf::SfuFunc::Sin;
      if (op == Op::FEXP) fn = sf::SfuFunc::Exp2;
      if (op == Op::FRCP) fn = sf::SfuFunc::Rcp;
      if (op == Op::FSQRT) fn = sf::SfuFunc::Sqrt;
      if (op == Op::FLG2) fn = sf::SfuFunc::Lg2;
      return sf::sfu_eval(fn, a, sfb);
    }

    // Pure-logic ops share the fast path (no separately modelled datapath).
    default: {
      FastExec fast;
      return fast.alu(op, a, b, c, lane);
    }
  }
}

const char* trap_name(TrapKind k) {
  switch (k) {
    case TrapKind::None: return "none";
    case TrapKind::InvalidOpcode: return "invalid-opcode";
    case TrapKind::InvalidRegister: return "invalid-register";
    case TrapKind::IllegalAddress: return "illegal-address";
    case TrapKind::StackOverflow: return "stack-overflow";
    case TrapKind::InvalidPC: return "invalid-pc";
    case TrapKind::Watchdog: return "watchdog-hang";
  }
  return "?";
}

}  // namespace gpf::arch
