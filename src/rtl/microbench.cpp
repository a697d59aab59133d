#include "rtl/microbench.hpp"

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "isa/builder.hpp"

namespace gpf::rtl {

using isa::Cmp;
using isa::KernelBuilder;
using isa::SpecialReg;
using Reg = KernelBuilder::Reg;

std::string_view micro_op_name(MicroOp op) {
  switch (op) {
    case MicroOp::FADD: return "FADD";
    case MicroOp::FMUL: return "FMUL";
    case MicroOp::FFMA: return "FFMA";
    case MicroOp::IADD: return "IADD";
    case MicroOp::IMUL: return "IMUL";
    case MicroOp::IMAD: return "IMAD";
    case MicroOp::FSIN: return "FSIN";
    case MicroOp::FEXP: return "FEXP";
    case MicroOp::GLD: return "GLD";
    case MicroOp::GST: return "GST";
    case MicroOp::BRA: return "BRA";
    case MicroOp::ISET: return "ISET";
    case MicroOp::COUNT: break;
  }
  return "?";
}

bool micro_op_is_float(MicroOp op) {
  switch (op) {
    case MicroOp::FADD: case MicroOp::FMUL: case MicroOp::FFMA:
    case MicroOp::FSIN: case MicroOp::FEXP:
      return true;
    default:
      return false;
  }
}

bool micro_op_uses_fu(MicroOp op) {
  switch (op) {
    case MicroOp::GLD: case MicroOp::GST: case MicroOp::BRA: case MicroOp::ISET:
      return false;
    default:
      return true;
  }
}

std::string_view range_name(InputRange r) {
  switch (r) {
    case InputRange::Small: return "S";
    case InputRange::Medium: return "M";
    case InputRange::Large: return "L";
  }
  return "?";
}

namespace {

void range_bounds(InputRange r, double& lo, double& hi) {
  switch (r) {
    case InputRange::Small: lo = 6.8e-6; hi = 7.3e-6; break;
    case InputRange::Medium: lo = 1.8; hi = 59.4; break;
    case InputRange::Large: lo = 3.8e9; hi = 12.5e9; break;
  }
}

isa::Program build_program(MicroOp op) {
  KernelBuilder kb(std::string("micro_") + std::string(micro_op_name(op)));
  Reg gid = kb.reg(), tid = kb.reg(), cta = kb.reg(), ntid = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.s2r(cta, SpecialReg::CTAID_X);
  kb.s2r(ntid, SpecialReg::NTID_X);
  kb.imad(gid, cta, ntid, tid);

  Reg a = kb.reg(), b = kb.reg(), c = kb.reg(), r = kb.reg();
  kb.ldg(a, gid, kInAddrA);
  kb.ldg(b, gid, kInAddrB);
  kb.ldg(c, gid, kInAddrC);

  switch (op) {
    case MicroOp::FADD: kb.fadd(r, a, b); break;
    case MicroOp::FMUL: kb.fmul(r, a, b); break;
    case MicroOp::FFMA: kb.ffma(r, a, b, c); break;
    case MicroOp::IADD: kb.iadd(r, a, b); break;
    case MicroOp::IMUL: kb.imul(r, a, b); break;
    case MicroOp::IMAD: kb.imad(r, a, b, c); break;
    case MicroOp::FSIN: kb.fsin(r, a); break;
    case MicroOp::FEXP: kb.fexp(r, a); break;
    case MicroOp::GLD:
      // Load followed by store (the paper's memory-movement benchmark).
      kb.mov(r, a);
      break;
    case MicroOp::GST:
      kb.mov(r, b);
      break;
    case MicroOp::BRA: {
      // A few set-register instructions guarded by a branch; a fault is
      // detected when the wrong side executes.
      auto p = kb.pred();
      kb.isetp(p, Cmp::LT, a, b);
      kb.if_(p, false, [&] { kb.movi(r, 0x11111111u); },
             [&] { kb.movi(r, 0x22222222u); });
      kb.iadd(r, r, c);
      break;
    }
    case MicroOp::ISET: {
      auto p = kb.pred();
      kb.isetp(p, Cmp::LT, a, b);
      kb.movi(r, 0);
      kb.on(p).movi(r, 1);
      kb.iadd(r, r, c);
      break;
    }
    case MicroOp::COUNT: break;
  }
  kb.stg(gid, kOutAddr, r);
  return kb.build();
}

}  // namespace

MicroBench make_micro_bench(MicroOp op, InputRange range, std::uint64_t value_seed) {
  MicroBench mb;
  mb.prog = build_program(op);
  mb.is_float = micro_op_is_float(op);
  mb.out_addr = kOutAddr;
  mb.input_a.resize(kMicroThreads);
  mb.input_b.resize(kMicroThreads);
  mb.input_c.resize(kMicroThreads);
  Rng rng(value_seed * 1315423911ULL + static_cast<std::uint64_t>(op) * 77 +
          static_cast<std::uint64_t>(range));

  double lo = 0.0, hi = 0.0;
  range_bounds(range, lo, hi);
  for (std::size_t t = 0; t < kMicroThreads; ++t) {
    switch (op) {
      case MicroOp::FSIN:
      case MicroOp::FEXP:
        // SFU operational constraint: [0, pi/2], no range reduction needed.
        mb.input_a[t] = f32_bits(static_cast<float>(rng.uniform(0.0, 1.5707)));
        mb.input_b[t] = 0;
        mb.input_c[t] = 0;
        break;
      case MicroOp::IADD: case MicroOp::IMUL: case MicroOp::IMAD:
      case MicroOp::GLD: case MicroOp::GST: case MicroOp::BRA: case MicroOp::ISET: {
        // Integer inputs drawn with magnitudes mirroring the range.
        const auto span = static_cast<std::uint64_t>(hi < 1.0 ? 128.0 : hi);
        mb.input_a[t] = static_cast<std::uint32_t>(rng.below(span) + 1);
        mb.input_b[t] = static_cast<std::uint32_t>(rng.below(span) + 1);
        mb.input_c[t] = static_cast<std::uint32_t>(rng.below(span) + 1);
        break;
      }
      default:
        mb.input_a[t] = f32_bits(static_cast<float>(rng.uniform(lo, hi)));
        mb.input_b[t] = f32_bits(static_cast<float>(rng.uniform(lo, hi)));
        mb.input_c[t] = f32_bits(static_cast<float>(rng.uniform(lo, hi)));
        break;
    }
  }
  return mb;
}

void setup_micro(arch::Gpu& gpu, const MicroBench& mb) {
  gpu.clear_memories();
  gpu.write_global(kInAddrA, mb.input_a);
  gpu.write_global(kInAddrB, mb.input_b);
  gpu.write_global(kInAddrC, mb.input_c);
  gpu.reserve_global(kOutAddr, kMicroThreads);
}

}  // namespace gpf::rtl
