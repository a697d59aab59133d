// Backend consistency: FastExec (host arithmetic) and SoftExec (bit-accurate
// datapaths) must agree bit-for-bit on normal-range operands — the property
// that lets PERfi campaigns run on the fast backend while RTL campaigns use
// the instrumentable one, with comparable golden outputs.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/exec.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"

namespace gpf::arch {
namespace {

using isa::Op;

struct OpRange {
  Op op;
  double lo, hi;  // float operand magnitude range (0 = integer op)
};

class BackendConsistency : public ::testing::TestWithParam<OpRange> {};

TEST_P(BackendConsistency, FastEqualsSoft) {
  const auto [op, lo, hi] = GetParam();
  FastExec fast;
  SoftExec soft;
  Rng rng(static_cast<std::uint64_t>(op) * 71 + 5);
  for (int i = 0; i < 4000; ++i) {
    std::uint32_t a, b, c;
    if (lo == 0.0) {  // integer operands
      a = static_cast<std::uint32_t>(rng());
      b = static_cast<std::uint32_t>(rng());
      c = static_cast<std::uint32_t>(rng());
    } else {
      auto gen = [&] {
        float v = static_cast<float>(rng.uniform(lo, hi));
        if (rng.chance(0.5)) v = -v;
        return f32_bits(v);
      };
      a = gen();
      b = gen();
      c = gen();
    }
    const unsigned lane = static_cast<unsigned>(rng.below(32));
    ASSERT_EQ(fast.alu(op, a, b, c, lane), soft.alu(op, a, b, c, lane))
        << isa::name_of(op) << " a=0x" << std::hex << a << " b=0x" << b
        << " c=0x" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, BackendConsistency,
    ::testing::Values(OpRange{Op::FADD, 1e-3, 1e3}, OpRange{Op::FMUL, 1e-3, 1e3},
                      OpRange{Op::FFMA, 1e-3, 1e3}, OpRange{Op::FMIN, 1e-6, 1e6},
                      OpRange{Op::FMAX, 1e-6, 1e6}, OpRange{Op::F2I, 1e-2, 1e6},
                      OpRange{Op::I2F, 0, 0}, OpRange{Op::IADD, 0, 0},
                      OpRange{Op::ISUB, 0, 0}, OpRange{Op::IMUL, 0, 0},
                      OpRange{Op::IMAD, 0, 0}, OpRange{Op::IMIN, 0, 0},
                      OpRange{Op::IMAX, 0, 0}, OpRange{Op::FSIN, 1e-3, 1.5},
                      OpRange{Op::FEXP, 1e-3, 30}, OpRange{Op::FRCP, 1e-3, 1e3},
                      OpRange{Op::FSQRT, 1e-3, 1e3}, OpRange{Op::FLG2, 1e-3, 1e3},
                      OpRange{Op::SHL, 0, 0}, OpRange{Op::LOP_AND, 0, 0},
                      OpRange{Op::LOP_XOR, 0, 0}),
    [](const auto& info) {
      std::string n{isa::name_of(info.param.op)};
      for (char& ch : n)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return n;
    });

/// Every op FastExec implements.
constexpr Op kAluOps[] = {Op::IADD, Op::ISUB,   Op::IMUL,    Op::IMAD,   Op::IMIN,
                          Op::IMAX, Op::IABS,   Op::SHL,     Op::SHR,    Op::SHRA,
                          Op::LOP_AND, Op::LOP_OR, Op::LOP_XOR, Op::LOP_NOT, Op::FADD,
                          Op::FMUL, Op::FFMA,   Op::FMIN,    Op::FMAX,   Op::F2I,
                          Op::I2F,  Op::FSIN,   Op::FEXP,    Op::FRCP,   Op::FSQRT,
                          Op::FLG2};

/// Random words, a quarter of them edge values (shift counts, signs, zeros,
/// infinities, quiet and signaling NaNs, subnormals).
std::uint32_t operand(Rng& rng) {
  constexpr std::uint32_t kEdge[] = {0,           1,           31,          32,
                                     0x80000000u, 0xFFFFFFFFu, 0x3F800000u, 0x00000000u,
                                     0x80000000u, 0x7F800000u, 0xFF800000u, 0x7FC00001u,
                                     0xFFC00002u, 0x7F800003u, 0xFFA00000u, 0x00000001u};
  return rng.chance(0.25) ? kEdge[rng.below(std::size(kEdge))]
                          : static_cast<std::uint32_t>(rng());
}

// alu_warp writes alu()'s result on exactly the lanes of the mask, also
// when the output row is one of the sources.
TEST(WarpEntryPoint, AluWarpEqualsAluOnEveryActiveLane) {
  Rng rng(2024);
  FastExec fast;
  SoftExec soft;  // the default alu_warp: alu() lane by lane
  const sf::BusFaultSet fault(sf::BusFault{sf::Bus::Result, 3, true});
  soft.set_lane_fault(5, &fault);
  for (ExecUnit* unit : {static_cast<ExecUnit*>(&fast), static_cast<ExecUnit*>(&soft)}) {
    for (const Op op : kAluOps) {
      for (int round = 0; round < 64; ++round) {
        LaneRow a, b, c, out;
        for (unsigned l = 0; l < kWarpSize; ++l) {
          a[l] = operand(rng);
          b[l] = operand(rng);
          c[l] = operand(rng);
        }
        const std::uint32_t mask =
            round % 2 ? ~0u : static_cast<std::uint32_t>(rng());  // full and sparse
        out.fill(0xDEADBEEFu);
        unit->alu_warp(op, a, b, c, mask, out);
        LaneRow in_place = a;  // out may be a source row
        unit->alu_warp(op, in_place, b, c, mask, in_place);
        for (unsigned l = 0; l < kWarpSize; ++l) {
          const bool on = (mask >> l) & 1;
          const std::uint32_t want =
              on ? unit->alu(op, a[l], b[l], c[l], l) : 0xDEADBEEFu;
          ASSERT_EQ(out[l], want) << isa::name_of(op) << " lane " << l << std::hex
                                  << " a=0x" << a[l] << " b=0x" << b[l]
                                  << " c=0x" << c[l];
          ASSERT_EQ(in_place[l], on ? want : a[l]) << isa::name_of(op) << " lane " << l;
        }
      }
    }
  }
}

TEST(WarpEntryPoint, FastExecNanRulesArePinned) {
  // Which NaN a host FP op returns depends on the compiler's operand order;
  // FastExec fixes it so a scalar call and a vectorized warp loop agree.
  constexpr std::uint32_t kQ = 0x00400000u;
  const std::uint32_t qa = 0x7FC00001u, qb = 0xFFC00002u, sn = 0x7F800003u;
  const std::uint32_t one = 0x3F800000u, pz = 0x00000000u, nz = 0x80000000u;
  FastExec f;
  // FADD / FMUL: the first NaN of (a, b), quieted.
  EXPECT_EQ(f.alu(Op::FADD, qa, qb, 0, 0), qa);
  EXPECT_EQ(f.alu(Op::FADD, qb, qa, 0, 0), qb);
  EXPECT_EQ(f.alu(Op::FMUL, one, sn, 0, 0), sn | kQ);
  EXPECT_EQ(f.alu(Op::FMUL, sn, qb, 0, 0), sn | kQ);
  // FFMA: the first NaN of (b, a, c), quieted.
  EXPECT_EQ(f.alu(Op::FFMA, qa, qb, sn, 0), qb);
  EXPECT_EQ(f.alu(Op::FFMA, qa, one, qb, 0), qa);
  EXPECT_EQ(f.alu(Op::FFMA, one, one, sn, 0), sn | kQ);
  // FMIN / FMAX (C fmin/fmax): a quiet NaN yields the other operand, a
  // signaling one itself quieted, two NaNs the first; equal operands yield b.
  EXPECT_EQ(f.alu(Op::FMIN, qa, one, 0, 0), one);
  EXPECT_EQ(f.alu(Op::FMAX, one, qb, 0, 0), one);
  EXPECT_EQ(f.alu(Op::FMIN, one, sn, 0, 0), sn | kQ);
  EXPECT_EQ(f.alu(Op::FMAX, qb, qa, 0, 0), qb);
  EXPECT_EQ(f.alu(Op::FMIN, pz, nz, 0, 0), nz);
  EXPECT_EQ(f.alu(Op::FMAX, nz, pz, 0, 0), pz);
}

TEST(BackendConsistency, SfuLaneMappingCoversAllSfus) {
  SoftExec soft(2);
  EXPECT_EQ(soft.sfu_of_lane(0), 0u);
  EXPECT_EQ(soft.sfu_of_lane(15), 0u);
  EXPECT_EQ(soft.sfu_of_lane(16), 1u);
  EXPECT_EQ(soft.sfu_of_lane(31), 1u);
}

TEST(BackendConsistency, SoftExecWithoutFaultsIsTransparent) {
  // Installing a null fault set must not perturb results.
  SoftExec soft;
  sf::BusFaultSet empty;
  soft.set_lane_fault(3, &empty);
  FastExec fast;
  for (float v : {0.5f, 2.25f, -17.0f}) {
    const std::uint32_t a = f32_bits(v), b = f32_bits(v * 3);
    EXPECT_EQ(soft.alu(Op::FADD, a, b, 0, 3), fast.alu(Op::FADD, a, b, 0, 3));
  }
}

}  // namespace
}  // namespace gpf::arch
