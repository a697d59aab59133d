// Execution-unit backends. FastExec uses host arithmetic (PERfi campaigns);
// SoftExec routes through the bit-accurate datapaths in src/softfloat and
// honours per-lane / per-SFU fault overlays (RTL campaigns).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "arch/types.hpp"
#include "isa/opcode.hpp"
#include "softfloat/buses.hpp"

namespace gpf::arch {

/// One warp register: lane i's value in element i.
using LaneRow = std::array<std::uint32_t, kWarpSize>;
/// A warp register seen in place: a row of a warp's register window, a
/// broadcast immediate or the zero row.
using RowIn = std::span<const std::uint32_t, kWarpSize>;
using RowOut = std::span<std::uint32_t, kWarpSize>;

/// Calls f(lane) for every lane set in `mask`, in lane order: one fixed
/// 32-lane loop when every lane is set (which the compiler can vectorize),
/// the set bits otherwise (cost follows the active lanes).
template <class F>
void for_each_lane(std::uint32_t mask, F&& f) {
  if (mask == ~std::uint32_t{0}) {
    for (unsigned lane = 0; lane < kWarpSize; ++lane) f(lane);
    return;
  }
  for (std::uint32_t m = mask; m != 0; m &= m - 1)
    f(static_cast<unsigned>(std::countr_zero(m)));
}

class ExecUnit {
 public:
  virtual ~ExecUnit() = default;
  /// Evaluate a (non-memory, non-control) operation for one lane.
  virtual std::uint32_t alu(isa::Op op, std::uint32_t a, std::uint32_t b,
                            std::uint32_t c, unsigned lane) = 0;
  /// Evaluate `op` for a whole warp: out[l] = alu(op, a[l], b[l], c[l], l)
  /// for every lane l in `mask`; the other lanes of `out` keep their value.
  /// `out` may be the same row as a source. The default calls alu() for
  /// each lane of `mask` in lane order.
  virtual void alu_warp(isa::Op op, RowIn a, RowIn b, RowIn c, std::uint32_t mask,
                        RowOut out);
};

/// Host-arithmetic backend (bitwise-compatible with SoftExec for normal-range
/// values; FTZ differences only appear with subnormals).
class FastExec final : public ExecUnit {
 public:
  std::uint32_t alu(isa::Op op, std::uint32_t a, std::uint32_t b, std::uint32_t c,
                    unsigned lane) override;
  /// One switch on `op`, then one loop over the lanes.
  void alu_warp(isa::Op op, RowIn a, RowIn b, RowIn c, std::uint32_t mask,
                RowOut out) override;
};

/// Bit-accurate backend with stuck-at overlays. A fault set can be installed
/// per lane (per-lane INT/FP32 cores) or per SFU (lanes share SFUs in blocks
/// of kWarpSize / sfus_per_ppb — the sharing that makes SFU control faults
/// corrupt multiple threads).
class SoftExec final : public ExecUnit {
 public:
  explicit SoftExec(unsigned sfu_count = 2) : sfu_count_(sfu_count) {}

  void set_lane_fault(unsigned lane, const sf::BusFaultSet* f) { lane_faults_[lane] = f; }
  void set_sfu_fault(unsigned sfu, const sf::BusFaultSet* f) { sfu_faults_[sfu] = f; }
  unsigned sfu_of_lane(unsigned lane) const {
    return lane / (kWarpSize / sfu_count_);
  }

  std::uint32_t alu(isa::Op op, std::uint32_t a, std::uint32_t b, std::uint32_t c,
                    unsigned lane) override;

 private:
  unsigned sfu_count_;
  std::array<const sf::BusFaultSet*, kWarpSize> lane_faults_{};
  std::array<const sf::BusFaultSet*, 8> sfu_faults_{};
};

}  // namespace gpf::arch
