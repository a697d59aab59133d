// Flat structure-of-arrays "program" lowered from a finalized Netlist.
//
// The AoS `std::vector<Gate>` walked through eval_order() costs a dependent
// load per gate (netlist -> gate -> operand nets). finalize() lowers it once
// into contiguous kind/a/b/c/out arrays in levelized order so the simulators'
// hot loops stream sequentially, and precomputes the derived structure every
// engine was rebuilding for itself:
//   - per-level slot offsets (levelized scheduling without re-sorting),
//   - a CSR fan-out adjacency over combinational gates AND DFF pins (the
//     batch engine's fanout-cone pruning traverses it; fault collapsing
//     reads its fan-out counts),
//   - a topological index per net (fault lists sorted by it keep the union
//     cone of a lane-width fault batch tight).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gate/netlist.hpp"

namespace gpf::gate {

inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

struct CompiledNetlist {
  /// `net_level` is finalize()'s levelization (sources 0, gates 1+max(ins)).
  CompiledNetlist(const Netlist& nl, std::span<const int> net_level);

  // -- combinational program (slot i == Netlist::eval_order()[i]) ----------
  std::vector<GateKind> kind;
  std::vector<Net> a, b, c;
  std::vector<Net> out;  ///< net driven by slot i
  /// Slots of level l are [level_offset[l], level_offset[l + 1]);
  /// level_offset.size() == num_levels() + 1.
  std::vector<std::uint32_t> level_offset;

  // -- sequential elements (index order == Netlist::dffs()) ----------------
  std::vector<Net> dff_out, dff_d, dff_en;  ///< dff_d/dff_en may be kNoNet
  std::vector<std::int32_t> dff_index;      ///< net -> dff slot, -1 otherwise

  // -- per-net structure ---------------------------------------------------
  std::vector<std::uint32_t> slot_of;    ///< net -> slot (kNoSlot for sources)
  std::vector<std::int32_t> level;       ///< net -> levelization depth
  /// net -> rank in the global (level, net) order. Unique per net, so
  /// (topo_index, polarity) is a strict total order over stuck-at faults.
  std::vector<std::uint32_t> topo_index;

  // -- CSR fan-out: consuming gate/DFF nets of each net (one entry per pin
  // use, so offset deltas double as pin-fanout counts for fault collapsing).
  std::vector<std::uint32_t> fan_offset;  ///< size num_nets() + 1
  std::vector<Net> fan_target;

  std::size_t num_nets() const { return slot_of.size(); }
  std::size_t num_slots() const { return kind.size(); }
  std::size_t num_levels() const { return level_offset.size() - 1; }
  std::span<const Net> fanout(Net n) const {
    const auto i = static_cast<std::size_t>(n);
    return {fan_target.data() + fan_offset[i], fan_target.data() + fan_offset[i + 1]};
  }
  /// Pin uses of `n` across the whole netlist (duplicate pins counted).
  std::uint32_t fanout_count(Net n) const {
    const auto i = static_cast<std::size_t>(n);
    return fan_offset[i + 1] - fan_offset[i];
  }
};

}  // namespace gpf::gate
