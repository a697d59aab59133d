// Structural stuck-at fault collapsing: the classic ATPG equivalence rules
// partition the fault list into classes whose members are provably
// indistinguishable at the unit outputs, so a campaign simulates one
// representative per class and copies its observation record to every member.
//
// Per-gate rules (gate output z, input x):
//   Buf : x s-a-v ≡ z s-a-v        Not : x s-a-v ≡ z s-a-¬v
//   And : x s-a-0 ≡ z s-a-0        Nand: x s-a-0 ≡ z s-a-1
//   Or  : x s-a-1 ≡ z s-a-1        Nor : x s-a-1 ≡ z s-a-0
// A rule applies only when x has exactly one pin use in the whole netlist
// (a fanout stem is observable through its other branches) and x is not part
// of any output port bus (an observed net's own value distinguishes the two
// faults even when the downstream cone is identical). Xor/Xnor/Mux and DFF
// pins admit no structural equivalence (a stuck DFF input is the output
// fault delayed by a cycle). Classes are transitive across Buf/Not chains.
//
// Only the observation record (error counts, hang) is class-invariant; the
// `activated` bit depends on the member's own site and is recomputed from
// the golden traces at expansion time (see report::GateUnitRunner).
#pragma once

#include <cstdint>
#include <vector>

#include "gate/netlist.hpp"
#include "gate/sim.hpp"
#include "gate/units.hpp"

namespace gpf::gate {

class FaultCollapse {
 public:
  explicit FaultCollapse(const Netlist& nl);

  /// The deterministic representative of f's equivalence class: the member
  /// whose site is topologically deepest (smallest fanout cone to simulate),
  /// ties broken by node id.
  StuckFault representative(const StuckFault& f) const {
    const std::uint32_t r = rep_[node(f)];
    return StuckFault{static_cast<Net>(r >> 1), (r & 1u) != 0};
  }
  bool is_representative(const StuckFault& f) const {
    return rep_[node(f)] == node(f);
  }

  /// Classes / faults over the full fault list of the netlist (both counts
  /// exclude constant nets, like full_fault_list).
  std::size_t class_count() const { return class_count_; }
  std::size_t fault_count() const { return fault_count_; }

  static std::uint32_t node(const StuckFault& f) {
    return (static_cast<std::uint32_t>(f.net) << 1) | (f.stuck_high ? 1u : 0u);
  }

 private:
  std::vector<std::uint32_t> rep_;  ///< fault node -> representative node
  std::size_t class_count_ = 0;
  std::size_t fault_count_ = 0;
};

/// The collapse map of unit_netlist(u), built once per process and shared
/// read-only by every campaign (runners, representative counts, the
/// coordinator's lease units). Thread-safe.
const FaultCollapse& unit_collapse(UnitKind u);

}  // namespace gpf::gate
