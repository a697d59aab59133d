// Levelized two-value gate simulation with a single stuck-at fault overlay.
#pragma once

#include <cstdint>
#include <vector>

#include "gate/netlist.hpp"

namespace gpf::gate {

struct StuckFault {
  Net net = kNoNet;
  bool stuck_high = false;
};

/// One cycle of a bit-packed golden trace (UnitReplayer::GoldenTrace): the
/// fault-free value of net n is bit n % 64 of words[n / 64].
struct GoldenRow {
  const std::uint64_t* words = nullptr;
  bool operator[](std::size_t n) const { return (words[n >> 6] >> (n & 63)) & 1; }
};

class Simulator {
 public:
  explicit Simulator(const Netlist& nl);

  void set_fault(StuckFault f) { fault_ = f; }
  void clear_fault() { fault_ = StuckFault{}; }
  const StuckFault& fault() const { return fault_; }

  /// Reset all state (DFFs and inputs) to zero.
  void reset();

  void set_input(Net n, bool v) { val_[static_cast<std::size_t>(n)] = v; }
  /// Drive a whole input bus (LSB-first) from an integer.
  void set_bus(const PortBus& bus, std::uint64_t value);

  /// Settle combinational logic (applies the fault overlay).
  void eval();
  /// Latch DFFs from current values (call after eval()).
  void clock();

  bool value(Net n) const { return val_[static_cast<std::size_t>(n)] != 0; }
  std::uint64_t bus_value(const PortBus& bus) const;

  /// Full net-value snapshot / restore (used by the replay campaign to start
  /// faulty simulation at the fault's first activation cycle).
  const std::vector<std::uint8_t>& values() const { return val_; }
  void load_values(GoldenRow row);

  /// Fault-free value the faulty net would carry — used for activation
  /// tracking (a fault is "activated" only when the golden value differs from
  /// the stuck value at some cycle). Valid after eval().
  bool fault_site_golden() const { return golden_at_fault_ != 0; }

 private:
  void apply_fault_at_sources();

  const Netlist& nl_;
  std::vector<std::uint8_t> val_;
  std::vector<std::uint8_t> dff_next_;  ///< reusable clock() sample buffer
  StuckFault fault_;
  std::uint8_t golden_at_fault_ = 0;
};

/// Full collapsed stuck-at fault list: every net, both polarities.
std::vector<StuckFault> full_fault_list(const Netlist& nl);

}  // namespace gpf::gate
