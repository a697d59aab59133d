#include "gate/sim.hpp"

#include <stdexcept>

#include "gate/compiled.hpp"
#include "gate/gateprog.hpp"

namespace gpf::gate {

Simulator::Simulator(const Netlist& nl)
    : nl_(nl), val_(nl.num_nets(), 0), dff_next_(nl.dffs().size(), 0) {
  if (!nl.finalized()) throw std::logic_error("netlist not finalized");
}

void Simulator::reset() { std::fill(val_.begin(), val_.end(), 0); }

void Simulator::load_values(GoldenRow row) {
  for (std::size_t i = 0; i < val_.size(); ++i) val_[i] = row[i];
}

void Simulator::set_bus(const PortBus& bus, std::uint64_t value) {
  for (std::size_t i = 0; i < bus.nets.size(); ++i)
    val_[static_cast<std::size_t>(bus.nets[i])] = (value >> i) & 1;
}

std::uint64_t Simulator::bus_value(const PortBus& bus) const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.nets.size(); ++i)
    if (val_[static_cast<std::size_t>(bus.nets[i])]) v |= std::uint64_t{1} << i;
  return v;
}

void Simulator::apply_fault_at_sources() {
  if (fault_.net == kNoNet) return;
  const GateKind k = nl_.gate(fault_.net).kind;
  if (k == GateKind::Input || k == GateKind::Const0 || k == GateKind::Const1 ||
      k == GateKind::Dff) {
    golden_at_fault_ = val_[static_cast<std::size_t>(fault_.net)];
    val_[static_cast<std::size_t>(fault_.net)] = fault_.stuck_high ? 1 : 0;
  }
}

void Simulator::eval() {
  for (const auto& [n, v] : nl_.constants()) val_[static_cast<std::size_t>(n)] = v;
  apply_fault_at_sources();

  // Run the shared gate program's full (1:1) stream: every engine executes
  // the same lowered instructions, so scalar, golden-pass and batch results
  // agree by construction.
  const Stream& st = nl_.program().full;
  for (std::size_t s = 0; s < st.code.size(); ++s) {
    const Instr& in = st.code[s];
    std::uint8_t v = GateProgram::eval(in, val_.data());
    const Net n = st.meta[s].out_net;
    if (n == fault_.net) {
      golden_at_fault_ = v;
      v = fault_.stuck_high ? 1 : 0;
    }
    val_[static_cast<std::size_t>(n)] = v;
  }
}

void Simulator::clock() {
  // Two-phase: sample all D inputs, then commit, so DFF-to-DFF paths behave
  // like real registers.
  const CompiledNetlist& cn = nl_.compiled();
  for (std::size_t i = 0; i < cn.dff_out.size(); ++i) {
    const bool en =
        cn.dff_en[i] == kNoNet ? true : val_[static_cast<std::size_t>(cn.dff_en[i])] != 0;
    const std::uint8_t cur = val_[static_cast<std::size_t>(cn.dff_out[i])];
    const std::uint8_t d =
        cn.dff_d[i] == kNoNet ? cur : val_[static_cast<std::size_t>(cn.dff_d[i])];
    dff_next_[i] = en ? d : cur;
  }
  for (std::size_t i = 0; i < cn.dff_out.size(); ++i)
    val_[static_cast<std::size_t>(cn.dff_out[i])] = dff_next_[i];
  apply_fault_at_sources();
}

std::vector<StuckFault> full_fault_list(const Netlist& nl) {
  std::vector<StuckFault> out;
  out.reserve(nl.num_nets() * 2);
  for (std::size_t i = 0; i < nl.num_nets(); ++i) {
    const GateKind k = nl.gate(static_cast<Net>(i)).kind;
    if (k == GateKind::Const0 || k == GateKind::Const1) continue;
    out.push_back(StuckFault{static_cast<Net>(i), false});
    out.push_back(StuckFault{static_cast<Net>(i), true});
  }
  return out;
}

}  // namespace gpf::gate
