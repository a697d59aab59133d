// Anatomy of one gate-level permanent fault: build the decoder netlist, plant
// a stuck-at on a single net, drive it with a real instruction, and watch the
// decoded fields change — then classify the corruption into the paper's
// instruction-level error models. This is the low-level half of the
// methodology condensed into one fault.
//
//   $ ./examples/gate_fault_anatomy
#include <iostream>

#include "gate/profiler.hpp"
#include "gate/replay.hpp"
#include "gate/sim.hpp"
#include "gate/units.hpp"
#include "isa/builder.hpp"
#include "workloads/workload.hpp"

using namespace gpf;

int main() {
  auto nl = gate::build_decoder_unit();
  std::cout << "decoder netlist: " << nl->cell_count() << " cells, "
            << gate::full_fault_list(*nl).size() << " collapsed stuck-at faults, "
            << nl->area_um2() << " um^2\n\n";

  // The victim instruction: IMAD R5, R1, R2, R3.
  isa::Instruction in;
  in.op = isa::Op::IMAD;
  in.rd = 5;
  in.rs1 = 1;
  in.rs2 = 2;
  in.rs3 = 3;
  const std::uint64_t word = isa::encode(in);
  std::cout << "victim instruction: " << isa::disassemble(word) << "\n";

  // Golden decode through the netlist.
  gate::Simulator sim(*nl);
  auto drive = [&] {
    sim.set_bus(*nl->find_input("instr"), word);
    sim.set_bus(*nl->find_input("fetch_valid"), 1);
    sim.eval();
  };
  drive();
  const std::uint64_t golden_rd = sim.bus_value(*nl->find_output("rd"));
  std::cout << "golden decode: rd=R" << golden_rd << " opcode=0x" << std::hex
            << sim.bus_value(*nl->find_output("opcode")) << std::dec << "\n\n";

  // Plant a stuck-at-1 on the buffer cell driving decoded rd bit 1.
  const gate::PortBus* rd_bus = nl->find_output("rd");
  const gate::StuckFault fault{rd_bus->nets[1], true};
  sim.set_fault(fault);
  drive();
  const std::uint64_t faulty_rd = sim.bus_value(*nl->find_output("rd"));
  std::cout << "stuck-at-1 on net " << fault.net << " (decoded rd bit 1):\n";
  std::cout << "faulty decode: rd=R" << faulty_rd << " (was R" << golden_rd
            << ")\n";

  // Classify the corruption like the campaign does.
  isa::Instruction faulty = in;
  faulty.rd = static_cast<std::uint8_t>(faulty_rd);
  std::array<std::uint32_t, errmodel::kNumErrorModels> counts{};
  bool hang = false;
  gate::classify_word_diff(word, isa::encode(faulty), /*regs=*/16, counts, hang);
  std::cout << "classification:";
  for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
    if (counts[m])
      std::cout << ' ' << errmodel::name_of(static_cast<errmodel::ErrorModel>(m));
  std::cout << "\n\n";

  // Now characterize the same fault against real exciting patterns: profile
  // one workload and replay its trace.
  arch::Gpu gpu;
  gate::UnitProfiler prof(500);
  gpu.set_hooks(&prof);
  const workloads::Workload* w = workloads::find("p_tiled_mxm");
  w->setup(gpu);
  (void)w->run(gpu);
  gpu.set_hooks(nullptr);
  const gate::UnitTraces traces = prof.take("p_tiled_mxm");

  gate::UnitReplayer replayer(gate::UnitKind::Decoder);
  const auto golden_trace = replayer.compute_goldens({&traces, 1})[0];
  gate::FaultCharacterization fc;
  fc.fault = fault;
  replayer.run_fault(fault, traces, golden_trace, fc);

  std::cout << "replaying " << traces.decoder.size()
            << " unique exciting patterns from p_tiled_mxm:\n";
  std::cout << "  activated: " << (fc.activated ? "yes" : "no")
            << ", class: " << gate::fault_class_name(fc.cls()) << "\n";
  for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
    if (fc.error_counts[m])
      std::cout << "  " << errmodel::name_of(static_cast<errmodel::ErrorModel>(m))
                << " produced on " << fc.error_counts[m]
                << " dynamic instructions\n";
  return 0;
}
