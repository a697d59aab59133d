// Export the per-fault characterization dictionaries (the artifact the
// paper's public repository ships): one CSV per unit with every evaluated
// stuck-at fault, its class, and its error-model occurrence counts.
//
//   $ ./examples/export_fault_dictionary [output-dir]
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/env.hpp"
#include "gate/dictionary.hpp"
#include "report/gate_experiments.hpp"

using namespace gpf;

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : ".";
  const auto& traces = report::collect_profiling_traces(scaled(400, 100));
  // Full collapsed fault lists at default scale (GPF_ENGINE, default batch).
  const report::GateCampaigns gc =
      report::run_gate_campaigns(traces, scaled(4000, 150), campaign_seed());

  for (const auto& res : gc.units) {
    const std::filesystem::path file =
        dir / (std::string("fault_dictionary_") +
               std::string(gate::unit_name(res.unit)) + ".csv");
    std::ofstream os(file);
    if (!os) {
      std::cerr << "cannot write " << file << "\n";
      return 1;
    }
    gate::write_fault_dictionary(os, res);
    std::cout << "wrote " << file << " (" << res.faults.size() << " faults, "
              << res.count_class(gate::FaultClass::SwError) << " SW-error)\n";
  }
  return 0;
}
