// Table 4 reproduction: percentage of permanent stuck-at faults in each unit
// that are uncontrollable, hardware-masked, cause hardware hangs, or produce
// instruction-level (software) errors, measured by gate-level replay of the
// profiled exciting patterns from 14 workloads.
#include <iostream>

#include "common/env.hpp"
#include "common/table.hpp"
#include "report/gate_experiments.hpp"

using namespace gpf;

int main() {
  const std::size_t issues = scaled(400, 100);
  const std::size_t faults = scaled(4000, 150);  // >= full collapsed lists at scale 1
  const auto& traces = report::collect_profiling_traces(issues);
  const report::GateCampaigns gc =
      report::run_gate_campaigns(traces, faults, campaign_seed());

  Table t("Table 4 — faults: uncontrollable / masked / hang / SW errors");
  t.header({"unit", "total (full list)", "evaluated", "uncontrollable",
            "HW masked", "HW hang", "SW errors"});
  for (const auto& res : gc.units) {
    const auto n = static_cast<double>(res.faults.size());
    auto pct = [&](gate::FaultClass c) {
      return Table::pct(static_cast<double>(res.count_class(c)) / n);
    };
    t.row({gate::unit_name(res.unit), std::to_string(res.full_fault_list_size),
           std::to_string(res.faults.size()),
           pct(gate::FaultClass::Uncontrollable), pct(gate::FaultClass::Masked),
           pct(gate::FaultClass::Hang), pct(gate::FaultClass::SwError)});
  }
  t.print(std::cout);
  std::cout << "\nExciting patterns: " << gc.total_dynamic_instructions
            << " dynamic instructions over 14 profiling workloads.\n"
            << "Paper shape checks: roughly half of fetch/decoder faults reach\n"
            << "the unit outputs (SW errors); hangs are a small minority; a\n"
            << "large fraction of WSC faults never activates or is masked.\n";
  return 0;
}
