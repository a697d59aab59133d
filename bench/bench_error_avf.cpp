// Table 5 reproduction: per-unit, per-error-model accounting — hardware
// faults causing each error, AVF per error (% of unit faults), and the
// number of times each error was produced at the software interface.
#include <iostream>

#include "common/env.hpp"
#include "common/table.hpp"
#include "report/gate_experiments.hpp"

using namespace gpf;
using errmodel::ErrorModel;

int main() {
  const std::size_t issues = scaled(400, 100);
  const std::size_t faults = scaled(4000, 150);  // >= full collapsed lists at scale 1
  const auto& traces = report::collect_profiling_traces(issues);
  const report::GateCampaigns gc =
      report::run_gate_campaigns(traces, faults, campaign_seed());

  Table t("Table 5 — AVF per error on the analyzed units");
  t.header({"unit", "total HW faults", "hang faults", "error",
            "HW faults causing it", "AVF (per error)", "times produced (SW)"});
  for (const auto& res : gc.units) {
    const auto n = static_cast<double>(res.faults.size());
    std::size_t total_faults = 0;
    std::uint64_t total_occ = 0;
    bool first = true;
    for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m) {
      const auto model = static_cast<ErrorModel>(m);
      const std::size_t k = res.faults_with_model(model);
      if (k == 0) continue;
      const std::uint64_t occ = res.occurrences_of_model(model);
      total_faults += k;
      total_occ += occ;
      t.row({first ? std::string(gate::unit_name(res.unit)) : "",
             first ? std::to_string(res.faults.size()) : "",
             first ? std::to_string(res.count_class(gate::FaultClass::Hang)) : "",
             std::string(errmodel::name_of(model)), std::to_string(k),
             Table::pct(static_cast<double>(k) / n), std::to_string(occ)});
      first = false;
    }
    t.row({"", "", "", "Total", std::to_string(total_faults),
           Table::pct(static_cast<double>(
                          res.count_class(gate::FaultClass::SwError)) / n),
           std::to_string(total_occ)});
  }
  t.print(std::cout);
  std::cout << "\nNote: a fault can produce several error models, so per-error\n"
               "fault counts can sum above the distinct SW-error fault count\n"
               "(exactly as in the paper's Table 5).\n";
  return 0;
}
