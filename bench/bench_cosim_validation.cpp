// Methodology validation (extension): the two-level flow predicts
// application-level outcomes from unit-level fault classes. Here we obtain
// GROUND TRUTH by running sampled decoder faults directly in gate-in-the-loop
// co-simulation on a real application, and check the per-fault agreement:
//   - uncontrollable/HW-masked faults must be Masked end-to-end;
//   - SW-error faults should be visible (SDC or DUE) when the application
//     actually exercises the corrupted field.
#include <algorithm>
#include <iostream>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gate/cosim.hpp"
#include "gate/profiler.hpp"
#include "gate/replay.hpp"
#include "workloads/workload.hpp"

using namespace gpf;

namespace {

enum class End { Masked, SDC, DUE };

End run_cosim(const workloads::Workload& w, const gate::StuckFault& f,
              const std::vector<std::uint32_t>& golden) {
  gate::DecoderCosim cosim;
  cosim.set_fault(f);
  arch::Gpu gpu;
  gpu.set_hooks(&cosim);
  w.setup(gpu);
  const workloads::RunStats s = w.run(gpu, 400'000);
  gpu.set_hooks(nullptr);
  if (!s.ok) return End::DUE;
  const workloads::OutputSpec spec = w.output();
  return std::ranges::equal(gpu.read_global(spec.addr, spec.words), golden) ? End::Masked
                                                                            : End::SDC;
}

}  // namespace

int main() {
  const std::size_t n_faults = scaled(150, 40);
  const workloads::Workload& app = *workloads::find("mxm");

  // Two-level prediction: classify the sampled faults against the app's own
  // exciting patterns (what step 2 of the methodology would report).
  arch::Gpu gpu;
  gate::UnitProfiler prof(2000);
  gpu.set_hooks(&prof);
  app.setup(gpu);
  if (!app.run(gpu).ok) return 1;
  gpu.set_hooks(nullptr);
  const gate::UnitTraces traces = prof.take("mxm");
  const std::vector<std::uint32_t> golden = workloads::golden_output(app, gpu);

  gate::UnitReplayer replayer(gate::UnitKind::Decoder);
  const auto golden_trace = replayer.compute_goldens({&traces, 1})[0];
  std::vector<gate::StuckFault> faults = gate::full_fault_list(replayer.netlist());
  Rng rng(campaign_seed());
  for (std::size_t i = 0; i < n_faults && i < faults.size(); ++i)
    std::swap(faults[i], faults[i + rng.below(faults.size() - i)]);
  faults.resize(std::min(n_faults, faults.size()));

  std::size_t agree_benign = 0, total_benign = 0;
  std::size_t visible = 0, total_sw = 0;
  std::size_t hang_due = 0, total_hang = 0;
  std::array<std::array<std::size_t, 3>, 4> matrix{};  // class x outcome

  for (const auto& f : faults) {
    gate::FaultCharacterization fc;
    fc.fault = f;
    replayer.run_fault(f, traces, golden_trace, fc);
    const End end = run_cosim(app, f, golden);
    const auto cls = static_cast<unsigned>(fc.cls());
    ++matrix[cls][static_cast<unsigned>(end)];
    switch (fc.cls()) {
      case gate::FaultClass::Uncontrollable:
      case gate::FaultClass::Masked:
        ++total_benign;
        if (end == End::Masked) ++agree_benign;
        break;
      case gate::FaultClass::SwError:
        ++total_sw;
        if (end != End::Masked) ++visible;
        break;
      case gate::FaultClass::Hang:
        ++total_hang;
        if (end == End::DUE) ++hang_due;
        break;
    }
  }

  Table t("Two-level prediction vs gate-in-the-loop ground truth (decoder, mxm)");
  t.header({"unit-level class", "Masked", "SDC", "DUE"});
  const char* names[] = {"uncontrollable", "hw-masked", "hw-hang", "sw-error"};
  for (unsigned c = 0; c < 4; ++c)
    t.row({names[c], std::to_string(matrix[c][0]), std::to_string(matrix[c][1]),
           std::to_string(matrix[c][2])});
  t.print(std::cout);

  auto pct = [](std::size_t a, std::size_t b) {
    return b ? Table::pct(static_cast<double>(a) / static_cast<double>(b))
             : std::string("-");
  };
  std::cout << "\nagreement:\n"
            << "  benign (uncontrollable+masked) -> Masked: "
            << pct(agree_benign, total_benign) << "\n"
            << "  hw-hang -> DUE: " << pct(hang_due, total_hang) << "\n"
            << "  sw-error -> visible (SDC or DUE): " << pct(visible, total_sw)
            << "\n\nSW-error faults that end Masked are the application-level\n"
               "masking the EPR stage quantifies — the two-level split is what\n"
               "separates FAPR (hardware) from EPR (software) in the paper.\n";
  return 0;
}
