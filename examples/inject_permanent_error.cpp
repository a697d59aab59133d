// Software-level permanent-error injection (the NVBitPERfi flow): pick an
// application and an error model, inject a permanent instruction-level error,
// and classify the outcome against the fault-free run — showing exactly which
// output elements were corrupted.
//
//   $ ./examples/inject_permanent_error [app] [model]
//   $ ./examples/inject_permanent_error gemm IAT
#include <cstring>
#include <iostream>

#include "common/bitops.hpp"
#include "perfi/campaign.hpp"
#include "perfi/injector.hpp"
#include "workloads/workload.hpp"

using namespace gpf;

int main(int argc, char** argv) {
  const char* app_name = argc > 1 ? argv[1] : "gemm";
  const char* model_name = argc > 2 ? argv[2] : "IAT";

  const workloads::Workload* app = workloads::find(app_name);
  if (!app) {
    std::cerr << "unknown app '" << app_name << "'. Available:";
    for (const auto* w : workloads::evaluation_set()) std::cerr << ' ' << w->name();
    std::cerr << "\n";
    return 1;
  }
  errmodel::ErrorModel model = errmodel::ErrorModel::IAT;
  bool found = false;
  for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m) {
    if (errmodel::name_of(static_cast<errmodel::ErrorModel>(m)) == model_name) {
      model = static_cast<errmodel::ErrorModel>(m);
      found = true;
    }
  }
  if (!found) {
    std::cerr << "unknown model '" << model_name << "' (use IOC, IRA, IVRA, IIO, "
                 "WV, IAT, IAW, IAC, IAL, IMS, IMD)\n";
    return 1;
  }

  // Golden run.
  arch::Gpu gpu;
  const std::vector<std::uint32_t> golden = workloads::golden_output(*app, gpu);
  std::cout << "golden run of '" << app->name() << "' ok (" << golden.size()
            << " output words)\n";

  // One reproducible random error descriptor for the chosen model.
  Rng rng(2026);
  const errmodel::ErrorDescriptor desc = perfi::random_descriptor(model, rng);
  std::cout << "injecting " << errmodel::name_of(model) << " ("
            << errmodel::name_of(errmodel::group_of(model))
            << " error): warps=0x" << std::hex << desc.warp_mask << " threads=0x"
            << desc.thread_mask << " bitErrMask=0x" << desc.bit_err_mask
            << std::dec << " operLoc=" << desc.err_oper_loc << "\n";

  perfi::AppInjectionRunner runner(*app);
  const perfi::AppOutcome outcome = runner.inject(desc);
  std::cout << "outcome: " << perfi::outcome_name(outcome);
  if (outcome == perfi::AppOutcome::DUE)
    std::cout << " (" << arch::trap_name(runner.last_trap()) << ")";
  std::cout << "\n";

  if (outcome == perfi::AppOutcome::SDC) {
    // Show the corrupted elements (re-run to inspect memory).
    arch::Gpu g2;
    app->setup(g2);
    perfi::ErrorInjector injector(desc);
    g2.set_hooks(&injector);
    (void)app->run(g2);
    g2.set_hooks(nullptr);
    const workloads::OutputSpec spec = app->output();
    const std::span<const std::uint32_t> out = g2.read_global(spec.addr, spec.words);
    unsigned shown = 0;
    for (std::size_t i = 0; i < spec.words && shown < 10; ++i) {
      const std::uint32_t got = out[i];
      if (got == golden[i]) continue;
      ++shown;
      if (spec.is_float)
        std::cout << "  out[" << i << "]: " << bits_f32(golden[i]) << " -> "
                  << bits_f32(got) << "\n";
      else
        std::cout << "  out[" << i << "]: " << golden[i] << " -> " << got << "\n";
    }
  }

  // A small campaign for context.
  const perfi::EprCell cell = perfi::run_epr_cell(*app, model, 25, 7);
  std::cout << "\nEPR over 25 injections: SDC " << cell.sdc << ", DUE " << cell.due
            << ", Masked " << cell.masked << "\n";
  return 0;
}
