// Ablation (paper §"Fault Syndrome"): the paper argues that injecting random
// bit flips "might not be realistic" because measured syndromes are narrow
// power laws. This bench quantifies the difference: propagate FU faults in
// software with (a) Eq. 1 power-law syndromes fitted from our RTL campaign
// and (b) naive random bit flips, and compare the application-level outcome
// mix and output-error magnitudes.
#include <cmath>
#include <iostream>

#include "common/bitops.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "perfi/syndrome_injector.hpp"
#include "rtl/campaign.hpp"
#include "stats/descriptive.hpp"
#include "stats/powerlaw.hpp"
#include "workloads/workload.hpp"

using namespace gpf;

int main() {
  // 1. Fit Eq. 1 from a real RTL FU campaign (FMUL, all ranges).
  std::vector<double> measured;
  for (auto r : {rtl::InputRange::Small, rtl::InputRange::Medium,
                 rtl::InputRange::Large}) {
    const rtl::AvfSummary s = rtl::run_micro_campaign(
        rtl::MicroOp::FMUL, r, rtl::Site::FuLane, scaled(250, 60), 5);
    // Exclude the inf/NaN overflow sentinels: they are a saturation bucket,
    // not part of the continuous relative-error distribution being fitted.
    for (double e : s.rel_errors)
      if (e < 1e6) measured.push_back(e);
  }
  stats::PowerLawFit fit = stats::fit_power_law(measured);
  if (fit.alpha < 1.2) fit.alpha = 1.2;  // guard against near-degenerate tails
  std::cout << "RTL-fitted syndrome: alpha=" << fit.alpha << " x_min=" << fit.x_min
            << " (" << measured.size() << " samples)\n\n";

  // 2. Propagate through applications with both corruption modes.
  const std::size_t n = scaled(60, 15);
  Table t("Software FU-fault propagation: Eq. 1 syndrome vs random bit flips");
  t.header({"app", "mode", "SDC", "Masked", "median out rel-err", "max out rel-err"});

  for (const char* name : {"gemm", "lenet", "hotspot"}) {
    const workloads::Workload& w = *workloads::find(name);
    arch::Gpu gpu;
    const auto golden = workloads::golden_output(w, gpu);
    const workloads::OutputSpec spec = w.output();

    for (perfi::SyndromeMode mode :
         {perfi::SyndromeMode::PowerLaw, perfi::SyndromeMode::RandomBit}) {
      std::size_t sdc = 0, masked = 0;
      std::vector<double> out_errs;
      for (std::size_t i = 0; i < n; ++i) {
        perfi::SyndromeSpec spec_i;
        spec_i.lane = static_cast<unsigned>(i % 32);
        spec_i.mode = mode;
        spec_i.x_min = fit.x_min > 0 ? fit.x_min : 1e-7;
        spec_i.alpha = fit.alpha > 1.0 ? fit.alpha : 1.7;
        spec_i.seed = i * 31 + 7;
        spec_i.activation = 0.5;
        perfi::SyndromeInjector injector(spec_i);
        arch::Gpu g;
        g.set_hooks(&injector);
        w.setup(g);
        const workloads::RunStats s = w.run(g, 400'000);
        g.set_hooks(nullptr);
        if (!s.ok) continue;  // rare (address-feeding corruption)
        bool differs = false;
        const std::span<const std::uint32_t> out = g.read_global(spec.addr, spec.words);
        for (std::size_t k = 0; k < spec.words; ++k) {
          const std::uint32_t got = out[k];
          if (got == golden[k]) continue;
          differs = true;
          if (spec.is_float) {
            const float fg = bits_f32(golden[k]), fb = bits_f32(got);
            if (std::isfinite(fg) && std::isfinite(fb) && fg != 0.0f)
              out_errs.push_back(std::fabs((fb - fg) / fg));
            else
              out_errs.push_back(1e30);
          }
        }
        differs ? ++sdc : ++masked;
      }
      std::vector<double> sorted = out_errs;
      std::sort(sorted.begin(), sorted.end());
      t.row({name,
             mode == perfi::SyndromeMode::PowerLaw ? "Eq. 1 power law" : "random bit",
             std::to_string(sdc), std::to_string(masked),
             sorted.empty() ? "-" : Table::num(stats::median(sorted), 6),
             sorted.empty() ? "-" : Table::num(sorted.back(), 3)});
    }
  }
  t.print(std::cout);
  std::cout << "\nRandom bit flips regularly hit exponent/sign bits and produce\n"
               "orders-of-magnitude output errors the measured power-law\n"
               "syndrome almost never generates — the paper's argument for\n"
               "syndrome-faithful software injection.\n";
  return 0;
}
