// Table 1 reproduction: the 15 evaluation workloads, validated fault-free
// against their host references, with execution statistics.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "common/bitops.hpp"
#include "common/table.hpp"
#include "workloads/workload.hpp"

using namespace gpf;

namespace {

bool validate(const workloads::Workload& w, arch::Gpu& gpu) {
  const workloads::OutputSpec spec = w.output();
  if (spec.is_float) {
    const auto expect = w.host_reference_f();
    const auto got = gpu.read_global_f(spec.addr, spec.words);
    for (std::size_t i = 0; i < spec.words; ++i) {
      const double tol =
          spec.tolerance * std::max(1.0, std::fabs(static_cast<double>(expect[i])));
      if (std::fabs(got[i] - expect[i]) > tol) return false;
    }
    return true;
  }
  return std::ranges::equal(gpu.read_global(spec.addr, spec.words),
                            w.host_reference_u());
}

}  // namespace

int main() {
  Table t("Table 1 — codes used for the software-level error injections");
  t.header({"code", "data type", "domain", "suite", "kernels", "instructions",
            "cycles", "validates"});
  for (const workloads::Workload* w : workloads::evaluation_set()) {
    arch::Gpu gpu;
    w->setup(gpu);
    const workloads::RunStats s = w->run(gpu);
    const bool ok = s.ok && validate(*w, gpu);
    t.row({std::string(w->name()), std::string(w->data_type()),
           std::string(w->domain()), std::string(w->suite()),
           std::to_string(s.launches), std::to_string(s.instructions),
           std::to_string(s.cycles), ok ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\nAll outputs are checked against host references; the\n"
               "fault-injection campaigns compare bit-exactly against the\n"
               "fault-free simulator run instead.\n";
  return 0;
}
