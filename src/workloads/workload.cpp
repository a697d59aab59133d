#include "workloads/workload.hpp"

#include <memory>
#include <stdexcept>

namespace gpf::workloads {

void RunStats::accumulate(const arch::LaunchResult& r) {
  ++launches;
  cycles += r.cycles;
  instructions += r.instructions;
  for (std::size_t i = 0; i < unit_issues.size(); ++i)
    unit_issues[i] += r.unit_issues[i];
  ok = r.ok;
  if (!r.ok) trap = r.trap;
}

// Factories implemented across the app translation units.
namespace detail {
std::vector<std::unique_ptr<Workload>> make_linear_apps();    // vectoradd mxm gemm
std::vector<std::unique_ptr<Workload>> make_rodinia_apps();   // lava hotspot gaussian bfs lud nw cfd
std::vector<std::unique_ptr<Workload>> make_sort_apps();      // quicksort mergesort
std::vector<std::unique_ptr<Workload>> make_graph_apps();     // accl
std::vector<std::unique_ptr<Workload>> make_dnn_apps();       // lenet yolov3
std::vector<std::unique_ptr<Workload>> make_micro_apps();     // 14 profiling micro-workloads
std::vector<std::unique_ptr<Workload>> make_tmxm_apps();      // t-MxM mini-app variants
}  // namespace detail

namespace {

const std::vector<std::unique_ptr<Workload>>& all_workloads() {
  static const std::vector<std::unique_ptr<Workload>> all = [] {
    std::vector<std::unique_ptr<Workload>> v;
    for (auto maker : {detail::make_linear_apps, detail::make_rodinia_apps,
                       detail::make_sort_apps, detail::make_graph_apps,
                       detail::make_dnn_apps, detail::make_micro_apps,
                       detail::make_tmxm_apps}) {
      auto part = maker();
      for (auto& w : part) v.push_back(std::move(w));
    }
    return v;
  }();
  return all;
}

std::vector<const Workload*> pick(std::initializer_list<std::string_view> names) {
  std::vector<const Workload*> out;
  for (auto n : names) {
    const Workload* w = find(n);
    if (!w) throw std::logic_error("workload registry missing: " + std::string(n));
    out.push_back(w);
  }
  return out;
}

}  // namespace

const Workload* find(std::string_view name) {
  for (const auto& w : all_workloads())
    if (w->name() == name) return w.get();
  return nullptr;
}

std::vector<const Workload*> evaluation_set() {
  // Table 1 order.
  return pick({"vectoradd", "lava", "mxm", "gemm", "hotspot", "gaussian", "bfs",
               "lud", "accl", "nw", "cfd", "quicksort", "mergesort", "lenet",
               "yolov3"});
}

std::vector<const Workload*> profiling_set() {
  // The 14 representative workloads of the low-level characterization.
  return pick({"p_sort", "p_vector_add", "p_fft", "p_tiled_mxm", "p_naive_mxm",
               "p_reduction", "p_gray_filter", "p_sobel", "p_svm", "p_nn",
               "p_scan3d", "p_transpose", "p_euler3d", "p_backprop"});
}

std::vector<std::uint32_t> golden_output(const Workload& w, arch::Gpu& gpu) {
  gpu.clear_memories();
  w.setup(gpu);
  const RunStats stats = w.run(gpu);
  if (!stats.ok) throw std::runtime_error("golden run failed for " +
                                          std::string(w.name()));
  const OutputSpec spec = w.output();
  const std::span<const std::uint32_t> out = gpu.read_global(spec.addr, spec.words);
  return {out.begin(), out.end()};
}

}  // namespace gpf::workloads
