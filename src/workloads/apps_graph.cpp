// accl — connected-component labelling (NUPAR ACCL formulation): iterative
// label propagation with min-reduction over neighbours, one kernel pair per
// iteration until a fixed point (host polls a convergence flag).
#include <array>
#include <memory>

#include "isa/builder.hpp"
#include "workloads/common.hpp"

namespace gpf::workloads {
namespace {

using isa::Cmp;
using isa::KernelBuilder;
using isa::SpecialReg;
using Reg = KernelBuilder::Reg;

class Accl final : public AppBase {
 public:
  static constexpr std::uint32_t kNodes = 256;
  static constexpr std::uint32_t kClusters = 8;
  static constexpr std::uint32_t kRowOff = 0, kCols = 1024, kLabelA = 4096,
                                 kLabelB = 5120, kFlag = 6144;

  Accl() : AppBase("accl", "INT32", "Graphs", "NUPAR"),
           a2b_(build_propagate(kLabelA, kLabelB)),
           b2a_(build_propagate(kLabelB, kLabelA)) {}

  struct Graph {
    std::vector<std::uint32_t> row_off, cols;
  };

  /// kClusters disjoint rings with extra random intra-cluster chords.
  static Graph make_graph() {
    Rng rng(1301);
    const std::uint32_t per = kNodes / kClusters;
    Graph g;
    std::vector<std::vector<std::uint32_t>> adj(kNodes);
    for (std::uint32_t c = 0; c < kClusters; ++c) {
      const std::uint32_t base = c * per;
      for (std::uint32_t i = 0; i < per; ++i) {
        const std::uint32_t u = base + i;
        adj[u].push_back(base + (i + 1) % per);
        adj[u].push_back(base + (i + per - 1) % per);
        adj[u].push_back(base + static_cast<std::uint32_t>(rng.below(per)));
      }
    }
    g.row_off.resize(kNodes + 1);
    for (std::uint32_t u = 0; u < kNodes; ++u) {
      g.row_off[u] = static_cast<std::uint32_t>(g.cols.size());
      for (std::uint32_t v : adj[u]) g.cols.push_back(v);
    }
    g.row_off[kNodes] = static_cast<std::uint32_t>(g.cols.size());
    return g;
  }

  void setup(arch::Gpu& gpu) const override {
    const Graph g = make_graph();
    gpu.write_global(kRowOff, g.row_off);
    gpu.write_global(kCols, g.cols);
    std::vector<std::uint32_t> labels(kNodes);
    for (std::uint32_t i = 0; i < kNodes; ++i) labels[i] = i;
    gpu.write_global(kLabelA, labels);
    gpu.write_global(kLabelB, labels);
    gpu.reserve_global(kFlag, 1);
  }

  RunStats run(arch::Gpu& gpu, std::uint64_t mc) const override {
    RunStats s;
    for (int it = 0; it < 128; ++it) {
      gpu.write_global(kFlag, std::array<std::uint32_t, 1>{0});
      const isa::Program& prog = it % 2 == 0 ? a2b_ : b2a_;
      if (!step(gpu, s, prog, {kNodes / 64, 1, 1}, {64, 1, 1}, mc)) return s;
      // Converged: no label changed, so both buffers hold the fixed point
      // and output() can always read label A.
      if (gpu.read_global(kFlag, 1)[0] == 0) break;
    }
    return s;
  }

  OutputSpec output() const override { return {kLabelA, kNodes, false}; }

  std::vector<std::uint32_t> host_reference_u() const override {
    // Each cluster collapses to its minimum node id = base of the cluster.
    const std::uint32_t per = kNodes / kClusters;
    std::vector<std::uint32_t> labels(kNodes);
    for (std::uint32_t i = 0; i < kNodes; ++i) labels[i] = (i / per) * per;
    return labels;
  }

 private:
  static isa::Program build_propagate(std::uint32_t src, std::uint32_t dst) {
    KernelBuilder kb("accl_propagate");
    Reg gid = kb.reg(), tid = kb.reg(), cta = kb.reg(), ntid = kb.reg();
    kb.s2r(tid, SpecialReg::TID_X);
    kb.s2r(cta, SpecialReg::CTAID_X);
    kb.s2r(ntid, SpecialReg::NTID_X);
    kb.imad(gid, cta, ntid, tid);

    Reg lbl = kb.reg(), e = kb.reg(), end = kb.reg(), nb = kb.reg(), nl = kb.reg();
    kb.ldg(lbl, gid, src);
    Reg before = kb.reg();
    kb.mov(before, lbl);
    kb.ldg(e, gid, kRowOff);
    kb.ldg(end, gid, kRowOff + 1);
    auto ploop = kb.pred();
    kb.while_(ploop, false, [&] { kb.isetp(ploop, Cmp::LT, e, end); },
              [&] {
                kb.ldg(nb, e, kCols);
                kb.ldg(nl, nb, src);
                kb.imin(lbl, lbl, nl);
                kb.iaddi(e, e, 1);
              });
    kb.stg(gid, dst, lbl);
    auto pch = kb.pred();
    Reg one = kb.reg();
    kb.isetp(pch, Cmp::NE, lbl, before);
    kb.movi(one, 1);
    kb.on(pch).st(isa::MemSpace::Global, KernelBuilder::RZ, kFlag, one);
    return kb.build();
  }

  isa::Program a2b_, b2a_;
};

}  // namespace

namespace detail {
std::vector<std::unique_ptr<Workload>> make_graph_apps() {
  std::vector<std::unique_ptr<Workload>> v;
  v.push_back(std::make_unique<Accl>());
  return v;
}
}  // namespace detail

}  // namespace gpf::workloads
