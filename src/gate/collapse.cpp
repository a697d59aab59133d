#include "gate/collapse.hpp"

#include <memory>
#include <mutex>
#include <stdexcept>

#include "gate/compiled.hpp"

namespace gpf::gate {

namespace {

std::uint32_t find_root(std::vector<std::uint32_t>& parent, std::uint32_t v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];  // path halving
    v = parent[v];
  }
  return v;
}

}  // namespace

FaultCollapse::FaultCollapse(const Netlist& nl) {
  if (!nl.finalized()) throw std::logic_error("netlist not finalized");
  const CompiledNetlist& cn = nl.compiled();
  const std::size_t n = nl.num_nets();

  std::vector<std::uint8_t> protected_net(n, 0);
  for (const PortBus& bus : nl.outputs())
    for (const Net net : bus.nets) protected_net[static_cast<std::size_t>(net)] = 1;

  std::vector<std::uint32_t> parent(2 * n);
  for (std::uint32_t v = 0; v < parent.size(); ++v) parent[v] = v;
  const auto unite = [&](std::uint32_t x, std::uint32_t y) {
    const std::uint32_t rx = find_root(parent, x), ry = find_root(parent, y);
    if (rx != ry) parent[rx] = ry;
  };
  const auto fuse = [&](Net x, bool xv, Net z, bool zv) {
    unite(node(StuckFault{x, xv}), node(StuckFault{z, zv}));
  };

  // Merge an input fault into the gate-output fault only when the input is
  // a single-pin, unobserved net (see header).
  const auto mergeable = [&](Net x) {
    const GateKind k = nl.gate(x).kind;
    if (k == GateKind::Const0 || k == GateKind::Const1) return false;
    return cn.fanout_count(x) == 1 && !protected_net[static_cast<std::size_t>(x)];
  };
  for (std::size_t s = 0; s < cn.num_slots(); ++s) {
    const Net z = cn.out[s];
    const Net x = cn.a[s], y = cn.b[s];
    switch (cn.kind[s]) {
      case GateKind::Buf:
        if (mergeable(x)) { fuse(x, false, z, false); fuse(x, true, z, true); }
        break;
      case GateKind::Not:
        if (mergeable(x)) { fuse(x, false, z, true); fuse(x, true, z, false); }
        break;
      case GateKind::And:
        if (mergeable(x)) fuse(x, false, z, false);
        if (mergeable(y)) fuse(y, false, z, false);
        break;
      case GateKind::Nand:
        if (mergeable(x)) fuse(x, false, z, true);
        if (mergeable(y)) fuse(y, false, z, true);
        break;
      case GateKind::Or:
        if (mergeable(x)) fuse(x, true, z, true);
        if (mergeable(y)) fuse(y, true, z, true);
        break;
      case GateKind::Nor:
        if (mergeable(x)) fuse(x, true, z, false);
        if (mergeable(y)) fuse(y, true, z, false);
        break;
      default:
        break;  // Xor/Xnor/Mux: no structural equivalence
    }
  }

  // Pick each class's representative: the topologically deepest member
  // (smallest fanout cone when the batch engine simulates it), node id as
  // the deterministic tie-break. Constant nets never entered a union, so
  // every class consists of simulatable faults only.
  rep_.resize(2 * n);
  const auto deeper = [&](std::uint32_t a, std::uint32_t b) {
    const auto ta = cn.topo_index[a >> 1], tb = cn.topo_index[b >> 1];
    return ta != tb ? ta > tb : a > b;
  };
  std::vector<std::uint32_t> best(2 * n);
  for (std::uint32_t v = 0; v < 2 * n; ++v) best[v] = v;
  for (std::uint32_t v = 0; v < 2 * n; ++v) {
    const std::uint32_t r = find_root(parent, v);
    if (deeper(v, best[r])) best[r] = v;
  }
  for (std::uint32_t v = 0; v < 2 * n; ++v) rep_[v] = best[find_root(parent, v)];

  for (std::size_t i = 0; i < n; ++i) {
    const GateKind k = nl.gate(static_cast<Net>(i)).kind;
    if (k == GateKind::Const0 || k == GateKind::Const1) continue;
    fault_count_ += 2;
    for (const bool hi : {false, true})
      if (is_representative(StuckFault{static_cast<Net>(i), hi})) ++class_count_;
  }
}

const FaultCollapse& unit_collapse(UnitKind u) {
  static std::once_flag once[3];
  static std::unique_ptr<const FaultCollapse> col[3];
  const auto i = static_cast<std::size_t>(u);
  if (i >= 3) throw std::invalid_argument("unit_collapse: unknown unit");
  std::call_once(once[i],
                 [&] { col[i] = std::make_unique<FaultCollapse>(*unit_netlist(u)); });
  return *col[i];
}

}  // namespace gpf::gate
