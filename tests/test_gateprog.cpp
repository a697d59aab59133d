// The gate-program optimizer (gate/gateprog.hpp) must be a pure strength
// reduction: every fusion rule rewrites structure without changing any
// observable value, at every lane width, for faults on every net — including
// sites the fused stream no longer materializes (interior, folded, dead).
// These tests pin the per-rule rewrites structurally, then drive randomized
// netlists through the batch engine at every width against the scalar
// Simulator oracle.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gate/batchsim.hpp"
#include "gate/gateprog.hpp"
#include "gate/netlist.hpp"
#include "gate/sim.hpp"

namespace gpf::gate {
namespace {

/// The fused instruction computing net `n`, or nullptr if the optimizer
/// stopped writing it (interior / dead).
const Instr* fused_op(const GateProgram& gp, Net n) {
  const std::uint32_t w = gp.fused.write_op[static_cast<std::size_t>(n)];
  return w == kNoOp ? nullptr : &gp.fused.code[w];
}

const OpMeta* fused_meta(const GateProgram& gp, Net n) {
  const std::uint32_t w = gp.fused.write_op[static_cast<std::size_t>(n)];
  return w == kNoOp ? nullptr : &gp.fused.meta[w];
}

bool is_interior(const GateProgram& gp, Net n) {
  return (gp.net_flags[static_cast<std::size_t>(n)] & kNetInterior) != 0;
}

bool is_dead(const GateProgram& gp, Net n) {
  return (gp.net_flags[static_cast<std::size_t>(n)] & kNetDead) != 0;
}

// ---------------------------------------------------------------------------
// Per-rule structural tests
// ---------------------------------------------------------------------------

TEST(GateProgOptimizer, ConstantFoldingRewritesConstOperands) {
  Netlist nl;
  const Net a = nl.input();
  const Net c1 = nl.constant(true);
  const Net x = nl.and_(a, c1);  // And(a, 1) -> Copy(a)
  const Net y = nl.nor_(a, c1);  // Nor(a, 1) -> Const0
  nl.add_output_bus("o", {x, y});
  nl.finalize();
  const GateProgram& gp = nl.program();

  ASSERT_NE(fused_op(gp, x), nullptr);
  EXPECT_EQ(static_cast<Op>(fused_op(gp, x)->op), Op::Copy);
  EXPECT_EQ(fused_meta(gp, x)->src_a, a);
  EXPECT_TRUE(fused_meta(gp, x)->folded);

  ASSERT_NE(fused_op(gp, y), nullptr);
  EXPECT_EQ(static_cast<Op>(fused_op(gp, y)->op), Op::Const0);
  EXPECT_GE(gp.folded_ops, 2u);
}

TEST(GateProgOptimizer, BufNotChainFusesWithParity) {
  Netlist nl;
  const Net a = nl.input();
  const Net n1 = nl.not_(a);
  const Net n2 = nl.buf(n1);
  const Net n3 = nl.not_(n2);
  const Net n4 = nl.not_(n3);  // three inversions + one buf == NCopy(a)
  nl.add_output_bus("o", {n4});
  nl.finalize();
  const GateProgram& gp = nl.program();

  EXPECT_TRUE(is_interior(gp, n1));
  EXPECT_TRUE(is_interior(gp, n2));
  EXPECT_TRUE(is_interior(gp, n3));
  const Instr* op = fused_op(gp, n4);
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(static_cast<Op>(op->op), Op::NCopy);
  EXPECT_EQ(fused_meta(gp, n4)->src_a, a);
  EXPECT_EQ(fused_meta(gp, n4)->cover_count, 4u);  // all four slots
  // Interior sites re-expand through head_of for per-batch patching.
  for (const Net n : {n1, n2, n3})
    EXPECT_EQ(gp.head_of[static_cast<std::size_t>(n)],
              gp.fused.write_op[static_cast<std::size_t>(n4)]);
}

TEST(GateProgOptimizer, AoiPairFusesIntoFuse2Superop) {
  Netlist nl;
  const Net a = nl.input(), b = nl.input(), c = nl.input();
  const Net m1 = nl.and_(a, b);
  const Net z1 = nl.or_(m1, c);  // AND into OR: fuse2(f1=And, f2=Or)
  const Net m2 = nl.nand_(a, b);
  const Net z2 = nl.nor_(m2, c);  // NAND into NOR: both stages negated
  nl.add_output_bus("o", {z1, z2});
  nl.finalize();
  const GateProgram& gp = nl.program();

  EXPECT_TRUE(is_interior(gp, m1));
  const Instr* op1 = fused_op(gp, z1);
  ASSERT_NE(op1, nullptr);
  EXPECT_EQ(static_cast<Op>(op1->op), fuse2_op(false, true, false, false));
  EXPECT_EQ(fused_meta(gp, z1)->cover_count, 2u);

  EXPECT_TRUE(is_interior(gp, m2));
  const Instr* op2 = fused_op(gp, z2);
  ASSERT_NE(op2, nullptr);
  EXPECT_EQ(static_cast<Op>(op2->op), fuse2_op(false, true, true, true));
  EXPECT_GE(gp.fused_gates, 2u);
}

TEST(GateProgOptimizer, XorPairFusesIntoXor3WithParity) {
  Netlist nl;
  const Net a = nl.input(), b = nl.input(), c = nl.input(), d = nl.input();
  const Net x1 = nl.xor_(a, b);
  const Net z1 = nl.xor_(x1, c);  // (a^b)^c -> Xor3
  const Net x2 = nl.xnor_(a, d);
  const Net z2 = nl.xor_(x2, c);  // ~(a^d)^c -> Xnor3 (parity composes)
  nl.add_output_bus("o", {z1, z2});
  nl.finalize();
  const GateProgram& gp = nl.program();

  EXPECT_TRUE(is_interior(gp, x1));
  ASSERT_NE(fused_op(gp, z1), nullptr);
  EXPECT_EQ(static_cast<Op>(fused_op(gp, z1)->op), Op::Xor3);

  EXPECT_TRUE(is_interior(gp, x2));
  ASSERT_NE(fused_op(gp, z2), nullptr);
  EXPECT_EQ(static_cast<Op>(fused_op(gp, z2)->op), Op::Xnor3);
}

TEST(GateProgOptimizer, NCopyForwardingFlipsXorParity) {
  Netlist nl;
  const Net a = nl.input(), b = nl.input();
  const Net n = nl.not_(a);
  const Net z = nl.xor_(n, b);  // ~a ^ b == ~(a ^ b)
  nl.add_output_bus("o", {z});
  nl.finalize();
  const GateProgram& gp = nl.program();

  EXPECT_TRUE(is_interior(gp, n));
  const Instr* op = fused_op(gp, z);
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(static_cast<Op>(op->op), Op::Xnor);
  const OpMeta* m = fused_meta(gp, z);
  EXPECT_EQ(m->src_a, a);
  EXPECT_EQ(m->src_b, b);
}

TEST(GateProgOptimizer, MuxSelectInversionSwapsDataOperands) {
  Netlist nl;
  const Net sel = nl.input(), b = nl.input(), c = nl.input();
  const Net ns = nl.not_(sel);
  const Net z = nl.mux(ns, b, c);  // Mux(~s, b, c) == Mux(s, c, b)
  nl.add_output_bus("o", {z});
  nl.finalize();
  const GateProgram& gp = nl.program();

  EXPECT_TRUE(is_interior(gp, ns));
  const Instr* op = fused_op(gp, z);
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(static_cast<Op>(op->op), Op::Mux);
  const OpMeta* m = fused_meta(gp, z);
  EXPECT_EQ(m->src_a, sel);  // select forwarded through the inverter...
  EXPECT_EQ(m->src_b, c);    // ...by swapping the data legs
  EXPECT_EQ(m->src_c, b);
}

TEST(GateProgOptimizer, UnobservableGatesAreEliminated) {
  Netlist nl;
  const Net a = nl.input(), b = nl.input();
  const Net z = nl.and_(a, b);
  const Net dead1 = nl.or_(a, b);       // reaches no output and no DFF
  const Net dead2 = nl.not_(dead1);
  nl.add_output_bus("o", {z});
  nl.finalize();
  const GateProgram& gp = nl.program();

  EXPECT_TRUE(is_dead(gp, dead1));
  EXPECT_TRUE(is_dead(gp, dead2));
  EXPECT_EQ(fused_op(gp, dead2), nullptr);
  EXPECT_GE(gp.dead_gates, 2u);
  EXPECT_FALSE(gp.materialized(dead1));
}

TEST(GateProgOptimizer, ProtectedNetsStayValueExact) {
  // Output-bus nets and DFF D/EN pins are what classification reads; the
  // optimizer must keep them written at their own index even when fanout-1.
  Netlist nl;
  const Net a = nl.input(), en = nl.input();
  const Net d_pin = nl.buf(a);       // fanout-1 buf feeding a DFF D pin
  const Net en_pin = nl.not_(en);    // fanout-1 inverter feeding the EN pin
  const Net q = nl.dff(d_pin, en_pin);
  const Net bus = nl.not_(q);        // fanout-1 inverter feeding the bus
  nl.add_output_bus("o", {bus});
  nl.finalize();
  const GateProgram& gp = nl.program();

  for (const Net n : {d_pin, en_pin, bus, q}) {
    EXPECT_TRUE(gp.materialized(n)) << "net " << n;
    EXPECT_TRUE(gp.value_exact(n)) << "net " << n;
  }
  ASSERT_NE(fused_op(gp, bus), nullptr);
  EXPECT_EQ(static_cast<Op>(fused_op(gp, bus)->op), Op::NCopy);
}

TEST(GateProgOptimizer, StreamsStayLevelizedAndOpcodeGrouped) {
  // The scheduler may reorder ops inside a level (for dispatch prediction)
  // but must never break level order — consumers execute after producers.
  Rng rng(0x5EED);
  Netlist nl;
  std::vector<Net> nets;
  for (int i = 0; i < 6; ++i) nets.push_back(nl.input());
  for (int i = 0; i < 80; ++i) {
    const auto pick = [&] { return nets[rng.below(nets.size())]; };
    nets.push_back(i % 3 == 0 ? nl.xor_(pick(), pick())
                   : i % 3 == 1 ? nl.nand_(pick(), pick())
                                : nl.mux(pick(), pick(), pick()));
  }
  nl.add_output_bus("o", {nets.back(), nets[nets.size() - 2]});
  nl.finalize();
  const GateProgram& gp = nl.program();

  for (const Stream* st : {&gp.full, &gp.fused}) {
    std::int32_t prev = 0;
    for (std::size_t i = 0; i < st->code.size(); ++i) {
      EXPECT_GE(st->meta[i].level, prev) << "op " << i;
      prev = st->meta[i].level;
    }
  }
}

// ---------------------------------------------------------------------------
// Knob matrix: randomized netlists, every fault site, vs the Simulator oracle
// ---------------------------------------------------------------------------

/// Same shape as test_gate.cpp's generator: a levelized gate soup with DFF
/// feedback, so fused/folded/dead/interior fault sites all occur.
Netlist random_netlist(Rng& rng) {
  Netlist nl;
  std::vector<Net> nets;
  const std::size_t ni = 2 + rng.below(5);
  for (std::size_t i = 0; i < ni; ++i) nets.push_back(nl.input());
  if (rng.below(3) == 0) nets.push_back(nl.constant(rng.below(2) != 0));

  std::vector<Net> dffs;
  const std::size_t nd = rng.below(4);
  for (std::size_t i = 0; i < nd; ++i) {
    const Net d = nl.dff();
    dffs.push_back(d);
    nets.push_back(d);
  }
  const std::size_t ng = 12 + rng.below(40);
  for (std::size_t i = 0; i < ng; ++i) {
    const auto pick = [&] { return nets[rng.below(nets.size())]; };
    Net n;
    switch (rng.below(9)) {
      case 0: n = nl.buf(pick()); break;
      case 1: n = nl.not_(pick()); break;
      case 2: n = nl.and_(pick(), pick()); break;
      case 3: n = nl.or_(pick(), pick()); break;
      case 4: n = nl.nand_(pick(), pick()); break;
      case 5: n = nl.nor_(pick(), pick()); break;
      case 6: n = nl.xor_(pick(), pick()); break;
      case 7: n = nl.xnor_(pick(), pick()); break;
      default: n = nl.mux(pick(), pick(), pick()); break;
    }
    nets.push_back(n);
  }
  for (const Net d : dffs)
    nl.set_dff_input(d, nets[rng.below(nets.size())],
                     rng.below(2) ? nets[rng.below(nets.size())] : kNoNet);
  std::vector<Net> obs;
  for (int i = 0; i < 4; ++i) obs.push_back(nets[rng.below(nets.size())]);
  nl.add_output_bus("o", obs);
  nl.finalize();
  return nl;
}

std::vector<std::size_t> supported_widths() {
  std::vector<std::size_t> widths;
  for (const std::size_t w :
       {std::size_t{64}, std::size_t{256}, std::size_t{512}})
    if (batch_width_supported(w)) widths.push_back(w);
  return widths;
}

/// Drives `iters` random netlists through every supported width, faulting
/// EVERY net in both polarities (chunked into lane batches), and compares
/// per-lane values on the classification read set (bus nets + DFF outputs)
/// against a scalar Simulator carrying that lane's fault, cycle for cycle.
void run_width_matrix(std::uint64_t seed, int iters) {
  Rng rng(seed);
  for (int iter = 0; iter < iters; ++iter) {
    const Netlist nl = random_netlist(rng);

    std::vector<Net> probe;
    for (const PortBus& b : nl.outputs())
      probe.insert(probe.end(), b.nets.begin(), b.nets.end());
    for (const Net d : nl.dffs()) probe.push_back(d);

    std::vector<Net> inputs;
    for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n)
      if (nl.gate(n).kind == GateKind::Input) inputs.push_back(n);

    std::vector<StuckFault> all;
    for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n)
      for (const bool high : {false, true}) all.push_back({n, high});

    for (const std::size_t width : supported_widths()) {
      for (std::size_t base = 0; base < all.size(); base += width) {
        const std::size_t count = std::min(width, all.size() - base);
        const std::span<const StuckFault> chunk(all.data() + base, count);
        // Pre-generate the cycle inputs so every engine sees the same drive.
        std::vector<std::vector<std::uint8_t>> drive(4);
        for (auto& cyc : drive) {
          cyc.resize(inputs.size());
          for (auto& v : cyc) v = static_cast<std::uint8_t>(rng.below(2));
        }

        const auto run = [&](std::unique_ptr<BatchSim> sim) {
          sim->set_observed(probe);
          sim->begin(chunk);
          std::vector<std::uint8_t> out;
          for (const auto& cyc : drive) {
            // set_inputs reads only the input nets' bits of the row.
            std::vector<std::uint64_t> row((nl.num_nets() + 63) / 64, 0);
            for (std::size_t i = 0; i < inputs.size(); ++i) {
              const auto n = static_cast<std::size_t>(inputs[i]);
              row[n / 64] |= std::uint64_t{cyc[i]} << (n % 64);
            }
            sim->set_inputs(GoldenRow{row.data()});
            sim->eval();
            for (const Net n : probe)
              for (std::size_t k = 0; k < count; ++k)
                out.push_back(sim->value(n, static_cast<unsigned>(k)) ? 1 : 0);
            sim->clock();
          }
          return out;
        };

        // The oracle: one Simulator per lane, read in the same order.
        std::vector<std::uint8_t> want;
        std::vector<Simulator> sims;
        sims.reserve(count);
        for (const StuckFault& f : chunk) {
          sims.emplace_back(nl);
          sims.back().set_fault(f);
        }
        for (const auto& cyc : drive) {
          for (Simulator& sim : sims) {
            for (std::size_t i = 0; i < inputs.size(); ++i)
              sim.set_input(inputs[i], cyc[i] != 0);
            sim.eval();
          }
          for (const Net n : probe)
            for (const Simulator& sim : sims)
              want.push_back(sim.value(n) ? 1 : 0);
          for (Simulator& sim : sims) sim.clock();
        }

        const std::vector<std::uint8_t> got = run(make_batch_sim(nl, width));
        ASSERT_EQ(want, got)
            << "iter=" << iter << " width=" << width << " base=" << base;
      }
    }
  }
}

TEST(GateProgKnobMatrix, RandomNetlistsMatchSimulatorAtEveryWidth) {
  run_width_matrix(0xF00D, 25);
}

}  // namespace
}  // namespace gpf::gate
