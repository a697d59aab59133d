#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "gate/collapse.hpp"
#include "gate/netlist.hpp"
#include "gate/dictionary.hpp"
#include "gate/profiler.hpp"
#include "gate/replay.hpp"
#include "gate/sim.hpp"
#include "gate/units.hpp"
#include "gate/wordops.hpp"
#include "isa/builder.hpp"
#include "report/gate_experiments.hpp"
#include "workloads/workload.hpp"

namespace gpf::gate {
namespace {

// ---------------------------------------------------------------------------
// Word-level builders vs behavioural reference
// ---------------------------------------------------------------------------

class AdderSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(AdderSweep, MatchesReference) {
  const unsigned width = GetParam();
  Netlist nl;
  WordOps w(nl);
  Word a = w.inputs(width), b = w.inputs(width);
  Word sum = w.add(a, b, kNoNet, true);
  nl.add_input_bus("a", a);
  nl.add_input_bus("b", b);
  nl.add_output_bus("sum", sum);
  nl.finalize();
  Simulator sim(nl);
  Rng rng(width * 31 + 1);
  const std::uint64_t mask = width >= 64 ? ~0ull : (1ull << width) - 1;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t va = rng() & mask, vb = rng() & mask;
    sim.set_bus(*nl.find_input("a"), va);
    sim.set_bus(*nl.find_input("b"), vb);
    sim.eval();
    const std::uint64_t expect = (va + vb) & ((mask << 1) | 1);
    ASSERT_EQ(sim.bus_value(*nl.find_output("sum")), expect) << va << "+" << vb;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderSweep, ::testing::Values(4u, 8u, 16u, 32u));

TEST(WordOps, ComparatorsExhaustive) {
  Netlist nl;
  WordOps w(nl);
  Word a = w.inputs(5);
  Net eq7 = w.eq_const(a, 7);
  Net lt13 = w.lt_const(a, 13);
  nl.add_input_bus("a", a);
  nl.add_output_bus("eq7", {eq7});
  nl.add_output_bus("lt13", {lt13});
  nl.finalize();
  Simulator sim(nl);
  for (std::uint64_t v = 0; v < 32; ++v) {
    sim.set_bus(*nl.find_input("a"), v);
    sim.eval();
    EXPECT_EQ(sim.bus_value(*nl.find_output("eq7")), v == 7 ? 1u : 0u) << v;
    EXPECT_EQ(sim.bus_value(*nl.find_output("lt13")), v < 13 ? 1u : 0u) << v;
  }
}

TEST(WordOps, DecodeEncodeRoundTrip) {
  Netlist nl;
  WordOps w(nl);
  Word sel = w.inputs(3);
  Word onehot = w.decode_onehot(sel);
  Word enc = w.encode_priority(onehot, 3);
  nl.add_input_bus("sel", sel);
  nl.add_output_bus("onehot", onehot);
  nl.add_output_bus("enc", enc);
  nl.finalize();
  Simulator sim(nl);
  for (std::uint64_t v = 0; v < 8; ++v) {
    sim.set_bus(*nl.find_input("sel"), v);
    sim.eval();
    EXPECT_EQ(sim.bus_value(*nl.find_output("onehot")), 1ull << v);
    EXPECT_EQ(sim.bus_value(*nl.find_output("enc")), v);
  }
}

TEST(WordOps, RoundRobinArbiter) {
  Netlist nl;
  WordOps w(nl);
  Word req = w.inputs(8);
  Word ptr = w.inputs(3);
  auto arb = w.rr_arbiter(req, ptr);
  nl.add_input_bus("req", req);
  nl.add_input_bus("ptr", ptr);
  nl.add_output_bus("grant", arb.grant_onehot);
  nl.add_output_bus("any", {arb.any});
  nl.finalize();
  Simulator sim(nl);

  auto grant_of = [&](std::uint64_t requests, std::uint64_t pointer) {
    sim.set_bus(*nl.find_input("req"), requests);
    sim.set_bus(*nl.find_input("ptr"), pointer);
    sim.eval();
    return sim.bus_value(*nl.find_output("grant"));
  };
  // First request at/after the pointer wins, wrapping.
  EXPECT_EQ(grant_of(0b00000101, 0), 0b001u);
  EXPECT_EQ(grant_of(0b00000101, 1), 0b100u);
  EXPECT_EQ(grant_of(0b00000101, 3), 0b001u);  // wraps past slot 7
  EXPECT_EQ(grant_of(0b10000000, 5), 0b10000000u);
  EXPECT_EQ(grant_of(0, 2), 0u);
}

TEST(Simulator, DffCounter) {
  // A 4-bit counter built from DFFs + incrementer.
  Netlist nl;
  WordOps w(nl);
  Word q(4);
  for (auto& n : q) n = nl.dff();
  Word next = w.increment(q);
  for (unsigned b = 0; b < 4; ++b) nl.set_dff_input(q[b], next[b]);
  nl.add_output_bus("q", q);
  nl.finalize();
  Simulator sim(nl);
  sim.reset();
  for (std::uint64_t expect = 0; expect < 20; ++expect) {
    sim.eval();
    EXPECT_EQ(sim.bus_value(*nl.find_output("q")), expect & 0xF);
    sim.clock();
  }
}

TEST(Simulator, StuckAtFaultOverridesNet) {
  Netlist nl;
  const Net a = nl.input();
  const Net b = nl.input();
  const Net o = nl.and_(a, b);
  nl.add_output_bus("o", {o});
  nl.finalize();
  Simulator sim(nl);
  sim.set_fault(StuckFault{o, true});
  sim.set_input(a, false);
  sim.set_input(b, false);
  sim.eval();
  EXPECT_TRUE(sim.value(o));           // stuck high despite 0&0
  EXPECT_FALSE(sim.fault_site_golden());  // golden would be 0 -> activated
}

TEST(Simulator, FaultListCoversAllNets) {
  auto nl = build_decoder_unit();
  const auto faults = full_fault_list(*nl);
  EXPECT_GT(faults.size(), 2000u);
  EXPECT_EQ(faults.size() % 2, 0u);
}

// ---------------------------------------------------------------------------
// Decoder netlist equivalence with the functional decoder
// ---------------------------------------------------------------------------

class DecoderEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DecoderEquivalence, MatchesFunctionalDecode) {
  auto nl = build_decoder_unit();
  Simulator sim(*nl);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);

  for (int i = 0; i < 400; ++i) {
    isa::Instruction in;
    // Random valid instruction.
    std::uint8_t raw;
    do {
      raw = static_cast<std::uint8_t>(rng.below(256));
    } while (!isa::is_valid_opcode(raw));
    in.op = static_cast<isa::Op>(raw);
    in.guard_pred = static_cast<std::uint8_t>(rng.below(8));
    in.guard_neg = rng.chance(0.5);
    in.rd = static_cast<std::uint8_t>(rng.below(256));
    in.rs1 = static_cast<std::uint8_t>(rng.below(256));
    in.use_imm = rng.chance(0.5);
    if (in.use_imm)
      in.imm = static_cast<std::uint32_t>(rng());
    else {
      in.rs2 = static_cast<std::uint8_t>(rng.below(256));
      in.rs3 = static_cast<std::uint8_t>(rng.below(256));
    }
    in.space = static_cast<isa::MemSpace>(rng.below(4));
    const std::uint64_t word = isa::encode(in);

    sim.set_bus(*nl->find_input("instr"), word);
    sim.set_bus(*nl->find_input("fetch_valid"), 1);
    sim.eval();

    ASSERT_EQ(sim.bus_value(*nl->find_output("valid")), 1u);
    ASSERT_EQ(sim.bus_value(*nl->find_output("opcode")), raw);
    ASSERT_EQ(sim.bus_value(*nl->find_output("guard_pred")), in.guard_pred);
    ASSERT_EQ(sim.bus_value(*nl->find_output("guard_neg")), in.guard_neg ? 1u : 0u);
    ASSERT_EQ(sim.bus_value(*nl->find_output("rd")), in.rd);
    ASSERT_EQ(sim.bus_value(*nl->find_output("rs1")), in.rs1);
    if (in.use_imm) {
      ASSERT_EQ(sim.bus_value(*nl->find_output("imm")), in.imm);
      ASSERT_EQ(sim.bus_value(*nl->find_output("rs2")), 0u);
    } else {
      ASSERT_EQ(sim.bus_value(*nl->find_output("rs2")), in.rs2);
      ASSERT_EQ(sim.bus_value(*nl->find_output("rs3")), in.rs3);
      ASSERT_EQ(sim.bus_value(*nl->find_output("imm")), 0u);
    }
    const auto unit = isa::unit_of(in.op);
    ASSERT_EQ(sim.bus_value(*nl->find_output("is_int")),
              unit == isa::UnitClass::INT ? 1u : 0u);
    ASSERT_EQ(sim.bus_value(*nl->find_output("is_fp32")),
              unit == isa::UnitClass::FP32 ? 1u : 0u);
    ASSERT_EQ(sim.bus_value(*nl->find_output("is_sfu")),
              unit == isa::UnitClass::SFU ? 1u : 0u);
    ASSERT_EQ(sim.bus_value(*nl->find_output("is_mem")),
              unit == isa::UnitClass::MEM ? 1u : 0u);
    ASSERT_EQ(sim.bus_value(*nl->find_output("writes_pred")),
              isa::writes_predicate(in.op) ? 1u : 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderEquivalence, ::testing::Range(0, 4));

TEST(DecoderUnit, RejectsInvalidOpcode) {
  auto nl = build_decoder_unit();
  Simulator sim(*nl);
  sim.set_bus(*nl->find_input("instr"), std::uint64_t{0xEF} << 56);
  sim.set_bus(*nl->find_input("fetch_valid"), 1);
  sim.eval();
  EXPECT_EQ(sim.bus_value(*nl->find_output("valid")), 0u);
}

// ---------------------------------------------------------------------------
// Fetch netlist behaviour
// ---------------------------------------------------------------------------

TEST(FetchUnit, SequentialPcTracking) {
  auto nl = build_fetch_unit();
  Simulator sim(*nl);
  sim.reset();

  auto drive = [&](FetchCycle fc) {
    sim.set_bus(*nl->find_input("sel_slot"), fc.sel_slot);
    sim.set_bus(*nl->find_input("sel_valid"), fc.sel_valid);
    sim.set_bus(*nl->find_input("instr_in"), fc.instr_in);
    sim.set_bus(*nl->find_input("redirect_en"), fc.redirect_en);
    sim.set_bus(*nl->find_input("redirect_pc"), fc.redirect_pc);
    sim.set_bus(*nl->find_input("pc_wr_en"), fc.pc_wr_en);
    sim.set_bus(*nl->find_input("init_en"), fc.init_en);
    sim.set_bus(*nl->find_input("init_slot"), fc.init_slot);
    sim.set_bus(*nl->find_input("init_pc"), fc.init_pc);
    sim.eval();
    const auto pc = sim.bus_value(*nl->find_output("pc_out"));
    sim.clock();
    return pc;
  };

  // Init warp 2's PC to 100.
  FetchCycle init;
  init.init_en = true;
  init.init_slot = 2;
  init.init_pc = 100;
  drive(init);

  // Three sequential issues from warp 2: PC 100, 101, 102.
  FetchCycle issue;
  issue.sel_slot = 2;
  issue.sel_valid = true;
  issue.pc_wr_en = true;
  EXPECT_EQ(drive(issue), 100u);
  EXPECT_EQ(drive(issue), 101u);
  EXPECT_EQ(drive(issue), 102u);

  // Redirect (branch) to 7, then sequential.
  issue.redirect_en = true;
  issue.redirect_pc = 7;
  EXPECT_EQ(drive(issue), 103u);
  issue.redirect_en = false;
  EXPECT_EQ(drive(issue), 7u);
  EXPECT_EQ(drive(issue), 8u);

  // Another warp keeps its own PC.
  FetchCycle other = issue;
  other.sel_slot = 5;
  EXPECT_EQ(drive(other), 0u);
  EXPECT_EQ(drive(issue), 9u);
}

TEST(FetchUnit, InstructionBusPassesThrough) {
  auto nl = build_fetch_unit();
  Simulator sim(*nl);
  sim.reset();
  sim.set_bus(*nl->find_input("instr_in"), 0xDEADBEEFCAFE1234ull);
  sim.set_bus(*nl->find_input("sel_valid"), 1);
  sim.eval();
  EXPECT_EQ(sim.bus_value(*nl->find_output("instr_out")), 0xDEADBEEFCAFE1234ull);
  EXPECT_EQ(sim.bus_value(*nl->find_output("fetch_valid")), 1u);
}

// ---------------------------------------------------------------------------
// WSC netlist behaviour
// ---------------------------------------------------------------------------

struct WscDriver {
  std::unique_ptr<Netlist> nl = build_wsc_unit();
  Simulator sim{*nl};

  void cycle(const WscCycle& wc, bool do_clock = true) {
    sim.set_bus(*nl->find_input("wr_slot"), wc.wr_slot);
    sim.set_bus(*nl->find_input("wr_state_en"), wc.wr_state_en);
    sim.set_bus(*nl->find_input("wr_valid"), wc.wr_valid);
    sim.set_bus(*nl->find_input("wr_done"), wc.wr_done);
    sim.set_bus(*nl->find_input("wr_barrier"), wc.wr_barrier);
    sim.set_bus(*nl->find_input("wr_mask_en"), wc.wr_mask_en);
    sim.set_bus(*nl->find_input("wr_mask"), wc.wr_mask);
    sim.set_bus(*nl->find_input("wr_base_en"), wc.wr_base_en);
    sim.set_bus(*nl->find_input("wr_base"), wc.wr_base);
    sim.set_bus(*nl->find_input("wr_cta_en"), wc.wr_cta_en);
    sim.set_bus(*nl->find_input("wr_cta"), wc.wr_cta);
    sim.set_bus(*nl->find_input("lane_cfg_en"), wc.lane_cfg_en);
    sim.set_bus(*nl->find_input("lane_cfg"), wc.lane_cfg);
    sim.set_bus(*nl->find_input("barrier_release"), wc.barrier_release);
    sim.set_bus(*nl->find_input("ibuf_en"), wc.ibuf_en);
    sim.set_bus(*nl->find_input("ibuf_in"), wc.ibuf_in);
    sim.set_bus(*nl->find_input("issue_en"), wc.is_issue);
    sim.eval();
    if (do_clock) sim.clock();
  }

  void write_warp(unsigned slot, bool valid, bool done, bool barrier,
                  std::uint32_t mask) {
    WscCycle c;
    c.wr_slot = static_cast<std::uint8_t>(slot);
    c.wr_state_en = true;
    c.wr_valid = valid;
    c.wr_done = done;
    c.wr_barrier = barrier;
    cycle(c);
    WscCycle m;
    m.wr_slot = static_cast<std::uint8_t>(slot);
    m.wr_mask_en = true;
    m.wr_mask = mask;
    cycle(m);
  }
};

TEST(WscUnit, RoundRobinSelection) {
  WscDriver d;
  WscCycle lanes;
  lanes.lane_cfg_en = true;
  lanes.lane_cfg = 0xFFFFFFFFu;
  d.cycle(lanes);
  d.write_warp(1, true, false, false, 0xFFFF);
  d.write_warp(4, true, false, false, 0xFF00);

  WscCycle issue;
  issue.is_issue = true;
  d.cycle(issue, false);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("sel_valid")), 1u);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("sel_slot")), 1u);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("mask_out")), 0xFFFFu);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("active_lanes")), 0xFFFFu);
  d.sim.clock();  // pointer moves past slot 1

  d.cycle(issue, false);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("sel_slot")), 4u);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("mask_out")), 0xFF00u);
  d.sim.clock();

  d.cycle(issue, false);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("sel_slot")), 1u);  // wraps
}

TEST(WscUnit, BarrierBlocksAndReleases) {
  WscDriver d;
  d.write_warp(0, true, false, true, 0xF);   // at barrier
  d.write_warp(3, true, true, false, 0xF0);  // done

  WscCycle issue;
  issue.is_issue = true;
  d.cycle(issue, false);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("sel_valid")), 0u);
  d.sim.clock();

  WscCycle release;
  release.barrier_release = true;
  d.cycle(release);
  d.cycle(issue, false);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("sel_valid")), 1u);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("sel_slot")), 0u);
}

TEST(WscUnit, LaneConfigGatesActiveLanes) {
  WscDriver d;
  WscCycle lanes;
  lanes.lane_cfg_en = true;
  lanes.lane_cfg = 0x0000FFFFu;  // half the lanes disabled
  d.cycle(lanes);
  d.write_warp(0, true, false, false, 0xFFFFFFFFu);
  WscCycle issue;
  d.cycle(issue, false);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("active_lanes")), 0x0000FFFFu);
}

TEST(WscUnit, DispatchBufferBypasses) {
  WscDriver d;
  WscCycle c;
  c.ibuf_en = true;
  c.ibuf_in = 0x1122334455667788ull;
  d.cycle(c, false);
  EXPECT_EQ(d.sim.bus_value(*d.nl->find_output("dispatch")), 0x1122334455667788ull);
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

TEST(Classify, OpcodeCorruption) {
  isa::Instruction in;
  in.op = isa::Op::IADD;
  in.rd = 1;
  in.rs1 = 2;
  in.rs2 = 3;
  const std::uint64_t g = isa::encode(in);
  std::array<std::uint32_t, errmodel::kNumErrorModels> counts{};
  bool hang = false;

  // Flip opcode to another valid one -> IOC.
  isa::Instruction f = in;
  f.op = isa::Op::ISUB;
  EXPECT_TRUE(classify_word_diff(g, isa::encode(f), 32, counts, hang));
  EXPECT_EQ(counts[static_cast<unsigned>(errmodel::ErrorModel::IOC)], 1u);

  // Invalid opcode -> IVOC.
  counts = {};
  const std::uint64_t bad = g | (std::uint64_t{0x80} << 56);
  EXPECT_TRUE(classify_word_diff(g, bad, 32, counts, hang));
  EXPECT_EQ(counts[static_cast<unsigned>(errmodel::ErrorModel::IVOC)], 1u);
}

TEST(Classify, RegisterCorruption) {
  isa::Instruction in;
  in.op = isa::Op::IADD;
  in.rd = 1;
  in.rs1 = 2;
  in.rs2 = 3;
  const std::uint64_t g = isa::encode(in);
  std::array<std::uint32_t, errmodel::kNumErrorModels> counts{};
  bool hang = false;

  isa::Instruction f = in;
  f.rd = 5;  // valid wrong register
  classify_word_diff(g, isa::encode(f), 32, counts, hang);
  EXPECT_EQ(counts[static_cast<unsigned>(errmodel::ErrorModel::IRA)], 1u);

  counts = {};
  f = in;
  f.rs1 = 200;  // out of bounds
  classify_word_diff(g, isa::encode(f), 32, counts, hang);
  EXPECT_EQ(counts[static_cast<unsigned>(errmodel::ErrorModel::IVRA)], 1u);
}

TEST(Classify, PredicateImmediateAndSpace) {
  std::array<std::uint32_t, errmodel::kNumErrorModels> counts{};
  bool hang = false;

  isa::Instruction in;
  in.op = isa::Op::LD;
  in.rd = 1;
  in.rs1 = 2;
  in.use_imm = true;
  in.imm = 100;
  in.space = isa::MemSpace::Global;
  const std::uint64_t g = isa::encode(in);

  isa::Instruction f = in;
  f.guard_pred = 3;
  classify_word_diff(g, isa::encode(f), 32, counts, hang);
  EXPECT_EQ(counts[static_cast<unsigned>(errmodel::ErrorModel::WV)], 1u);

  counts = {};
  f = in;
  f.imm = 104;
  classify_word_diff(g, isa::encode(f), 32, counts, hang);
  EXPECT_EQ(counts[static_cast<unsigned>(errmodel::ErrorModel::IIO)], 1u);

  counts = {};
  f = in;
  f.space = isa::MemSpace::Shared;
  classify_word_diff(g, isa::encode(f), 32, counts, hang);
  EXPECT_EQ(counts[static_cast<unsigned>(errmodel::ErrorModel::IMS)], 1u);

  counts = {};
  isa::Instruction st = in;
  st.op = isa::Op::ST;
  isa::Instruction stf = st;
  stf.space = isa::MemSpace::Local;
  classify_word_diff(isa::encode(st), isa::encode(stf), 32, counts, hang);
  EXPECT_EQ(counts[static_cast<unsigned>(errmodel::ErrorModel::IMD)], 1u);
}

TEST(Classify, S2RCorruptionIsIAT) {
  std::array<std::uint32_t, errmodel::kNumErrorModels> counts{};
  bool hang = false;
  isa::Instruction in;
  in.op = isa::Op::S2R;
  in.rd = 1;
  in.rs1 = 0;  // SR_TID_X
  isa::Instruction f = in;
  f.rs1 = 6;  // SR_CTAID_X
  classify_word_diff(isa::encode(in), isa::encode(f), 32, counts, hang);
  EXPECT_EQ(counts[static_cast<unsigned>(errmodel::ErrorModel::IAT)], 1u);
}

// ---------------------------------------------------------------------------
// Profiler + replay integration
// ---------------------------------------------------------------------------

isa::Program tiny_kernel() {
  isa::KernelBuilder kb("tiny");
  auto tid = kb.reg();
  auto v = kb.reg();
  auto p = kb.pred();
  kb.s2r(tid, isa::SpecialReg::TID_X);
  kb.isetpi(p, isa::Cmp::LT, tid, 16);
  kb.if_(p, false, [&] { kb.iaddi(v, tid, 100); }, [&] { kb.iaddi(v, tid, 200); });
  kb.stg(tid, 0, v);
  return kb.build();
}

TEST(Profiler, CapturesTraces) {
  arch::Gpu gpu;
  UnitProfiler prof(1000);
  gpu.set_hooks(&prof);
  const isa::Program prog = tiny_kernel();
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {64, 1, 1}).ok);
  gpu.set_hooks(nullptr);
  UnitTraces t = prof.take("tiny");
  EXPECT_GT(t.issues, 0u);
  EXPECT_FALSE(t.decoder.empty());
  EXPECT_FALSE(t.fetch.empty());
  EXPECT_FALSE(t.wsc.empty());
  // Dedup: the decoder pattern count sums to the issue count.
  std::uint64_t total = 0;
  for (const auto& p : t.decoder) total += p.count;
  EXPECT_EQ(total, t.issues);
}

TEST(Replay, GoldenFetchMatchesFunctionalPcs) {
  arch::Gpu gpu;
  UnitProfiler prof(1000);
  gpu.set_hooks(&prof);
  ASSERT_TRUE(gpu.launch(tiny_kernel(), {1, 1, 1}, {64, 1, 1}).ok);
  gpu.set_hooks(nullptr);
  const UnitTraces t = prof.take("tiny");

  UnitReplayer rep(UnitKind::Fetch);
  const auto golden = rep.compute_goldens({&t, 1})[0];
  const PortBus* pc_out = rep.netlist().find_output("pc_out");
  for (std::size_t c = 0; c < t.fetch.size(); ++c) {
    if (!t.fetch[c].is_issue) continue;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < pc_out->nets.size(); ++i)
      if (golden.row(c)[static_cast<std::size_t>(pc_out->nets[i])])
        v |= std::uint64_t{1} << i;
    ASSERT_EQ(v, t.fetch[c].expected_pc) << "cycle " << c;
  }
}

TEST(Replay, GoldenWscMatchesFunctionalSelection) {
  arch::Gpu gpu;
  UnitProfiler prof(1000);
  gpu.set_hooks(&prof);
  ASSERT_TRUE(gpu.launch(tiny_kernel(), {1, 1, 1}, {64, 1, 1}).ok);
  gpu.set_hooks(nullptr);
  const UnitTraces t = prof.take("tiny");

  UnitReplayer rep(UnitKind::WSC);
  const auto golden = rep.compute_goldens({&t, 1})[0];
  const PortBus* sel = rep.netlist().find_output("sel_slot");
  const PortBus* sv = rep.netlist().find_output("sel_valid");
  for (std::size_t c = 0; c < t.wsc.size(); ++c) {
    if (!t.wsc[c].is_issue) continue;
    std::uint64_t slot = 0, valid = 0;
    for (std::size_t i = 0; i < sel->nets.size(); ++i)
      if (golden.row(c)[static_cast<std::size_t>(sel->nets[i])])
        slot |= std::uint64_t{1} << i;
    valid = golden.row(c)[static_cast<std::size_t>(sv->nets[0])];
    ASSERT_EQ(valid, 1u) << "cycle " << c;
    ASSERT_EQ(slot, t.wsc[c].expected_slot) << "cycle " << c;
  }
}

/// One unit's in-memory campaign over `traces`, as the benches run it.
UnitCampaignResult run_campaign(UnitKind u, const std::vector<UnitTraces>& traces,
                                std::size_t faults, std::uint64_t seed) {
  return report::run_unit_campaign(
      traces, report::gate_campaign_meta(u, faults, 0, seed, campaign_engine()));
}

TEST(Replay, CampaignProducesAllClasses) {
  arch::Gpu gpu;
  UnitProfiler prof(500);
  gpu.set_hooks(&prof);
  ASSERT_TRUE(gpu.launch(tiny_kernel(), {1, 1, 1}, {64, 1, 1}).ok);
  gpu.set_hooks(nullptr);
  const std::vector<UnitTraces> traces = {prof.take("tiny")};

  for (UnitKind u : {UnitKind::Decoder, UnitKind::Fetch, UnitKind::WSC}) {
    const UnitCampaignResult res = run_campaign(u, traces, 300, 42);
    EXPECT_EQ(res.faults.size(), 300u) << unit_name(u);
    EXPECT_GT(res.full_fault_list_size, 500u) << unit_name(u);
    // At minimum some faults propagate to unit outputs and some are benign.
    EXPECT_GT(res.count_class(FaultClass::SwError), 0u) << unit_name(u);
    EXPECT_GT(res.count_class(FaultClass::Uncontrollable) +
                  res.count_class(FaultClass::Masked),
              0u)
        << unit_name(u);
  }
}

TEST(Replay, WscFaultsProduceParallelManagementErrors) {
  arch::Gpu gpu;
  UnitProfiler prof(500);
  gpu.set_hooks(&prof);
  ASSERT_TRUE(gpu.launch(tiny_kernel(), {1, 1, 1}, {64, 1, 1}).ok);
  gpu.set_hooks(nullptr);
  const std::vector<UnitTraces> traces = {prof.take("tiny")};

  const UnitCampaignResult res = run_campaign(UnitKind::WSC, traces, 1200, 7);
  std::size_t parallel_mgmt = 0;
  for (auto m : {errmodel::ErrorModel::IAT, errmodel::ErrorModel::IAW,
                 errmodel::ErrorModel::IAC, errmodel::ErrorModel::IPP})
    parallel_mgmt += res.faults_with_model(m);
  EXPECT_GT(parallel_mgmt, 0u);
}

}  // namespace
}  // namespace gpf::gate

namespace gpf::gate {
namespace {

TEST(FaultDictionary, RoundTrips) {
  arch::Gpu gpu;
  UnitProfiler prof(300);
  gpu.set_hooks(&prof);
  const workloads::Workload* w = workloads::find("p_naive_mxm");
  w->setup(gpu);
  ASSERT_TRUE(w->run(gpu).ok);
  gpu.set_hooks(nullptr);
  const std::vector<UnitTraces> traces = {prof.take("p_naive_mxm")};

  const UnitCampaignResult res = run_campaign(UnitKind::Decoder, traces, 120, 3);
  std::stringstream ss;
  write_fault_dictionary(ss, res);
  const auto loaded = read_fault_dictionary(ss);
  ASSERT_EQ(loaded.size(), res.faults.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].fault.net, res.faults[i].fault.net);
    EXPECT_EQ(loaded[i].fault.stuck_high, res.faults[i].fault.stuck_high);
    EXPECT_EQ(loaded[i].activated, res.faults[i].activated);
    EXPECT_EQ(loaded[i].hang, res.faults[i].hang);
    EXPECT_EQ(loaded[i].error_counts, res.faults[i].error_counts);
    EXPECT_EQ(loaded[i].cls(), res.faults[i].cls());
  }
}

// ---------------------------------------------------------------------------
// Compiled netlist vs legacy per-Gate walk (randomized property test)
// ---------------------------------------------------------------------------

namespace {

/// Reference evaluator that walks gate(n) through eval_order() — the
/// pre-compiled execution model — so the Simulator's compiled-program path
/// is checked against an independent interpretation of the same netlist.
struct ReferenceSim {
  const Netlist& nl;
  std::vector<std::uint8_t> vals;

  explicit ReferenceSim(const Netlist& n) : nl(n), vals(n.num_nets(), 0) {
    for (const auto& [net, v] : nl.constants())
      vals[static_cast<std::size_t>(net)] = v;
  }
  bool v(Net n) const { return vals[static_cast<std::size_t>(n)] != 0; }
  void eval() {
    for (const Net n : nl.eval_order()) {
      const Gate& g = nl.gate(n);
      bool out;
      switch (g.kind) {
        case GateKind::Buf: out = v(g.a); break;
        case GateKind::Not: out = !v(g.a); break;
        case GateKind::And: out = v(g.a) && v(g.b); break;
        case GateKind::Or: out = v(g.a) || v(g.b); break;
        case GateKind::Nand: out = !(v(g.a) && v(g.b)); break;
        case GateKind::Nor: out = !(v(g.a) || v(g.b)); break;
        case GateKind::Xor: out = v(g.a) != v(g.b); break;
        case GateKind::Xnor: out = v(g.a) == v(g.b); break;
        case GateKind::Mux: out = v(g.a) ? v(g.c) : v(g.b); break;
        default: continue;
      }
      vals[static_cast<std::size_t>(n)] = out ? 1 : 0;
    }
  }
  void clock() {
    std::vector<std::pair<Net, std::uint8_t>> next;
    for (const Net d : nl.dffs()) {
      const Gate& g = nl.gate(d);
      const bool en = g.b == kNoNet ? true : v(g.b);
      const bool dv = g.a == kNoNet ? v(d) : v(g.a);
      next.emplace_back(d, (en ? dv : v(d)) ? 1 : 0);
    }
    for (const auto& [d, nv] : next) vals[static_cast<std::size_t>(d)] = nv;
  }
};

/// A random levelized netlist with DFF feedback: inputs, a gate soup drawing
/// operands from every already-defined net (including forward references to
/// DFF outputs), and late-bound DFF D/enable pins.
Netlist random_netlist(Rng& rng) {
  Netlist nl;
  std::vector<Net> nets;
  const std::size_t ni = 2 + rng.below(6);
  for (std::size_t i = 0; i < ni; ++i) nets.push_back(nl.input());
  if (rng.below(3) == 0) nets.push_back(nl.constant(rng.below(2) != 0));

  std::vector<Net> dffs;
  const std::size_t nd = rng.below(4);  // declared up front for feedback
  for (std::size_t i = 0; i < nd; ++i) {
    const Net d = nl.dff();
    dffs.push_back(d);
    nets.push_back(d);
  }

  const std::size_t ng = 10 + rng.below(50);
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
  for (const Net d : dffs) {
    const Net dv = nets[rng.below(nets.size())];
    const Net en = rng.below(2) ? nets[rng.below(nets.size())] : kNoNet;
    nl.set_dff_input(d, dv, en);
  }
  // Observe a random handful of nets so output-protection paths get hit too.
  std::vector<Net> obs;
  for (int i = 0; i < 4; ++i) obs.push_back(nets[rng.below(nets.size())]);
  nl.add_output_bus("o", obs);
  nl.finalize();
  return nl;
}

}  // namespace

TEST(CompiledNetlist, RandomNetlistsMatchLegacyWalk) {
  Rng rng(0xC0DE);
  for (int iter = 0; iter < 300; ++iter) {
    const Netlist nl = random_netlist(rng);
    Simulator sim(nl);
    ReferenceSim ref(nl);

    std::vector<Net> ins;
    for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n)
      if (nl.gate(n).kind == GateKind::Input) ins.push_back(n);

    for (int cycle = 0; cycle < 6; ++cycle) {
      for (const Net in : ins) {
        const bool v = rng.below(2) != 0;
        sim.set_input(in, v);
        ref.vals[static_cast<std::size_t>(in)] = v ? 1 : 0;
      }
      sim.eval();
      ref.eval();
      for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n)
        ASSERT_EQ(sim.value(n), ref.v(n))
            << "iter=" << iter << " cycle=" << cycle << " net=" << n;
      sim.clock();
      ref.clock();
    }
  }
}

// ---------------------------------------------------------------------------
// Structural fault collapsing rules
// ---------------------------------------------------------------------------

TEST(FaultCollapse, AppliesStructuralEquivalenceRules) {
  Netlist nl;
  const Net i0 = nl.input(), i1 = nl.input();
  const Net z_and = nl.and_(i0, i1);   // i0 single-use; i1 fans out below
  const Net z_not = nl.not_(z_and);    // chains the class with inversion
  const Net z_or = nl.or_(z_not, i1);  // i1's second pin use
  const Net q = nl.dff(z_or);          // register boundary
  const Net z_buf = nl.buf(q);         // q is observed -> protected
  nl.add_output_bus("o", {q, z_buf});
  nl.finalize();
  const FaultCollapse col(nl);

  const auto same = [&](const StuckFault& a, const StuckFault& b) {
    return FaultCollapse::node(col.representative(a)) ==
           FaultCollapse::node(col.representative(b));
  };
  // And: input s-a-0 == output s-a-0; Not inverts; Or chains s-a-1. The whole
  // class is {i0 sa0, z_and sa0, z_not sa1, z_or sa1}.
  EXPECT_TRUE(same({i0, false}, {z_and, false}));
  EXPECT_TRUE(same({i0, false}, {z_not, true}));
  EXPECT_TRUE(same({i0, false}, {z_or, true}));
  EXPECT_FALSE(same({i0, true}, {z_and, true}));  // And merges only s-a-0
  // Fanout stem: i1 has two pin uses, so neither polarity merges.
  EXPECT_FALSE(same({i1, false}, {z_and, false}));
  EXPECT_FALSE(same({i1, true}, {z_or, true}));
  // DFF pins never merge (a stuck D input is the output fault shifted by a
  // cycle), and observed nets never merge into their consumer.
  EXPECT_FALSE(same({z_or, false}, {q, false}));
  EXPECT_FALSE(same({q, false}, {z_buf, false}));

  // The representative is the topologically deepest member of its class.
  EXPECT_EQ(col.representative({i0, false}).net, z_or);
  EXPECT_TRUE(col.representative({i0, false}).stuck_high);
  EXPECT_TRUE(col.is_representative({z_or, true}));
  EXPECT_FALSE(col.is_representative({i0, false}));

  EXPECT_EQ(col.fault_count(), 2 * nl.num_nets());  // no constant nets here
  EXPECT_LT(col.class_count(), col.fault_count());
}

}  // namespace
}  // namespace gpf::gate
