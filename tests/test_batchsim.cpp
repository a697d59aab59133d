// The bit-parallel (PPSFP) engine must be observationally equivalent to the
// brute-force scalar oracle at every compiled SIMD width: lane-for-lane identical
// FaultCharacterization (class, activation, hang, per-model error counts)
// for every fault on every unit over real profiled traces, including a
// ragged final batch (< lane-width faults) and both stuck-at polarities.
// Widths the build or CPU cannot run are skipped, never failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "gate/batchsim.hpp"
#include "gate/jit.hpp"
#include "gate/profiler.hpp"
#include "gate/replay.hpp"
#include "isa/encoding.hpp"
#include "obs/metrics.hpp"
#include "workloads/workload.hpp"

namespace gpf::gate {
namespace {

UnitTraces trace_of(const char* app, std::size_t max_issues = 500) {
  arch::Gpu gpu;
  UnitProfiler prof(max_issues);
  gpu.set_hooks(&prof);
  const workloads::Workload* w = workloads::find(app);
  w->setup(gpu);
  EXPECT_TRUE(w->run(gpu).ok);
  gpu.set_hooks(nullptr);
  return prof.take(app);
}

void expect_same(const FaultCharacterization& a, const FaultCharacterization& b,
                 const char* engines) {
  ASSERT_EQ(a.fault.net, b.fault.net) << engines;
  ASSERT_EQ(a.fault.stuck_high, b.fault.stuck_high) << engines;
  ASSERT_EQ(a.activated, b.activated)
      << engines << " net " << a.fault.net << " stuck" << a.fault.stuck_high;
  ASSERT_EQ(a.hang, b.hang)
      << engines << " net " << a.fault.net << " stuck" << a.fault.stuck_high;
  ASSERT_EQ(a.cls(), b.cls())
      << engines << " net " << a.fault.net << " stuck" << a.fault.stuck_high;
  for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
    ASSERT_EQ(a.error_counts[m], b.error_counts[m])
        << engines << " net " << a.fault.net << " stuck" << a.fault.stuck_high
        << " model " << errmodel::name_of(static_cast<errmodel::ErrorModel>(m));
}

/// The width matrix every test sweeps: the scalar baseline plus whichever
/// SIMD widths this build and CPU can actually run.
std::vector<std::size_t> supported_widths() {
  std::vector<std::size_t> widths;
  for (const std::size_t w : {std::size_t{64}, std::size_t{256}, std::size_t{512}})
    if (batch_width_supported(w)) widths.push_back(w);
  return widths;
}

/// Restores lane-width dispatch to "defer to environment" even when an
/// assertion aborts the test body early.
struct LaneGuard {
  ~LaneGuard() { set_batch_lanes_override(0); }
};

class BatchSimEquivalence : public ::testing::TestWithParam<UnitKind> {};

// Full-campaign equivalence over two real profiled traces at every supported
// lane width. 150 sampled faults force a ragged final batch at all widths
// (150 % 64 = 22; a 256/512-lane run gets one partially filled batch).
TEST_P(BatchSimEquivalence, CampaignMatchesBruteOracleAtEveryWidth) {
  const std::vector<UnitTraces> traces = {trace_of("p_tiled_mxm"),
                                          trace_of("p_sort")};
  constexpr std::size_t kFaults = 150;
  static_assert(kFaults % 64 != 0 && kFaults < 256,
                "sample must exercise a ragged final batch at every width");
  LaneGuard guard;

  const auto brute = run_unit_campaign(GetParam(), traces, kFaults, 42, nullptr,
                                       EngineKind::Brute);
  ASSERT_EQ(brute.faults.size(), kFaults);

  for (const std::size_t width : supported_widths()) {
    set_batch_lanes_override(width);
    const auto batch = run_unit_campaign(GetParam(), traces, kFaults, 42,
                                         nullptr, EngineKind::Batch);
    ASSERT_EQ(batch.faults.size(), kFaults) << "width " << width;

    // The sample must cover both stuck-at polarities.
    const auto high = [](const FaultCharacterization& f) {
      return f.fault.stuck_high;
    };
    EXPECT_TRUE(std::any_of(batch.faults.begin(), batch.faults.end(), high));
    EXPECT_TRUE(std::any_of(batch.faults.begin(), batch.faults.end(),
                            [&](const auto& f) { return !high(f); }));

    const std::string label = "width " + std::to_string(width);
    for (std::size_t i = 0; i < kFaults; ++i)
      expect_same(brute.faults[i], batch.faults[i],
                  ("brute-vs-batch @ " + label).c_str());
  }
}

// Direct run_fault_batch on a small ragged batch must equal per-fault
// run_fault lane for lane (at the dispatched width — the batch is far
// smaller than any width, so every width exercises the ragged path).
TEST_P(BatchSimEquivalence, RaggedBatchMatchesRunFault) {
  const UnitTraces t = trace_of("p_tiled_mxm");
  UnitReplayer replayer(GetParam());
  const auto golden = replayer.compute_goldens({&t, 1})[0];

  std::vector<StuckFault> all = full_fault_list(replayer.netlist());
  Rng rng(99);
  std::vector<StuckFault> sample;
  bool saw_high = false, saw_low = false;
  for (std::size_t i = 0; i < 10; ++i) {
    const StuckFault f = all[rng.below(all.size())];
    sample.push_back(f);
    (f.stuck_high ? saw_high : saw_low) = true;
  }
  // Guarantee both polarities in the batch.
  if (!saw_high) sample.back().stuck_high = true;
  if (!saw_low) sample.front().stuck_high = false;

  LaneGuard guard;
  for (const std::size_t width : supported_widths()) {
    set_batch_lanes_override(width);
    std::vector<FaultCharacterization> batch(sample.size());
    for (std::size_t k = 0; k < sample.size(); ++k) batch[k].fault = sample[k];
    const std::unique_ptr<BatchSim> sim = make_batch_sim(replayer.netlist());
    replayer.run_fault_batch(*sim, sample, t, golden, batch);

    for (std::size_t k = 0; k < sample.size(); ++k) {
      FaultCharacterization scalar;
      scalar.fault = sample[k];
      replayer.run_fault(sample[k], t, golden, scalar);
      expect_same(scalar, batch[k],
                  ("brute-vs-batch(lane) @ width " + std::to_string(width))
                      .c_str());
    }
  }
}

/// Restores the collapse/cone knobs to "defer to environment" even when an
/// assertion aborts the test body early.
struct KnobGuard {
  ~KnobGuard() {
    set_collapse_override(-1);
    set_cone_override(-1);
  }
};

// The classifier adds a WordDiffTable entry for a lane whose instruction
// word differs from golden in exactly one bit, and decodes every other
// lane's word. A WSC batch takes both paths: faults on single dispatch bits
// (use_imm among them) give one-bit diffs, and the instruction buffer's
// enable stuck at 0 freezes the buffered word, which the dispatch mux then
// sends in place of each new one. Every lane must equal the brute oracle,
// with the table and without it, at every width.
TEST(BatchSimWordDiff, SingleAndMultiBitWordDiffsMatchBruteOracle) {
  const UnitTraces t = trace_of("p_tiled_mxm");
  const UnitReplayer replayer(UnitKind::WSC);
  const Netlist& nl = replayer.netlist();
  const auto goldens = replayer.compute_goldens({&t, 1});
  const UnitReplayer::GoldenTrace& g = goldens[0];
  const WordDiffTable table = replayer.word_diff_table({&t, 1}, goldens);
  ASSERT_GT(table.keys(), 0u);

  const PortBus& dispatch = *nl.find_output("dispatch");
  const Net ibuf_en = nl.find_input("ibuf_en")->nets[0];
  const unsigned use_imm = isa::field::kFlagImm;
  // dispatch[b] = bufs(mux(ibuf_en, ibuf_q[b], ibuf_in[b])).
  std::vector<Net> ibuf_q;
  for (const Net out : dispatch.nets) {
    Net n = out;
    while (nl.gate(n).kind == GateKind::Buf) n = nl.gate(n).a;
    ASSERT_EQ(nl.gate(n).kind, GateKind::Mux);
    ibuf_q.push_back(nl.gate(n).b);
  }
  const auto word = [&](std::span<const Net> nets, std::size_t c) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < nets.size(); ++i)
      v |= std::uint64_t{g.row(c)[static_cast<std::size_t>(nets[i])]} << i;
    return v;
  };
  // The shapes this batch must produce, read off the golden trace. ibuf_en
  // stuck at 0 activates on its first cycle at 1 and keeps ibuf_q at that
  // cycle's value, which differs from a later dispatched word in two or
  // more bits. use_imm is issued both set and clear, so each polarity of a
  // stuck use_imm bit flips it.
  std::size_t first = g.cycles;
  for (std::size_t c = 0; c < g.cycles && first == g.cycles; ++c)
    if (g.row(c)[static_cast<std::size_t>(ibuf_en)]) first = c;
  ASSERT_LT(first, g.cycles);
  const std::uint64_t frozen = word(ibuf_q, first);
  bool multi = false, imm_set = false, imm_clear = false;
  for (std::size_t c = first; c < g.cycles; ++c) {
    if (!t.wsc[c].is_issue) continue;
    const std::uint64_t d = word(dispatch.nets, c);
    multi |= std::popcount(d ^ frozen) >= 2;
    ((d >> use_imm) & 1 ? imm_set : imm_clear) = true;
  }
  ASSERT_TRUE(multi && imm_set && imm_clear);

  std::vector<StuckFault> faults;
  for (const bool high : {false, true}) {
    faults.push_back({ibuf_en, high});
    for (const unsigned bit : {use_imm, 60u, 42u, 35u, 27u, 18u, 3u})
      faults.push_back({dispatch.nets[bit], high});
  }
  std::vector<FaultCharacterization> brute(faults.size());
  for (std::size_t k = 0; k < faults.size(); ++k) {
    brute[k].fault = faults[k];
    replayer.run_fault(faults[k], t, g, brute[k]);
  }
  // A flipped use_imm bit is an immediate-operand error.
  const auto iio = static_cast<unsigned>(errmodel::ErrorModel::IIO);
  EXPECT_GT(brute[1].error_counts[iio], 0u);
  EXPECT_GT(brute[faults.size() / 2 + 1].error_counts[iio], 0u);

  LaneGuard guard;
  obs::Counter& table_lanes = obs::counter("gate.classify_table_lanes");
  for (const std::size_t width : supported_widths()) {
    set_batch_lanes_override(width);
    for (const WordDiffTable* words :
         {&table, static_cast<const WordDiffTable*>(nullptr)}) {
      std::vector<FaultCharacterization> batch(faults.size());
      for (std::size_t k = 0; k < faults.size(); ++k)
        batch[k].fault = faults[k];
      const std::uint64_t before = table_lanes.value();
      const std::unique_ptr<BatchSim> sim = make_batch_sim(nl);
      replayer.run_fault_batch(*sim, faults, t, g, batch, words);
      if (obs::enabled()) {
        if (words)
          EXPECT_GT(table_lanes.value(), before);
        else
          EXPECT_EQ(table_lanes.value(), before);
      }
      const std::string label = "width " + std::to_string(width) +
                                (words ? " table" : " decode");
      for (std::size_t k = 0; k < faults.size(); ++k)
        expect_same(brute[k], batch[k], label.c_str());
    }
  }
}

// bus_diff_split's contract, lane by lane against the scalar Simulator: a
// lane whose bus value differs from golden in exactly one bit is in that
// bit's single-bit group and nowhere else; a lane differing in two or more
// is in `multi` with its value in out[k]. Stuck-ats on s and t flip two and
// three bus bits at once; one on an xor or buffer flips one.
TEST(BatchSimWordDiff, BusDiffSplitSeparatesOneBitLanes) {
  Netlist nl;
  std::vector<Net> a;
  for (int i = 0; i < 6; ++i) a.push_back(nl.input());
  const Net s = nl.input(), t = nl.input();
  const std::vector<Net> o = {nl.xor_(a[0], s), nl.xor_(a[1], s),
                              nl.xor_(a[2], t), nl.xor_(a[3], t),
                              nl.xnor_(a[4], t), nl.buf(a[5])};
  nl.add_output_bus("o", o);
  nl.finalize();
  const PortBus& bus = nl.outputs()[0];
  std::vector<Net> inputs = a;
  inputs.push_back(s);
  inputs.push_back(t);
  std::vector<StuckFault> faults;
  for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n)
    for (const bool high : {false, true}) faults.push_back({n, high});

  Rng rng(0xB175);
  for (const std::size_t width : supported_widths()) {
    for (int pattern = 0; pattern < 8; ++pattern) {
      std::vector<std::uint8_t> drive;
      for (std::size_t i = 0; i < inputs.size(); ++i)
        drive.push_back(static_cast<std::uint8_t>(rng.below(2)));
      const auto run = [&](Simulator& sim) {
        for (std::size_t i = 0; i < inputs.size(); ++i)
          sim.set_input(inputs[i], drive[i] != 0);
        sim.eval();
        return sim.bus_value(bus);
      };
      Simulator golden(nl);
      const std::uint64_t gv = run(golden);
      std::vector<std::uint64_t> row((nl.num_nets() + 63) / 64, 0);
      for (std::size_t n = 0; n < nl.num_nets(); ++n)
        row[n / 64] |= std::uint64_t{golden.values()[n]} << (n % 64);

      const std::unique_ptr<BatchSim> sim = make_batch_sim(nl, width);
      sim->set_observed(bus.nets);
      sim->begin(faults);
      for (std::size_t i = 0; i < inputs.size(); ++i)
        sim->set_bus(PortBus{"i", {inputs[i]}}, drive[i]);
      sim->eval();
      std::array<LaneMask, 64> single;
      std::array<std::uint64_t, LaneMask::kMaxLanes> out{};
      const BatchSim::BusDiffSplit split = sim->bus_diff_split(
          bus, GoldenRow{row.data()}, sim->lane_mask(), gv, single, out);

      bool saw[4] = {};  // lanes differing in 0, 1, 2, 3+ bits
      for (std::size_t k = 0; k < faults.size(); ++k) {
        Simulator one(nl);
        one.set_fault(faults[k]);
        const std::uint64_t fv = run(one);
        const int bits = std::popcount(fv ^ gv);
        saw[std::min(bits, 3)] = true;
        const auto lane = static_cast<unsigned>(k);
        const std::string at = "width " + std::to_string(width) + " net " +
                               std::to_string(faults[k].net) + " stuck " +
                               std::to_string(faults[k].stuck_high);
        EXPECT_EQ(split.multi.test(lane), bits >= 2) << at;
        if (bits >= 2) {
          EXPECT_EQ(out[k], fv) << at;
        }
        for (unsigned b = 0; b < bus.nets.size(); ++b) {
          const bool in_group =
              ((split.single_bits >> b) & 1) && single[b].test(lane);
          EXPECT_EQ(in_group, bits == 1 && fv == (gv ^ (std::uint64_t{1} << b)))
              << at << " bit " << b;
        }
      }
      EXPECT_TRUE(saw[1] && saw[2] && saw[3]) << "pattern " << pattern;
      // Fewer groups than bus bits is refused, not overrun.
      EXPECT_THROW(sim->bus_diff_split(bus, GoldenRow{row.data()},
                                       sim->lane_mask(), gv,
                                       std::span(single).first(2), out),
                   std::invalid_argument);
    }
  }
}

/// A gate soup whose DFFs share a few enable nets (one of them always
/// enabled): enables drawn from inputs, gates and DFF outputs, DFFs fed by
/// other DFFs directly, and at least one enable group of two or more DFFs.
Netlist enable_group_netlist(Rng& rng) {
  Netlist nl;
  std::vector<Net> nets;
  const std::size_t ni = 2 + rng.below(4);
  for (std::size_t i = 0; i < ni; ++i) nets.push_back(nl.input());
  std::vector<Net> dffs;
  const std::size_t nd = 4 + rng.below(9);
  for (std::size_t i = 0; i < nd; ++i) {
    dffs.push_back(nl.dff());
    nets.push_back(dffs.back());
  }
  const std::size_t ng = 8 + rng.below(30);
  for (std::size_t i = 0; i < ng; ++i) {
    const auto pick = [&] { return nets[rng.below(nets.size())]; };
    switch (rng.below(5)) {
      case 0: nets.push_back(nl.and_(pick(), pick())); break;
      case 1: nets.push_back(nl.or_(pick(), pick())); break;
      case 2: nets.push_back(nl.xor_(pick(), pick())); break;
      case 3: nets.push_back(nl.not_(pick())); break;
      default: nets.push_back(nl.mux(pick(), pick(), pick())); break;
    }
  }
  std::vector<Net> enables = {kNoNet};
  const std::size_t ne = 1 + rng.below(3);
  for (std::size_t i = 0; i < ne; ++i)
    enables.push_back(nets[rng.below(nets.size())]);
  for (std::size_t i = 0; i < nd; ++i) {
    // DFF 1 always reads DFF 0, then a third of the rest read some DFF.
    const Net d = i == 1 || rng.below(3) == 0 ? dffs[i == 1 ? 0 : rng.below(nd)]
                                              : nets[rng.below(nets.size())];
    // DFFs 0 and 1 share an enable net, so some group has two members.
    const Net en = i == 1 ? nl.gate(dffs[0]).b
                          : enables[1 + rng.below(enables.size() - 1)];
    nl.set_dff_input(dffs[i], d, rng.below(4) == 0 && i > 1 ? kNoNet : en);
  }
  std::vector<Net> out;
  for (int i = 0; i < 4; ++i) out.push_back(nets[rng.below(nets.size())]);
  nl.add_output_bus("o", out);
  nl.finalize();
  return nl;
}

// Enable-grouped latching is exact: a group is skipped only when its enable
// is 0 in every lane, and a faulted enable (or D, or DFF output) in one lane
// must still latch that lane. Every fault of random shared-enable netlists,
// lane for lane against the scalar Simulator on every cycle, at every width,
// with plain eval (full latching) and with eval_cone (cone-restricted
// latching, golden values from a fault-free Simulator).
TEST(BatchSimLatch, SharedEnableNetlistsMatchSimulatorWithConeOnAndOff) {
  KnobGuard knobs;
  obs::Counter& groups = obs::counter("gate.latch_groups");
  obs::Counter& skipped = obs::counter("gate.latch_groups_skipped");
  const std::uint64_t groups0 = groups.value(), skipped0 = skipped.value();
  Rng rng(0xE7AB1E);
  constexpr int kCycles = 6;
  for (int iter = 0; iter < 40; ++iter) {
    const Netlist nl = enable_group_netlist(rng);
    std::vector<Net> inputs, probe = nl.outputs()[0].nets;
    for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n)
      if (nl.gate(n).kind == GateKind::Input) inputs.push_back(n);
    for (const Net d : nl.dffs()) probe.push_back(d);
    std::vector<StuckFault> all;
    for (Net n = 0; n < static_cast<Net>(nl.num_nets()); ++n)
      for (const bool high : {false, true}) all.push_back({n, high});

    // One input drive per cycle, and the fault-free rows eval_cone reads.
    std::vector<std::vector<std::uint8_t>> drive(kCycles);
    std::vector<std::vector<std::uint64_t>> rows(kCycles);
    Simulator golden(nl);
    for (int c = 0; c < kCycles; ++c) {
      for (const Net n : inputs) {
        drive[c].push_back(static_cast<std::uint8_t>(rng.below(2)));
        golden.set_input(n, drive[c].back() != 0);
      }
      golden.eval();
      rows[c].assign((nl.num_nets() + 63) / 64, 0);
      for (std::size_t n = 0; n < nl.num_nets(); ++n)
        rows[c][n / 64] |= std::uint64_t{golden.values()[n]} << (n % 64);
      golden.clock();
    }
    std::vector<std::uint8_t> want;  // [cycle][probe net][fault]
    for (const StuckFault& f : all) {
      Simulator sim(nl);
      sim.set_fault(f);
      for (int c = 0; c < kCycles; ++c) {
        for (std::size_t i = 0; i < inputs.size(); ++i)
          sim.set_input(inputs[i], drive[c][i] != 0);
        sim.eval();
        for (const Net n : probe) want.push_back(sim.value(n) ? 1 : 0);
        sim.clock();
      }
    }
    const std::size_t per_fault = kCycles * probe.size();

    for (const std::size_t width : supported_widths()) {
      for (const int cone : {0, 1}) {
        set_cone_override(cone);
        for (std::size_t base = 0; base < all.size(); base += width) {
          const std::size_t count = std::min(width, all.size() - base);
          const std::unique_ptr<BatchSim> sim = make_batch_sim(nl, width);
          sim->set_observed(probe);
          sim->begin(std::span(all).subspan(base, count));
          for (int c = 0; c < kCycles; ++c) {
            for (std::size_t i = 0; i < inputs.size(); ++i)
              sim->set_bus(PortBus{"i", {inputs[i]}}, drive[c][i]);
            if (cone)
              sim->eval_cone(GoldenRow{rows[c].data()});
            else
              sim->eval();
            for (std::size_t k = 0; k < count; ++k)
              for (std::size_t p = 0; p < probe.size(); ++p)
                ASSERT_EQ(
                    sim->value(probe[p], static_cast<unsigned>(k)),
                    want[(base + k) * per_fault + c * probe.size() + p] != 0)
                    << "iter " << iter << " width " << width << " cone "
                    << cone << " cycle " << c << " net " << probe[p]
                    << " fault net " << all[base + k].net << " stuck "
                    << all[base + k].stuck_high;
            sim->clock();
          }
        }
      }
    }
  }
  // Both latch paths ran: some groups latched, some were skipped.
  if (obs::enabled()) {
    EXPECT_GT(skipped.value(), skipped0);
    EXPECT_GT(groups.value() - groups0, skipped.value() - skipped0);
  }
}

// Fault collapsing and cone pruning are pure optimizations: every
// (GPF_COLLAPSE, GPF_CONE, engine) combination must produce the identical
// characterization for every fault as the knobs-off brute-force reference.
// The batch engine runs at the dispatched width here; the width matrix above
// covers per-width equivalence.
TEST_P(BatchSimEquivalence, KnobMatrixClassifiesIdentically) {
  const std::vector<UnitTraces> traces = {trace_of("p_tiled_mxm", 300),
                                          trace_of("p_sort", 300)};
  constexpr std::size_t kFaults = 130;
  static_assert(kFaults % 64 != 0 && kFaults < 256,
                "sample must exercise a ragged final batch at every width");
  KnobGuard guard;

  set_collapse_override(0);
  set_cone_override(0);
  const auto reference = run_unit_campaign(GetParam(), traces, kFaults, 42,
                                           nullptr, EngineKind::Brute);
  ASSERT_EQ(reference.faults.size(), kFaults);

  for (const int collapse : {0, 1}) {
    for (const int cone : {0, 1}) {
      for (const EngineKind e : {EngineKind::Brute, EngineKind::Batch}) {
        if (collapse == 0 && cone == 0 && e == EngineKind::Brute)
          continue;  // the reference itself
        set_collapse_override(collapse);
        set_cone_override(cone);
        const auto res =
            run_unit_campaign(GetParam(), traces, kFaults, 42, nullptr, e);
        const std::string label = std::string("collapse=") +
                                  std::to_string(collapse) +
                                  " cone=" + std::to_string(cone) +
                                  " engine=" + engine_name(e) + " vs reference";
        ASSERT_EQ(res.faults.size(), reference.faults.size()) << label;
        for (std::size_t i = 0; i < kFaults; ++i)
          expect_same(reference.faults[i], res.faults[i], label.c_str());
      }
    }
  }
}

// The gate-program engines are pure optimizations too: the optimized
// streams with fusion on/off and the JIT'd native code must all characterize
// every fault exactly like the brute oracle. JIT rows are skipped (not
// failed) when the container has no C++ compiler.
TEST_P(BatchSimEquivalence, EngineKnobMatrixClassifiesIdentically) {
  const std::vector<UnitTraces> traces = {trace_of("p_tiled_mxm", 250)};
  constexpr std::size_t kFaults = 130;
  KnobGuard guard;
  struct EngineGuard {
    ~EngineGuard() {
      set_fuse_override(-1);
      set_jit_override(-1);
      set_jit_cache_dir_override("");
      jit_reset_for_tests();
    }
  } engine_guard;
  const std::string jit_dir = ::testing::TempDir() + "gpf-jit-knobmatrix";
  set_jit_cache_dir_override(jit_dir);

  const auto reference = run_unit_campaign(GetParam(), traces, kFaults, 42,
                                           nullptr, EngineKind::Brute);
  ASSERT_EQ(reference.faults.size(), kFaults);

  for (const int fuse : {0, 1}) {
    for (const int jit : {0, 1}) {
      if (jit == 1 && !jit_compiler_available()) continue;
      set_fuse_override(fuse);
      set_jit_override(jit);
      jit_reset_for_tests();
      const auto res = run_unit_campaign(GetParam(), traces, kFaults, 42,
                                         nullptr, EngineKind::Batch);
      const std::string label = std::string("fuse=") + std::to_string(fuse) +
                                " jit=" + std::to_string(jit) + " vs brute";
      ASSERT_EQ(res.faults.size(), reference.faults.size()) << label;
      for (std::size_t i = 0; i < kFaults; ++i)
        expect_same(reference.faults[i], res.faults[i], label.c_str());
    }
  }
  std::filesystem::remove_all(jit_dir);
}

INSTANTIATE_TEST_SUITE_P(Units, BatchSimEquivalence,
                         ::testing::Values(UnitKind::Decoder, UnitKind::Fetch,
                                           UnitKind::WSC),
                         [](const auto& info) {
                           return std::string(unit_name(info.param));
                         });

// The dispatch layer: every compiled width reports a path name, the widest
// supported width wins by default, and pinning an unsupported width throws
// instead of silently running the wrong engine.
TEST(BatchSimDispatch, WidthDispatchIsSaneAndPinnable) {
  ASSERT_TRUE(batch_width_supported(64));
  EXPECT_FALSE(batch_width_supported(128));
  EXPECT_FALSE(batch_width_supported(0));
  EXPECT_STREQ(batch_simd_path(64), "scalar64");
  EXPECT_STREQ(batch_simd_path(256), "avx2x256");
  EXPECT_STREQ(batch_simd_path(512), "avx512x512");

  const std::size_t dispatched = batch_lane_width();
  EXPECT_TRUE(batch_width_supported(dispatched));

  LaneGuard guard;
  for (const std::size_t w : supported_widths()) {
    set_batch_lanes_override(w);
    EXPECT_EQ(batch_lane_width(), w);
  }
  if (!batch_width_supported(512)) {
    EXPECT_THROW(set_batch_lanes_override(512), std::invalid_argument);
  }
  EXPECT_THROW(set_batch_lanes_override(128), std::invalid_argument);
}

TEST(BatchFaultSimUnit, WordEvalMatchesScalarOnToyNetlist) {
  // Tiny mixed netlist: every gate kind the units use, one DFF.
  Netlist nl;
  const Net a = nl.input();
  const Net b = nl.input();
  const Net x1 = nl.xor_(a, b);
  const Net n1 = nl.nand_(a, x1);
  const Net m = nl.mux(b, x1, n1);
  const Net q = nl.dff(m);
  const Net o = nl.or_(q, nl.not_(a));
  nl.add_output_bus("o", {o});
  nl.finalize();

  std::vector<StuckFault> faults;
  for (Net n : {a, b, x1, n1, m, q, o}) {
    faults.push_back({n, false});
    faults.push_back({n, true});
  }

  for (const std::size_t width : supported_widths()) {
    for (int av = 0; av < 2; ++av) {
      for (int bv = 0; bv < 2; ++bv) {
        const std::unique_ptr<BatchSim> bsim = make_batch_sim(nl, width);
        ASSERT_EQ(bsim->width(), width);
        // This test probes value() on interior nets, so declare them as read:
        // the optimized engine only keeps declared (and output/DFF) nets
        // positionally exact.
        const std::vector<Net> probe{a, b, x1, n1, m, q, o};
        bsim->set_observed(probe);
        bsim->begin(faults);
        std::vector<Simulator> ssims;
        for (const StuckFault& f : faults) {
          ssims.emplace_back(nl);
          ssims.back().set_fault(f);
        }
        for (int cycle = 0; cycle < 3; ++cycle) {
          for (std::size_t k = 0; k < faults.size(); ++k) {
            ssims[k].set_input(a, av != 0);
            ssims[k].set_input(b, bv != 0);
            ssims[k].eval();
          }
          const PortBus in_a{"a", {a}}, in_b{"b", {b}};
          bsim->set_bus(in_a, static_cast<std::uint64_t>(av));
          bsim->set_bus(in_b, static_cast<std::uint64_t>(bv));
          bsim->eval();
          for (std::size_t k = 0; k < faults.size(); ++k)
            for (Net n : {a, b, x1, n1, m, q, o})
              ASSERT_EQ(bsim->value(n, static_cast<unsigned>(k)),
                        ssims[k].value(n))
                  << "width=" << width << " a=" << av << " b=" << bv
                  << " cycle=" << cycle << " lane=" << k << " net=" << n;
          for (auto& s : ssims) s.clock();
          bsim->clock();
        }
      }
    }
  }
}

}  // namespace
}  // namespace gpf::gate
